#include "core/topology.hh"

#include <algorithm>
#include <set>

namespace accesys::core {

namespace {

/// Region bases for auto-carved placements. Device 0's defaults (from
/// MatrixFlowParams / SystemConfig) sit exactly at these bases, so the
/// single-device address map is unchanged.
constexpr Addr kBarRegionBase = 0x100000000000ULL;
constexpr Addr kDevmemRegionBase = 0x200000000000ULL;
constexpr Addr kStagingRegionBase = 0x700000000000ULL;

constexpr std::uint64_t kBarAlign = 64 * kKiB;
constexpr std::uint64_t kDevmemAlign = kGiB;
constexpr std::uint64_t kStagingAlign = kMiB;

/// Earliest aligned base at or after `cursor` where `size` bytes fit clear
/// of every range in `taken`; claims and returns it.
Addr carve(std::vector<mem::AddrRange>& taken, Addr cursor,
           std::uint64_t size, std::uint64_t align)
{
    Addr base = align_up(cursor, align);
    for (bool moved = true; moved;) {
        moved = false;
        const auto cand = mem::AddrRange::with_size(base, size);
        for (const mem::AddrRange& r : taken) {
            if (cand.overlaps(r)) {
                base = align_up(r.end(), align);
                moved = true;
                break;
            }
        }
    }
    taken.push_back(mem::AddrRange::with_size(base, size));
    return base;
}

std::string index_suffix(std::size_t i)
{
    return i == 0 ? std::string() : std::to_string(i);
}

} // namespace

ResolvedTopology TopologyBuilder::resolve(const SystemConfig& cfg)
{
    ResolvedTopology topo;
    topo.switches = cfg.resolved_switch_tree();
    const std::vector<DeviceConfig> devs = cfg.resolved_devices();

    for (std::size_t i = 1; i < topo.switches.size(); ++i) {
        require_cfg(topo.switches[i].parent < i,
                    "switch tree must be declared in topological order");
    }

    // --- names and PCIe requester ids ---------------------------------------
    std::set<std::string> names;
    std::set<std::uint16_t> ids;
    for (const DeviceConfig& dev : devs) {
        if (dev.accel.ep.device_id != 0) {
            require_cfg(ids.insert(dev.accel.ep.device_id).second,
                        "duplicate PCIe requester id ",
                        dev.accel.ep.device_id);
        }
    }

    std::uint16_t next_id = 1;
    std::vector<mem::AddrRange> taken;
    Addr bar_cursor = kBarRegionBase;
    Addr devmem_cursor = kDevmemRegionBase;
    Addr staging_cursor = kStagingRegionBase;

    // Explicitly placed ranges are claimed first so auto-carving steers
    // around them regardless of declaration order.
    for (const DeviceConfig& dev : devs) {
        if (dev.accel.bar0_base != 0) {
            taken.push_back(mem::AddrRange::with_size(dev.accel.bar0_base,
                                                      dev.accel.bar0_size));
        }
        if (dev.enable_devmem && dev.devmem_base != 0) {
            taken.push_back(mem::AddrRange::with_size(dev.devmem_base,
                                                      dev.devmem_bytes));
        }
        if (dev.accel.local_base != 0) {
            taken.push_back(mem::AddrRange::with_size(
                dev.accel.local_base, dev.accel.local_buffer_bytes));
        }
    }
    mem::check_disjoint(taken);

    topo.devices.reserve(devs.size());
    for (std::size_t i = 0; i < devs.size(); ++i) {
        const DeviceConfig& dev = devs[i];
        ResolvedDevice r;
        r.name = dev.name.empty() ? "mf" + index_suffix(i) : dev.name;
        require_cfg(names.insert(r.name).second, "duplicate device name '",
                    r.name, "'");
        r.accel = dev.accel;
        r.attach_to = dev.attach_to;
        require_cfg(r.attach_to < topo.switches.size(), "device '", r.name,
                    "' attaches to a switch outside the tree");
        r.link = dev.link.value_or(cfg.pcie);
        r.link.validate();

        if (r.accel.ep.device_id == 0) {
            while (ids.count(next_id) != 0) {
                require_cfg(next_id != 0xFFFF, "PCIe requester ids exhausted");
                ++next_id;
            }
            r.accel.ep.device_id = next_id;
            ids.insert(next_id);
        }
        r.stream_id = dev.stream_id != 0 ? dev.stream_id
                                         : r.accel.ep.device_id;

        if (r.accel.bar0_base == 0) {
            r.accel.bar0_base =
                carve(taken, bar_cursor, r.accel.bar0_size, kBarAlign);
            bar_cursor = r.accel.bar0_base + r.accel.bar0_size;
        }
        if (r.accel.local_base == 0) {
            r.accel.local_base = carve(taken, staging_cursor,
                                       r.accel.local_buffer_bytes,
                                       kStagingAlign);
            staging_cursor = r.accel.local_base + r.accel.local_buffer_bytes;
        }

        r.devmem_enabled = dev.enable_devmem;
        if (dev.enable_devmem) {
            Addr base = dev.devmem_base;
            if (base == 0) {
                base = carve(taken, devmem_cursor, dev.devmem_bytes,
                             kDevmemAlign);
                devmem_cursor = base + dev.devmem_bytes;
            }
            r.devmem = mem::AddrRange::with_size(base, dev.devmem_bytes);
            r.devmem_simple = dev.devmem_simple;
            r.devmem_mem = dev.devmem_mem;
            r.devmem_simple_mem = dev.devmem_simple_mem;
            r.devmem_xbar = dev.devmem_xbar;
        }
        topo.devices.push_back(std::move(r));
    }

    // --- CPU-visible PCIe window --------------------------------------------
    Addr lo = topo.devices.front().accel.bar0_base;
    Addr hi = 0;
    for (const ResolvedDevice& dev : topo.devices) {
        for (const mem::AddrRange& bar : dev.bars()) {
            lo = std::min(lo, bar.start());
            hi = std::max(hi, bar.end());
        }
        require_cfg(dev.accel.local_base >= cfg.host_dram_bytes,
                    "device '", dev.name,
                    "' staging space overlaps host DRAM");
    }
    topo.pcie_window = mem::AddrRange(lo, hi);
    require_cfg(topo.pcie_window.start() >= cfg.host_dram_bytes,
                "the PCIe window must not overlap host DRAM");
    return topo;
}

Topology TopologyBuilder::build(Simulator& sim, mem::BackingStore& store,
                                const SystemConfig& cfg,
                                pcie::RootComplex& rc)
{
    const ResolvedTopology plan = resolve(cfg);
    const mem::AddrRange host(0, cfg.host_dram_bytes);

    Topology topo;
    topo.pcie_window = plan.pcie_window;

    // Union of BARs / requester ids per nested-switch subtree, so every
    // parent switch can route memory TLPs and completions down the tree.
    std::vector<std::vector<mem::AddrRange>> subtree_bars(
        plan.switches.size());
    std::vector<std::vector<std::uint16_t>> subtree_ids(plan.switches.size());
    for (const ResolvedDevice& dev : plan.devices) {
        for (std::size_t s = dev.attach_to; s != 0;
             s = plan.switches[s].parent) {
            const auto bars = dev.bars();
            subtree_bars[s].insert(subtree_bars[s].end(), bars.begin(),
                                   bars.end());
            subtree_ids[s].push_back(dev.requester_id());
        }
    }

    // --- switch tree ---------------------------------------------------------
    for (std::size_t i = 0; i < plan.switches.size(); ++i) {
        topo.switches.push_back(std::make_unique<pcie::PcieSwitch>(
            sim, "pcie_sw" + index_suffix(i), plan.switches[i].params));
        const std::string link_name =
            i == 0 ? "link_up" : "pcie_sw" + std::to_string(i) + "_up";
        topo.uplinks.push_back(std::make_unique<pcie::PcieLink>(
            sim, link_name, plan.switches[i].uplink));
    }
    rc.connect_pcie(topo.uplinks[0]->end_a());
    topo.switches[0]->set_upstream(topo.uplinks[0]->end_b());
    for (std::size_t i = 1; i < plan.switches.size(); ++i) {
        require_cfg(!subtree_ids[i].empty(), "switch ", i,
                    " has no endpoints below it");
        topo.switches[plan.switches[i].parent]->add_downstream(
            topo.uplinks[i]->end_a(), subtree_bars[i], subtree_ids[i]);
        topo.switches[i]->set_upstream(topo.uplinks[i]->end_b());
    }

    // --- endpoints + per-device device memory --------------------------------
    for (std::size_t i = 0; i < plan.devices.size(); ++i) {
        const ResolvedDevice& dev = plan.devices[i];
        DeviceInstance inst;
        inst.name = dev.name;
        inst.stream_id = dev.stream_id;
        inst.attach_to = dev.attach_to;

        inst.link = std::make_unique<pcie::PcieLink>(
            sim, "link_dn" + index_suffix(i), dev.link);
        inst.device = std::make_unique<accel::MatrixFlowDevice>(
            sim, dev.name, dev.accel, store, host);
        topo.switches[dev.attach_to]->add_downstream(
            inst.link->end_a(), dev.bars(), dev.requester_id());
        inst.device->connect_pcie(inst.link->end_b());

        if (dev.devmem_enabled) {
            inst.devmem = dev.devmem;
            inst.devmem_alloc = BumpAllocator(
                dev.name + " device memory", dev.devmem.start(),
                dev.devmem.end());
            inst.devmem_xbar = std::make_unique<mem::Xbar>(
                sim, "devmem_xbar" + index_suffix(i), dev.devmem_xbar);
            const std::string mem_name = "devmem" + index_suffix(i);
            if (dev.devmem_simple) {
                inst.devmem_simple = std::make_unique<mem::SimpleMem>(
                    sim, mem_name, dev.devmem_simple_mem, dev.devmem);
                inst.devmem_xbar->add_downstream("mem_side", dev.devmem)
                    .bind(inst.devmem_simple->port());
            } else {
                inst.devmem_ctrl = std::make_unique<mem::MemCtrl>(
                    sim, mem_name, dev.devmem_mem, dev.devmem);
                inst.devmem_xbar->add_downstream("mem_side", dev.devmem)
                    .bind(inst.devmem_ctrl->port());
            }
            mem::ResponsePort& mover_up =
                inst.devmem_xbar->add_upstream("mover");
            mem::ResponsePort& aperture_up =
                inst.devmem_xbar->add_upstream("aperture");
            inst.device->attach_devmem(dev.devmem, mover_up, aperture_up);
        }
        topo.devices.push_back(std::move(inst));
    }
    return topo;
}

} // namespace accesys::core
