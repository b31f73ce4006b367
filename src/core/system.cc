#include "core/system.hh"

#include <cstring>

#include "sim/serialize.hh"

namespace accesys::core {

namespace {

/// Host-memory carve-outs: workload data grows from 16 MiB; the page-table
/// arena occupies the top 128 MiB.
constexpr Addr kDataBase = 16 * kMiB;
constexpr std::uint64_t kPtArenaBytes = 128 * kMiB;

std::uint64_t dbits(double v) noexcept
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

std::uint64_t mix_str(std::uint64_t h, const std::string& s) noexcept
{
    h = fnv1a64(h, s.size());
    for (const char c : s) {
        h = fnv1a64(h, static_cast<std::uint8_t>(c));
    }
    return h;
}

std::uint64_t mix_link(std::uint64_t h, const pcie::LinkParams& l) noexcept
{
    h = fnv1a64(h, l.lanes);
    h = fnv1a64(h, dbits(l.lane_gbps));
    h = fnv1a64(h, static_cast<std::uint64_t>(l.gen));
    h = fnv1a64(h, dbits(l.propagation_delay_ns));
    h = fnv1a64(h, l.tlp_overhead_bytes);
    h = fnv1a64(h, l.hdr_credits);
    h = fnv1a64(h, l.data_credit_bytes);
    return h;
}

/// Curated FNV-1a hash of everything a checkpoint's validity depends on:
/// topology shape, address map, timing-relevant knobs and the fault plan.
/// `threads` is excluded: it is accepted and ignored.
std::uint64_t config_hash(const SystemConfig& cfg)
{
    std::uint64_t h = kFnvBasis;
    h = fnv1a64(h, cfg.host_dram_bytes);
    h = fnv1a64(h, static_cast<std::uint64_t>(cfg.access_mode));
    h = fnv1a64(h, dbits(cfg.cpu.freq_ghz));
    h = fnv1a64(h, cfg.cpu.mem_window);
    h = fnv1a64(h, cfg.cpu.line_bytes);
    h = fnv1a64(h, cfg.cpu.max_polls_per_op);
    h = fnv1a64(h, dbits(cfg.rc.latency_ns));
    h = fnv1a64(h, cfg.rc.host_split_bytes);
    h = fnv1a64(h, cfg.rc.max_payload_bytes);
    h = fnv1a64(h, cfg.rc.max_inbound_reads);
    h = fnv1a64(h, cfg.rc.mmio_tags);
    h = fnv1a64(h, cfg.smmu.enabled ? 1 : 0);
    h = mix_link(h, cfg.pcie);

    const auto switches = cfg.resolved_switch_tree();
    h = fnv1a64(h, switches.size());
    for (const SwitchConfig& sw : switches) {
        h = fnv1a64(h, sw.parent);
        h = fnv1a64(h, dbits(sw.params.latency_ns));
        h = mix_link(h, sw.uplink);
    }

    const auto devices = cfg.resolved_devices();
    h = fnv1a64(h, devices.size());
    for (const DeviceConfig& dev : devices) {
        h = mix_str(h, dev.name);
        h = fnv1a64(h, dev.stream_id);
        h = fnv1a64(h, dev.attach_to);
        h = fnv1a64(h, dev.accel.ep.device_id);
        h = fnv1a64(h, dev.accel.bar0_base);
        h = fnv1a64(h, dev.accel.bar0_size);
        h = fnv1a64(h, dev.accel.local_base);
        h = fnv1a64(h, dev.accel.local_buffer_bytes);
        h = fnv1a64(h, dev.accel.max_block_cols);
        h = fnv1a64(h, dev.accel.cmd_fifo_depth);
        h = fnv1a64(h, dev.accel.dma.channels);
        h = fnv1a64(h, dev.accel.dma.request_bytes);
        h = fnv1a64(h, dev.accel.dma.write_bytes);
        h = fnv1a64(h, dev.accel.dma.window_bytes);
        h = fnv1a64(h, dev.accel.dma.max_tags);
        if (dev.link) {
            h = mix_link(h, *dev.link);
        }
        h = fnv1a64(h, dev.enable_devmem ? 1 : 0);
        h = fnv1a64(h, dev.devmem_base);
        h = fnv1a64(h, dev.enable_devmem ? dev.devmem_bytes : 0);
    }

    const FaultPlan& fp = cfg.fault_plan;
    h = fnv1a64(h, fp.active() ? 1 : 0);
    if (fp.active()) {
        h = fnv1a64(h, fp.seed);
        h = fnv1a64(h, dbits(fp.corrupt_rate));
        h = mix_str(h, fp.corrupt_site);
        h = fnv1a64(h, fp.events.size());
        for (const FaultEvent& ev : fp.events) {
            h = fnv1a64(h, static_cast<std::uint64_t>(ev.kind));
            h = mix_str(h, ev.site);
            h = fnv1a64(h, ev.dir);
            h = fnv1a64(h, dbits(ev.at_ns));
            h = fnv1a64(h, dbits(ev.duration_ns));
        }
        h = fnv1a64(h, fp.replay_buffer_tlps);
        h = fnv1a64(h, fp.max_replays);
        h = fnv1a64(h, dbits(fp.replay_timeout_ns));
        h = fnv1a64(h, dbits(fp.completion_timeout_ns));
        h = fnv1a64(h, fp.completion_max_retries);
        h = fnv1a64(h, dbits(fp.job_timeout_ns));
        h = fnv1a64(h, dbits(fp.hang_rate));
        h = mix_str(h, fp.hang_site);
        h = fnv1a64(h, dbits(fp.poison_rate));
        h = mix_str(h, fp.poison_site);
        h = fnv1a64(h, dbits(fp.smmu_fault_rate));
        h = fnv1a64(h, dbits(fp.flr_ns));
        h = fnv1a64(h, fp.job_max_attempts);
        h = fnv1a64(h, fp.fleet_retry_budget);
        h = fnv1a64(h, fp.quarantine_failures);
        h = fnv1a64(h, fp.rehab_successes);
    }
    return h;
}

} // namespace

System::System(const SystemConfig& cfg) : cfg_(cfg)
{
    cfg_.validate();
    build();
}

System::~System() = default;

DeviceInstance& System::device(std::size_t idx)
{
    ensure(idx < topo_.devices.size(), "device index ", idx,
           " out of range (", topo_.devices.size(), " endpoints)");
    return topo_.devices[idx];
}

void System::build()
{
    // Requestor ids must depend only on construction order so serialized
    // in-flight packets keep matching their originating components after
    // a restore in a process that already built other Systems.
    mem::reset_requestor_ids();

    // The fault injector must exist before any component constructs:
    // fault-aware components (links, DMA engines, the RC, the CPU) probe
    // sim().fault_injector() exactly once, in their constructors, to decide
    // whether to allocate fault state and register fault stats. An inactive
    // plan creates nothing, keeping clean runs bit-identical.
    if (cfg_.fault_plan.active()) {
        fault_ = std::make_unique<FaultInjector>(cfg_.fault_plan);
        sim_.set_fault_injector(fault_.get());
    }
    if (sim_.fault_injector() != nullptr &&
        cfg_.fault_plan.completion_timeout_ns > 0) {
        // Propagate the completion-timeout budget to every requester that
        // waits on PCIe completions.
        cfg_.accel.dma.completion_timeout_ns =
            cfg_.fault_plan.completion_timeout_ns;
        cfg_.accel.dma.completion_max_retries =
            cfg_.fault_plan.completion_max_retries;
        for (DeviceConfig& dev : cfg_.devices) {
            dev.accel.dma.completion_timeout_ns =
                cfg_.fault_plan.completion_timeout_ns;
            dev.accel.dma.completion_max_retries =
                cfg_.fault_plan.completion_max_retries;
        }
        cfg_.rc.completion_timeout_ns = cfg_.fault_plan.completion_timeout_ns;
        cfg_.rc.completion_max_retries =
            cfg_.fault_plan.completion_max_retries;
    }
    if (sim_.fault_injector() != nullptr) {
        // Any enabled plan arms DMA fault mode: stray-completion tolerance
        // and poison containment work even without a completion watchdog
        // (FLR drains and poisoned CplDs produce both).
        cfg_.accel.dma.fault_mode = true;
        for (DeviceConfig& dev : cfg_.devices) {
            dev.accel.dma.fault_mode = true;
        }
    }

    const mem::AddrRange host = host_range();
    const Addr pt_root = cfg_.host_dram_bytes - kPtArenaBytes;
    ptable_ = std::make_unique<smmu::PageTable>(
        store_, pt_root, pt_root + smmu::kPageBytes, cfg_.host_dram_bytes);
    host_alloc_ = BumpAllocator("host workload", kDataBase, pt_root);

    // --- coherent MemBus ----------------------------------------------------
    membus_ = std::make_unique<mem::Xbar>(sim_, "membus", cfg_.membus);

    // --- CPU cluster ----------------------------------------------------------
    cpu_ = std::make_unique<cpu::HostCpu>(sim_, "cpu0", cfg_.cpu, store_);
    l1d_ = std::make_unique<cache::Cache>(sim_, "l1d", cfg_.l1d);
    cpu_->mem_port().bind(l1d_->cpu_side());
    mem::ResponsePort& cpu_up = membus_->add_upstream("cpu_side");
    l1d_->mem_side().bind(cpu_up);
    membus_->register_snooper(*l1d_, cpu_up);

    // --- LLC + host memory (memory-side cache) -------------------------------
    llc_ = std::make_unique<cache::Cache>(sim_, "llc", cfg_.llc);
    membus_->add_downstream("llc_side", host).bind(llc_->cpu_side());
    host_mem_ =
        std::make_unique<mem::MemCtrl>(sim_, "hostmem", cfg_.host_mem, host);
    llc_->mem_side().bind(host_mem_->port());

    // --- inbound DMA path: RC -> SMMU -> IOCache -> MemBus --------------------
    iocache_ = std::make_unique<cache::Cache>(sim_, "iocache", cfg_.iocache);
    mem::ResponsePort& io_up = membus_->add_upstream("io_side");
    iocache_->mem_side().bind(io_up);
    membus_->register_snooper(*iocache_, io_up);

    smmu_ = std::make_unique<smmu::Smmu>(sim_, "smmu", cfg_.smmu, *ptable_,
                                         store_);
    smmu_->mem_side().bind(iocache_->cpu_side());

    pcie::RcParams rc_params = cfg_.rc;
    rc_params.device_addresses_virtual = cfg_.smmu.enabled;
    rc_params.inbound_uncacheable = cfg_.access_mode == AccessMode::dm;
    rc_ = std::make_unique<pcie::RootComplex>(sim_, "rc", rc_params);
    rc_->mem_side().bind(smmu_->dev_side());

    // --- PCIe hierarchy: RC -> switch tree -> N endpoints ---------------------
    topo_ = TopologyBuilder::build(sim_, store_, cfg_, *rc_);

    // CPU-visible PCIe window: every BAR plus every DevMem aperture.
    membus_->add_downstream("pcie_side", topo_.pcie_window)
        .bind(rc_->mmio_side());
    cpu_->add_uncacheable_range(topo_.pcie_window);

    // Route each endpoint's requester id to its SMMU translation stream.
    for (const DeviceInstance& dev : topo_.devices) {
        smmu_->map_stream(dev.device->device_id(), dev.stream_id);
    }

    // --- checkpoint/restore wiring --------------------------------------------
    sim_.set_config_hash(config_hash(cfg_));
    // Non-SimObject state, serialized between the component and stats
    // sections. The store first (components re-materialized nothing that
    // touches it), then the pool counters: they must overwrite the
    // acquires the component restore itself performed so the counter
    // streams continue as if never interrupted.
    sim_.add_ckpt_hook("store", [this](Ckpt& ar) { store_.serialize(ar); });
    sim_.add_ckpt_hook("pools", [](Ckpt& ar) {
        mem::PacketPool::global().serialize_counters(ar);
        pcie::TlpPool::global().serialize_counters(ar);
    });
}

Addr System::alloc_host(std::uint64_t bytes, std::uint64_t align)
{
    return host_alloc_.alloc(bytes, align);
}

Addr System::alloc_devmem(std::uint64_t bytes, std::uint64_t align)
{
    return alloc_devmem_on(0, bytes, align);
}

Addr System::alloc_devmem_on(std::size_t idx, std::uint64_t bytes,
                             std::uint64_t align)
{
    DeviceInstance& dev = device(idx);
    ensure(dev.devmem_enabled(), "device memory is not enabled on '",
           dev.name, "'");
    return dev.devmem_alloc.alloc(bytes, align);
}

Addr System::alloc(Placement place, std::uint64_t bytes, std::uint64_t align)
{
    return alloc_on(0, place, bytes, align);
}

Addr System::alloc_on(std::size_t idx, Placement place, std::uint64_t bytes,
                      std::uint64_t align)
{
    return place == Placement::host ? alloc_host(bytes, align)
                                    : alloc_devmem_on(idx, bytes, align);
}

void System::map_host_pages(Addr addr, std::uint64_t size)
{
    const Addr first = align_down(addr, smmu::kPageBytes);
    const Addr last = align_up(addr + size, smmu::kPageBytes);
    ptable_->map_identity(first, last - first);
}

} // namespace accesys::core
