#include "core/system_config.hh"

#include <algorithm>

#include "mem/dram_config.hh"

namespace accesys::core {

SystemConfig SystemConfig::paper_default()
{
    SystemConfig cfg;

    // CPU cluster — ARM-class core at 1 GHz.
    cfg.cpu.freq_ghz = 1.0;

    cfg.l1d.size_bytes = 64 * kKiB;
    cfg.l1d.assoc = 4;
    cfg.l1d.line_bytes = 64;
    cfg.l1d.lookup_latency_ns = 1.0;
    cfg.l1d.mshrs = 8;

    cfg.llc.size_bytes = 2 * kMiB;
    cfg.llc.assoc = 16;
    cfg.llc.line_bytes = 64;
    cfg.llc.lookup_latency_ns = 8.0;
    cfg.llc.mshrs = 32;

    cfg.iocache.size_bytes = 32 * kKiB;
    cfg.iocache.assoc = 4;
    cfg.iocache.line_bytes = 64;
    cfg.iocache.lookup_latency_ns = 2.0;
    cfg.iocache.mshrs = 32;

    // Host memory: DDR3-1600 8x8, 4 GB.
    cfg.host_mem.dram = mem::ddr3_1600();
    cfg.host_dram_bytes = 4 * kGiB;

    cfg.membus.coherent = true;
    cfg.membus.width_gbps = 128.0;
    cfg.membus.request_latency_ns = 3.0;
    cfg.membus.response_latency_ns = 3.0;

    // PCIe 2.0, 4 lanes at 4 Gb/s; RC 150 ns; switch 50 ns.
    cfg.pcie.gen = pcie::Gen::gen2;
    cfg.pcie.lanes = 4;
    cfg.pcie.lane_gbps = 4.0;
    cfg.rc.latency_ns = 150.0;
    SwitchConfig& root = cfg.switch_tree.emplace_back();
    root.params.latency_ns = 50.0;

    // SMMU sized so the Table IV study shows the paper's capacity cliff:
    // the 2048^3 working set exceeds the main TLB and triggers a PTW storm,
    // and the narrow walker makes those walks visible in execution time.
    cfg.smmu.utlb_entries = 16;
    cfg.smmu.utlb_assoc = 16;
    cfg.smmu.tlb_entries = 2048;
    cfg.smmu.tlb_assoc = 8;
    cfg.smmu.walk_slots = 1;
    cfg.smmu.pwc_entries = 16;

    // Accelerator: 16x16 MatrixFlow systolic array at 1 GHz.
    DeviceConfig& dev = cfg.devices.emplace_back();
    dev.accel.sa.rows = 16;
    dev.accel.sa.cols = 16;
    dev.accel.sa.freq_ghz = 1.0;
    dev.accel.local_buffer_bytes = 256 * kKiB;

    // Device-side memory defaults (enabled per experiment).
    dev.devmem_base = 0x200000000000ULL;
    dev.devmem_mem.dram = mem::hbm2();
    dev.devmem_xbar.coherent = false;
    dev.devmem_xbar.width_gbps = 256.0;
    dev.devmem_xbar.request_latency_ns = 2.0;
    dev.devmem_xbar.response_latency_ns = 2.0;
    dev.devmem_xbar.queue_capacity = 64;
    dev.devmem_mem.read_queue_capacity = 64;

    cfg.set_packet_size(256);
    return cfg;
}

std::vector<DesignPoint> transformer_design_points()
{
    const auto host = [](const char* label, const char* dram, double gbps,
                         unsigned lanes) {
        SystemConfig cfg = SystemConfig::paper_default();
        cfg.set_host_dram(dram);
        cfg.set_pcie_target_gbps(gbps, lanes);
        cfg.set_packet_size(256);
        return DesignPoint{label, Placement::host, cfg};
    };
    SystemConfig devmem = SystemConfig::paper_default();
    devmem.set_devmem("HBM2");
    devmem.set_packet_size(64);
    devmem.set_pcie_target_gbps(64.0, 16);
    return {host("PCIe-2GB", "DDR4", 2.0, 4),
            host("PCIe-8GB", "DDR4", 8.0, 8),
            host("PCIe-64GB", "HBM2", 64.0, 16),
            {"DevMem", Placement::devmem, devmem}};
}

void SystemConfig::set_packet_size(std::uint32_t bytes)
{
    for (DeviceConfig& dev : devices) {
        dev.accel.dma.request_bytes = bytes;
        dev.accel.dma.write_bytes = bytes;
    }
    rc.max_payload_bytes = bytes;
}

void SystemConfig::set_pcie_target_gbps(double gbps, unsigned lanes,
                                        pcie::Gen gen)
{
    pcie = pcie::LinkParams::from_target_gbps(gbps, lanes, gen);
}

void SystemConfig::set_host_dram(const std::string& preset)
{
    host_mem.dram = mem::dram_params_by_name(preset);
}

void SystemConfig::set_devmem(const std::string& preset)
{
    const mem::DramParams dram = mem::dram_params_by_name(preset);
    for (DeviceConfig& dev : devices) {
        dev.enable_devmem = true;
        dev.devmem_mem.dram = dram;
        dev.devmem_simple = false;
    }
}

void SystemConfig::set_num_devices(std::size_t n)
{
    require_cfg(n >= 1, "a system needs at least one accelerator");
    require_cfg(n <= 0xFFFF, "device count ", n,
                " exceeds the 16-bit PCIe requester-id space");
    require_cfg(!devices.empty(), "set_num_devices() clones device 0");
    devices.resize(1);
    DeviceConfig clone = devices.front();
    clone.name.clear();
    clone.accel.bar0_base = 0;
    clone.accel.local_base = 0;
    clone.accel.ep.device_id = 0;
    clone.devmem_base = 0;
    clone.stream_id = 0;
    clone.attach_to = 0;
    devices.insert(devices.end(), n - 1, clone);
}

std::size_t SystemConfig::add_switch_below(std::size_t parent)
{
    require_cfg(parent < switch_tree.size(),
                "switch parent index out of range");
    switch_tree.push_back(SwitchConfig{parent, switch_tree.front().params, {}});
    return switch_tree.size() - 1;
}

void ServingConfig::validate() const
{
    require_cfg(queue_capacity > 0, "serving queue capacity must be > 0");
    require_cfg(throttle_mark() <= queue_capacity,
                "serving throttle watermark exceeds the queue capacity");
    require_cfg(shed_mark() <= queue_capacity,
                "serving shed watermark exceeds the queue capacity");
    require_cfg(throttle_mark() <= shed_mark(),
                "serving throttle watermark above the shed watermark");
}

void SystemConfig::validate() const
{
    cpu.validate();
    l1d.validate();
    llc.validate();
    iocache.validate();
    host_mem.dram.validate();
    pcie.validate();
    rc.validate();
    smmu.validate();
    fault_plan.validate();
    require_cfg(host_dram_bytes >= 256 * kMiB,
                "host DRAM must be at least 256 MiB (page tables live there)");

    // Structural topology checks (tree order, attachment points, name and
    // id uniqueness, address-map overlap) live in TopologyBuilder::resolve,
    // which every System construction runs; here we only validate the
    // per-component parameter blocks.
    require_cfg(!switch_tree.empty(), "the PCIe switch tree is empty");
    for (const SwitchConfig& sw : switch_tree) {
        if (sw.uplink) {
            sw.uplink->validate();
        }
    }

    require_cfg(!devices.empty(), "a system needs at least one accelerator");
    for (std::size_t i = 0; i < devices.size(); ++i) {
        const DeviceConfig& dev = devices[i];
        dev.accel.validate();
        // The RC admits an inbound TLP only once all of its host-split
        // chunks fit in its fabric queue; a TLP that splits (at worst
        // alignment) into more chunks than the queue holds would stall at
        // the head of the line forever.
        const std::uint64_t tlp_bytes =
            std::max(dev.accel.dma.request_bytes, dev.accel.dma.write_bytes);
        const std::uint64_t split = rc.host_split_bytes;
        const std::uint64_t worst_chunks = (tlp_bytes + split - 2) / split + 1;
        require_cfg(worst_chunks <= rc.mem_queue_capacity, "device ", i,
                    dev.name.empty() ? "" : " (" + dev.name + ")", ": a ",
                    tlp_bytes, " B TLP splits into up to ", worst_chunks,
                    " RC chunks of ", split,
                    " B, more than the RC mem queue capacity ",
                    rc.mem_queue_capacity);
        if (dev.accel.bar0_base != 0) {
            require_cfg(dev.accel.bar0_base >= host_dram_bytes,
                        "BAR0 must not overlap host DRAM");
        }
        if (dev.enable_devmem && !dev.devmem_simple) {
            dev.devmem_mem.dram.validate();
        }
    }
}

} // namespace accesys::core
