// Full-system assembly: CPU cluster, coherent MemBus, caches, host memory,
// SMMU, and a declarative PCIe hierarchy (RC - switch tree - N endpoints)
// of MatrixFlow accelerators with optional per-device memory — the paper's
// Fig. 1 topology, generalised to multi-accelerator systems.
//
//   CPU -> L1D ------------------.
//                                 MemBus (coherent, snooping)
//   RC.mem <- SMMU <- IOCache ---'      |-> LLC -> host MemCtrl
//      ^      (per-device streams)      '-> RC.mmio (PCIe window)
//      |  link_up (shared uplink)
//   PcieSwitch ----------------------+------------------... nested switches
//      | link_dn      | link_dn1     | link_dn2
//   MatrixFlow[0]   MatrixFlow[1]  MatrixFlow[2]   ... endpoint N-1
//   [DMA|SA|buf]    [DMA|SA|buf]   [DMA|SA|buf]
//      |               |
//   DevMem xbar     DevMem xbar1     (per-device memory, when enabled)
//      '-> DevMem ctrl  '-> DevMem ctrl1
//
// Multi-accelerator topologies
// ----------------------------
// The endpoint list comes from SystemConfig::devices (see DeviceConfig):
// each entry carries its own MatrixFlowParams, DMA parameters, BAR /
// device-memory placement, SMMU stream id and switch attachment point;
// SystemConfig::switch_tree nests additional PcieSwitch levels. All
// placement knobs auto-carve (TopologyBuilder assigns unique requester
// ids and a non-overlapping address map), and every device gets a
// distinct stat prefix ("mf.", "mf1.", ...). Neither list is ever empty:
// SystemConfig::paper_default() declares the paper's single Table II
// device below one root switch, and the single-device accessors below
// (`accelerator()` == `accelerator(0)`) address that device 0.
#pragma once

#include <memory>

#include "core/bump_alloc.hh"
#include "core/system_config.hh"
#include "core/topology.hh"
#include "mem/backing_store.hh"
#include "smmu/page_table.hh"

namespace accesys::core {

class System {
  public:
    explicit System(const SystemConfig& cfg);
    ~System();

    System(const System&) = delete;
    System& operator=(const System&) = delete;

    [[nodiscard]] Simulator& sim() noexcept { return sim_; }
    [[nodiscard]] mem::BackingStore& store() noexcept { return store_; }
    [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }

    [[nodiscard]] cpu::HostCpu& host_cpu() noexcept { return *cpu_; }

    /// Number of accelerator endpoints in the topology.
    [[nodiscard]] std::size_t device_count() const noexcept
    {
        return topo_.devices.size();
    }
    /// Endpoint `idx`; the no-argument form is the single-device shorthand.
    [[nodiscard]] accel::MatrixFlowDevice& accelerator(std::size_t idx = 0)
    {
        return *device(idx).device;
    }
    /// SMMU stream id assigned to endpoint `idx`.
    [[nodiscard]] std::uint32_t stream_id_of(std::size_t idx = 0)
    {
        return device(idx).stream_id;
    }

    [[nodiscard]] smmu::Smmu& smmu() noexcept { return *smmu_; }
    [[nodiscard]] smmu::PageTable& page_table() noexcept { return *ptable_; }
    /// The shared RC-facing uplink every endpoint contends on.
    [[nodiscard]] pcie::PcieLink& pcie_uplink() noexcept
    {
        return *topo_.uplinks[0];
    }
    /// The point-to-point link between endpoint `idx` and its switch.
    [[nodiscard]] pcie::PcieLink& pcie_downlink(std::size_t idx = 0)
    {
        return *device(idx).link;
    }

    [[nodiscard]] mem::AddrRange host_range() const noexcept
    {
        return mem::AddrRange(0, cfg_.host_dram_bytes);
    }
    /// Device-memory aperture of endpoint `idx` (empty if disabled).
    [[nodiscard]] mem::AddrRange devmem_range(std::size_t idx = 0)
    {
        return device(idx).devmem;
    }

    /// Bump-allocate workload memory (page-aligned by default).
    [[nodiscard]] Addr alloc_host(std::uint64_t bytes,
                                  std::uint64_t align = 4096);
    [[nodiscard]] Addr alloc_devmem(std::uint64_t bytes,
                                    std::uint64_t align = 4096);
    /// Allocate from endpoint `idx`'s device memory.
    [[nodiscard]] Addr alloc_devmem_on(std::size_t idx, std::uint64_t bytes,
                                       std::uint64_t align = 4096);
    [[nodiscard]] Addr alloc(Placement place, std::uint64_t bytes,
                             std::uint64_t align = 4096);
    /// Placement-directed allocation against endpoint `idx`'s memories.
    [[nodiscard]] Addr alloc_on(std::size_t idx, Placement place,
                                std::uint64_t bytes,
                                std::uint64_t align = 4096);

    /// Identity-map host pages covering [addr, addr+size) for device access.
    void map_host_pages(Addr addr, std::uint64_t size);

    /// Stat lookup shorthand (throws on unknown names).
    [[nodiscard]] double stat(const std::string& name)
    {
        return sim_.stats().value(name);
    }
    [[nodiscard]] stats::Registry& stats() noexcept { return sim_.stats(); }

  private:
    void build();
    [[nodiscard]] DeviceInstance& device(std::size_t idx);

    SystemConfig cfg_;
    Simulator sim_;
    mem::BackingStore store_;

    /// Fault-injection registry (created only for an active FaultPlan,
    /// installed on sim_ before any fault-aware component constructs so
    /// each one can allocate its fault state exactly once).
    std::unique_ptr<FaultInjector> fault_;

    std::unique_ptr<smmu::PageTable> ptable_;
    std::unique_ptr<mem::Xbar> membus_;
    std::unique_ptr<cpu::HostCpu> cpu_;
    std::unique_ptr<cache::Cache> l1d_;
    std::unique_ptr<cache::Cache> llc_;
    std::unique_ptr<cache::Cache> iocache_;
    std::unique_ptr<mem::MemCtrl> host_mem_;
    std::unique_ptr<smmu::Smmu> smmu_;
    std::unique_ptr<pcie::RootComplex> rc_;
    Topology topo_; ///< switch tree, endpoints and their device memory

    BumpAllocator host_alloc_;
};

} // namespace accesys::core
