// Top-level system configuration (defaults follow paper Table II) and the
// address map shared by every experiment.
#pragma once

#include <optional>

#include "accel/matrixflow.hh"
#include "cache/cache.hh"
#include "cpu/host_cpu.hh"
#include "mem/mem_ctrl.hh"
#include "mem/xbar.hh"
#include "pcie/link.hh"
#include "pcie/root_complex.hh"
#include "pcie/switch.hh"
#include "sim/fault_injector.hh"
#include "smmu/smmu.hh"

namespace accesys::core {

/// Paper §III-C memory access methods (DevMem is a data-placement choice,
/// expressed per command; DC vs DM selects the inbound fabric path).
enum class AccessMode {
    dc, ///< direct cache: inbound DMA flows through IOCache / LLC
    dm, ///< direct memory: inbound DMA bypasses the cache hierarchy
};

/// Where a workload's tensors live.
enum class Placement {
    host,   ///< host DRAM, reached over PCIe by the accelerator
    devmem, ///< device-side memory, reached over PCIe by the CPU (NUMA)
};

/// One PCIe endpoint in a declarative multi-accelerator topology.
///
/// Every placement knob supports auto-carving so that N devices can be
/// declared without hand-assigning address maps:
///   * `accel.bar0_base == 0`     -> BAR0 carved from the MMIO region
///   * `accel.local_base == 0`    -> scratchpad staging space carved
///   * `accel.ep.device_id == 0`  -> next free PCIe requester id
///   * `devmem_base == 0`         -> device-memory aperture carved
/// Explicitly set values are honoured and checked for overlap.
struct DeviceConfig {
    /// Component name and stat prefix; "" = auto ("mf" for device 0,
    /// "mf<i>" for later devices, matching the single-device layout).
    std::string name;

    /// Accelerator parameters, including the DMA engine and endpoint id.
    accel::MatrixFlowParams accel;

    /// SMMU translation stream; 0 = use the PCIe requester id.
    std::uint32_t stream_id = 0;

    /// Index into SystemConfig::switch_tree of the switch this endpoint
    /// hangs off (0 = the root switch below the RC).
    std::size_t attach_to = 0;

    /// Downstream link (endpoint <-> switch) parameters. Unset = clone
    /// SystemConfig::pcie; set per device to study mixed-generation
    /// endpoints sharing one fabric (e.g. a Gen2 x4 legacy card next to a
    /// Gen4 x8 accelerator).
    std::optional<pcie::LinkParams> link;

    /// Per-device device-side memory (aperture + controller + xbar).
    bool enable_devmem = false;
    Addr devmem_base = 0; ///< 0 = auto-carve from the devmem region
    std::uint64_t devmem_bytes = 8 * kGiB;
    bool devmem_simple = false;
    mem::MemCtrlParams devmem_mem;
    mem::SimpleMemParams devmem_simple_mem;
    mem::XbarParams devmem_xbar;
};

/// One switch in the PCIe switch tree. Index 0 is the root switch whose
/// uplink faces the root complex; every other switch hangs below an
/// earlier-indexed parent (the tree is declared in topological order).
struct SwitchConfig {
    std::size_t parent = 0; ///< parent switch index (ignored for index 0)
    pcie::SwitchParams params;
    pcie::LinkParams uplink; ///< link toward the parent (RC for index 0)
};

/// Overload policy for the Runner's bounded admission queue (see
/// Runner::serve and ROADMAP "Serving under overload").
enum class ShedPolicy {
    /// A full queue refuses new arrivals (JobStatus::rejected); admitted
    /// jobs always run.
    reject_new,
    /// A full queue drops its oldest entry (JobStatus::shed) to admit the
    /// new arrival — freshest-work-first under sustained overload.
    shed_oldest,
    /// reject_new at capacity, plus deadline shedding at dispatch: a job
    /// reaching the queue head whose tenant deadline can no longer be met
    /// given the measured service time is shed instead of dispatched.
    deadline_aware,
};

/// Knobs for the open-loop serving path (Runner::serve). Watermarks feed
/// the ServingState backpressure signal only; admission decisions key on
/// `queue_capacity` and the policy.
struct ServingConfig {
    ShedPolicy policy = ShedPolicy::reject_new;
    /// Bounded admission queue depth (slots; > 0). Retries of admitted
    /// jobs re-enter at the front and are exempt from the bound, so a
    /// transient overshoot of at most the endpoint count is possible.
    std::size_t queue_capacity = 64;
    /// Queue depth at/above which ServingState reports `throttled`.
    /// 0 = queue_capacity / 2.
    std::size_t throttle_watermark = 0;
    /// Queue depth at/above which ServingState reports `shedding`.
    /// 0 = 3 * queue_capacity / 4.
    std::size_t shed_watermark = 0;
    /// Verify every completed job against the golden model (exercises the
    /// full functional DMA path; the serving default because overload
    /// must degrade throughput, never correctness).
    bool verify = true;

    [[nodiscard]] std::size_t throttle_mark() const
    {
        return throttle_watermark != 0 ? throttle_watermark
                                       : queue_capacity / 2;
    }
    [[nodiscard]] std::size_t shed_mark() const
    {
        return shed_watermark != 0 ? shed_watermark
                                   : 3 * queue_capacity / 4;
    }

    void validate() const;
};

struct SystemConfig {
    // --- CPU cluster (Table II) ---------------------------------------------
    cpu::CpuParams cpu;
    cache::CacheParams l1d;
    cache::CacheParams llc;
    cache::CacheParams iocache;

    // --- host memory ----------------------------------------------------------
    mem::MemCtrlParams host_mem;
    bool host_simple = false; ///< use SimpleMem instead of the DRAM model
    mem::SimpleMemParams host_simple_mem;
    std::uint64_t host_dram_bytes = 4 * kGiB;

    // --- fabric ---------------------------------------------------------------
    mem::XbarParams membus;

    // --- PCIe (Table II: v2.0, 4 Gb/s lanes, x4) -----------------------------
    pcie::LinkParams pcie;
    pcie::RcParams rc;
    pcie::SwitchParams pcie_switch;

    // --- SMMU -----------------------------------------------------------------
    smmu::SmmuParams smmu;

    // --- accelerator (device 0 when `devices` is empty) ----------------------
    accel::MatrixFlowParams accel;

    // --- device-side memory (device 0 when `devices` is empty) ---------------
    bool enable_devmem = false;
    mem::MemCtrlParams devmem_mem;
    bool devmem_simple = false;
    mem::SimpleMemParams devmem_simple_mem;
    std::uint64_t devmem_bytes = 8 * kGiB;
    mem::XbarParams devmem_xbar;
    Addr devmem_base = 0x200000000000ULL;

    // --- multi-accelerator topology -------------------------------------------
    /// Declarative endpoint list. Empty = the classic single-device system
    /// synthesized from the legacy `accel` / devmem fields above; otherwise
    /// the TopologyBuilder instantiates one endpoint per entry.
    std::vector<DeviceConfig> devices;
    /// PCIe switch tree. Empty = one root switch built from `pcie_switch` /
    /// `pcie` (the paper's Fig. 1 layout).
    std::vector<SwitchConfig> switch_tree;

    AccessMode access_mode = AccessMode::dc;

    /// Deterministic fault-injection plan (PCIe corruption, link-down
    /// windows, completion/job timeouts). Inactive by default: a
    /// default-constructed plan adds no components, no stats and no
    /// per-TLP work, so clean runs are bit-identical with or without the
    /// fault model compiled in. See sim/fault_injector.hh.
    FaultPlan fault_plan;

    /// Accepted and ignored: the simulator always runs one serial event
    /// queue. Kept only for benchmark/ source compatibility.
    unsigned threads = 1;

    /// Table II configuration: ARM 1 GHz, 64 kB D$, 2 MB LLC, 32 kB IOCache,
    /// DDR3-1600 host memory, PCIe 2.0 x4 @ 4 Gb/s, RC 150 ns, switch 50 ns.
    [[nodiscard]] static SystemConfig paper_default();

    /// Set the DMA request size and the RC completion payload limit together
    /// — the paper's single "packet size" knob (Fig. 4).
    void set_packet_size(std::uint32_t bytes);

    /// Replace the PCIe link with one of `gbps` effective bandwidth,
    /// mirroring the paper's "PCIe-xGB" system labels.
    void set_pcie_target_gbps(double gbps, unsigned lanes = 8,
                              pcie::Gen gen = pcie::Gen::gen3);

    /// Select the host DRAM technology by preset name ("DDR4", "HBM2", ...).
    void set_host_dram(const std::string& preset);

    /// Enable device-side memory with the given DRAM technology.
    void set_devmem(const std::string& preset);

    /// Populate `devices` with `n` endpoints below the root switch:
    /// device 0 mirrors the legacy single-device fields, devices 1..n-1
    /// clone its parameters with all placement knobs set to auto-carve.
    void set_num_devices(std::size_t n);

    /// Append one endpoint cloned from the legacy accelerator fields with
    /// auto-carved placement; returns it for further tweaking. The first
    /// call also materialises the legacy device as device 0. The returned
    /// reference lives in `devices` and is invalidated by the next
    /// add_device() / set_num_devices() call — finish tweaking one device
    /// before appending the next, or index `devices` directly.
    DeviceConfig& add_device(std::string name = "");

    /// Append a switch below `parent` and return its index (usable as a
    /// DeviceConfig::attach_to). The first call materialises the root
    /// switch (index 0) from the legacy `pcie_switch` / `pcie` fields.
    std::size_t add_switch_below(std::size_t parent);

    /// Effective endpoint list: `devices`, or the synthesized legacy
    /// single-device entry when it is empty.
    [[nodiscard]] std::vector<DeviceConfig> resolved_devices() const;

    /// Effective switch tree: `switch_tree`, or the single legacy root.
    [[nodiscard]] std::vector<SwitchConfig> resolved_switch_tree() const;

    [[nodiscard]] std::size_t device_count() const
    {
        return devices.empty() ? 1 : devices.size();
    }

    void validate() const;
};

} // namespace accesys::core
