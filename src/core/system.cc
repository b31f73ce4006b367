#include "core/system.hh"

#include <bit>
#include <type_traits>

#include "sim/serialize.hh"

namespace accesys::core {

namespace {

/// Host-memory carve-outs: workload data grows from 16 MiB; the page-table
/// arena occupies the top 128 MiB.
constexpr Addr kDataBase = 16 * kMiB;
constexpr std::uint64_t kPtArenaBytes = 128 * kMiB;

/// Fold each field into an FNV-1a hash: doubles by bit pattern, enums and
/// bools by value, strings by length then bytes.
template <typename... Fields>
std::uint64_t mix(std::uint64_t h, const Fields&... fields) noexcept
{
    const auto one = [&h]<typename T>(const T& f) {
        if constexpr (std::is_same_v<T, std::string>) {
            h = fnv1a64(h, f.size());
            for (const char c : f) {
                h = fnv1a64(h, static_cast<std::uint8_t>(c));
            }
        } else if constexpr (std::is_floating_point_v<T>) {
            h = fnv1a64(h, std::bit_cast<std::uint64_t>(f));
        } else {
            h = fnv1a64(h, static_cast<std::uint64_t>(f));
        }
    };
    (one(fields), ...);
    return h;
}

std::uint64_t mix_link(std::uint64_t h, const pcie::LinkParams& l) noexcept
{
    return mix(h, l.lanes, l.lane_gbps, l.gen, l.propagation_delay_ns,
               l.tlp_overhead_bytes, l.hdr_credits, l.data_credit_bytes);
}

std::uint64_t mix_cache(std::uint64_t h, const cache::CacheParams& c) noexcept
{
    return mix(h, c.size_bytes, c.assoc, c.line_bytes, c.lookup_latency_ns,
               c.fill_latency_ns, c.mshrs, c.targets_per_mshr, c.repl);
}

std::uint64_t mix_xbar(std::uint64_t h, const mem::XbarParams& x) noexcept
{
    return mix(h, x.request_latency_ns, x.response_latency_ns, x.width_gbps,
               x.queue_capacity, x.coherent);
}

std::uint64_t mix_mem(std::uint64_t h, const mem::MemCtrlParams& m) noexcept
{
    const mem::DramParams& d = m.dram;
    h = mix(h, d.name, d.channels, d.data_width_bits, d.data_rate_mts,
            d.banks, d.burst_length, d.row_bytes, d.tCL_ns, d.tRCD_ns,
            d.tRP_ns, d.tRAS_ns, d.tRFC_ns, d.tREFI_ns, d.refresh_enabled);
    return mix(h, m.read_queue_capacity, m.write_queue_capacity,
               m.frontend_latency_ns, m.backend_latency_ns, m.frfcfs_window,
               m.write_drain_threshold);
}

/// Curated FNV-1a hash of everything a checkpoint's validity depends on:
/// topology shape, address map, every timing parameter and the fault plan.
/// `threads` is excluded: it is accepted and ignored.
std::uint64_t config_hash(const SystemConfig& cfg)
{
    const cpu::CpuParams& cpu = cfg.cpu;
    std::uint64_t h = mix(kFnvBasis, cfg.host_dram_bytes, cfg.access_mode,
                          cpu.freq_ghz, cpu.mem_window, cpu.uncacheable_window,
                          cpu.line_bytes, cpu.simd_lanes,
                          cpu.poll_interval_cycles,
                          cpu.poll_interval_max_cycles, cpu.max_polls_per_op);
    h = mix_cache(mix_cache(mix_cache(h, cfg.l1d), cfg.llc), cfg.iocache);
    h = mix_xbar(mix_mem(h, cfg.host_mem), cfg.membus);
    const pcie::RcParams& rc = cfg.rc;
    h = mix(h, rc.latency_ns, rc.host_split_bytes, rc.max_payload_bytes,
            rc.max_inbound_reads, rc.mem_queue_capacity, rc.mmio_tags);
    const smmu::SmmuParams& sm = cfg.smmu;
    h = mix(h, sm.enabled, sm.utlb_entries, sm.utlb_assoc, sm.tlb_entries,
            sm.tlb_assoc, sm.utlb_hit_latency_ns, sm.tlb_hit_latency_ns,
            sm.walk_slots, sm.pwc_entries, sm.max_pending,
            sm.walker_uncacheable);
    h = mix_link(h, cfg.pcie);

    h = mix(h, cfg.switch_tree.size());
    for (const SwitchConfig& sw : cfg.switch_tree) {
        h = mix(h, sw.parent, sw.params.latency_ns);
        h = mix_link(h, sw.uplink.value_or(cfg.pcie));
    }

    h = mix(h, cfg.devices.size());
    for (const DeviceConfig& dev : cfg.devices) {
        const accel::MatrixFlowParams& a = dev.accel;
        h = mix(h, dev.name, dev.stream_id, dev.attach_to, a.ep.device_id,
                a.ep.latency_ns, a.bar0_base, a.bar0_size, a.local_base,
                a.local_buffer_bytes, a.max_block_cols, a.cmd_fifo_depth);
        h = mix(h, a.sa.rows, a.sa.cols, a.sa.freq_ghz, a.sa.fill_drain_cycles,
                a.sa.compute_time_override_ns);
        h = mix(h, a.dma.channels, a.dma.request_bytes, a.dma.write_bytes,
                a.dma.window_bytes, a.dma.max_tags, a.dma.max_egress,
                a.devmem_mover.request_bytes, a.devmem_mover.max_outstanding);
        if (dev.link) {
            h = mix_link(h, *dev.link);
        }
        h = mix(h, dev.enable_devmem, dev.devmem_base);
        if (dev.enable_devmem) {
            const mem::SimpleMemParams& simple = dev.devmem_simple_mem;
            h = mix(h, dev.devmem_bytes, dev.devmem_simple, simple.latency_ns,
                    simple.bandwidth_gbps, simple.queue_capacity);
            h = mix_mem(mix_xbar(h, dev.devmem_xbar), dev.devmem_mem);
        }
    }

    const FaultPlan& fp = cfg.fault_plan;
    h = mix(h, fp.active());
    if (fp.active()) {
        h = mix(h, fp.seed, fp.corrupt_rate, fp.corrupt_site, fp.events.size());
        for (const FaultEvent& ev : fp.events) {
            h = mix(h, ev.kind, ev.site, ev.dir, ev.at_ns, ev.duration_ns);
        }
        h = mix(h, fp.replay_buffer_tlps, fp.max_replays, fp.replay_timeout_ns,
                fp.completion_timeout_ns, fp.completion_max_retries,
                fp.job_timeout_ns, fp.hang_rate, fp.hang_site, fp.poison_rate,
                fp.poison_site, fp.smmu_fault_rate, fp.flr_ns,
                fp.job_max_attempts, fp.fleet_retry_budget,
                fp.quarantine_failures, fp.rehab_successes);
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
