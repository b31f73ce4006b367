#include "leg.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>

#include <sys/resource.h>

#include "../bench/bench_util.hh"
#include "core/runner.hh"
#include "workload/request_gen.hh"

namespace bench {

namespace {

using namespace accesys;
using Clock = std::chrono::steady_clock;

double secs(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double process_cpu_s()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One host-speed calibration pass: a fixed toy discrete-event loop (a
/// 4-ary heap of 64 components whose handlers, picked through a function
/// table, hash, branch and chase pointers over a 4 MiB state array). It
/// shares no code with the simulator, so no simulator change can move it,
/// while host contention slows it together with the simulator. Returns the
/// pass's wall time in seconds.
double calibration_pass()
{
    struct Entry {
        std::uint64_t key;
        std::uint32_t comp;
    };
    struct World {
        std::vector<std::uint64_t> state = std::vector<std::uint64_t>(1 << 19);
        std::vector<Entry> heap;
        std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
        std::uint64_t next()
        {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            return rng;
        }
        std::uint64_t at(std::uint64_t i) { return state[i & (state.size() - 1)]; }
    };
    using Handler = std::uint64_t (*)(World&, std::uint32_t);
    static constexpr Handler kHandlers[] = {
        [](World& w, std::uint32_t c) -> std::uint64_t {
            std::uint64_t& s = w.state[(w.next() ^ c) & (w.state.size() - 1)];
            s += c;
            return 10 + (s & 63);
        },
        [](World& w, std::uint32_t c) -> std::uint64_t {
            std::uint64_t x = w.next();
            std::uint64_t d = 0;
            for (int i = 0; i < 8; ++i, x >>= 3) {
                d = (x & 1) != 0 ? d + c : d ^ x;
            }
            w.state[c & 1023] = d;
            return 5 + (d & 15);
        },
        [](World& w, std::uint32_t c) -> std::uint64_t {
            std::uint64_t a = c;
            for (int i = 0; i < 4; ++i) {
                a = w.at(a) + a * 31;
            }
            return 20 + (a & 31);
        },
    };

    const auto t0 = Clock::now();
    World w;
    for (std::uint64_t& s : w.state) {
        s = w.next();
    }
    const auto push = [&](Entry e) {
        w.heap.push_back(e);
        std::size_t i = w.heap.size() - 1;
        for (; i > 0 && w.heap[(i - 1) / 4].key > e.key; i = (i - 1) / 4) {
            w.heap[i] = w.heap[(i - 1) / 4];
        }
        w.heap[i] = e;
    };
    const auto pop = [&] {
        const Entry top = w.heap[0];
        const Entry last = w.heap.back();
        w.heap.pop_back();
        const std::size_t n = w.heap.size();
        std::size_t i = 0;
        for (std::size_t c = 1; n > 0 && c < n; c = 4 * i + 1) {
            std::size_t m = c;
            for (std::size_t k = c + 1; k < c + 4 && k < n; ++k) {
                m = w.heap[k].key < w.heap[m].key ? k : m;
            }
            if (w.heap[m].key >= last.key) {
                break;
            }
            w.heap[i] = w.heap[m];
            i = m;
        }
        if (n > 0) {
            w.heap[i] = last;
        }
        return top;
    };
    for (std::uint32_t c = 0; c < 64; ++c) {
        push(Entry{w.next() & 1023, c});
    }
    std::uint64_t sink = 0;
    for (int e = 0; e < 1'000'000; ++e) {
        const Entry x = pop();
        const std::uint64_t d = kHandlers[x.comp % 3](w, x.comp);
        sink += d;
        push(Entry{x.key + d, x.comp});
    }
    asm volatile("" : : "g"(sink) : "memory"); // keeps the loop from folding
    return secs(Clock::now() - t0);
}

/// Component-prefix -> layer table. The prefix is an event name up to its
/// first '.', minus trailing digits ("mf3.process" -> "mf",
/// "link_dn2.deliver_ab" -> "link_dn").
Layer classify(const std::string& event_name)
{
    std::string comp = event_name.substr(0, event_name.find('.'));
    while (!comp.empty() && comp.back() >= '0' && comp.back() <= '9') {
        comp.pop_back();
    }
    static const std::unordered_map<std::string, Layer> table = {
        {"cpu", kCpu},         {"l1d", kCache},     {"llc", kCache},
        {"iocache", kCache},   {"membus", kMem},    {"hostmem", kMem},
        {"smmu", kSmmu},       {"rc", kPcie},       {"pcie_sw", kPcie},
        {"link_up", kPcie},    {"link_dn", kPcie},  {"mf", kDevice},
        {"devmem", kDevice},   {"devmem_xbar", kDevice},
        {"reqgen", kWorkload},
    };
    const auto it = table.find(comp);
    return it == table.end() ? kOther : it->second;
}

/// Attributes each inter-dispatch interval to the layer of the event that
/// opened it (its handler plus the queue work up to the next dispatch).
/// The interval before the first dispatch and the one after the last
/// (which holds the Runner's result checks) go to the workload layer.
/// Layers are cached per Event*, so the steady state is one clock read and
/// one hash lookup per event.
class LayerTracer final : public EventQueue::DispatchObserver {
  public:
    void begin()
    {
        cur_ = kWorkload;
        last_ = Clock::now();
    }

    void on_dispatch(const Event& ev) override
    {
        const auto t = Clock::now();
        self_[cur_] += t - last_;
        last_ = t;
        const auto it = cache_.find(&ev);
        cur_ = it != cache_.end() ? it->second
                                  : cache_.emplace(&ev, classify(ev.name()))
                                        .first->second;
    }

    std::array<double, kLayerCount> end()
    {
        self_[kWorkload] += Clock::now() - last_;
        std::array<double, kLayerCount> out{};
        for (std::size_t i = 0; i < kLayerCount; ++i) {
            out[i] = secs(self_[i]);
        }
        return out;
    }

  private:
    std::unordered_map<const Event*, Layer> cache_;
    std::array<Clock::duration, kLayerCount> self_{};
    Layer cur_ = kWorkload;
    Clock::time_point last_;
};

/// Times the leg's phases and, for traced legs, keeps them as spans.
class Phases {
  public:
    explicit Phases(LegResult& r, bool keep) : r_(r), keep_(keep) {}

    template <class F>
    void time(const char* name, double& out, F&& fn)
    {
        const auto t = Clock::now();
        fn();
        const auto d = Clock::now() - t;
        out = secs(d);
        if (keep_) {
            r_.spans.push_back(Span{name, secs(t - t0_), out});
        }
    }

    void finish()
    {
        if (keep_) {
            r_.spans.insert(r_.spans.begin(),
                            Span{"leg", 0.0, secs(Clock::now() - t0_)});
        }
    }

  private:
    LegResult& r_;
    bool keep_;
    Clock::time_point t0_ = Clock::now();
};

/// The run call, timed on the wall clock and in process CPU time, with the
/// tracer (when present) covering exactly the call.
template <class F>
void time_run(Phases& ph, LegResult& r, LayerTracer* tracer, F&& fn)
{
    const double cpu0 = process_cpu_s();
    ph.time("run", r.run_s, [&] {
        if (tracer != nullptr) {
            tracer->begin();
        }
        fn();
        if (tracer != nullptr) {
            r.self_s = tracer->end();
        }
    });
    r.cpu_s = process_cpu_s() - cpu0;
}

double p99(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

class Collector {
  public:
    Collector(core::System& sys, LegResult& r) : sys_(sys), r_(r) {}

    void put(const char* name, double v) { r_.sim.emplace_back(name, v); }

    /// Stat value, or 0 when the stat does not exist in this topology.
    double stat(const std::string& name) const
    {
        const stats::Stat* s = sys_.stats().find(name);
        return s == nullptr ? 0.0 : s->value();
    }

    static std::string suffix(std::size_t i)
    {
        return i == 0 ? std::string() : std::to_string(i);
    }

    /// Per-layer simulated values every workload reports. `elapsed` is the
    /// simulated span of the run.
    void common(Tick elapsed)
    {
        const double sim_s = ticks_to_sec(elapsed);
        put("cpu.mmio_writes", stat("cpu0.mmio_writes"));
        put("cpu.polls", stat("cpu0.polls"));
        put("cpu.vector_bytes", stat("cpu0.vector_bytes"));

        put("cache.llc.hit_rate", stat("llc.hit_rate"));
        put("cache.iocache.hit_rate", stat("iocache.hit_rate"));
        double rejects = 0.0;
        double writebacks = 0.0;
        for (const char* c : {"l1d", "llc", "iocache"}) {
            rejects += stat(std::string(c) + ".mshr_rejects");
            writebacks += stat(std::string(c) + ".writebacks");
        }
        put("cache.mshr_rejects", rejects);
        put("cache.writebacks", writebacks);

        put("mem.hostmem.bytes",
            stat("hostmem.bytes_read") + stat("hostmem.bytes_written"));
        put("mem.hostmem.row_hit_rate", stat("hostmem.row_hit_rate"));
        put("mem.hostmem.read_lat_ns", stat("hostmem.read_latency_ns"));
        // Device memories: bytes summed, rates weighted by accesses and
        // latency by reads across the endpoints' controllers.
        double dm_bytes = 0.0;
        double dm_acc = 0.0;
        double dm_hits = 0.0;
        double dm_reads = 0.0;
        double dm_lat = 0.0;
        const std::size_t ndev = sys_.device_count();
        for (std::size_t i = 0; i < ndev; ++i) {
            const std::string p = "devmem" + suffix(i);
            const double reads = stat(p + ".reads");
            const double acc = reads + stat(p + ".writes");
            dm_bytes += stat(p + ".bytes_read") + stat(p + ".bytes_written");
            dm_acc += acc;
            dm_hits += acc * stat(p + ".row_hit_rate");
            dm_reads += reads;
            dm_lat += reads * stat(p + ".read_latency_ns");
        }
        put("mem.devmem.bytes", dm_bytes);
        put("mem.devmem.row_hit_rate", dm_acc > 0 ? dm_hits / dm_acc : 0.0);
        put("mem.devmem.read_lat_ns", dm_reads > 0 ? dm_lat / dm_reads : 0.0);

        put("smmu.translations", stat("smmu.translations"));
        const double lookups = stat("smmu.utlb_lookups");
        put("smmu.utlb_miss_rate",
            lookups > 0 ? stat("smmu.utlb_misses") / lookups : 0.0);
        put("smmu.ptws", stat("smmu.ptw_count"));
        put("smmu.trans_ns", stat("smmu.trans_ns"));

        pcie::PcieLink& up = sys_.pcie_uplink();
        const std::string& upn = up.name();
        put("pcie.uplink.tlps", stat(upn + ".tlps"));
        put("pcie.uplink.util_ab", up.utilization(0));
        put("pcie.uplink.util_ba", up.utilization(1));
        const double wire = stat(upn + ".wire_bytes");
        put("pcie.uplink.payload_frac",
            wire > 0 ? stat(upn + ".payload_bytes") / wire : 0.0);
        put("pcie.rc.inbound_tlps",
            stat("rc.inbound_read_tlps") + stat("rc.inbound_write_tlps"));
        put("pcie.rc.mmio_ops", stat("rc.mmio_reads") + stat("rc.mmio_writes"));
        put("pcie.rc.hol_stalls", stat("rc.hol_stalls"));
        put("pcie.switch.forwarded", stat("pcie_sw.forwarded"));

        double dma = 0.0;
        double compute = 0.0;
        double tiles = 0.0;
        for (std::size_t i = 0; i < ndev; ++i) {
            const std::string& p = sys_.accelerator(i).name();
            dma += stat(p + ".dma.bytes_read") + stat(p + ".dma.bytes_written") +
                   stat(p + ".devmem_mover.bytes");
            compute += stat(p + ".compute_ticks");
            tiles += stat(p + ".tiles");
        }
        put("dma.bytes", dma);
        put("dma.gbps", sim_s > 0 ? dma / sim_s / 1e9 : 0.0);
        put("accel.compute_us", compute / static_cast<double>(kTicksPerUs));
        put("accel.busy_frac",
            elapsed > 0 ? compute / (static_cast<double>(ndev) *
                                     static_cast<double>(elapsed))
                        : 0.0);
        put("accel.tiles", tiles);
        put("core.sim_us", ticks_to_us(elapsed));
    }

    /// Runner-level job accounting, uniform across the workloads.
    void runner(double offered, double completed, double shed,
                double rejected, double rounds, double idle_rounds,
                Tick elapsed, double p99_e2e_us, double p99_queue_us)
    {
        put("runner.offered", offered);
        put("runner.completed", completed);
        put("runner.shed", shed);
        put("runner.rejected", rejected);
        put("runner.rounds", rounds);
        put("runner.idle_rounds", idle_rounds);
        put("runner.goodput_jobs_per_s",
            elapsed > 0 ? completed / ticks_to_sec(elapsed) : 0.0);
        put("runner.p99_e2e_us", p99_e2e_us);
        put("runner.p99_queue_us", p99_queue_us);
    }

    void fingerprint()
    {
        std::ostringstream os;
        sys_.stats().write_json(os);
        std::uint64_t h = 1469598103934665603ULL;
        for (const char c : os.str()) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ULL;
        }
        r_.fingerprint = h;
    }

  private:
    core::System& sys_;
    LegResult& r_;
};

// --- workloads ---------------------------------------------------------------

core::SystemConfig config_for(const LegOptions& opt, bool parallel)
{
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    const std::string& w = opt.workload;
    if (w == "gemm_host_4ep" || w == "serving_overload") {
        cfg.set_num_devices(4);
    } else if (w == "gemm_devmem_4ep_t4") {
        cfg.set_devmem("HBM2");
        cfg.set_num_devices(4);
    } else if (w == "vit_base_host") {
        // Fig. 7 "PCIe-8GB": DDR4 host memory, Gen3 x8, 256 B packets.
        cfg.set_host_dram("DDR4");
        cfg.set_pcie_target_gbps(8.0, 8);
        cfg.set_packet_size(256);
    } else if (w == "vit_base_devmem") {
        // Fig. 7 "DevMem": HBM2 device memory, 64 B packets, 64 GB/s link.
        cfg.set_devmem("HBM2");
        cfg.set_packet_size(64);
        cfg.set_pcie_target_gbps(64.0, 16);
    }
    cfg.threads = parallel && !opt.serial && !opt.traced ? 4 : 1;
    return cfg;
}

void gemm_leg(core::System& sys, const LegOptions& opt, Phases& ph,
              LayerTracer* tracer, LegResult& r)
{
    const bool devmem = opt.workload == "gemm_devmem_4ep_t4";
    const std::uint32_t n =
        devmem ? (opt.quick ? 192 : 768) : (opt.quick ? 128 : 512);
    const core::Placement place =
        devmem ? core::Placement::devmem : core::Placement::host;
    core::Runner runner(sys);
    const std::size_t ndev = sys.device_count();
    r.attempted = ndev;
    ph.time("prepare", r.prepare_s, [&] {
        for (std::size_t d = 0; d < ndev; ++d) {
            runner.dispatch(d, workload::GemmSpec{n, n, n, opt.seed * ndev + d},
                            place, /*verify=*/true);
        }
    });
    core::MultiGemmResult res;
    time_run(ph, r, tracer, [&] { res = runner.run_dispatched(); });

    std::vector<double> e2e_us;
    double completed = 0.0;
    for (const auto& d : res.devices) {
        if (d.ok() && d.verified && !res.checkpointed) {
            ++completed;
            e2e_us.push_back(ticks_to_us(d.done - res.start));
        } else {
            ++r.failed;
        }
    }
    Collector c(sys, r);
    c.common(res.elapsed());
    c.put("core.gmacs", res.aggregate_gmacs());
    c.runner(static_cast<double>(ndev), completed, 0, 0, 1, 0, res.elapsed(),
             p99(e2e_us), 0.0);
    c.put("vit.gemm_frac", 0.0);
    c.put("vit.nongemm_frac", 0.0);
    c.fingerprint();
}

void vit_leg(core::System& sys, const LegOptions& opt, Phases& ph,
             LayerTracer* tracer, LegResult& r)
{
    const bool devmem = opt.workload == "vit_base_devmem";
    workload::VitConfig vcfg = workload::VitConfig::base();
    vcfg.layers = devmem && !opt.quick ? 4 : 1;
    if (opt.quick) {
        vcfg.seq = 50;
    }
    core::Runner runner(sys);
    workload::VitSummary want;
    ph.time("prepare", r.prepare_s,
            [&] { want = workload::summarize(workload::lower_vit(vcfg)); });
    core::VitRunResult res;
    time_run(ph, r, tracer, [&] {
        res = runner.run_vit(vcfg, devmem ? core::Placement::devmem
                                          : core::Placement::host);
    });

    // Every lowered op must have run exactly once.
    const auto miss = [](std::uint64_t want_n, std::uint64_t got) {
        return want_n > got ? want_n - got : got - want_n;
    };
    r.attempted = want.gemm_count + want.vector_count;
    r.failed = std::min(r.attempted, miss(want.gemm_count, res.gemm_cmds) +
                                         miss(want.vector_count,
                                              res.vector_ops));
    const Tick el = res.elapsed();
    const double el_d = static_cast<double>(el);
    Collector c(sys, r);
    c.common(el);
    c.put("core.gmacs", el > 0 ? want.gemm_macs / ticks_to_sec(el) / 1e9 : 0.0);
    c.runner(static_cast<double>(want.gemm_count),
             static_cast<double>(res.gemm_cmds), 0, 0,
             static_cast<double>(res.gemm_cmds), 0, el, 0.0, 0.0);
    c.put("vit.gemm_frac",
          el > 0 ? static_cast<double>(res.gemm_ticks) / el_d : 0.0);
    c.put("vit.nongemm_frac",
          el > 0 ? static_cast<double>(res.nongemm_ticks) / el_d : 0.0);
    c.fingerprint();
}

void serving_leg(core::System& sys, const LegOptions& opt, Phases& ph,
                 LayerTracer* tracer, LegResult& r)
{
    // Two tenants at 6e5 jobs/s in total, about 1.5x what four endpoints
    // serve: 2/3 interactive (16^3 / 32^3), 1/3 batch (48^3).
    constexpr double kRate = 6e5;
    workload::RequestGenConfig g;
    g.seed = opt.seed;
    g.horizon_ns = opt.quick ? 2e6 : 5e7;
    workload::TenantSpec interactive;
    interactive.name = "interactive";
    interactive.rate_jobs_per_s = kRate * 2.0 / 3.0;
    interactive.mix = {workload::GemmSpec{16, 16, 16},
                       workload::GemmSpec{32, 32, 32}};
    workload::TenantSpec batch;
    batch.name = "batch";
    batch.rate_jobs_per_s = kRate / 3.0;
    batch.mix = {workload::GemmSpec{48, 48, 48}};
    g.tenants = {interactive, batch};

    core::ServingConfig scfg;
    scfg.policy = core::ShedPolicy::shed_oldest;
    scfg.queue_capacity = 8;
    scfg.verify = true;

    core::Runner runner(sys);
    std::unique_ptr<workload::RequestGen> gen;
    ph.time("prepare", r.prepare_s, [&] {
        gen = std::make_unique<workload::RequestGen>(sys.sim(), g);
    });
    core::ServingResult res;
    time_run(ph, r, tracer, [&] { res = runner.serve(*gen, scfg); });

    r.attempted = res.offered;
    r.failed = res.failed;
    std::vector<double> e2e_us;
    std::vector<double> queue_us;
    double macs = 0.0;
    for (const auto& j : res.jobs) {
        if (!j.ok()) {
            continue;
        }
        if (!j.verified) {
            ++r.failed;
        }
        macs += j.spec.macs();
        e2e_us.push_back(ticks_to_us(j.done - j.arrival));
        queue_us.push_back(ticks_to_us(j.first_dispatch - j.arrival));
    }
    // Shed and rejected requests are modelled outcomes; a broken identity
    // or a lost request is not.
    if (!res.accounted() || res.checkpointed || res.offered != gen->total()) {
        r.failed = std::max<std::uint64_t>(res.offered, 1);
    }
    const Tick el = res.elapsed();
    Collector c(sys, r);
    c.common(el);
    c.put("core.gmacs", el > 0 ? macs / ticks_to_sec(el) / 1e9 : 0.0);
    c.runner(static_cast<double>(res.offered),
             static_cast<double>(res.completed),
             static_cast<double>(res.shed), static_cast<double>(res.rejected),
             static_cast<double>(res.rounds),
             static_cast<double>(res.idle_rounds), el, p99(e2e_us),
             p99(queue_us));
    c.put("vit.gemm_frac", 0.0);
    c.put("vit.nongemm_frac", 0.0);
    c.fingerprint();
}

} // namespace

const std::vector<WorkloadInfo>& workloads()
{
    static const std::vector<WorkloadInfo> list = {
        {"gemm_host_4ep", false},    {"gemm_devmem_4ep_t4", true},
        {"vit_base_host", false},    {"vit_base_devmem", false},
        {"serving_overload", false},
    };
    return list;
}

const WorkloadInfo* find_workload(std::string_view name)
{
    for (const WorkloadInfo& w : workloads()) {
        if (name == w.name) {
            return &w;
        }
    }
    return nullptr;
}

LegResult run_leg(const LegOptions& opt)
{
    LegResult r;
    const WorkloadInfo* info = find_workload(opt.workload);
    if (info == nullptr) {
        r.error = "unknown workload " + opt.workload;
        r.attempted = r.failed = 1;
        return r;
    }
    // Calibrate right before and right after the measured phases, so the
    // host speed they saw is sampled from both sides.
    const double cal_before = calibration_pass();
    Phases ph(r, opt.traced);
    try {
        const core::SystemConfig cfg = config_for(opt, info->parallel);
        std::optional<core::System> sys;
        ph.time("build", r.build_s, [&] { sys.emplace(cfg); });
        benchutil::WatchScope watch(*sys);
        LayerTracer tracer;
        LayerTracer* tr = opt.traced ? &tracer : nullptr;
        if (tr != nullptr) {
            sys->sim().queue().set_dispatch_observer(tr);
        }
        if (opt.workload.rfind("gemm_", 0) == 0) {
            gemm_leg(*sys, opt, ph, tr, r);
        } else if (opt.workload.rfind("vit_", 0) == 0) {
            vit_leg(*sys, opt, ph, tr, r);
        } else {
            serving_leg(*sys, opt, ph, tr, r);
        }
        sys->sim().queue().set_dispatch_observer(nullptr);

        Simulator& sim = sys->sim();
        r.events = sim.queue().events_processed();
        for (std::size_t i = 0; i < sim.domain_count(); ++i) {
            r.events += sim.domain(i).queue->events_processed();
        }
        r.barrier_waits = sim.barrier_waits();
        r.handoffs = sim.handoffs();
        r.fence_waits = sim.fence_waits();
    } catch (const std::exception& e) {
        r.error = e.what();
        r.attempted = std::max<std::uint64_t>(r.attempted, 1);
        r.failed = r.attempted;
    }
    ph.finish();
    // The faster pass: a preempted or interrupted pass only reads slow.
    r.cal_s = std::min(cal_before, calibration_pass());
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    r.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return r;
}

// --- leg <-> JSON ------------------------------------------------------------

double LegResult::sim_value(std::string_view name) const
{
    for (const auto& [n, v] : sim) {
        if (n == name) {
            return v;
        }
    }
    throw std::runtime_error("leg did not report " + std::string(name));
}

std::string LegResult::to_json() const
{
    char fp[17];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    json::Object sim_obj;
    for (const auto& [name, v] : sim) {
        sim_obj.num(name, v);
    }
    json::Object self_obj;
    for (std::size_t i = 0; i < kLayerCount; ++i) {
        self_obj.num(kLayerNames[i], self_s[i]);
    }
    std::string span_list = "[";
    for (const Span& sp : spans) {
        if (span_list.size() > 1) {
            span_list += ',';
        }
        span_list += '[';
        span_list += json::quote(sp.name);
        span_list += ',';
        span_list += json::num(sp.start_s);
        span_list += ',';
        span_list += json::num(sp.dur_s);
        span_list += ']';
    }
    span_list += ']';
    return json::Object()
        .str("error", error)
        .num("attempted", static_cast<double>(attempted))
        .num("failed", static_cast<double>(failed))
        .str("fingerprint", fp)
        .num("build_s", build_s)
        .num("prepare_s", prepare_s)
        .num("run_s", run_s)
        .num("cpu_s", cpu_s)
        .num("cal_s", cal_s)
        .num("rss_mb", rss_mb)
        .num("events", static_cast<double>(events))
        .num("barrier_waits", static_cast<double>(barrier_waits))
        .num("handoffs", static_cast<double>(handoffs))
        .num("fence_waits", static_cast<double>(fence_waits))
        .raw("sim", sim_obj.done())
        .raw("self_s", self_obj.done())
        .raw("spans", span_list)
        .done();
}

LegResult LegResult::from_json(const json::Value& v)
{
    LegResult r;
    r.error = v.at("error").str;
    r.attempted = static_cast<std::uint64_t>(v.number("attempted"));
    r.failed = static_cast<std::uint64_t>(v.number("failed"));
    r.fingerprint = std::stoull(v.at("fingerprint").str, nullptr, 16);
    r.build_s = v.number("build_s");
    r.prepare_s = v.number("prepare_s");
    r.run_s = v.number("run_s");
    r.cpu_s = v.number("cpu_s");
    r.cal_s = v.number("cal_s");
    r.rss_mb = v.number("rss_mb");
    r.events = static_cast<std::uint64_t>(v.number("events"));
    r.barrier_waits = static_cast<std::uint64_t>(v.number("barrier_waits"));
    r.handoffs = static_cast<std::uint64_t>(v.number("handoffs"));
    r.fence_waits = static_cast<std::uint64_t>(v.number("fence_waits"));
    const json::Value& sim = v.at("sim");
    for (std::size_t i = 0; i < sim.keys.size(); ++i) {
        r.sim.emplace_back(sim.keys[i], sim.items[i].num);
    }
    const json::Value& self = v.at("self_s");
    for (std::size_t i = 0; i < kLayerCount; ++i) {
        r.self_s[i] = self.number(kLayerNames[i]);
    }
    for (const json::Value& sp : v.at("spans").items) {
        r.spans.push_back(
            Span{sp.items.at(0).str, sp.items.at(1).num, sp.items.at(2).num});
    }
    return r;
}

} // namespace bench
