// Tracked perf-regression harness for the simulator's transaction hot path.
//
// Runs self-timed micro-benches (event queue, packet/TLP allocation, xbar
// forwarding) plus two end-to-end sims (a fixed 256x256x256 GEMM offload and
// the 4-endpoint contention config from bench_multi_accel_contention) and
// writes the results as flat JSON. Timed sections use best-of-N to shed
// scheduler noise. The pool counters are sampled across the measured window
// so the "zero steady-state allocation" property is recorded (and gated)
// alongside the throughput numbers.
//
// The committed BENCH_hotpath.json at the repo root records the
// before/after trajectory of each optimisation PR; `--check <that file>`
// compares the current build against the committed "after" numbers and
// exits non-zero on a >tolerance events/sec regression or any steady-state
// pool allocation. The cmake `perf_report` target runs it at the strict
// same-host default (20%); the CI perf-smoke job uses a looser tolerance
// because shared runners differ from the baseline host in absolute speed.
//
// `--profile` runs the 4-endpoint contention config with a dispatch
// observer installed and prints per-event-name and per-component event
// counts and (inclusive) time shares, plus event-queue bucket counters —
// so future perf PRs can cite the profile from the tool instead of ad-hoc
// perf runs. `--only SUBSTR` restricts the run to matching benches for
// fast iteration (not valid together with --check).
//
// Usage:
//   perf_baseline [--out FILE] [--check BASELINE.json] [--tolerance PCT]
//                 [--only SUBSTR] [--profile]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_util.hh"
#include "cache/cache.hh"
#include "core/runner.hh"
#include "mem/dram_timing.hh"
#include "mem/mem_ctrl.hh"
#include "mem/packet.hh"
#include "mem/traffic_gen.hh"
#include "mem/xbar.hh"
#include "pcie/link.hh"
#include "pcie/tlp.hh"
#include "sim/simulator.hh"
#include "workload/request_gen.hh"

namespace {

using namespace accesys;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One measured metric, emitted as `"name": value` JSON.
struct Metric {
    std::string name;
    double value;
};

std::vector<Metric> g_metrics;

void record(const std::string& name, double value)
{
    g_metrics.push_back(Metric{name, value});
    std::printf("  %-44s %14.0f\n", name.c_str(), value);
}

/// Combined heap allocations of the packet and TLP pools.
std::uint64_t pool_allocs()
{
    return mem::packet_pool().allocs_total() + pcie::tlp_pool().allocs_total();
}

// --- bm_event_queue ---------------------------------------------------------
// Two traffic shapes through a bare EventQueue, reported separately so the
// regression gate reflects both:
//   * burst: wide same-window fanouts with reschedule/deschedule churn (the
//     retry/backpressure pattern) drained through step() — heap-heavy;
//   * steady: a small set of self-rescheduling events drained through
//     run() — the link/egress ping-pong pattern real sim traffic is made
//     of, which exercises the cached-top and same-tick batch paths.
void bm_event_queue()
{
    constexpr int kFanout = 256;
    constexpr std::uint64_t kTarget = 4'000'000;

    {
        EventQueue q;
        std::uint64_t fired = 0;
        std::vector<std::unique_ptr<Event>> events;
        events.reserve(kFanout);
        for (int i = 0; i < kFanout; ++i) {
            events.push_back(std::make_unique<Event>(
                "e" + std::to_string(i), [&fired] { ++fired; }));
        }
        const auto t0 = Clock::now();
        while (fired < kTarget) {
            for (int i = 0; i < kFanout; ++i) {
                q.schedule(*events[i],
                           q.now() + 1 + static_cast<Tick>(i % 7));
            }
            // Reschedule a slice before running (retry/backpressure).
            for (int i = 0; i < kFanout; i += 8) {
                q.reschedule(*events[i], q.now() + 9);
            }
            while (q.step()) {
            }
        }
        record("bm_event_queue.burst_events_per_sec",
               static_cast<double>(fired) / seconds_since(t0));
    }

    {
        // Steady: 8 events that keep rescheduling themselves a few ticks
        // out, plus one same-tick responder each (the schedule_now chain).
        constexpr int kChains = 8;
        EventQueue q;
        std::uint64_t fired = 0;
        struct Chain {
            EventQueue* q;
            std::uint64_t* fired;
            Event tick_ev;
            Event resp_ev;
        };
        std::vector<std::unique_ptr<Chain>> chains;
        for (int i = 0; i < kChains; ++i) {
            auto c = std::make_unique<Chain>();
            c->q = &q;
            c->fired = &fired;
            c->tick_ev.set_name("tick" + std::to_string(i));
            c->tick_ev.set_raw_callback(
                [](void* p) {
                    auto* ch = static_cast<Chain*>(p);
                    ++*ch->fired;
                    ch->q->schedule_at_current_tick(ch->resp_ev);
                },
                c.get());
            c->resp_ev.set_name("resp" + std::to_string(i));
            c->resp_ev.set_raw_callback(
                [](void* p) {
                    auto* ch = static_cast<Chain*>(p);
                    ++*ch->fired;
                    ch->q->schedule(ch->tick_ev,
                                    ch->q->now() + 3);
                },
                c.get());
            chains.push_back(std::move(c));
        }
        const auto t0 = Clock::now();
        for (auto& c : chains) {
            q.schedule(c->tick_ev, q.now() + 1);
        }
        while (fired < kTarget) {
            (void)q.run(q.now() + 1024);
        }
        record("bm_event_queue.steady_events_per_sec",
               static_cast<double>(fired) / seconds_since(t0));
    }
}

// --- bm_packet_alloc --------------------------------------------------------
// Allocate/release mem::Packet and pcie::Tlp objects the way the fabric hot
// path does: route pushes, small MMIO payloads, response conversion. With
// the pools warm this is pure recycle traffic.
void bm_packet_alloc()
{
    constexpr std::uint64_t kIters = 2'000'000;
    std::uint64_t sink = 0;

    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
        auto pkt = mem::packet_pool().make_read(0x1000 + (i % 4096) * 64, 64);
        pkt->push_route(1);
        pkt->push_route(3);
        pkt->make_response();
        sink += pkt->pop_route();
        sink += pkt->pop_route();

        auto tlp = pcie::tlp_pool().make_mem_write(0x2000 + (i % 1024) * 8,
                                                   8, 1);
        sink += tlp->length;
    }
    const double secs = seconds_since(t0);
    if (sink == 0) { // defeat whole-loop elision
        std::printf("(unreachable)\n");
    }
    record("bm_packet_alloc.items_per_sec",
           static_cast<double>(2 * kIters) / secs);
}

// --- bm_xbar_forward --------------------------------------------------------
// Steady-state timing forwarding: TrafficGen -> Xbar -> SimpleMem, the
// minimal request/response round trip every larger topology is made of.
// Runs twice: the first pass warms the pools, the second asserts that
// forwarding performs zero pool heap allocations.
void bm_xbar_forward()
{
    double best_secs = 1e100;
    std::uint64_t events = 0;
    std::uint64_t steady_allocs = 0;
    constexpr int kPasses = 3;
    mem::TrafficGenParams tp;
    tp.total_bytes = 16 * kMiB;
    tp.req_bytes = 64;
    tp.window = 32;

    for (int pass = 0; pass < kPasses; ++pass) {
        Simulator sim;
        mem::Xbar xbar(sim, "xbar", mem::XbarParams{});
        mem::SimpleMemParams smp;
        const mem::AddrRange range(0, 64 * kMiB);
        mem::SimpleMem memory(sim, "mem", smp, range);
        mem::TrafficGen gen(sim, "gen", tp);

        gen.port().bind(xbar.add_upstream("cpu"));
        xbar.add_downstream("mem", range).bind(memory.port());
        sim.startup();

        const std::uint64_t allocs0 = pool_allocs();
        const auto t0 = Clock::now();
        gen.start([&sim] { sim.request_exit("done"); });
        const auto res = sim.run();
        const double secs = seconds_since(t0);
        if (pass > 0) { // pools warm: measure
            best_secs = std::min(best_secs, secs);
            events = res.events;
            steady_allocs = pool_allocs() - allocs0;
        }
    }

    const double reqs = static_cast<double>(tp.total_bytes / tp.req_bytes);
    record("bm_xbar_forward.reqs_per_sec", reqs / best_secs);
    record("bm_xbar_forward.events_per_sec",
           static_cast<double>(events) / best_secs);
    record("bm_xbar_forward.steady_pool_allocs",
           static_cast<double>(steady_allocs));
}

// --- bm_cache_fill ----------------------------------------------------------
// Cache fill/evict model under a streaming DMA shape: a demand-miss train
// (line-sized reads over a footprint larger than the cache, so every fill
// victimises a line) interleaved with whole-line write phases that install
// dirty lines and drive eviction/writeback churn on the following read
// pass. TrafficGen -> Cache -> SimpleMem; exercises the MSHR pool, the
// slot-tagged fill completion, victim selection and the batched writeback
// flush. First pass warms the pools; the zero steady-state allocation
// invariant is recorded like the other forwarding benches.
void bm_cache_fill()
{
    double best_secs = 1e100;
    std::uint64_t fills = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t steady_allocs = 0;
    constexpr int kPasses = 3;

    cache::CacheParams cp;
    cp.size_bytes = 64 * kKiB;
    cp.assoc = 8;
    cp.line_bytes = 64;
    cp.mshrs = 16;

    mem::TrafficGenParams read_tp;
    read_tp.total_bytes = 8 * kMiB;
    read_tp.working_set = 8 * kMiB; // 128x the cache: every read misses
    read_tp.req_bytes = 64;
    read_tp.window = 16;

    mem::TrafficGenParams write_tp = read_tp;
    write_tp.write_fraction = 1.0; // whole-line writes: install + evict

    for (int pass = 0; pass < kPasses; ++pass) {
        const std::uint64_t allocs0 = pool_allocs();
        double secs = 0.0;
        std::uint64_t pass_fills = 0;
        std::uint64_t pass_wbs = 0;
        for (const auto* tp : {&write_tp, &read_tp}) {
            Simulator sim;
            cache::Cache c(sim, "c", cp);
            const mem::AddrRange range(0, 64 * kMiB);
            mem::SimpleMemParams smp;
            mem::SimpleMem memory(sim, "mem", smp, range);
            mem::TrafficGen gen(sim, "gen", *tp);
            gen.port().bind(c.cpu_side());
            c.mem_side().bind(memory.port());
            sim.startup();
            const auto t0 = Clock::now();
            gen.start([&sim] { sim.request_exit("done"); });
            (void)sim.run();
            secs += seconds_since(t0);
            pass_fills += c.misses();
            pass_wbs += static_cast<std::uint64_t>(
                sim.stats().value("c.writebacks"));
        }
        if (pass > 0) { // pools warm: measure
            if (secs < best_secs) {
                best_secs = secs;
                fills = pass_fills;
                writebacks = pass_wbs;
            }
            steady_allocs += pool_allocs() - allocs0;
        }
    }

    record("bm_cache_fill.lines_per_sec",
           static_cast<double>(fills + writebacks) / best_secs);
    record("bm_cache_fill.steady_pool_allocs",
           static_cast<double>(steady_allocs));
}

// --- bm_dram_stream ---------------------------------------------------------
// DramTiming component model alone: streaming multi-burst access_run walks
// (the MemCtrl::service_dram pattern) plus a row-conflict-heavy random
// pattern. Measures the bank-state machine itself — no events, no ports.
void bm_dram_stream()
{
    mem::DramParams p = mem::ddr4_2400();
    mem::DramTiming dram(p);
    const std::uint32_t atom = p.burst_bytes();
    constexpr std::uint64_t kRuns = 400'000;
    constexpr std::uint64_t kBurstsPerRun = 8; // a 512 B DMA chunk
    std::uint64_t sink = 0;

    const auto t0 = Clock::now();
    Tick t = 0;
    Addr a = 0;
    for (std::uint64_t i = 0; i < kRuns; ++i) {
        // Mostly-sequential stream with a periodic row jump (the FR-FCFS
        // fallback shape): one access_run per 8-burst chunk.
        const auto acc = dram.access_run(a, kBurstsPerRun, (i & 7) == 7, t);
        sink += acc.data_ready;
        t = acc.data_ready;
        a += atom * kBurstsPerRun;
        if ((i & 63) == 63) {
            a += p.row_bytes * p.banks; // force a bank conflict
        }
    }
    const double secs = seconds_since(t0);
    if (sink == 0) {
        std::printf("(unreachable)\n");
    }
    record("bm_dram_stream.bursts_per_sec",
           static_cast<double>(kRuns * kBurstsPerRun) / secs);
}

// --- bm_link_credit ---------------------------------------------------------
// Credit-gated link throughput: a saturating sender pushes MWr TLPs through
// a PcieLink into a consuming node that releases ingress immediately. With
// lazy credit accounting the uncongested direction elides every credit
// event; the sender still stalls (and is kicked) whenever the in-flight
// window exceeds the advertised credits, so both paths are exercised.
void bm_link_credit()
{
    struct Consumer final : pcie::PcieNode {
        Simulator* sim = nullptr;
        pcie::PciePort* port = nullptr;
        std::uint64_t received = 0;
        std::uint64_t target = 0;
        void recv_tlp(unsigned, pcie::TlpPtr tlp) override
        {
            port->release_ingress(tlp->payload_bytes());
            if (++received >= target) {
                sim->request_exit("done");
            }
        }
    };
    struct Sender final : pcie::PcieNode {
        pcie::PciePort* port = nullptr;
        std::uint64_t sent = 0;
        std::uint64_t target = 0;
        void pump()
        {
            while (sent < target) {
                auto tlp = pcie::tlp_pool().make_mem_write(
                    0x1000 + (sent % 512) * 64, 64, 1);
                if (!port->can_send(*tlp)) {
                    return; // starved: credit_avail will kick us
                }
                port->send(std::move(tlp));
                ++sent;
            }
        }
        void recv_tlp(unsigned, pcie::TlpPtr) override {}
        void credit_avail(unsigned) override { pump(); }
    };

    constexpr std::uint64_t kTlps = 400'000;
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
        Simulator sim;
        pcie::LinkParams lp; // gen2 x4, 16 KiB data credits
        pcie::PcieLink link(sim, "link", lp);
        Sender tx;
        Consumer rx;
        tx.port = &link.end_a();
        rx.sim = &sim;
        rx.port = &link.end_b();
        link.end_a().attach(tx, 0);
        link.end_b().attach(rx, 0);
        tx.target = kTlps;
        rx.target = kTlps;
        sim.startup();
        const auto t0 = Clock::now();
        tx.pump();
        (void)sim.run();
        const double secs = seconds_since(t0);
        best = std::min(best, secs);
        if (rx.received < kTlps) {
            // A short run means the credit path stalled — the exact
            // regression this bench exists to catch. Dividing the full
            // target by a truncated wall time would *inflate* the metric,
            // so fail hard instead of recording a lie.
            std::fprintf(stderr,
                         "bm_link_credit: credit flow stalled after %llu of "
                         "%llu TLPs — aborting\n",
                         static_cast<unsigned long long>(rx.received),
                         static_cast<unsigned long long>(kTlps));
            std::exit(3);
        }
    }
    record("bm_link_credit.tlps_per_sec",
           static_cast<double>(kTlps) / best);
}

// --- end-to-end GEMM --------------------------------------------------------
void e2e_gemm_256()
{
    constexpr int kRepeats = 4;
    double best = 1e100;
    std::uint64_t events = 0;
    for (int r = 0; r < kRepeats; ++r) {
        core::System sys(core::SystemConfig::paper_default());
        benchutil::WatchScope watch(sys);
        core::Runner runner(sys);
        const auto t0 = Clock::now();
        (void)runner.run_gemm(workload::GemmSpec{256, 256, 256, 3},
                              core::Placement::host);
        const double secs = seconds_since(t0);
        if (secs < best) {
            best = secs;
            events = sys.sim().queue().events_processed();
        }
    }
    record("e2e_gemm_256.wall_ms", best * 1000.0);
    record("e2e_gemm_256.events_per_sec", static_cast<double>(events) / best);
}

// --- dispatch profiler (--profile) ------------------------------------------
// Records per-event-name dispatch counts and inclusive wall time (the
// interval from one dispatch to the next is attributed to the earlier
// event: callback + schedule + queue machinery). Aggregates by component
// (name prefix up to the first '.').
class Profiler final : public EventQueue::DispatchObserver {
  public:
    void on_dispatch(const Event& ev) override
    {
        const auto t = Clock::now();
        if (last_ != nullptr) {
            Slot& s = slots_[*last_];
            ++s.count;
            s.secs += std::chrono::duration<double>(t - last_t_).count();
        }
        last_ = &ev.name();
        last_t_ = t;
    }

    void report() const
    {
        struct Row {
            std::string name;
            std::uint64_t count;
            double secs;
        };
        double total = 0.0;
        std::uint64_t events = 0;
        std::map<std::string, Row> components;
        std::vector<Row> rows;
        for (const auto& [name, slot] : slots_) {
            rows.push_back(Row{name, slot.count, slot.secs});
            total += slot.secs;
            events += slot.count;
            const std::string comp = name.substr(0, name.find('.'));
            Row& c = components[comp];
            c.name = comp;
            c.count += slot.count;
            c.secs += slot.secs;
        }
        const auto by_time = [](const Row& a, const Row& b) {
            return a.secs > b.secs;
        };
        std::sort(rows.begin(), rows.end(), by_time);
        std::vector<Row> comp_rows;
        for (const auto& [_, row] : components) {
            comp_rows.push_back(row);
        }
        std::sort(comp_rows.begin(), comp_rows.end(), by_time);

        std::printf("\nprofile: %llu dispatches, %.3f s attributed\n",
                    static_cast<unsigned long long>(events), total);
        std::printf("\n  %-36s %12s %9s %7s\n", "component", "events",
                    "ms", "share");
        for (const auto& r : comp_rows) {
            std::printf("  %-36s %12llu %9.1f %6.1f%%\n", r.name.c_str(),
                        static_cast<unsigned long long>(r.count),
                        r.secs * 1e3, 100.0 * r.secs / total);
        }
        std::printf("\n  %-36s %12s %9s %7s\n", "event (top 24)", "events",
                    "ms", "share");
        for (std::size_t i = 0; i < rows.size() && i < 24; ++i) {
            const Row& r = rows[i];
            std::printf("  %-36s %12llu %9.1f %6.1f%%\n", r.name.c_str(),
                        static_cast<unsigned long long>(r.count),
                        r.secs * 1e3, 100.0 * r.secs / total);
        }
    }

  private:
    struct Slot {
        std::uint64_t count = 0;
        double secs = 0.0;
    };
    std::map<std::string, Slot> slots_;
    const std::string* last_ = nullptr;
    Clock::time_point last_t_;
};

/// One profiled contention run (4 endpoints, size^3 GEMMs): per-component
/// event counts and time shares from the dispatch observer.
void profile_contention(std::uint32_t size)
{
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    cfg.set_num_devices(4);
    core::System sys(cfg);
    benchutil::WatchScope watch(sys);
    core::Runner runner(sys);
    const workload::GemmSpec spec{size, size, size, 3};
    for (std::size_t d = 0; d < 4; ++d) {
        runner.dispatch(d, spec, core::Placement::host);
    }
    Profiler prof;
    sys.sim().queue().set_dispatch_observer(&prof);
    (void)runner.run_dispatched();
    sys.sim().queue().set_dispatch_observer(nullptr);
    std::printf("\nprofile of contention_4ep (%ux%ux%u):\n", size, size,
                size);
    prof.report();
    const auto& q = sys.sim().queue();
    std::printf("\nevent-queue buckets: %llu scheduled, %llu dispatched, "
                "%llu express hits, %llu express spills\n",
                static_cast<unsigned long long>(q.events_scheduled()),
                static_cast<unsigned long long>(q.events_processed()),
                static_cast<unsigned long long>(q.express_hits()),
                static_cast<unsigned long long>(q.express_spills()));
    std::printf("event-core counters: %llu heap pushes, %llu near-ring "
                "hits, %llu express dispatches\n",
                static_cast<unsigned long long>(q.heap_pushes()),
                static_cast<unsigned long long>(q.near_ring_hits()),
                static_cast<unsigned long long>(q.express_hits()));
}

// --- 4-endpoint contention config -------------------------------------------
// Mirrors bench_multi_accel_contention's N=4 row: four MatrixFlow endpoints
// behind one switch on the shared x4 uplink, one concurrent GEMM each. The
// first repeat warms the pools; steady_pool_allocs reports the heap
// allocations the pools performed across the later (measured) repeats.
void contention_4ep(const char* label, std::uint32_t size, int repeats,
                    double corrupt_rate = 0.0)
{
    double best = 1e100;
    std::uint64_t events = 0;
    std::uint64_t steady_allocs = 0;
    for (int r = 0; r < repeats; ++r) {
        core::SystemConfig cfg = core::SystemConfig::paper_default();
        cfg.set_num_devices(4);
        if (corrupt_rate > 0.0) {
            cfg.fault_plan.seed = 1;
            cfg.fault_plan.corrupt_rate = corrupt_rate;
            cfg.fault_plan.max_replays = 64;
        }
        core::System sys(cfg);
        benchutil::WatchScope watch(sys);
        core::Runner runner(sys);
        const workload::GemmSpec spec{size, size, size, 3};
        for (std::size_t d = 0; d < 4; ++d) {
            runner.dispatch(d, spec, core::Placement::host);
        }
        const std::uint64_t allocs0 = pool_allocs();
        const auto t0 = Clock::now();
        (void)runner.run_dispatched();
        const double secs = seconds_since(t0);
        if (r > 0) {
            steady_allocs += pool_allocs() - allocs0;
            if (secs < best) {
                best = secs;
                events = sys.sim().queue().events_processed();
            }
        }
    }
    const std::string prefix = label;
    if (corrupt_rate > 0.0) {
        // Faulty leg: the fault plan activates replay-buffer accounting on
        // every link, so this measures the whole error-recovery tax under
        // contention. Informational, never --check gated: the clean-path
        // metrics above already gate the zero-fault-tax contract, and
        // replay TLP clones legitimately warm the TLP pool in-run.
        record(prefix + ".wall_ms_faulty", best * 1000.0);
        return;
    }
    record(prefix + ".wall_ms", best * 1000.0);
    record(prefix + ".events_per_sec", static_cast<double>(events) / best);
    record(prefix + ".steady_pool_allocs",
           static_cast<double>(steady_allocs));
}

// --- checkpoint round-trip cost ---------------------------------------------
// Wall cost of writing and re-loading a mid-run snapshot of the 4-endpoint
// contention config, plus its size on disk — the robustness tax a long run
// pays per checkpoint interval. Informational, never --check gated: file
// IO on shared runners is far noisier than the event-loop metrics, and
// the zero-clean-path-tax contract is enforced by the gated metrics above
// (checkpointing costs nothing until a snapshot is actually requested).
void ckpt_cost_4ep()
{
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    cfg.set_num_devices(4);
    const workload::GemmSpec spec{256, 256, 256, 3};
    const std::string path = "perf_ckpt.ckpt";

    Tick end = 0;
    {
        core::System sys(cfg);
        benchutil::WatchScope watch(sys);
        core::Runner runner(sys);
        for (std::size_t d = 0; d < 4; ++d) {
            runner.dispatch(d, spec, core::Placement::host);
        }
        (void)runner.run_dispatched();
        end = sys.sim().now();
    }

    {
        core::System sys(cfg);
        benchutil::WatchScope watch(sys);
        core::Runner runner(sys);
        for (std::size_t d = 0; d < 4; ++d) {
            runner.dispatch(d, spec, core::Placement::host);
        }
        sys.sim().request_checkpoint_at(path, end / 2);
        const auto res = runner.run_dispatched();
        if (!res.checkpointed) {
            std::fprintf(stderr,
                         "ckpt_cost_4ep: run finished before the midpoint "
                         "checkpoint — skipping\n");
            return;
        }
        // The run loop already wrote the armed snapshot; re-write it at
        // the same quiescent point, timed, best-of-3.
        double best = 1e100;
        for (int r = 0; r < 3; ++r) {
            const auto t0 = Clock::now();
            sys.sim().checkpoint(path);
            best = std::min(best, seconds_since(t0));
        }
        record("ckpt_4ep_256.save_ms", best * 1000.0);
        std::ifstream f(path, std::ios::binary | std::ios::ate);
        record("ckpt_4ep_256.bytes", static_cast<double>(f.tellg()));
    }

    // Restore cost: deserialization + event re-insertion into a freshly
    // built System with the identical dispatch re-staged (the restore
    // protocol's precondition). One restore per System (a second would
    // double-insert the checkpointed events), so best-of-3 constructs
    // three.
    double best = 1e100;
    for (int r = 0; r < 3; ++r) {
        core::System sys(cfg);
        benchutil::WatchScope watch(sys);
        core::Runner runner(sys);
        for (std::size_t d = 0; d < 4; ++d) {
            runner.dispatch(d, spec, core::Placement::host);
        }
        const auto t0 = Clock::now();
        runner.restore_dispatched(path);
        best = std::min(best, seconds_since(t0));
    }
    record("ckpt_4ep_256.restore_ms", best * 1000.0);
    std::remove(path.c_str());
}

// --- serving overload goodput -----------------------------------------------
// The pinned serving scenario from bench_serving's golden mode: a seeded
// two-tenant Poisson mix at 1.5x the 4-endpoint fleet's capacity through
// Runner::serve with a bounded shed_oldest admission queue. Records the
// fleet's goodput under overload — the jobs/s of useful completions once
// shedding is active. Informational, never --check gated: goodput tracks
// the serving policy and service-time model rather than the event-loop
// hot path, and the scenario's bit-exact behavior is already locked by
// the committed GOLDEN_serving.json byte-compare in CI.
void serving_overload()
{
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    cfg.set_num_devices(4);
    workload::RequestGenConfig gcfg;
    gcfg.seed = 11;
    gcfg.horizon_ns = 1e5;
    workload::TenantSpec interactive;
    interactive.name = "interactive";
    interactive.rate_jobs_per_s = 6e5 * 2.0 / 3.0;
    interactive.mix = {workload::GemmSpec{16, 16, 16},
                       workload::GemmSpec{32, 32, 32}};
    workload::TenantSpec batch;
    batch.name = "batch";
    batch.rate_jobs_per_s = 6e5 / 3.0;
    batch.mix = {workload::GemmSpec{48, 48, 48}};
    gcfg.tenants.push_back(interactive);
    gcfg.tenants.push_back(batch);

    core::System sys(cfg);
    benchutil::WatchScope watch(sys);
    workload::RequestGen gen(sys.sim(), gcfg);
    core::Runner runner(sys);
    core::ServingConfig scfg;
    scfg.policy = core::ShedPolicy::shed_oldest;
    scfg.queue_capacity = 8;
    const auto res = runner.serve(gen, scfg);
    if (!res.accounted() || res.shed == 0) {
        std::fprintf(stderr,
                     "serving_overload: scenario lost its overload or its "
                     "accounting — metric skipped\n");
        return;
    }
    record("serving_overload.goodput_jobs_per_s",
           res.goodput_jobs_per_s());
}

// --- JSON out / regression check --------------------------------------------

void write_json(const std::string& path)
{
    std::ofstream os(path);
    os << "{\n  \"schema\": \"accesys-perf-hotpath-v1\",\n";
    for (std::size_t i = 0; i < g_metrics.size(); ++i) {
        os << "  \"" << g_metrics[i].name << "\": " << g_metrics[i].value
           << (i + 1 < g_metrics.size() ? "," : "") << "\n";
    }
    os << "}\n";
    std::printf("\nwrote %s\n", path.c_str());
}

/// Find `"key"` inside `text` at or after `from` and parse the number that
/// follows its ':'. Returns false when absent. Tolerant by design: the
/// committed baseline nests the same flat metric names under "before"/
/// "after" objects, so the caller anchors `from` at the section first.
bool find_number(const std::string& text, const std::string& key,
                 std::size_t from, double& out)
{
    const std::string needle = "\"" + key + "\"";
    const std::size_t k = text.find(needle, from);
    if (k == std::string::npos) {
        return false;
    }
    const std::size_t colon = text.find(':', k + needle.size());
    if (colon == std::string::npos) {
        return false;
    }
    out = std::strtod(text.c_str() + colon + 1, nullptr);
    return true;
}

/// Compare current events/sec-style metrics against the committed baseline's
/// "after" section; a drop beyond `tolerance` (fraction) fails the check, as
/// does any steady-state pool heap allocation in the current run.
int check_against(const std::string& baseline_path, double tolerance)
{
    std::ifstream is(baseline_path);
    if (!is) {
        std::fprintf(stderr, "check: cannot read %s\n",
                     baseline_path.c_str());
        return 2;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();

    // Throughput metrics gate the check. Wall time is additionally gated
    // (lower is better) for the flagship contention config: event-eliding
    // optimizations (lazy credits, egress fusion) lower events/sec while
    // making the simulator *faster*, so the events/sec gates alone would
    // punish exactly the changes that matter — wall time is the
    // first-class metric that rewards them.
    struct Gate {
        const char* name;
        bool lower_is_better; ///< wall time: fail above baseline*(1+tol)
    };
    const Gate gated[] = {
        {"bm_event_queue.burst_events_per_sec", false},
        {"bm_event_queue.steady_events_per_sec", false},
        {"bm_packet_alloc.items_per_sec", false},
        {"bm_xbar_forward.events_per_sec", false},
        {"bm_cache_fill.lines_per_sec", false},
        {"bm_dram_stream.bursts_per_sec", false},
        {"bm_link_credit.tlps_per_sec", false},
        {"e2e_gemm_256.events_per_sec", false},
        {"contention_4ep.events_per_sec", false},
        {"contention_4ep_512.events_per_sec", false},
        {"contention_4ep_512.wall_ms", true},
    };

    std::size_t anchor = text.find("\"after\"");
    if (anchor == std::string::npos) {
        anchor = 0; // flat file: metrics at top level
    }

    int failures = 0;
    for (const Gate& gate : gated) {
        double want = 0.0;
        if (!find_number(text, gate.name, anchor, want) || want <= 0.0) {
            std::fprintf(stderr, "check: baseline lacks %s — skipping\n",
                         gate.name);
            continue;
        }
        double got = 0.0;
        for (const Metric& m : g_metrics) {
            if (m.name == gate.name) {
                got = m.value;
            }
        }
        const bool ok = gate.lower_is_better
                            ? got > 0.0 && got <= want * (1.0 + tolerance)
                            : got >= want * (1.0 - tolerance);
        std::printf("  check %-42s %14.1f vs baseline %14.1f %s\n",
                    gate.name, got, want, ok ? "ok" : "REGRESSED");
        if (!ok) {
            ++failures;
        }
    }

    // Machine-independent invariant: steady-state forwarding allocates no
    // packet/TLP heap memory.
    for (const Metric& m : g_metrics) {
        if (m.name.find("steady_pool_allocs") != std::string::npos &&
            m.value != 0.0) {
            std::printf("  check %-42s %14.0f expected 0 REGRESSED\n",
                        m.name.c_str(), m.value);
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv)
{
    benchutil::install_wall_watchdog(argc, argv);
    std::string out_path = "BENCH_hotpath.json";
    std::string check_path;
    std::string only;
    bool profile = false;
    double tolerance = 0.20;
    int attempts = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
            check_path = argv[++i];
        } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
            tolerance = std::strtod(argv[++i], nullptr) / 100.0;
        } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
            only = argv[++i];
        } else if (std::strcmp(argv[i], "--profile") == 0) {
            profile = true;
        } else if (std::strcmp(argv[i], "--attempts") == 0 && i + 1 < argc) {
            attempts = std::atoi(argv[++i]);
            if (attempts < 1) {
                attempts = 1;
            }
        } else if (std::strcmp(argv[i], "--max-wall-ms") == 0 &&
                   i + 1 < argc) {
            ++i; // consumed by install_wall_watchdog above
        } else if (std::strncmp(argv[i], "--max-wall-ms=", 14) == 0) {
            // consumed by install_wall_watchdog above
        } else {
            std::fprintf(stderr,
                         "usage: %s [--out FILE] [--check BASELINE.json] "
                         "[--tolerance PCT] [--only SUBSTR] [--profile] "
                         "[--attempts N]\n"
                         "  --out FILE        write metrics JSON to FILE "
                         "(default BENCH_hotpath.json)\n"
                         "  --check BASELINE  compare against BASELINE's "
                         "\"after\" section; non-zero exit on a "
                         "regression beyond the tolerance\n"
                         "  --tolerance PCT   regression tolerance in "
                         "percent (default 20)\n"
                         "  --only SUBSTR     run only benches whose name "
                         "contains SUBSTR (not valid with --check)\n"
                         "  --profile         run the 4-endpoint contention "
                         "config under the dispatch observer and print "
                         "per-event/per-component counts and time shares\n"
                         "  --attempts N      re-run the suite up to N "
                         "times, keeping each metric's best (CI flake "
                         "hardening; wall times keep their fastest)\n"
                         "  --max-wall-ms N   watchdog: hard-exit with "
                         "status 124 if the whole run exceeds N ms of "
                         "wall time\n",
                         argv[0]);
            return 2;
        }
    }
    if (!only.empty() && !check_path.empty()) {
        std::fprintf(stderr,
                     "--only skips benches, so --check would compare "
                     "against missing metrics; use one or the other\n");
        return 2;
    }

    if (profile) {
        profile_contention(256);
        return 0;
    }

    const auto want = [&only](const char* name) {
        return only.empty() || std::string(name).find(only)
                                   != std::string::npos;
    };

    const auto run_suite = [&want] {
        if (want("bm_event_queue")) {
            bm_event_queue();
        }
        if (want("bm_packet_alloc")) {
            bm_packet_alloc();
        }
        if (want("bm_xbar_forward")) {
            bm_xbar_forward();
        }
        if (want("bm_cache_fill")) {
            bm_cache_fill();
        }
        if (want("bm_dram_stream")) {
            bm_dram_stream();
        }
        if (want("bm_link_credit")) {
            bm_link_credit();
        }
        if (want("e2e_gemm_256")) {
            e2e_gemm_256();
        }
        // The contention bench's 4-endpoint rows: quick (256) and the
        // full 512^3 configuration bench_multi_accel_contention reports.
        if (want("contention_4ep")) {
            contention_4ep("contention_4ep", 256, 4);
        }
        if (want("contention_4ep_512")) {
            contention_4ep("contention_4ep_512", 512, 3);
        }
        // The flagship config with a fixed 1e-6 seeded TLP-corruption
        // rate: the link-level replay protocol's overhead under
        // contention. Informational, never --check gated.
        if (want("contention_4ep_512_faulty")) {
            contention_4ep("contention_4ep_512", 512, 3, 1e-6);
        }
        // Checkpoint save/restore wall cost + snapshot size on the
        // contention config. Informational, never --check gated.
        if (want("ckpt_cost_4ep")) {
            ckpt_cost_4ep();
        }
        // Goodput of the pinned serving-under-overload scenario.
        // Informational, never --check gated.
        if (want("serving_overload")) {
            serving_overload();
        }
    };

    // Flake hardening: up to `attempts` full suite runs, with the check
    // re-evaluated after each one, so a noisy window on a shared runner
    // retries instead of failing a good build. Throughput metrics keep
    // their best value across attempts (each bench is already an internal
    // best-of-repeats, so the gate compares a best-of-attempts over
    // best-of-repeats against the baseline floor). steady_pool_allocs
    // also keeps its max — which for an invariant that must be zero is
    // the *worst* value: noise can never mask a real allocation.
    int rc = 0;
    for (int attempt = 1; attempt <= attempts; ++attempt) {
        std::printf("perf_baseline: simulator hot-path benchmarks%s\n\n",
                    attempt > 1 ? " (retry)" : "");
        const std::vector<Metric> prev = std::move(g_metrics);
        g_metrics.clear();
        run_suite();
        for (const Metric& old : prev) {
            for (Metric& m : g_metrics) {
                if (m.name == old.name) {
                    // wall_ms is lower-is-better (keep the fastest run);
                    // throughput keeps its best and the zero-allocation
                    // invariant its worst — both are max.
                    m.value = m.name.find("wall_ms") != std::string::npos
                                  ? std::min(m.value, old.value)
                                  : std::max(m.value, old.value);
                }
            }
        }
        write_json(out_path);
        if (check_path.empty()) {
            return 0;
        }
        std::printf("\nregression check vs %s (tolerance %.0f%%, "
                    "attempt %d/%d)\n",
                    check_path.c_str(), tolerance * 100.0, attempt,
                    attempts);
        rc = check_against(check_path, tolerance);
        if (rc == 0) {
            return 0;
        }
        if (attempt < attempts) {
            std::printf("\ncheck failed — retrying (noisy host?)\n\n");
        }
    }
    return rc;
}
