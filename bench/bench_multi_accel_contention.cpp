// Multi-accelerator uplink contention: sweep 1..4 MatrixFlow endpoints
// behind one PCIe switch sharing the x4 uplink, each running the same GEMM
// concurrently, and report per-device and aggregate bandwidth plus uplink
// utilization — the scenario family the single-device paper topology
// cannot express.
//
// Expected shape: the uplink direction toward the devices saturates, so
// per-device bandwidth falls roughly as 1/N while aggregate bandwidth and
// utilization plateau; completion-time skew between devices stays small
// because the switch round-robins ingress fairly.
// Checkpoint round-trip mode (CI): `--devices N` runs one scenario only;
// `--ckpt-at-ns T --ckpt PATH` snapshots mid-run and exits 3;
// `--restore PATH` resumes a snapshot; `--stats-out PATH` writes the final
// stats registry as JSON. A straight run and a split-at-T run must produce
// byte-identical stats files (the bit-identity contract).
//
// `--profile` runs each selected scenario three times, on fresh systems,
// under a dispatch observer and prints per-event dispatch counts with each
// event's median inclusive time and share (a component row sums its
// events), then the event core's counters. `--devices 4 --profile` profiles
// the 4-endpoint 512^3 run (the gemm_host_4ep shape); add `--quick` for
// 128^3.
#include "bench_util.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

/// Fresh runs per profiled scenario; each event reports its median.
constexpr std::size_t kProfileRuns = 3;

/// Per-event-name dispatch counts and inclusive wall time: the interval
/// from one dispatch to the next (callback, schedules, queue work) goes to
/// the earlier event. The component is the name up to the first '.'.
class Profiler final : public accesys::EventQueue::DispatchObserver {
  public:
    void on_dispatch(const accesys::Event& ev) override
    {
        const auto t = Clock::now();
        if (last_ != nullptr) {
            Row& r = events_[*last_];
            ++r.count;
            r.secs += std::chrono::duration<double>(t - last_t_).count();
        }
        last_ = &ev.name();
        last_t_ = t;
    }

    /// Each event's median time over `runs`, fresh runs of one scenario:
    /// a host preemption inflates the interval of whichever event it lands
    /// on, but in one run only. A component row sums its events' medians.
    static Profiler median_of(const std::vector<Profiler>& runs)
    {
        Profiler med;
        for (const auto& [name, r] : runs.front().events_) {
            std::vector<double> secs;
            for (const Profiler& run : runs) {
                const auto it = run.events_.find(name);
                accesys::ensure(run.events_.size() ==
                                        runs.front().events_.size() &&
                                    it != run.events_.end() &&
                                    it->second.count == r.count,
                                "profiled runs dispatched different events");
                secs.push_back(it->second.secs);
            }
            std::sort(secs.begin(), secs.end());
            med.events_[name] = Row{name, r.count, secs[secs.size() / 2]};
        }
        return med;
    }

    void report() const
    {
        std::map<std::string, Row> components;
        std::vector<Row> events;
        Row total;
        for (const auto& [name, r] : events_) {
            events.push_back(Row{name, r.count, r.secs});
            const std::string comp = name.substr(0, name.find('.'));
            Row& c = components[comp];
            c.name = comp;
            c.count += r.count;
            c.secs += r.secs;
            total.count += r.count;
            total.secs += r.secs;
        }
        std::vector<Row> comps;
        for (const auto& [_, r] : components) {
            comps.push_back(r);
        }
        std::printf("\nprofile: %llu dispatches per run, %.3f s attributed "
                    "(per-event medians of %zu runs)\n",
                    static_cast<unsigned long long>(total.count), total.secs,
                    kProfileRuns);
        print(comps, "component", comps.size(), total.secs);
        print(events, "event (top 24)", 24, total.secs);
    }

  private:
    struct Row {
        std::string name;
        std::uint64_t count = 0;
        double secs = 0.0;
    };

    static void print(std::vector<Row>& rows, const char* title,
                      std::size_t limit, double total)
    {
        std::sort(rows.begin(), rows.end(),
                  [](const Row& a, const Row& b) { return a.secs > b.secs; });
        std::printf("\n  %-36s %12s %9s %7s\n", title, "events", "ms",
                    "share");
        for (std::size_t i = 0; i < rows.size() && i < limit; ++i) {
            std::printf("  %-36s %12llu %9.1f %6.1f%%\n",
                        rows[i].name.c_str(),
                        static_cast<unsigned long long>(rows[i].count),
                        rows[i].secs * 1e3, 100.0 * rows[i].secs / total);
        }
    }

    std::map<std::string, Row> events_;
    const std::string* last_ = nullptr;
    Clock::time_point last_t_;
};

} // namespace

int main(int argc, char** argv)
{
    benchutil::install_wall_watchdog(argc, argv);
    using namespace accesys;
    const bool quick = benchutil::quick_mode(argc, argv);
    const std::uint32_t size = quick ? 128 : 512;
    const std::size_t max_devices = 4;
    const auto only = static_cast<std::size_t>(
        benchutil::arg_ll(argc, argv, "--devices", 0));
    const long long ckpt_at_ns =
        benchutil::arg_ll(argc, argv, "--ckpt-at-ns", 0);
    const std::string ckpt_path =
        benchutil::arg_str(argc, argv, "--ckpt", "contention.ckpt");
    const std::string restore =
        benchutil::arg_str(argc, argv, "--restore", "");
    const std::string stats_out =
        benchutil::arg_str(argc, argv, "--stats-out", "");
    const bool profile = benchutil::flag_present(argc, argv, "--profile");

    benchutil::header("bench_multi_accel_contention",
                      "multi-accelerator extension of Fig. 3",
                      "N endpoints sharing the PCIe 2.0 x4 uplink, one "
                      "concurrent GEMM each");

    std::printf("GEMM per device: %ux%ux%u int8\n\n", size, size, size);
    std::printf("%2s %10s %12s %12s %12s %10s %8s\n", "N", "time(ms)",
                "dev BW(GB/s)", "agg BW(GB/s)", "agg GMAC/s", "uplink%",
                "skew(us)");

    double solo_gbps = 0.0;
    for (std::size_t n = 1; n <= max_devices; ++n) {
        if (only != 0 && n != only) {
            continue;
        }
        core::SystemConfig cfg = core::SystemConfig::paper_default();
        cfg.set_num_devices(n);
        core::System sys(cfg);
        benchutil::WatchScope watch(sys);
        core::Runner runner(sys);

        if (ckpt_at_ns > 0) {
            sys.sim().request_checkpoint_at(ckpt_path,
                                            ticks_from_ns(ckpt_at_ns));
        }

        const workload::GemmSpec spec{size, size, size, /*seed=*/3};
        const auto start = [&](core::Runner& r) {
            if (!restore.empty()) {
                r.set_restore_path(restore);
            }
            for (std::size_t d = 0; d < n; ++d) {
                r.dispatch(d, spec, core::Placement::host);
            }
        };
        start(runner);
        // This run is the first profiled run; the others follow the row.
        std::vector<Profiler> profs(profile ? kProfileRuns : 0);
        if (profile) {
            sys.sim().queue().set_dispatch_observer(&profs.front());
        }
        const auto res = runner.run_dispatched();
        sys.sim().queue().set_dispatch_observer(nullptr);
        if (res.checkpointed) {
            std::printf("checkpoint written to %s at tick %llu\n",
                        ckpt_path.c_str(),
                        static_cast<unsigned long long>(res.end));
            return 3;
        }
        if (ckpt_at_ns > 0) {
            std::fprintf(stderr,
                         "error: run completed before --ckpt-at-ns %lld\n",
                         ckpt_at_ns);
            return 4;
        }
        if (!stats_out.empty()) {
            std::ofstream out(stats_out);
            sys.stats().write_json(out);
        }

        Tick first_done = res.devices.front().done;
        Tick last_done = res.devices.front().done;
        double sum_gbps = 0.0;
        for (const auto& d : res.devices) {
            sum_gbps += d.gbps(res.elapsed());
            first_done = std::min(first_done, d.done);
            last_done = std::max(last_done, d.done);
        }
        const double per_dev = sum_gbps / static_cast<double>(n);
        if (n == 1) {
            solo_gbps = per_dev;
        }

        std::printf("%2zu %10.3f %12.2f %12.2f %12.2f %9.1f%% %8.1f\n", n,
                    res.ms(), per_dev, res.aggregate_gbps(),
                    res.aggregate_gmacs(),
                    100.0 * sys.pcie_uplink().utilization(0),
                    ticks_to_us(last_done - first_done));
        if (profile) {
            for (std::size_t i = 1; i < profs.size(); ++i) {
                core::System again(cfg);
                core::Runner again_runner(again);
                start(again_runner);
                again.sim().queue().set_dispatch_observer(&profs[i]);
                (void)again_runner.run_dispatched();
            }
            Profiler::median_of(profs).report();
            const auto& q = sys.sim().queue();
            std::printf("\nevent-core counters: %llu scheduled, %llu "
                        "dispatched, %llu heap pushes, %llu near-ring hits"
                        "\n\n",
                        static_cast<unsigned long long>(q.events_scheduled()),
                        static_cast<unsigned long long>(q.events_processed()),
                        static_cast<unsigned long long>(q.heap_pushes()),
                        static_cast<unsigned long long>(q.near_ring_hits()));
        }
    }

    if (solo_gbps > 0.0) {
        std::printf("\n(1-device DMA bandwidth %.2f GB/s is the contention "
                    "baseline)\n",
                    solo_gbps);
    }
    return 0;
}
