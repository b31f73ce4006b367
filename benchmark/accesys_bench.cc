// accesys_bench — the repository benchmark: host time per design point on
// five paper workloads, end to end and per layer (see README.md).
//
// Modes:
//   accesys_bench [--legs N] [--seed S] [--out FILE] [--only W] [--quick]
//       Round-robin N untraced legs over every workload, then one traced
//       serial leg each; writes FILE (JSON) and FILE's .trace.json (Chrome
//       trace-event format) and prints every metric with its unit.
//   accesys_bench --workload W --seed S --seconds T --trace 0|1
//       Measure one workload for about T seconds and print one JSON line:
//       end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
//   accesys_bench --compare A.json B.json [--bounds BENCHMARK.json]
//       Verdict per (workload, end-to-end metric) against the bounds, and an
//       exact diff of the simulated per-layer values.
//   --max-wall-ms N  (any mode) hard-exit watchdog, also passed to legs.
//
// Every leg is a fresh child process (this binary re-executed with --leg),
// run one at a time; the full mode interleaves workloads so slow host drift
// spreads over all of them. Results are medians, never best-of.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "../bench/bench_util.hh"
#include "json.hh"
#include "leg.hh"

namespace {

using bench::LegOptions;
using bench::LegResult;
using bench::WorkloadInfo;
using Clock = std::chrono::steady_clock;

struct MetricDef {
    const char* name;
    const char* unit;
    bool exact; ///< a simulated count or value: must repeat bit for bit
};

/// End-to-end metrics, all lower-is-better; bounds live in BENCHMARK.json.
/// Host times are in reference seconds (see kRefCalS).
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s", false},  // wall time of the run call
    {"setup_s", "s", false}, // System construction + workload preparation
    {"rss_mb", "MB", false}, // peak resident set of the leg process
};

/// Per-layer metrics, named by src/ module. Simulated durations carry a
/// sim_ unit so they are never read as host time.
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count", true},
    {"sim.host_ns_per_event", "ns", false},
    {"sim.parallel_speedup", "x", false},
    {"sim.cpu_per_wall", "ratio", false},
    {"sim.barrier_waits", "count", true},
    {"sim.handoffs", "count", true},
    {"sim.fence_waits", "count", true},
    {"host.wall_raw_s", "s", false},
    {"host.cal_s", "s", false},
    {"host.cpu.self_frac", "ratio", false},
    {"host.cache.self_frac", "ratio", false},
    {"host.mem.self_frac", "ratio", false},
    {"host.smmu.self_frac", "ratio", false},
    {"host.pcie.self_frac", "ratio", false},
    {"host.device.self_frac", "ratio", false},
    {"host.workload.self_frac", "ratio", false},
    {"trace.overhead", "ratio", false},
    {"core.build_s", "s", false},
    {"workload.prepare_s", "s", false},
    {"core.sim_us", "sim_us", true},
    {"core.gmacs", "GMAC/s", true},
    {"runner.offered", "count", true},
    {"runner.completed", "count", true},
    {"runner.shed", "count", true},
    {"runner.rejected", "count", true},
    {"runner.rounds", "count", true},
    {"runner.idle_rounds", "count", true},
    {"runner.goodput_jobs_per_s", "1/s", true},
    {"runner.p99_e2e_us", "sim_us", true},
    {"runner.p99_queue_us", "sim_us", true},
    {"vit.gemm_frac", "ratio", true},
    {"vit.nongemm_frac", "ratio", true},
    {"cpu.mmio_writes", "count", true},
    {"cpu.polls", "count", true},
    {"cpu.vector_bytes", "B", true},
    {"cache.llc.hit_rate", "ratio", true},
    {"cache.iocache.hit_rate", "ratio", true},
    {"cache.mshr_rejects", "count", true},
    {"cache.writebacks", "count", true},
    {"mem.hostmem.bytes", "B", true},
    {"mem.hostmem.row_hit_rate", "ratio", true},
    {"mem.hostmem.read_lat_ns", "sim_ns", true},
    {"mem.devmem.bytes", "B", true},
    {"mem.devmem.row_hit_rate", "ratio", true},
    {"mem.devmem.read_lat_ns", "sim_ns", true},
    {"smmu.translations", "count", true},
    {"smmu.utlb_miss_rate", "ratio", true},
    {"smmu.ptws", "count", true},
    {"smmu.trans_ns", "sim_ns", true},
    {"pcie.uplink.tlps", "count", true},
    {"pcie.uplink.util_ab", "ratio", true},
    {"pcie.uplink.util_ba", "ratio", true},
    {"pcie.uplink.payload_frac", "ratio", true},
    {"pcie.rc.inbound_tlps", "count", true},
    {"pcie.rc.mmio_ops", "count", true},
    {"pcie.rc.hol_stalls", "count", true},
    {"pcie.switch.forwarded", "count", true},
    {"dma.bytes", "B", true},
    {"dma.gbps", "GB/s", true},
    {"accel.compute_us", "sim_us", true},
    {"accel.busy_frac", "ratio", true},
    {"accel.tiles", "count", true},
};

double seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- statistics ---------------------------------------------------------------

struct Summary {
    double median = 0.0;
    double p25 = 0.0;
    double p75 = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::size_t n = 0;
};

/// Median and quartiles by the "exclusive" method of Python's
/// statistics.quantiles, so spreads read the same as an external check.
Summary summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty()) {
        return s;
    }
    std::sort(v.begin(), v.end());
    s.min = v.front();
    s.max = v.back();
    const std::size_t n = v.size();
    s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
    if (n < 2) {
        s.p25 = s.p75 = s.median;
        return s;
    }
    const auto quartile = [&](std::size_t i) {
        const std::size_t m = n + 1;
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        const double delta =
            static_cast<double>(i * m) - static_cast<double>(j * 4);
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    s.p25 = quartile(1);
    s.p75 = quartile(3);
    return s;
}

double median(std::vector<double> v)
{
    return summarize(std::move(v)).median;
}

// --- child legs ---------------------------------------------------------------

long long g_max_wall_ms = 0;

/// Run one leg in a fresh child process and parse its JSON line. A child
/// that crashes, times out or prints garbage is a failed leg.
LegResult spawn_leg(const LegOptions& o)
{
    std::vector<std::string> args = {"accesys_bench", "--leg", o.workload,
                                     "--seed", std::to_string(o.seed)};
    if (o.quick) {
        args.emplace_back("--quick");
    }
    if (o.traced) {
        args.emplace_back("--traced");
    }
    if (o.serial) {
        args.emplace_back("--serial");
    }
    if (g_max_wall_ms > 0) {
        args.emplace_back("--max-wall-ms");
        args.push_back(std::to_string(g_max_wall_ms));
    }
    std::vector<char*> argv;
    for (std::string& a : args) {
        argv.push_back(a.data());
    }
    argv.push_back(nullptr);

    LegResult failed;
    failed.attempted = failed.failed = 1;
    int fds[2];
    if (pipe(fds) != 0) {
        failed.error = "pipe failed";
        return failed;
    }
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        failed.error = "fork failed";
        return failed;
    }
    if (pid == 0) {
        // Die with the driver, so a watchdog exit leaves no orphan leg.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent) {
            _exit(1);
        }
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        execv("/proc/self/exe", argv.data());
        _exit(127);
    }
    close(fds[1]);
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n > 0) {
            out.append(buf, static_cast<std::size_t>(n));
        } else if (n == 0 || errno != EINTR) {
            break;
        }
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        failed.error = o.workload + " leg exited abnormally (status " +
                       std::to_string(status) + ")";
        return failed;
    }
    while (!out.empty() && out.back() == '\n') {
        out.pop_back();
    }
    try {
        return LegResult::from_json(
            bench::json::parse(out.substr(out.rfind('\n') + 1)));
    } catch (const std::exception& e) {
        failed.error = o.workload + " leg output unreadable: " + e.what();
        return failed;
    }
}

/// Every leg of one workload, by kind.
struct Runs {
    const WorkloadInfo* info = nullptr;
    std::vector<LegResult> untraced; ///< default threads, no tracer
    std::vector<LegResult> serial;   ///< parallel workload forced serial
    std::vector<LegResult> traced;   ///< serial, layer tracer installed
};

void run_and_log(const Runs& runs, const LegOptions& o,
                 std::vector<LegResult>& into)
{
    LegResult r = spawn_leg(o);
    if (!r.error.empty()) {
        std::fprintf(stderr, "accesys_bench: %s\n", r.error.c_str());
    } else if (r.failed != 0) {
        std::fprintf(stderr, "accesys_bench: %s: %llu of %llu jobs failed\n",
                     runs.info->name,
                     static_cast<unsigned long long>(r.failed),
                     static_cast<unsigned long long>(r.attempted));
    }
    into.push_back(std::move(r));
}

/// Jobs attempted and failed over all legs. A leg whose stats fingerprint
/// differs from the workload's first leg fails all its jobs: the simulated
/// result must not depend on the leg, the tracer or the thread count.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t fingerprint = 0;
};

Tally tally(const Runs& runs)
{
    Tally t;
    bool have_ref = false;
    for (const auto* set : {&runs.untraced, &runs.serial, &runs.traced}) {
        for (const LegResult& r : *set) {
            t.attempted += r.attempted;
            std::uint64_t failed = r.failed;
            if (r.error.empty()) {
                if (!have_ref) {
                    t.fingerprint = r.fingerprint;
                    have_ref = true;
                } else if (r.fingerprint != t.fingerprint) {
                    std::fprintf(stderr,
                                 "accesys_bench: %s: stats fingerprint "
                                 "%016llx differs from the first leg's "
                                 "%016llx\n",
                                 runs.info->name,
                                 static_cast<unsigned long long>(r.fingerprint),
                                 static_cast<unsigned long long>(t.fingerprint));
                    failed = r.attempted;
                }
            }
            t.failed += failed;
        }
    }
    t.attempted = std::max<std::uint64_t>(t.attempted, 1);
    return t;
}

std::vector<double> collect(const std::vector<LegResult>& legs,
                            double (*get)(const LegResult&))
{
    std::vector<double> v;
    for (const LegResult& r : legs) {
        if (r.error.empty()) {
            v.push_back(get(r));
        }
    }
    return v;
}

/// Host times are reported in reference seconds: scaled by the leg's own
/// calibration pass to a host on which that pass takes exactly kRefCalS.
/// This shared host drifts by up to 2x within minutes as co-tenants come
/// and go; the ratio removes most of that drift (README "Host speed").
constexpr double kRefCalS = 0.05;
double ref_s(const LegResult& r, double host_s)
{
    return host_s * kRefCalS / r.cal_s;
}

double get_run(const LegResult& r) { return ref_s(r, r.run_s); }
double get_setup(const LegResult& r)
{
    return ref_s(r, r.build_s + r.prepare_s);
}
double get_rss(const LegResult& r) { return r.rss_mb; }
double get_build(const LegResult& r) { return ref_s(r, r.build_s); }
double get_prepare(const LegResult& r) { return ref_s(r, r.prepare_s); }
double get_raw_run(const LegResult& r) { return r.run_s; }
double get_cal(const LegResult& r) { return r.cal_s; }
double get_cpu_per_wall(const LegResult& r) { return r.cpu_s / r.run_s; }

std::vector<std::pair<const MetricDef*, Summary>> end_to_end(const Runs& runs)
{
    return {
        {&kEndToEnd[0], summarize(collect(runs.untraced, get_run))},
        {&kEndToEnd[1], summarize(collect(runs.untraced, get_setup))},
        {&kEndToEnd[2], summarize(collect(runs.untraced, get_rss))},
    };
}

/// Per-layer values in kPerLayer order. Simulated values come from the
/// first clean untraced leg (the fingerprint check makes every leg agree,
/// and only untraced legs run the parallel core whose barrier counters are
/// reported); host times are medians over the legs of the matching kind.
std::vector<std::pair<const MetricDef*, double>> per_layer(const Runs& runs)
{
    const LegResult* ref = nullptr;
    for (const auto* set : {&runs.untraced, &runs.serial, &runs.traced}) {
        for (const LegResult& r : *set) {
            if (ref == nullptr && r.error.empty()) {
                ref = &r;
            }
        }
    }
    std::vector<std::pair<const MetricDef*, double>> out;
    if (ref == nullptr) {
        return out;
    }
    const double run_med = median(collect(runs.untraced, get_run));
    const double serial_med =
        runs.info->parallel ? median(collect(runs.serial, get_run)) : run_med;
    // Share of the traced run call spent in layer `l`.
    const auto self_frac = [&](std::size_t l) {
        std::vector<double> v;
        for (const LegResult& r : runs.traced) {
            if (r.error.empty() && r.run_s > 0) {
                v.push_back(r.self_s[l] / r.run_s);
            }
        }
        return median(v);
    };
    for (const MetricDef& m : kPerLayer) {
        const std::string n = m.name;
        double v = 0.0;
        if (n == "sim.events") {
            v = static_cast<double>(ref->events);
        } else if (n == "sim.host_ns_per_event") {
            v = ref->events ? run_med / static_cast<double>(ref->events) * 1e9
                            : 0.0;
        } else if (n == "sim.parallel_speedup") {
            v = run_med > 0 ? serial_med / run_med : 0.0;
        } else if (n == "sim.cpu_per_wall") {
            v = median(collect(runs.untraced, get_cpu_per_wall));
        } else if (n == "sim.barrier_waits") {
            v = static_cast<double>(ref->barrier_waits);
        } else if (n == "sim.handoffs") {
            v = static_cast<double>(ref->handoffs);
        } else if (n == "sim.fence_waits") {
            v = static_cast<double>(ref->fence_waits);
        } else if (n == "host.wall_raw_s") {
            v = median(collect(runs.untraced, get_raw_run));
        } else if (n == "host.cal_s") {
            v = median(collect(runs.untraced, get_cal));
        } else if (n.rfind("host.", 0) == 0) {
            const std::string layer = n.substr(5, n.find('.', 5) - 5);
            for (std::size_t l = 0; l < bench::kLayerCount; ++l) {
                if (layer == bench::kLayerNames[l]) {
                    v = self_frac(l);
                }
            }
        } else if (n == "trace.overhead") {
            v = serial_med > 0
                    ? median(collect(runs.traced, get_run)) / serial_med - 1.0
                    : 0.0;
        } else if (n == "core.build_s") {
            v = median(collect(runs.untraced, get_build));
        } else if (n == "workload.prepare_s") {
            v = median(collect(runs.untraced, get_prepare));
        } else {
            v = ref->sim_value(n);
        }
        out.emplace_back(&m, v);
    }
    return out;
}

// --- contract mode: one workload for a fixed time -----------------------------

/// Run legs of one kind until `deadline` (seconds since `t0`) would be
/// passed by another leg as long as the longest so far, but at least
/// `min_legs` of them.
void run_phase(Runs& runs, const LegOptions& o, std::vector<LegResult>& into,
               Clock::time_point t0, double deadline, int min_legs)
{
    double longest = 0.0;
    for (int i = 0; i < min_legs || seconds_since(t0) + longest <= deadline;
         ++i) {
        const auto t = Clock::now();
        run_and_log(runs, o, into);
        longest = std::max(longest, seconds_since(t));
    }
}

int run_timed(const std::string& workload, std::uint64_t seed, double seconds,
              bool trace)
{
    Runs runs;
    runs.info = bench::find_workload(workload);
    if (runs.info == nullptr) {
        std::fprintf(stderr, "accesys_bench: unknown workload %s\n",
                     workload.c_str());
        return 2;
    }
    LegOptions o;
    o.workload = workload;
    o.seed = seed;
    const auto t0 = Clock::now();
    // A traced run still needs untraced legs: host_ns_per_event,
    // cpu_per_wall, parallel_speedup and trace.overhead are ratios to them.
    run_phase(runs, o, runs.untraced, t0, seconds * (trace ? 0.5 : 1.0), 3);
    if (trace) {
        if (runs.info->parallel) {
            LegOptions s = o;
            s.serial = true;
            run_phase(runs, s, runs.serial, t0, seconds * 0.75, 3);
        }
        LegOptions t = o;
        t.traced = true;
        run_phase(runs, t, runs.traced, t0, seconds, 1);
    }

    const Tally t = tally(runs);
    bench::json::Object metrics;
    const auto add = [&](const MetricDef& m, double v) {
        metrics.raw(m.name,
                    bench::json::Object().num("value", v).str("unit", m.unit)
                        .done());
    };
    if (trace) {
        for (const auto& [m, v] : per_layer(runs)) {
            add(*m, v);
        }
    } else {
        for (const auto& [m, s] : end_to_end(runs)) {
            add(*m, s.median);
        }
    }
    const bool correct = t.failed == 0;
    std::printf("%s\n", bench::json::Object()
                            .raw("correct", correct ? "true" : "false")
                            .num("attempted", static_cast<double>(t.attempted))
                            .num("failed", static_cast<double>(t.failed))
                            .raw("metrics", metrics.done())
                            .done()
                            .c_str());
    return correct ? 0 : 1;
}

// --- full mode: every workload, interleaved -----------------------------------

void write_chrome_trace(const std::string& path, const std::vector<Runs>& all)
{
    using bench::json::num;
    using bench::json::quote;
    std::ofstream os(path);
    os << "{\"traceEvents\":[";
    bool first = true;
    int pid = 0;
    for (const Runs& runs : all) {
        ++pid;
        for (const LegResult& r : runs.traced) {
            os << (first ? "" : ",") << "\n{\"name\":\"process_name\","
               << "\"ph\":\"M\",\"pid\":" << pid
               << ",\"args\":{\"name\":" << quote(runs.info->name) << "}}";
            first = false;
            for (const bench::Span& s : r.spans) {
                os << ",\n{\"name\":" << quote(s.name)
                   << ",\"ph\":\"X\",\"pid\":" << pid
                   << ",\"tid\":1,\"ts\":" << num(s.start_s * 1e6)
                   << ",\"dur\":" << num(s.dur_s * 1e6);
                if (s.name == "run") {
                    os << ",\"args\":{\"self_s\":{";
                    for (std::size_t l = 0; l < bench::kLayerCount; ++l) {
                        os << (l ? "," : "") << quote(bench::kLayerNames[l])
                           << ":" << num(r.self_s[l]);
                    }
                    os << "}}";
                }
                os << "}";
            }
        }
    }
    os << "\n]}\n";
}

int run_full(int legs, std::uint64_t seed, bool quick, const std::string& only,
             const std::string& out_path)
{
    std::vector<Runs> all;
    for (const WorkloadInfo& w : bench::workloads()) {
        if (only.empty() || only == w.name) {
            Runs r;
            r.info = &w;
            all.push_back(r);
        }
    }
    if (all.empty()) {
        std::fprintf(stderr, "accesys_bench: unknown workload %s\n",
                     only.c_str());
        return 2;
    }
    const auto t0 = Clock::now();
    const auto opts = [&](const Runs& r) {
        LegOptions o;
        o.workload = r.info->name;
        o.seed = seed;
        o.quick = quick;
        return o;
    };
    // Serial legs of a parallel workload ride along in the first rounds,
    // beside the parallel legs they are compared with.
    const int serial_legs = std::min(legs, 3);
    for (int leg = 0; leg < legs; ++leg) {
        for (Runs& r : all) {
            run_and_log(r, opts(r), r.untraced);
            if (r.info->parallel && leg < serial_legs) {
                LegOptions s = opts(r);
                s.serial = true;
                run_and_log(r, s, r.serial);
            }
        }
        std::fprintf(stderr, "accesys_bench: round %d/%d done, %.1f s\n",
                     leg + 1, legs, seconds_since(t0));
    }
    for (Runs& r : all) {
        LegOptions t = opts(r);
        t.traced = true;
        run_and_log(r, t, r.traced);
    }

    using bench::json::Object;
    bool all_ok = true;
    std::printf("accesys_bench: %d legs per workload, seed %llu, nproc %u, "
                "%.1f s\n",
                legs, static_cast<unsigned long long>(seed),
                std::thread::hardware_concurrency(), seconds_since(t0));
    Object workloads;
    for (const Runs& r : all) {
        const Tally t = tally(r);
        const double failed_frac =
            static_cast<double>(t.failed) / static_cast<double>(t.attempted);
        all_ok = all_ok && t.failed == 0;
        std::printf("\n== %s: %llu jobs, failed_frac %s, fingerprint "
                    "%016llx\n",
                    r.info->name, static_cast<unsigned long long>(t.attempted),
                    bench::json::num(failed_frac).c_str(),
                    static_cast<unsigned long long>(t.fingerprint));
        std::printf("  %-28s %-8s %12s %12s %12s %12s %12s %3s\n",
                    "end-to-end", "unit", "median", "p25", "p75", "min",
                    "max", "n");
        Object e2e;
        for (const auto& [m, s] : end_to_end(r)) {
            std::printf("  %-28s %-8s %12.6g %12.6g %12.6g %12.6g %12.6g "
                        "%3zu\n",
                        m->name, m->unit, s.median, s.p25, s.p75, s.min,
                        s.max, s.n);
            e2e.raw(m->name, Object()
                                 .str("unit", m->unit)
                                 .num("median", s.median)
                                 .num("p25", s.p25)
                                 .num("p75", s.p75)
                                 .num("min", s.min)
                                 .num("max", s.max)
                                 .num("n", static_cast<double>(s.n))
                                 .done());
        }
        std::printf("  %-28s %-8s %12s\n", "per-layer", "unit", "value");
        Object layers;
        for (const auto& [m, v] : per_layer(r)) {
            std::printf("  %-28s %-8s %12.6g\n", m->name, m->unit, v);
            layers.raw(m->name, Object()
                                    .str("unit", m->unit)
                                    .num("value", v)
                                    .raw("exact", m->exact ? "true" : "false")
                                    .done());
        }
        workloads.raw(r.info->name,
                      Object()
                          .num("attempted", static_cast<double>(t.attempted))
                          .num("failed", static_cast<double>(t.failed))
                          .num("failed_frac", failed_frac)
                          .raw("end_to_end", e2e.done())
                          .raw("per_layer", layers.done())
                          .done());
    }
    std::ofstream(out_path)
        << Object()
               .str("schema", "accesys-bench-v1")
               .num("seed", static_cast<double>(seed))
               .num("legs", legs)
               .raw("quick", quick ? "true" : "false")
               .num("nproc", std::thread::hardware_concurrency())
               .raw("workloads", workloads.done())
               .done()
        << "\n";
    std::string trace_path = out_path;
    if (trace_path.size() > 5 &&
        trace_path.compare(trace_path.size() - 5, 5, ".json") == 0) {
        trace_path.resize(trace_path.size() - 5);
    }
    trace_path += ".trace.json";
    write_chrome_trace(trace_path, all);
    std::printf("\nwrote %s and %s\n", out_path.c_str(), trace_path.c_str());
    if (!all_ok) {
        std::fprintf(stderr, "accesys_bench: FAILED — see failed_frac\n");
    }
    return all_ok ? 0 : 1;
}

// --- compare mode -------------------------------------------------------------

bench::json::Value load_json(const std::string& path)
{
    std::ifstream is(path);
    if (!is) {
        throw std::runtime_error("cannot read " + path);
    }
    std::stringstream ss;
    ss << is.rdbuf();
    return bench::json::parse(ss.str());
}

int run_compare(const std::string& a_path, const std::string& b_path,
                const std::string& bounds_path)
{
    const bench::json::Value a = load_json(a_path);
    const bench::json::Value b = load_json(b_path);
    const bench::json::Value manifest = load_json(bounds_path);

    int worse = 0;
    int exact_diffs = 0;
    int exact_same = 0;
    std::printf("%-20s %-8s %-5s %24s %24s %8s %6s  %s\n", "workload",
                "metric", "unit", "A median [p25, p75]", "B median [p25, p75]",
                "diff", "bound", "verdict");
    const bench::json::Value& aw = a.at("workloads");
    const bench::json::Value& bw = b.at("workloads");
    for (std::size_t i = 0; i < aw.keys.size(); ++i) {
        const std::string& wname = aw.keys[i];
        const bench::json::Value* bwork = bw.find(wname);
        if (bwork == nullptr) {
            std::printf("%-20s missing from %s\n", wname.c_str(),
                        b_path.c_str());
            continue;
        }
        const bench::json::Value& ae = aw.items[i].at("end_to_end");
        const bench::json::Value& be = bwork->at("end_to_end");
        for (const bench::json::Value& m : manifest.at("end_to_end").items) {
            const std::string& name = m.at("name").str;
            const double bound = m.number("bound");
            const bool lower = m.at("better").str == "lower";
            const bench::json::Value& sa = ae.at(name);
            const bench::json::Value& sb = be.at(name);
            const double ma = sa.number("median");
            const double mb = sb.number("median");
            const double diff = ma != 0 ? (mb - ma) / ma : 0.0;
            const double gain = lower ? -diff : diff;
            // How far a side's median could move between repeats: the legs'
            // quartile distance over sqrt(n), relative to the median.
            const auto spread = [](const bench::json::Value& s) {
                const double med = s.number("median");
                return med != 0 ? (s.number("p75") - s.number("p25")) / med /
                                      std::sqrt(std::max(s.number("n"), 1.0))
                                : 0.0;
            };
            // B's legs all better (or all worse) than every leg of A.
            const bool b_all_better = lower ? sb.number("max") < sa.number("min")
                                            : sb.number("min") > sa.number("max");
            const bool b_all_worse = lower ? sb.number("min") > sa.number("max")
                                           : sb.number("max") < sa.number("min");
            const char* verdict = "within";
            if (std::max(spread(sa), spread(sb)) > bound) {
                verdict = b_all_better  ? "better"
                          : b_all_worse ? "worse"
                                        : "unresolved";
            } else if (gain < -bound) {
                verdict = "worse";
            } else if (gain > bound) {
                verdict = "better";
            }
            worse += std::string(verdict) == "worse";
            char ca[64];
            char cb[64];
            std::snprintf(ca, sizeof(ca), "%.4g [%.4g, %.4g]", ma,
                          sa.number("p25"), sa.number("p75"));
            std::snprintf(cb, sizeof(cb), "%.4g [%.4g, %.4g]", mb,
                          sb.number("p25"), sb.number("p75"));
            std::printf("%-20s %-8s %-5s %24s %24s %+7.1f%% %5.0f%%  %s\n",
                        wname.c_str(), name.c_str(),
                        sa.at("unit").str.c_str(), ca, cb, 100.0 * diff,
                        100.0 * bound, verdict);
        }
        const bench::json::Value& al = aw.items[i].at("per_layer");
        const bench::json::Value& bl = bwork->at("per_layer");
        for (std::size_t k = 0; k < al.keys.size(); ++k) {
            if (!al.items[k].at("exact").b) {
                continue;
            }
            const bench::json::Value* other = bl.find(al.keys[k]);
            const double va = al.items[k].number("value");
            if (other != nullptr && other->number("value") == va) {
                ++exact_same;
                continue;
            }
            ++exact_diffs;
            std::printf("%-20s exact %s: %s -> %s\n", wname.c_str(),
                        al.keys[k].c_str(), bench::json::num(va).c_str(),
                        other != nullptr
                            ? bench::json::num(other->number("value")).c_str()
                            : "missing");
        }
    }
    std::printf("\nexact per-layer values: %d identical, %d differ\n",
                exact_same, exact_diffs);
    return worse == 0 && exact_diffs == 0 ? 0 : 1;
}

int usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  %s [--legs N] [--seed S] [--out FILE] [--only WORKLOAD] [--quick]\n"
        "  %s --workload W --seed S --seconds T --trace 0|1\n"
        "  %s --compare A.json B.json [--bounds BENCHMARK.json]\n"
        "  any mode: --max-wall-ms N (hard-exit watchdog)\n"
        "workloads:",
        argv0, argv0, argv0);
    for (const WorkloadInfo& w : bench::workloads()) {
        std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int main(int argc, char** argv)
{
    benchutil::install_wall_watchdog(argc, argv);
    using benchutil::arg_ll;
    using benchutil::arg_str;
    using benchutil::flag_present;

    static const char* const kValued[] = {
        "--legs",    "--seed",  "--out",   "--only",        "--workload",
        "--seconds", "--trace", "--leg",   "--max-wall-ms", "--bounds"};
    static const char* const kFlags[] = {"--quick", "--traced", "--serial"};
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        bool known = false;
        for (const char* f : kValued) {
            if (a == f && i + 1 < argc) {
                ++i;
                known = true;
            }
        }
        for (const char* f : kFlags) {
            known = known || a == f;
        }
        if (a == "--compare" && i + 2 < argc) {
            i += 2;
            known = true;
        }
        if (!known) {
            std::fprintf(stderr, "accesys_bench: bad argument %s\n", argv[i]);
            return usage(argv[0]);
        }
    }

    g_max_wall_ms = arg_ll(argc, argv, "--max-wall-ms", 0);
    const bool quick = flag_present(argc, argv, "--quick");
    const auto seed =
        static_cast<std::uint64_t>(arg_ll(argc, argv, "--seed", 1));

    try {
        const std::string leg = arg_str(argc, argv, "--leg", "");
        if (!leg.empty()) {
            LegOptions o;
            o.workload = leg;
            o.seed = seed;
            o.quick = quick;
            o.traced = flag_present(argc, argv, "--traced");
            o.serial = flag_present(argc, argv, "--serial");
            std::printf("%s\n", bench::run_leg(o).to_json().c_str());
            return 0;
        }
        for (int i = 1; i + 2 < argc; ++i) {
            if (std::string(argv[i]) == "--compare") {
                return run_compare(
                    argv[i + 1], argv[i + 2],
                    arg_str(argc, argv, "--bounds", "BENCHMARK.json"));
            }
        }
        const std::string workload = arg_str(argc, argv, "--workload", "");
        if (!workload.empty()) {
            const long long secs = arg_ll(argc, argv, "--seconds", 0);
            const long long trace = arg_ll(argc, argv, "--trace", 0);
            if (secs <= 0 || (trace != 0 && trace != 1)) {
                return usage(argv[0]);
            }
            return run_timed(workload, seed, static_cast<double>(secs),
                             trace == 1);
        }
        const int legs =
            static_cast<int>(arg_ll(argc, argv, "--legs", quick ? 1 : 10));
        if (legs < 1) {
            return usage(argv[0]);
        }
        return run_full(legs, seed, quick, arg_str(argc, argv, "--only", ""),
                        arg_str(argc, argv, "--out", "result.json"));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "accesys_bench: %s\n", e.what());
        return 1;
    }
}
