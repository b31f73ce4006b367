// Open-loop serving under overload: latency-vs-offered-load and goodput
// curves on the 4-endpoint config (ROADMAP "Serving under overload").
//
// Each point drives a seeded two-tenant Poisson arrival schedule through
// Runner::serve with a bounded admission queue, sweeping the offered load
// from well below to 2x the fleet's service capacity for two shedding
// policies (reject_new and shed_oldest) plus a deadline_aware point at the
// heaviest load. Expected shape: below saturation every policy completes
// everything and latency sits at the service floor; past saturation
// goodput flattens at fleet capacity while the queue-bound policies part
// ways — reject_new keeps queueing delay bounded by refusing at
// admission, shed_oldest admits everything and evicts the stalest queue
// entries, and deadline_aware converts the overload into early sheds of
// jobs whose SLO is already blown.
//
// The final section composes overload with an endpoint fault — a
// permanent hang on mf1 at 1.5x offered load — and verifies the
// robustness contract: the wedged endpoint is quarantined, every
// dispatched job completes via failover (zero failures), every offered
// request is accounted, and the process exits nonzero otherwise.
//
// Serving golden mode (CI): `--serving-golden PATH` skips the sweeps and
// runs one pinned overload scenario; the full stats registry (admission
// counters, per-tenant p50/p99 split into queueing vs service time,
// goodput) is written to PATH as JSON for a byte-compare against the
// committed golden.
#include "bench_util.hh"

#include <fstream>
#include <string>
#include <vector>

#include "workload/request_gen.hh"

namespace {

using accesys::core::Runner;
using accesys::core::ServingConfig;
using accesys::core::ServingResult;
using accesys::core::ShedPolicy;
using accesys::core::System;
using accesys::core::SystemConfig;
using accesys::workload::GemmSpec;
using accesys::workload::RequestGen;
using accesys::workload::RequestGenConfig;
using accesys::workload::TenantSpec;

/// Two-tenant Poisson mix totalling `rate_jobs_per_s` over `horizon_ns`:
/// 2/3 interactive small GEMMs (with an SLO), 1/3 batch medium GEMMs.
RequestGenConfig mix_config(double rate_jobs_per_s, double horizon_ns,
                            double interactive_deadline_ns)
{
    RequestGenConfig gcfg;
    gcfg.seed = 11;
    gcfg.horizon_ns = horizon_ns;
    TenantSpec interactive;
    interactive.name = "interactive";
    interactive.rate_jobs_per_s = rate_jobs_per_s * 2.0 / 3.0;
    interactive.mix = {GemmSpec{16, 16, 16}, GemmSpec{32, 32, 32}};
    interactive.deadline_ns = interactive_deadline_ns;
    TenantSpec batch;
    batch.name = "batch";
    batch.rate_jobs_per_s = rate_jobs_per_s / 3.0;
    batch.mix = {GemmSpec{48, 48, 48}};
    gcfg.tenants.push_back(interactive);
    gcfg.tenants.push_back(batch);
    return gcfg;
}

const char* policy_name(ShedPolicy p)
{
    switch (p) {
    case ShedPolicy::reject_new:
        return "reject_new";
    case ShedPolicy::shed_oldest:
        return "shed_oldest";
    case ShedPolicy::deadline_aware:
        return "deadline";
    }
    return "?";
}

struct PointResult {
    ServingResult res;
    double p99_e2e_us = 0.0; ///< worst tenant
    bool ok = true;
};

PointResult run_point(const SystemConfig& cfg, const RequestGenConfig& gcfg,
                      const ServingConfig& scfg)
{
    System sys(cfg);
    benchutil::WatchScope watch(sys);
    RequestGen gen(sys.sim(), gcfg);
    Runner runner(sys);
    PointResult pt;
    pt.res = runner.serve(gen, scfg);
    pt.ok = pt.res.accounted();
    for (const auto& t : pt.res.tenants) {
        pt.p99_e2e_us = std::max(pt.p99_e2e_us, t.p99_e2e_ns / 1e3);
    }
    for (const auto& j : pt.res.jobs) {
        if (j.status == accesys::core::JobStatus::ok && !j.verified) {
            pt.ok = false;
        }
    }
    return pt;
}

} // namespace

int main(int argc, char** argv)
{
    benchutil::install_wall_watchdog(argc, argv);
    const bool quick = benchutil::quick_mode(argc, argv);
    const std::string golden_out =
        benchutil::arg_str(argc, argv, "--serving-golden", "");
    const std::size_t devices = 4;

    if (!golden_out.empty()) {
        // Pinned CI scenario: 1.5x overload, shed_oldest, bounded queue.
        // Counts and per-tenant percentiles land in the stats registry,
        // which is byte-compared against the committed golden.
        SystemConfig cfg = SystemConfig::paper_default();
        cfg.set_num_devices(devices);
        System sys(cfg);
        benchutil::WatchScope watch(sys);
        RequestGen gen(sys.sim(), mix_config(6e5, 1e5, 0.0));
        ServingConfig scfg;
        scfg.policy = ShedPolicy::shed_oldest;
        scfg.queue_capacity = 8;
        Runner runner(sys);
        const ServingResult res = runner.serve(gen, scfg);
        if (!res.accounted() || res.failed != 0) {
            std::fprintf(stderr,
                         "error: serving accounting broken (offered %llu "
                         "admitted %llu rejected %llu shed %llu completed "
                         "%llu failed %llu)\n",
                         static_cast<unsigned long long>(res.offered),
                         static_cast<unsigned long long>(res.admitted),
                         static_cast<unsigned long long>(res.rejected),
                         static_cast<unsigned long long>(res.shed),
                         static_cast<unsigned long long>(res.completed),
                         static_cast<unsigned long long>(res.failed));
            return 5;
        }
        if (res.shed == 0) {
            std::fprintf(stderr, "error: pinned scenario did not overload "
                                 "— golden would not pin shedding\n");
            return 5;
        }
        std::ofstream out(golden_out);
        sys.stats().write_json(out);
        std::printf("serving golden: %llu offered, %llu completed, %llu "
                    "shed, goodput %.1f jobs/s; stats -> %s\n",
                    static_cast<unsigned long long>(res.offered),
                    static_cast<unsigned long long>(res.completed),
                    static_cast<unsigned long long>(res.shed),
                    res.goodput_jobs_per_s(), golden_out.c_str());
        return 0;
    }

    benchutil::header("bench_serving",
                      "the serving-under-overload robustness scenario",
                      "open-loop latency vs offered load and goodput, 4 "
                      "endpoints, bounded admission + load shedding");

    // The sweep brackets the fleet's saturation knee: 0.5x of this base
    // rate completes everything with an empty queue, 1x and above drive
    // the bounded queue into rejection/shedding.
    const double nominal = 4e5;
    const double horizon_ns = quick ? 5e4 : 2e5;
    std::printf("two-tenant Poisson mix (2/3 interactive 16^3/32^3, 1/3 "
                "batch 48^3),\nhorizon %.0f us, queue capacity 8, verify "
                "on\n\n",
                horizon_ns / 1e3);
    std::printf("%12s %6s %8s %8s %8s %8s %8s %14s %10s\n", "policy",
                "load", "offered", "admit", "reject", "shed", "done",
                "goodput(job/s)", "p99(us)");

    bool all_ok = true;
    for (const ShedPolicy policy :
         {ShedPolicy::reject_new, ShedPolicy::shed_oldest}) {
        for (const double mult : {0.5, 1.0, 1.5, 2.0}) {
            SystemConfig cfg = SystemConfig::paper_default();
            cfg.set_num_devices(devices);
            ServingConfig scfg;
            scfg.policy = policy;
            scfg.queue_capacity = 8;
            const PointResult pt = run_point(
                cfg, mix_config(nominal * mult, horizon_ns, 0.0), scfg);
            all_ok &= pt.ok;
            std::printf("%12s %5.2gx %8llu %8llu %8llu %8llu %8llu %14.0f "
                        "%10.1f%s\n",
                        policy_name(policy), mult,
                        static_cast<unsigned long long>(pt.res.offered),
                        static_cast<unsigned long long>(pt.res.admitted),
                        static_cast<unsigned long long>(pt.res.rejected),
                        static_cast<unsigned long long>(pt.res.shed),
                        static_cast<unsigned long long>(pt.res.completed),
                        pt.res.goodput_jobs_per_s(), pt.p99_e2e_us,
                        pt.ok ? "" : "  ACCOUNTING-BROKEN");
        }
        std::printf("\n");
    }

    // deadline_aware at the heaviest load: the interactive tenant's SLO
    // lets the queue shed early instead of serving already-dead work.
    {
        SystemConfig cfg = SystemConfig::paper_default();
        cfg.set_num_devices(devices);
        ServingConfig scfg;
        scfg.policy = ShedPolicy::deadline_aware;
        scfg.queue_capacity = 8;
        const PointResult pt = run_point(
            cfg, mix_config(nominal * 2.0, horizon_ns, 5e4), scfg);
        all_ok &= pt.ok;
        std::printf("%12s %5.2gx %8llu %8llu %8llu %8llu %8llu %14.0f "
                    "%10.1f  (interactive SLO 50 us)%s\n\n",
                    policy_name(ShedPolicy::deadline_aware), 2.0,
                    static_cast<unsigned long long>(pt.res.offered),
                    static_cast<unsigned long long>(pt.res.admitted),
                    static_cast<unsigned long long>(pt.res.rejected),
                    static_cast<unsigned long long>(pt.res.shed),
                    static_cast<unsigned long long>(pt.res.completed),
                    pt.res.goodput_jobs_per_s(), pt.p99_e2e_us,
                    pt.ok ? "" : "  ACCOUNTING-BROKEN");
    }

    // --- composed fault + overload ------------------------------------
    std::printf("----------------------------------------------------------------\n");
    std::printf("composed: permanent hang on mf1 at 1.5x offered load "
                "(failover armed)\n\n");
    {
        SystemConfig cfg = SystemConfig::paper_default();
        cfg.set_num_devices(devices);
        cfg.fault_plan.seed = 7;
        cfg.fault_plan.hang_rate = 1.0;
        cfg.fault_plan.hang_site = "mf1";
        cfg.fault_plan.job_timeout_ns = quick ? 1e5 : 2e5;
        cfg.fault_plan.job_max_attempts = 3;
        cfg.fault_plan.quarantine_failures = 2;
        ServingConfig scfg;
        scfg.policy = ShedPolicy::shed_oldest;
        scfg.queue_capacity = 8;
        const PointResult pt = run_point(
            cfg, mix_config(nominal * 1.5, horizon_ns * 2.0, 0.0), scfg);
        const bool quarantined =
            pt.res.health.size() == devices &&
            pt.res.health[1] == accesys::core::EndpointHealth::quarantined;
        std::printf("offered %llu  admitted %llu  shed %llu  completed "
                    "%llu  failed %llu\nredispatches %llu  FLRs %llu  "
                    "mf1 %s  goodput %.0f jobs/s  p99 %.1f us\n",
                    static_cast<unsigned long long>(pt.res.offered),
                    static_cast<unsigned long long>(pt.res.admitted),
                    static_cast<unsigned long long>(pt.res.shed),
                    static_cast<unsigned long long>(pt.res.completed),
                    static_cast<unsigned long long>(pt.res.failed),
                    static_cast<unsigned long long>(pt.res.redispatches),
                    static_cast<unsigned long long>(pt.res.flrs),
                    quarantined ? "quarantined" : "NOT QUARANTINED",
                    pt.res.goodput_jobs_per_s(), pt.p99_e2e_us);
        if (!pt.ok || pt.res.failed != 0 || !quarantined ||
            pt.res.redispatches == 0) {
            std::fprintf(stderr, "error: composed fault+overload run "
                                 "violated the robustness contract\n");
            all_ok = false;
        }
    }

    if (!all_ok) {
        std::fprintf(stderr,
                     "error: a serving invariant was violated (see above)\n");
        return 1;
    }
    std::printf("\n(every offered request is accounted at every point: "
                "admitted + rejected == offered\nand completed + shed + "
                "failed == admitted; all completed jobs verify)\n");
    return 0;
}
