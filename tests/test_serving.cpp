// Open-loop serving under overload: bounded admission, load shedding,
// per-tenant SLO accounting and backpressure (Runner::serve +
// workload::RequestGen). The contracts exercised here:
//
//   * total accounting — every offered request ends as exactly one of
//     ok / failed / rejected / shed, with attempt history; nothing is
//     silently dropped even at 2x+ offered load;
//   * policy semantics — reject_new refuses at capacity, shed_oldest
//     drops the queue head to admit fresh work, deadline_aware sheds
//     jobs whose tenant SLO can no longer be met;
//   * per-tenant quotas cap one tenant's burst;
//   * determinism — bit-identical stats dumps run to run and across a
//     mid-overload checkpoint/restore round trip;
//   * the least-loaded tie-break regression (lowest endpoint index).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/runner.hh"
#include "workload/request_gen.hh"

namespace accesys::core {
namespace {

using workload::GemmSpec;
using workload::RequestGen;
using workload::RequestGenConfig;
using workload::TenantSpec;

std::string write_trace(const std::string& name, const std::string& body)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path);
    out << body;
    return path;
}

/// 24 arrivals of one tenant, 100 ns apart — far faster than any endpoint
/// can serve 32^3 GEMMs, so a capacity-4 queue overloads immediately.
RequestGenConfig burst_config(const std::string& trace_path)
{
    RequestGenConfig gcfg;
    gcfg.mode = RequestGenConfig::Mode::trace;
    gcfg.trace_path = trace_path;
    TenantSpec t;
    t.name = "burst";
    gcfg.tenants.push_back(t);
    return gcfg;
}

std::string burst_trace_body(int jobs)
{
    std::ostringstream body;
    body << "# arrival_ns tenant m n k\n";
    for (int i = 0; i < jobs; ++i) {
        body << (100 + 100 * i) << " 0 32 32 32\n";
    }
    return body.str();
}

struct ServeSnapshot {
    ServingResult res;
    std::string stats_text;
    std::string stats_json;
    Tick end_tick = 0;
};

ServeSnapshot snapshot(System& sys, ServingResult res)
{
    ServeSnapshot snap;
    snap.res = std::move(res);
    snap.end_tick = sys.sim().now();
    std::ostringstream text;
    sys.stats().write_text(text);
    snap.stats_text = text.str();
    std::ostringstream json;
    sys.stats().write_json(json);
    snap.stats_json = json.str();
    return snap;
}

TEST(Serving, OverloadedBurstEveryJobAccounted)
{
    const std::string trace =
        write_trace("serving_burst.trace", burst_trace_body(24));
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    System sys(cfg);
    RequestGen gen(sys.sim(), burst_config(trace));
    ASSERT_EQ(gen.total(), 24u);

    ServingConfig scfg;
    scfg.policy = ShedPolicy::reject_new;
    scfg.queue_capacity = 4;
    Runner runner(sys);
    const ServingResult res = runner.serve(gen, scfg);
    std::remove(trace.c_str());

    // The accounting identity: offered == admitted + rejected and
    // admitted == completed + shed + failed — no job unaccounted.
    EXPECT_TRUE(res.accounted())
        << "offered " << res.offered << " admitted " << res.admitted
        << " rejected " << res.rejected << " shed " << res.shed
        << " completed " << res.completed << " failed " << res.failed;
    EXPECT_EQ(res.offered, 24u);
    ASSERT_EQ(res.jobs.size(), 24u);
    // reject_new: a full queue refuses arrivals; admitted jobs always run
    // (no faults => none shed, none failed) and verify.
    EXPECT_GT(res.rejected, 0u);
    EXPECT_EQ(res.shed, 0u);
    EXPECT_EQ(res.failed, 0u);
    EXPECT_EQ(res.completed, res.admitted);
    for (const ServedJob& j : res.jobs) {
        if (j.status == JobStatus::ok) {
            EXPECT_TRUE(j.verified) << "job " << j.id;
            ASSERT_EQ(j.attempts.size(), 1u) << "job " << j.id;
            EXPECT_GE(j.first_dispatch, j.arrival) << "job " << j.id;
            EXPECT_GT(j.done, j.last_dispatch) << "job " << j.id;
        } else {
            EXPECT_EQ(j.status, JobStatus::rejected) << "job " << j.id;
            EXPECT_TRUE(j.attempts.empty()) << "job " << j.id;
        }
    }
    // The first round waits for the first arrival; the burst then drives
    // the queue through the watermarks into shedding and back.
    EXPECT_GE(res.idle_rounds, 1u);
    EXPECT_EQ(res.final_state, ServingState::normal);
    EXPECT_GT(sys.stat("runner.serving.shed_enters"), 0.0);
    // Stats registry mirrors the result counters and the ledger.
    EXPECT_EQ(sys.stat("runner.serving.offered"), 24.0);
    EXPECT_EQ(sys.stat("runner.serving.rejected"),
              static_cast<double>(res.rejected));
    EXPECT_EQ(sys.stat("runner.serving.completed"),
              static_cast<double>(res.completed));
    EXPECT_EQ(sys.stat("runner.serving.burst.offered"), 24.0);
    EXPECT_EQ(sys.stat("reqgen.scheduled"), 24.0);
    ASSERT_EQ(res.tenants.size(), 1u);
    EXPECT_EQ(res.tenants[0].name, "burst");
    EXPECT_EQ(res.tenants[0].offered, 24u);
    EXPECT_GT(res.tenants[0].p99_service_ns, 0.0);
    EXPECT_GE(res.tenants[0].p99_queue_ns, res.tenants[0].p50_queue_ns);
    EXPECT_GT(res.goodput_jobs_per_s(), 0.0);
}

TEST(Serving, ShedOldestAdmitsFreshWorkAndDropsTheHead)
{
    const std::string trace =
        write_trace("serving_shed.trace", burst_trace_body(24));
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    System sys(cfg);
    RequestGen gen(sys.sim(), burst_config(trace));

    ServingConfig scfg;
    scfg.policy = ShedPolicy::shed_oldest;
    scfg.queue_capacity = 4;
    Runner runner(sys);
    const ServingResult res = runner.serve(gen, scfg);
    std::remove(trace.c_str());

    EXPECT_TRUE(res.accounted());
    // shed_oldest never refuses an arrival — it evicts the queue head.
    EXPECT_EQ(res.rejected, 0u);
    EXPECT_GT(res.shed, 0u);
    EXPECT_EQ(res.failed, 0u);
    EXPECT_EQ(res.admitted, 24u);
    EXPECT_EQ(res.completed + res.shed, 24u);
    // Freshest-work-first: the last arrival is always admitted and nothing
    // arrives after it, so it must complete.
    EXPECT_EQ(res.jobs.back().status, JobStatus::ok);
    // Shed jobs carry their ledger entry but never dispatched.
    for (const ServedJob& j : res.jobs) {
        if (j.status == JobStatus::shed) {
            EXPECT_TRUE(j.attempts.empty()) << "job " << j.id;
            EXPECT_EQ(j.first_dispatch, 0u) << "job " << j.id;
        }
    }
}

TEST(Serving, DeadlineAwareShedsImpossibleSlos)
{
    const std::string trace =
        write_trace("serving_deadline.trace", burst_trace_body(24));
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    System sys(cfg);
    RequestGenConfig gcfg = burst_config(trace);
    // A 2 us end-to-end SLO is impossible for a 32^3 GEMM over PCIe: once
    // the first completions establish the service-time estimate, every
    // queued job's deadline is already blown and it sheds at dispatch.
    gcfg.tenants[0].deadline_ns = 2000.0;
    RequestGen gen(sys.sim(), gcfg);

    ServingConfig scfg;
    scfg.policy = ShedPolicy::deadline_aware;
    scfg.queue_capacity = 8;
    Runner runner(sys);
    const ServingResult res = runner.serve(gen, scfg);
    std::remove(trace.c_str());

    EXPECT_TRUE(res.accounted());
    EXPECT_GT(res.completed, 0u) << "pre-estimate jobs must still run";
    EXPECT_GT(res.shed, 0u) << "deadline shedding must engage";
    EXPECT_EQ(res.failed, 0u);
}

TEST(Serving, PerTenantQuotaCapsOneTenantsBurst)
{
    // Tenant 0 floods (10 arrivals in 450 ns), tenant 1 offers 2; with a
    // quota of 2 queued jobs for tenant 0 and ample queue capacity, the
    // flood is capped by the quota alone and tenant 1 is untouched.
    std::ostringstream body;
    for (int i = 0; i < 10; ++i) {
        body << (100 + 50 * i) << " 0 32 32 32\n";
    }
    body << "175 1 32 32 32\n";
    body << "275 1 32 32 32\n";
    const std::string trace =
        write_trace("serving_quota.trace", body.str());

    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    System sys(cfg);
    RequestGenConfig gcfg;
    gcfg.mode = RequestGenConfig::Mode::trace;
    gcfg.trace_path = trace;
    TenantSpec flood;
    flood.name = "flood";
    flood.queue_quota = 2;
    TenantSpec meek;
    meek.name = "meek";
    gcfg.tenants.push_back(flood);
    gcfg.tenants.push_back(meek);
    RequestGen gen(sys.sim(), gcfg);

    ServingConfig scfg;
    scfg.queue_capacity = 16;
    Runner runner(sys);
    const ServingResult res = runner.serve(gen, scfg);
    std::remove(trace.c_str());

    EXPECT_TRUE(res.accounted());
    ASSERT_EQ(res.tenants.size(), 2u);
    const TenantSlo& f = res.tenants[0];
    const TenantSlo& m = res.tenants[1];
    EXPECT_EQ(f.offered, 10u);
    EXPECT_GT(f.rejected, 0u) << "the quota must cap the flood";
    EXPECT_EQ(f.completed, f.admitted);
    EXPECT_EQ(m.offered, 2u);
    EXPECT_EQ(m.rejected, 0u) << "quota rejections must not leak across "
                                 "tenants (capacity 16 is never reached)";
    EXPECT_EQ(m.completed, 2u);
}

TEST(Serving, RetryTieBreaksToLowestEndpointIndex)
{
    // Three endpoints, every command on endpoint 1 ("mf1") hangs. Round 1
    // places jobs 0/1/2 on endpoints 0/1/2 (all idle — ties resolve
    // ascending); job 1 times out and its retry sees endpoints 0 and 2
    // with equal load (one success each), so the deterministic tie-break
    // must pick endpoint 0. This is the topology-order regression test
    // for Runner::least_loaded.
    const std::string trace =
        write_trace("serving_tiebreak.trace",
                    "100 0 32 32 32\n101 0 32 32 32\n102 0 32 32 32\n");
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(3);
    cfg.fault_plan.hang_rate = 1.0;
    cfg.fault_plan.hang_site = "mf1";
    cfg.fault_plan.job_timeout_ns = 2e5;
    cfg.fault_plan.job_max_attempts = 3;
    System sys(cfg);
    RequestGen gen(sys.sim(), burst_config(trace));

    ServingConfig scfg;
    scfg.queue_capacity = 8;
    Runner runner(sys);
    const ServingResult res = runner.serve(gen, scfg);
    std::remove(trace.c_str());

    EXPECT_TRUE(res.accounted());
    EXPECT_EQ(res.completed, 3u);
    EXPECT_EQ(res.failed, 0u);
    EXPECT_EQ(res.redispatches, 1u);
    ASSERT_EQ(res.jobs.size(), 3u);
    const ServedJob& j1 = res.jobs[1];
    ASSERT_EQ(j1.attempts.size(), 2u);
    EXPECT_EQ(j1.attempts[0].device, 1u);
    EXPECT_EQ(j1.attempts[0].status, JobStatus::timed_out);
    EXPECT_EQ(j1.attempts[1].device, 0u)
        << "equal-load tie must break to the lowest endpoint index";
    EXPECT_EQ(j1.attempts[1].status, JobStatus::ok);
    ASSERT_EQ(res.health.size(), 3u);
    EXPECT_EQ(res.health[0], EndpointHealth::healthy);
    EXPECT_EQ(res.health[1], EndpointHealth::degraded);
    EXPECT_EQ(res.health[2], EndpointHealth::healthy);
}

/// Poisson overload scenario shared by the determinism tests: two tenants
/// at a combined offered load far above what four endpoints serve, bounded
/// queue, shed_oldest.
RequestGenConfig poisson_overload_config()
{
    RequestGenConfig gcfg;
    gcfg.seed = 42;
    gcfg.horizon_ns = 2.5e4;
    TenantSpec interactive;
    interactive.name = "interactive";
    interactive.rate_jobs_per_s = 8e5;
    interactive.mix = {GemmSpec{16, 16, 16}, GemmSpec{32, 32, 32}};
    TenantSpec batch;
    batch.name = "batch";
    batch.rate_jobs_per_s = 4e5;
    batch.mix = {GemmSpec{48, 48, 48}};
    batch.queue_quota = 3;
    gcfg.tenants.push_back(interactive);
    gcfg.tenants.push_back(batch);
    return gcfg;
}

ServeSnapshot run_poisson_overload()
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(4);
    System sys(cfg);
    RequestGen gen(sys.sim(), poisson_overload_config());
    ServingConfig scfg;
    scfg.policy = ShedPolicy::shed_oldest;
    scfg.queue_capacity = 8;
    Runner runner(sys);
    return snapshot(sys, runner.serve(gen, scfg));
}

TEST(Serving, PoissonOverloadRerunIsBitIdentical)
{
    // The serving determinism contract: the arrival schedule is a pure
    // function of the config, arrivals are consumed at ticks sampled
    // inside the CPU program, and endpoint selection is a pure function
    // of the health table — so reruns produce byte-identical stats dumps.
    const ServeSnapshot first = run_poisson_overload();
    EXPECT_TRUE(first.res.accounted());
    EXPECT_GT(first.res.offered, 10u) << "scenario must actually offer load";
    EXPECT_GT(first.res.shed, 0u) << "scenario must actually overload";

    const ServeSnapshot rerun = run_poisson_overload();
    EXPECT_EQ(first.end_tick, rerun.end_tick);
    EXPECT_EQ(first.stats_text, rerun.stats_text);
    EXPECT_EQ(first.stats_json, rerun.stats_json);
}

TEST(Serving, MidOverloadCheckpointRoundTripsBitIdentical)
{
    // Checkpoint in the middle of an overloaded serve — a full admission
    // queue, an in-flight dispatch round, a partially-drained arrival
    // schedule — and resume in a fresh process-equivalent System. The
    // "runner.serving" hook must round-trip the queue, ledger, health
    // table and flag sequences so the resumed run finishes byte-identical
    // to the straight run.
    const ServeSnapshot straight = run_poisson_overload();
    ASSERT_FALSE(straight.res.checkpointed);
    const Tick mid = straight.end_tick / 2;
    ASSERT_GT(mid, 0u);

    const std::string path = ::testing::TempDir() + "serving_mid.ckpt";
    {
        auto cfg = SystemConfig::paper_default();
        cfg.set_num_devices(4);
        System sys(cfg);
        RequestGen gen(sys.sim(), poisson_overload_config());
        ServingConfig scfg;
        scfg.policy = ShedPolicy::shed_oldest;
        scfg.queue_capacity = 8;
        Runner runner(sys);
        sys.sim().request_checkpoint_at(path, mid);
        const ServingResult res = runner.serve(gen, scfg);
        ASSERT_TRUE(res.checkpointed)
            << "serve finished at " << res.end
            << " before the checkpoint tick " << mid;
        EXPECT_GT(res.offered, 0u) << "overload must be underway at save";
    }

    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(4);
    System sys(cfg);
    RequestGen gen(sys.sim(), poisson_overload_config());
    ServingConfig scfg;
    scfg.policy = ShedPolicy::shed_oldest;
    scfg.queue_capacity = 8;
    Runner runner(sys);
    runner.set_restore_path(path);
    const ServeSnapshot resumed = snapshot(sys, runner.serve(gen, scfg));
    std::remove(path.c_str());
    EXPECT_TRUE(resumed.res.accounted());
    EXPECT_EQ(straight.end_tick, resumed.end_tick);
    EXPECT_EQ(straight.stats_text, resumed.stats_text);
    EXPECT_EQ(straight.stats_json, resumed.stats_json);
    EXPECT_EQ(straight.res.completed, resumed.res.completed);
    EXPECT_EQ(straight.res.shed, resumed.res.shed);
}

TEST(Serving, TraceParsingSkipsCommentsAndValidates)
{
    const std::string trace = write_trace("serving_parse.trace",
                                          "# header comment\n"
                                          "\n"
                                          "100 0 8 8 8   # trailing\n"
                                          "50 1 16 8 4\n");
    auto cfg = SystemConfig::paper_default();
    System sys(cfg);
    RequestGenConfig gcfg;
    gcfg.mode = RequestGenConfig::Mode::trace;
    gcfg.trace_path = trace;
    TenantSpec a;
    a.name = "a";
    TenantSpec b;
    b.name = "b";
    gcfg.tenants.push_back(a);
    gcfg.tenants.push_back(b);
    RequestGen gen(sys.sim(), gcfg);
    std::remove(trace.c_str());

    ASSERT_EQ(gen.total(), 2u);
    // Merged schedule is arrival-ordered with dense ids.
    EXPECT_EQ(gen.schedule()[0].arrival, ticks_from_ns(50.0));
    EXPECT_EQ(gen.schedule()[0].tenant, 1u);
    EXPECT_EQ(gen.schedule()[0].id, 0u);
    EXPECT_EQ(gen.schedule()[1].arrival, ticks_from_ns(100.0));
    EXPECT_EQ(gen.schedule()[1].tenant, 0u);
    EXPECT_EQ(gen.schedule()[1].spec.m, 8u);
    // Per-job derived seeds decorrelate operand data.
    EXPECT_NE(gen.schedule()[0].spec.seed, gen.schedule()[1].spec.seed);
}

TEST(Serving, DetNegLogMatchesLnOnExactPoints)
{
    EXPECT_EQ(workload::det_neg_log(1.0), 0.0);
    // -ln(0.5) = ln 2: the worst-case |z| = 1/3 truncation error of the
    // 9-term atanh series is ~1e-10 relative — plenty for tick-quantized
    // arrival times (the point is bit-stability, not ULP accuracy).
    EXPECT_NEAR(workload::det_neg_log(0.5), 0.6931471805599453, 1e-9);
    EXPECT_NEAR(workload::det_neg_log(0.25), 2.0 * 0.6931471805599453,
                1e-9);
    // Monotonic: smaller survival probability, larger interarrival draw.
    EXPECT_GT(workload::det_neg_log(0.1), workload::det_neg_log(0.2));
    EXPECT_THROW((void)workload::det_neg_log(0.0), SimError);
    EXPECT_THROW((void)workload::det_neg_log(1.5), SimError);
}

TEST(Serving, ConfigValidationRejectsNonsense)
{
    ServingConfig scfg;
    scfg.queue_capacity = 0;
    EXPECT_THROW(scfg.validate(), ConfigError);
    scfg.queue_capacity = 8;
    scfg.throttle_watermark = 9;
    EXPECT_THROW(scfg.validate(), ConfigError);
    scfg.throttle_watermark = 7;
    scfg.shed_watermark = 5;
    EXPECT_THROW(scfg.validate(), ConfigError);
    scfg.shed_watermark = 7;
    EXPECT_NO_THROW(scfg.validate());

    RequestGenConfig gcfg;
    EXPECT_THROW(gcfg.validate(), SimError); // no tenants
    TenantSpec t;
    t.name = "t";
    gcfg.tenants.push_back(t);
    EXPECT_THROW(gcfg.validate(), SimError); // no rate in poisson mode
    gcfg.tenants[0].rate_jobs_per_s = 1e5;
    gcfg.tenants[0].mix = {GemmSpec{8, 8, 8}};
    EXPECT_THROW(gcfg.validate(), SimError); // no horizon
    gcfg.horizon_ns = 1e4;
    EXPECT_NO_THROW(gcfg.validate());
    gcfg.tenants.push_back(gcfg.tenants[0]);
    EXPECT_THROW(gcfg.validate(), SimError); // duplicate tenant name
}

TEST(Serving, ServingStatsRegisteredOnlyWhenServing)
{
    // A Runner that never serves must leave the stats dump untouched —
    // the serving groups appear on first serve() only.
    System sys(SystemConfig::paper_default());
    Runner runner(sys);
    (void)runner.run_gemm(GemmSpec{16, 16, 16, 3}, Placement::host, true);
    EXPECT_EQ(sys.stats().find("runner.serving.offered"), nullptr);
    EXPECT_EQ(sys.stats().find("runner.serving.queue_depth"), nullptr);
}

} // namespace
} // namespace accesys::core
