// End-to-end fault injection + recovery through the full system: seeded
// TLP corruption recovered by data-link replay (functional results stay
// bit-exact), surprise link-down windows survived by the replay timer,
// and graceful degradation — a permanently dead endpoint fails its job
// per-device (completion/job timeouts) while the other endpoints' jobs
// finish and verify.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/runner.hh"
#include "test_util.hh"
#include "workload/request_gen.hh"

namespace accesys::core {
namespace {

using workload::GemmSpec;

TEST(FaultRecovery, SeededCorruptionRecoversAndVerifies)
{
    auto cfg = SystemConfig::paper_default();
    cfg.fault_plan.seed = 99;
    cfg.fault_plan.corrupt_rate = 0.02;
    cfg.fault_plan.corrupt_site = "link_dn";
    System sys(cfg);
    Runner runner(sys);
    const auto res =
        runner.run_gemm(GemmSpec{64, 64, 64, 42}, Placement::host, true);

    // Corrupted TLPs were dropped by the receiver, NAKed and replayed —
    // never silently delivered — so the functional result is untouched.
    EXPECT_TRUE(res.verified) << res.mismatches << " mismatches";
    EXPECT_GT(sys.stat("link_dn.link_corrupted_tlps"), 0.0);
    EXPECT_GT(sys.stat("link_dn.link_nak_count"), 0.0);
    EXPECT_GT(sys.stat("link_dn.link_replays"), 0.0);
    EXPECT_GT(sys.stat("link_dn.recovery_ns"), 0.0);
    // Every corruption was recovered, none escalated to a dead TLP.
    EXPECT_EQ(sys.stat("link_dn.link_dead_tlps"), 0.0);
    test::expect_credits_home(sys);
}

TEST(FaultRecovery, CorruptionOnSharedUplinkRecovers)
{
    auto cfg = SystemConfig::paper_default();
    cfg.fault_plan.seed = 7;
    cfg.fault_plan.corrupt_rate = 0.01;
    cfg.fault_plan.corrupt_site = "link_up";
    System sys(cfg);
    Runner runner(sys);
    const auto res =
        runner.run_gemm(GemmSpec{48, 48, 48, 3}, Placement::host, true);
    EXPECT_TRUE(res.verified);
    EXPECT_GT(sys.stat("link_up.link_replays"), 0.0);
    test::expect_credits_home(sys);
}

TEST(FaultRecovery, CorruptionIsDeterministicPerSeed)
{
    auto cfg = SystemConfig::paper_default();
    cfg.fault_plan.seed = 5;
    cfg.fault_plan.corrupt_rate = 0.02;
    double first = -1.0;
    for (int i = 0; i < 2; ++i) {
        System sys(cfg);
        Runner runner(sys);
        const auto res = runner.run_gemm(GemmSpec{64, 64, 64, 11},
                                         Placement::host, true);
        ASSERT_TRUE(res.verified);
        const double corrupted = sys.stat("link_dn.link_corrupted_tlps") +
                                 sys.stat("link_up.link_corrupted_tlps");
        EXPECT_GT(corrupted, 0.0);
        if (first < 0) {
            first = corrupted;
        } else {
            EXPECT_EQ(corrupted, first);
        }
    }
}

TEST(FaultRecovery, MidRunLinkDownWindowIsSurvived)
{
    auto cfg = SystemConfig::paper_default();
    FaultEvent down;
    down.kind = FaultKind::link_down;
    down.site = "link_dn";
    down.dir = 2;
    down.at_ns = 10000.0;       // mid operand pull
    down.duration_ns = 20000.0; // then the link retrains
    cfg.fault_plan.events.push_back(down);
    cfg.fault_plan.max_replays = 64;
    cfg.fault_plan.replay_timeout_ns = 5000.0;
    System sys(cfg);
    Runner runner(sys);
    const auto res =
        runner.run_gemm(GemmSpec{128, 128, 128, 17}, Placement::host, true);

    EXPECT_TRUE(res.verified) << res.mismatches << " mismatches";
    // The window really hit in-flight traffic, and both directions
    // retrained afterwards (credits drained and re-armed).
    EXPECT_GT(sys.stat("link_dn.link_dropped_tlps"), 0.0);
    EXPECT_EQ(sys.stat("link_dn.link_retrains"), 2.0);
    EXPECT_EQ(sys.stat("link_dn.link_dead_tlps"), 0.0);
}

TEST(FaultRecovery, DeadEndpointDegradesGracefully)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    FaultEvent down;
    down.kind = FaultKind::link_down;
    down.site = "link_dn1"; // device 1's downstream link, from tick 0
    down.dir = 2;
    down.at_ns = 0.0;
    down.duration_ns = 1e12;
    cfg.fault_plan.events.push_back(down);
    cfg.fault_plan.max_replays = 4;
    cfg.fault_plan.replay_timeout_ns = 2000.0;
    cfg.fault_plan.completion_timeout_ns = 50000.0;
    cfg.fault_plan.job_timeout_ns = 2e6;

    System sys(cfg);
    Runner runner(sys);
    runner.dispatch(0, GemmSpec{64, 64, 64, 23}, Placement::host, true);
    runner.dispatch(1, GemmSpec{64, 64, 64, 29}, Placement::host, true);
    const auto res = runner.run_dispatched();

    // Device 0 is untouched and verifies; device 1 never hears its
    // doorbell and is reported as a per-job timeout instead of wedging
    // the whole batch.
    ASSERT_EQ(res.devices.size(), 2u);
    EXPECT_EQ(res.devices[0].status, JobStatus::ok);
    EXPECT_TRUE(res.devices[0].verified);
    EXPECT_EQ(res.devices[1].status, JobStatus::timed_out);
    EXPECT_FALSE(res.devices[1].verified);
    // The dead link gave up on the doorbell after its replay budget.
    EXPECT_GT(sys.stat("link_dn1.link_dead_tlps"), 0.0);
    EXPECT_EQ(sys.stat("link_dn.link_dead_tlps"), 0.0);
    // A single-attempt plan leaves failover disarmed: no fleet stats, no
    // health tracking and no FLR of the dead endpoint.
    EXPECT_EQ(sys.stats().find("runner.fleet.rounds"), nullptr);
    EXPECT_TRUE(res.health.empty());
    EXPECT_EQ(res.flrs, 0u);
    EXPECT_EQ(sys.stat("mf1.flrs"), 0.0);
}

TEST(FaultRecovery, LinkFailureMidRunFailsJobGracefully)
{
    auto cfg = SystemConfig::paper_default();
    FaultEvent down;
    down.kind = FaultKind::link_down;
    down.site = "link_dn";
    down.dir = 2;
    down.at_ns = 10000.0; // kill the link mid operand pull, forever
    down.duration_ns = 1e12;
    cfg.fault_plan.events.push_back(down);
    cfg.fault_plan.max_replays = 2;
    cfg.fault_plan.replay_timeout_ns = 1000.0;
    cfg.fault_plan.completion_timeout_ns = 50000.0;
    cfg.fault_plan.completion_max_retries = 2;
    cfg.fault_plan.job_timeout_ns = 5e6;

    System sys(cfg);
    Runner runner(sys);
    const auto res =
        runner.run_gemm(GemmSpec{128, 128, 128, 31}, Placement::host, true);

    // The run terminates (no deadlock) and reports failure: in-flight
    // reads timed out, and since the egress link is known-dead the
    // engine short-circuits straight to failure instead of burning the
    // retry budget against a path that cannot deliver.
    EXPECT_FALSE(res.verified);
    EXPECT_GT(sys.stat("link_dn.link_dead_tlps"), 0.0);
    EXPECT_GT(sys.stat("mf.dma.read_timeouts"), 0.0);
    EXPECT_EQ(sys.stat("mf.dma.read_retries"), 0.0);
    EXPECT_GT(sys.stat("mf.dma.dead_path_failures"), 0.0);
    // Both operand-pull jobs (A and B run concurrently) may fail.
    EXPECT_GE(sys.stat("mf.dma.jobs_failed"), 1.0);
}

TEST(FaultRecovery, RestoredRngStreamsContinueExactFaultSequence)
{
    // Checkpoint mid-run under seeded corruption, resume in a fresh
    // System: the serialized per-(site, direction) RNG stream positions
    // must make the resumed run draw the exact corruption tail the
    // straight run drew — same corrupted-TLP count, same NAK/replay
    // counts, same end tick.
    auto make_cfg = [] {
        auto cfg = SystemConfig::paper_default();
        cfg.fault_plan.seed = 99;
        cfg.fault_plan.corrupt_rate = 0.02;
        cfg.fault_plan.corrupt_site = "link_dn";
        return cfg;
    };
    const GemmSpec spec{64, 64, 64, 42};

    Tick straight_end = 0;
    double corrupted = 0.0;
    double naks = 0.0;
    double replays = 0.0;
    {
        System sys(make_cfg());
        Runner runner(sys);
        runner.dispatch(0, spec, Placement::host, true);
        const auto res = runner.run_dispatched();
        ASSERT_TRUE(res.all_verified());
        straight_end = sys.sim().now();
        corrupted = sys.stat("link_dn.link_corrupted_tlps");
        naks = sys.stat("link_dn.link_nak_count");
        replays = sys.stat("link_dn.link_replays");
        ASSERT_GT(corrupted, 0.0) << "plan must actually corrupt TLPs";
    }

    const std::string path = ::testing::TempDir() + "fault_rng.ckpt";
    {
        System sys(make_cfg());
        Runner runner(sys);
        runner.dispatch(0, spec, Placement::host, true);
        sys.sim().request_checkpoint_at(path, straight_end / 2);
        const auto res = runner.run_dispatched();
        ASSERT_TRUE(res.checkpointed);
        // The first half already corrupted something, so the resumed run
        // can only match the straight totals by continuing the stream —
        // not by restarting it.
        EXPECT_GT(sys.stat("link_dn.link_corrupted_tlps"), 0.0);
        EXPECT_LT(sys.stat("link_dn.link_corrupted_tlps"), corrupted);
    }

    System sys(make_cfg());
    Runner runner(sys);
    runner.dispatch(0, spec, Placement::host, true);
    runner.set_restore_path(path);
    const auto res = runner.run_dispatched();
    std::remove(path.c_str());
    ASSERT_TRUE(res.all_verified());
    EXPECT_EQ(sys.sim().now(), straight_end);
    EXPECT_EQ(sys.stat("link_dn.link_corrupted_tlps"), corrupted);
    EXPECT_EQ(sys.stat("link_dn.link_nak_count"), naks);
    EXPECT_EQ(sys.stat("link_dn.link_replays"), replays);
}

TEST(FaultRecovery, InactivePlanRegistersNoFaultStats)
{
    System sys(SystemConfig::paper_default());
    EXPECT_EQ(sys.stats().find("link_dn.link_replays"), nullptr);
    EXPECT_EQ(sys.stats().find("mf.dma.read_timeouts"), nullptr);
    EXPECT_EQ(sys.stats().find("rc.mmio_timeouts"), nullptr);
    EXPECT_EQ(sys.stats().find("mf.hangs"), nullptr);
    EXPECT_EQ(sys.stats().find("mf.poisoned_cpls"), nullptr);
    EXPECT_EQ(sys.stats().find("smmu.trans_faults"), nullptr);
    EXPECT_EQ(sys.stats().find("runner.fleet.rounds"), nullptr);
    EXPECT_EQ(sys.sim().fault_injector(), nullptr);
}

TEST(FaultRecovery, PermanentHangFailsOverAndAllJobsComplete)
{
    // The headline failover scenario: endpoint 1 hangs on *every* command
    // (a permanently wedged accelerator), three healthy peers, one job
    // dispatched per endpoint. The runner must detect the timeout, FLR
    // the wedged endpoint, mark it degraded, and re-dispatch its job to
    // the least-loaded healthy peer — every job completes and verifies,
    // zero JobStatus::failed outcomes.
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(4);
    cfg.fault_plan.hang_rate = 1.0;
    cfg.fault_plan.hang_site = "mf1";
    cfg.fault_plan.job_timeout_ns = 2e6;
    cfg.fault_plan.job_max_attempts = 3;

    System sys(cfg);
    Runner runner(sys);
    for (std::size_t d = 0; d < 4; ++d) {
        runner.dispatch(d, GemmSpec{48, 48, 48, 7 + d},
                        Placement::host, /*verify=*/true);
    }
    const auto res = runner.run_dispatched();

    for (const auto& d : res.devices) {
        EXPECT_EQ(d.status, JobStatus::ok) << "job on device " << d.device;
        EXPECT_TRUE(d.verified) << "job on device " << d.device;
    }
    // The wedged endpoint's job took exactly one extra attempt elsewhere.
    ASSERT_EQ(res.devices[1].attempts.size(), 2u);
    EXPECT_EQ(res.devices[1].attempts[0].device, 1u);
    EXPECT_EQ(res.devices[1].attempts[0].status, JobStatus::timed_out);
    EXPECT_NE(res.devices[1].attempts[1].device, 1u);
    EXPECT_EQ(res.devices[1].attempts[1].status, JobStatus::ok);
    EXPECT_EQ(res.redispatches, 1u);
    EXPECT_EQ(res.flrs, 1u);
    ASSERT_EQ(res.health.size(), 4u);
    EXPECT_EQ(res.health[0], EndpointHealth::healthy);
    EXPECT_EQ(res.health[1], EndpointHealth::degraded);
    EXPECT_EQ(res.health[2], EndpointHealth::healthy);
    EXPECT_EQ(res.health[3], EndpointHealth::healthy);
    EXPECT_GT(sys.stat("mf1.hangs"), 0.0);
    EXPECT_GT(sys.stat("mf1.flrs"), 0.0);
    EXPECT_EQ(sys.stat("runner.fleet.job_failures"), 0.0);
    EXPECT_EQ(sys.stat("runner.fleet.redispatches"), 1.0);
    EXPECT_EQ(sys.stat("runner.fleet.degrades"), 1.0);
    EXPECT_EQ(sys.stat("runner.fleet.quarantines"), 0.0);
}

TEST(FaultRecovery, DegradedEndpointRehabilitatesThenRequarantines)
{
    // The full health-hysteresis life cycle on endpoint 1, across five
    // single-job batches dispatched to it:
    //   batch 1: hang (event at t=0)  -> timed out, FLR, degraded
    //   batch 2: clean success        -> still degraded (1 < rehab_successes)
    //   batch 3: clean success (big)  -> rehabilitated: degraded -> healthy
    //   batch 4: hang (event at T2)   -> healthy -> degraded again
    //   batch 5: hang (event at T2)   -> second consecutive failure ->
    //                                    quarantined
    // Batch 3 is a deliberately large GEMM so its completion pushes sim
    // time far past T2 before batch 4 launches; T2 itself sits far above
    // every earlier command tick, so exactly batches 4 and 5 consume the
    // two pending one-shot hang events (hang_roll advances at most one
    // event per command launch).
    //
    // The whole sequence is then checkpoint/restored from the middle of
    // batch 3 — after the rehab count started, before it completed — and
    // must finish bit-identical.
    auto make_cfg = [] {
        auto cfg = SystemConfig::paper_default();
        cfg.set_num_devices(2);
        FaultEvent hang;
        hang.kind = FaultKind::accel_hang;
        hang.site = "mf1";
        hang.at_ns = 0.0;
        cfg.fault_plan.events.push_back(hang);
        hang.at_ns = 1.15e6; // T2: between batch 3's launch and batch 4's
        cfg.fault_plan.events.push_back(hang);
        cfg.fault_plan.events.push_back(hang);
        // Generous enough for the 256^3 batch's legitimate service time;
        // a wedged endpoint still gives up well before the next batch.
        cfg.fault_plan.job_timeout_ns = 1e6;
        cfg.fault_plan.job_max_attempts = 3;
        cfg.fault_plan.quarantine_failures = 2;
        cfg.fault_plan.rehab_successes = 2;
        return cfg;
    };

    struct LegResult {
        Tick end = 0;
        std::string stats_text;
        std::string stats_json;
        std::vector<Tick> batch_ends;
    };
    const std::array<GemmSpec, 5> specs = {
        GemmSpec{32, 32, 32, 7}, GemmSpec{32, 32, 32, 11},
        GemmSpec{256, 256, 256, 13}, GemmSpec{32, 32, 32, 17},
        GemmSpec{32, 32, 32, 19}};

    // `ckpt_path` empty = straight leg; `ckpt_at` != 0 = save leg (stop at
    // the checkpoint); restore leg otherwise.
    auto run_leg = [&](const std::string& ckpt_path, Tick ckpt_at,
                       bool restore) {
        System sys(make_cfg());
        Runner runner(sys);
        if (ckpt_at != 0) {
            sys.sim().request_checkpoint_at(ckpt_path, ckpt_at);
        }
        LegResult leg;
        for (std::size_t b = 0; b < specs.size(); ++b) {
            runner.dispatch(1, specs[b], Placement::host, true);
            if (restore &&
                leg.batch_ends.size() + 1 == 3) {
                // Batch 3 contains the checkpoint: re-stage it and resume.
                runner.set_restore_path(ckpt_path);
            }
            const auto res = runner.run_dispatched();
            if (res.checkpointed) {
                EXPECT_EQ(leg.batch_ends.size() + 1, 3u)
                    << "checkpoint must land inside batch 3";
                return leg;
            }
            if (res.devices.size() != 1 || res.health.size() != 2) {
                ADD_FAILURE() << "unexpected result shape in batch "
                              << (b + 1);
                return leg;
            }
            EXPECT_EQ(res.devices[0].status, JobStatus::ok)
                << "batch " << (b + 1);
            EXPECT_TRUE(res.devices[0].verified) << "batch " << (b + 1);
            leg.batch_ends.push_back(sys.sim().now());
            EXPECT_EQ(res.health[0], EndpointHealth::healthy)
                << "batch " << (b + 1);
            static const EndpointHealth kExpected[5] = {
                EndpointHealth::degraded,    // batch 1: first hang
                EndpointHealth::degraded,    // batch 2: 1 of 2 successes
                EndpointHealth::healthy,     // batch 3: rehabilitated
                EndpointHealth::degraded,    // batch 4: second hang
                EndpointHealth::quarantined, // batch 5: re-quarantined
            };
            EXPECT_EQ(res.health[1], kExpected[b]) << "batch " << (b + 1);
        }
        leg.end = sys.sim().now();
        std::ostringstream text;
        sys.stats().write_text(text);
        leg.stats_text = text.str();
        std::ostringstream json;
        sys.stats().write_json(json);
        leg.stats_json = json.str();
        EXPECT_EQ(sys.stat("runner.fleet.degrades"), 2.0);
        EXPECT_EQ(sys.stat("runner.fleet.rehabs"), 1.0);
        EXPECT_EQ(sys.stat("runner.fleet.quarantines"), 1.0);
        EXPECT_EQ(sys.stat("runner.fleet.redispatches"), 3.0);
        EXPECT_EQ(sys.stat("runner.fleet.flrs"), 3.0);
        EXPECT_EQ(sys.stat("runner.fleet.job_failures"), 0.0);
        EXPECT_EQ(sys.stat("mf1.hangs"), 3.0);
        return leg;
    };

    const LegResult straight = run_leg("", 0, false);
    ASSERT_EQ(straight.batch_ends.size(), 5u);
    ASSERT_FALSE(straight.stats_text.empty());

    // Checkpoint mid-batch-3: strictly after batch 2 completed (the rehab
    // streak is at 1 of 2) and before batch 3 completes it.
    const Tick mid =
        (straight.batch_ends[1] + straight.batch_ends[2]) / 2;
    const std::string path = ::testing::TempDir() + "rehab.ckpt";
    const LegResult saved = run_leg(path, mid, false);
    EXPECT_EQ(saved.batch_ends.size(), 2u)
        << "save leg must stop inside batch 3";

    const LegResult resumed = run_leg(path, 0, true);
    std::remove(path.c_str());
    ASSERT_EQ(resumed.batch_ends.size(), 5u);
    EXPECT_EQ(resumed.end, straight.end);
    EXPECT_EQ(resumed.stats_text, straight.stats_text);
    EXPECT_EQ(resumed.stats_json, straight.stats_json);
}

TEST(FaultRecovery, ServingOverloadWithWedgedEndpointShedsAndCompletes)
{
    // Overload + fault composition: 60 arrivals at one job per 2 us — about
    // 1.5x what three healthy endpoints sustain for 32^3 jobs — while
    // endpoint 1 hangs on every command. The serving loop must quarantine
    // the wedged endpoint after two consecutive failures, shed the overload
    // deterministically (shed_oldest, capacity 4), and complete every
    // admitted-and-not-shed job via failover — zero failures, nothing
    // silently dropped, and the whole composition bit-identical on a rerun.
    auto run_once = [](std::string* stats_text) {
        std::ostringstream body;
        for (int i = 0; i < 60; ++i) {
            body << (100 + 2000 * i) << " 0 32 32 32\n";
        }
        const std::string trace =
            ::testing::TempDir() + "serving_wedged.trace";
        {
            std::ofstream out(trace);
            out << body.str();
        }
        auto cfg = SystemConfig::paper_default();
        cfg.set_num_devices(4);
        cfg.fault_plan.hang_rate = 1.0;
        cfg.fault_plan.hang_site = "mf1";
        cfg.fault_plan.job_timeout_ns = 2e5;
        cfg.fault_plan.job_max_attempts = 3;
        cfg.fault_plan.quarantine_failures = 2;
        System sys(cfg);
        workload::RequestGenConfig gcfg;
        gcfg.mode = workload::RequestGenConfig::Mode::trace;
        gcfg.trace_path = trace;
        workload::TenantSpec tenant;
        tenant.name = "load";
        gcfg.tenants.push_back(tenant);
        workload::RequestGen gen(sys.sim(), gcfg);

        ServingConfig scfg;
        scfg.policy = ShedPolicy::shed_oldest;
        scfg.queue_capacity = 4;
        Runner runner(sys);
        const ServingResult res = runner.serve(gen, scfg);
        std::remove(trace.c_str());
        if (stats_text != nullptr) {
            std::ostringstream text;
            sys.stats().write_text(text);
            *stats_text = text.str();
        }
        EXPECT_GT(sys.stat("mf1.hangs"), 0.0);
        return res;
    };

    std::string first_stats;
    const ServingResult res = run_once(&first_stats);
    EXPECT_TRUE(res.accounted())
        << "offered " << res.offered << " admitted " << res.admitted
        << " rejected " << res.rejected << " shed " << res.shed
        << " completed " << res.completed << " failed " << res.failed;
    EXPECT_EQ(res.offered, 60u);
    EXPECT_EQ(res.rejected, 0u) << "shed_oldest never refuses at admission";
    EXPECT_GT(res.shed, 0u) << "1.5x overload must shed";
    EXPECT_EQ(res.failed, 0u)
        << "every admitted-and-dispatched job must complete via failover";
    EXPECT_EQ(res.completed + res.shed, res.admitted);
    EXPECT_GE(res.redispatches, 2u)
        << "the wedged endpoint's jobs must fail over";
    ASSERT_EQ(res.health.size(), 4u);
    EXPECT_EQ(res.health[1], EndpointHealth::quarantined)
        << "two consecutive hangs must quarantine the wedged endpoint";
    EXPECT_EQ(res.health[0], EndpointHealth::healthy);
    EXPECT_EQ(res.health[2], EndpointHealth::healthy);
    EXPECT_EQ(res.health[3], EndpointHealth::healthy);
    for (const ServedJob& j : res.jobs) {
        if (j.status == JobStatus::ok) {
            EXPECT_TRUE(j.verified) << "job " << j.id;
        }
    }

    // The composition — Bernoulli hang stream, timeouts, FLR, shedding —
    // is deterministic: a second identical run dumps identical stats.
    std::string second_stats;
    const ServingResult rerun = run_once(&second_stats);
    EXPECT_EQ(rerun.completed, res.completed);
    EXPECT_EQ(rerun.shed, res.shed);
    EXPECT_EQ(second_stats, first_stats);
}

TEST(FaultRecovery, PoisonedCompletionIsContainedNeverConsumed)
{
    // Poison containment: with every DMA read completion poisoned at the
    // endpoint's ingress, the engine must fail the job and drop the data
    // — the completion flag stays unset and the run reports the timeout
    // instead of silently consuming poisoned payload into the GEMM.
    auto cfg = SystemConfig::paper_default();
    cfg.fault_plan.poison_rate = 1.0;
    cfg.fault_plan.poison_site = "mf";
    cfg.fault_plan.job_timeout_ns = 1e6;
    System sys(cfg);
    Runner runner(sys);
    const auto res =
        runner.run_gemm(GemmSpec{48, 48, 48, 11}, Placement::host, true);

    EXPECT_FALSE(res.verified);
    EXPECT_GT(sys.stat("mf.poisoned_cpls"), 0.0);
    EXPECT_GT(sys.stat("mf.dma.poisoned_cpls_contained"), 0.0);
    EXPECT_GE(sys.stat("mf.dma.jobs_failed"), 1.0);
}

TEST(FaultRecovery, MmioUrWindowReadsAllOnesAndDropsWrites)
{
    // An MMIO unsupported-request window from tick 0: doorbell writes
    // into the endpoint's BAR are dropped and status reads complete
    // all-ones, so the job can never start; the poll times out and the
    // run degrades gracefully.
    auto cfg = SystemConfig::paper_default();
    FaultEvent ur;
    ur.kind = FaultKind::mmio_ur;
    ur.site = "mf";
    ur.at_ns = 0.0;
    ur.duration_ns = 0.0; // open-ended
    cfg.fault_plan.events.push_back(ur);
    cfg.fault_plan.job_timeout_ns = 2e5;
    System sys(cfg);
    Runner runner(sys);
    const auto res =
        runner.run_gemm(GemmSpec{32, 32, 32, 5}, Placement::host, true);

    EXPECT_FALSE(res.verified);
    EXPECT_GT(sys.stat("mf.ur_dropped_writes"), 0.0);
    EXPECT_EQ(sys.stat("mf.dma.jobs_done"), 0.0);
}

TEST(FaultRecovery, SmmuTranslationFaultsRecordedAndRecovered)
{
    // Seeded per-stream SMMU translation faults: faulted reads complete
    // poisoned (contained by the DMA engine, retried as completion
    // timeouts never are — the job retries via failover), each fault
    // leaves a bounded fault record, and the stream's RNG draw order
    // keeps the run deterministic.
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    cfg.fault_plan.seed = 31;
    cfg.fault_plan.smmu_fault_rate = 0.01;
    cfg.fault_plan.job_timeout_ns = 2e6;
    cfg.fault_plan.job_max_attempts = 4;
    System sys(cfg);
    Runner runner(sys);
    runner.dispatch(0, GemmSpec{32, 32, 32, 3}, Placement::host, true);
    runner.dispatch(1, GemmSpec{32, 32, 32, 5}, Placement::host, true);
    const auto res = runner.run_dispatched();

    EXPECT_GT(sys.stat("smmu.trans_faults"), 0.0);
    const auto& records = sys.smmu().fault_records();
    EXPECT_FALSE(records.empty());
    EXPECT_LE(records.size(), 64u);
    // Containment + failover turned every fault into a retried job.
    for (const auto& d : res.devices) {
        EXPECT_EQ(d.status, JobStatus::ok) << "job on device " << d.device;
        EXPECT_TRUE(d.verified) << "job on device " << d.device;
    }
}

} // namespace
} // namespace accesys::core
