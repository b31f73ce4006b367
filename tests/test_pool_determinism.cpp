// Pooling must be invisible to simulation results: running the same sim
// twice in one process — first with cold (empty) Packet/TLP pools, then
// with pools warmed by the first run's recycled objects — must produce
// bit-identical stats registries and end ticks. Any field the pools fail
// to re-initialise on reuse would show up here as a diverging counter.
// The same contract covers the escape hatches, seeded fault plans and
// checkpoint/restore round trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/runner.hh"
#include "mem/packet.hh"
#include "pcie/tlp.hh"
#include "sim/env_flags.hh"
#include "sim/serialize.hh"

namespace accesys {
namespace {

/// RAII override of the process-wide EnvFlags snapshot. Components capture
/// flag values at construction, so the swap is only valid between Simulator
/// lifetimes — which is exactly how these tests use it.
class ScopedEnvFlags {
  public:
    template <typename Fn>
    explicit ScopedEnvFlags(Fn tweak) : saved_(env_flags())
    {
        EnvFlags flags = saved_;
        tweak(flags);
        EnvFlags::set_for_test(flags);
    }
    ~ScopedEnvFlags() { EnvFlags::set_for_test(saved_); }
    ScopedEnvFlags(const ScopedEnvFlags&) = delete;
    ScopedEnvFlags& operator=(const ScopedEnvFlags&) = delete;

  private:
    EnvFlags saved_;
};

struct SimSnapshot {
    std::string stats_text;
    std::string stats_json;
    Tick end_tick = 0;
    std::uint64_t events = 0;
    bool verified = false;
};

SimSnapshot snapshot_of(core::System& sys, bool verified)
{
    SimSnapshot snap;
    snap.end_tick = sys.sim().now();
    snap.events = sys.sim().queue().events_processed();
    snap.verified = verified;
    std::ostringstream text;
    sys.stats().write_text(text);
    snap.stats_text = text.str();
    std::ostringstream json;
    sys.stats().write_json(json);
    snap.stats_json = json.str();
    return snap;
}

/// A non-null `fault` installs that FaultPlan on the config.
SimSnapshot run_gemm_sim(std::size_t devices, std::uint32_t size,
                         const FaultPlan* fault = nullptr)
{
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    if (devices > 1) {
        cfg.set_num_devices(devices);
    }
    if (fault != nullptr) {
        cfg.fault_plan = *fault;
    }
    core::System sys(cfg);
    core::Runner runner(sys);
    const workload::GemmSpec spec{size, size, size, /*seed=*/3};
    for (std::size_t d = 0; d < devices; ++d) {
        runner.dispatch(d, spec, core::Placement::host, /*verify=*/true);
    }
    return snapshot_of(sys, runner.run_dispatched().all_verified());
}

/// Split-at-`ckpt_at` variant of run_gemm_sim: one System runs until the
/// scheduled checkpoint fires and exits, then a *fresh* System is built
/// from the same config, the identical dispatch sequence is re-run (the
/// restore protocol: programs and closures are reconstructed, not
/// serialized), the snapshot overwrites its dynamic state, and the run
/// finishes. The returned snapshot must be bit-identical to the straight
/// run's.
SimSnapshot run_gemm_split(std::size_t devices, std::uint32_t size,
                           const FaultPlan* fault, Tick ckpt_at,
                           const std::string& path)
{
    const workload::GemmSpec spec{size, size, size, /*seed=*/3};
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    if (devices > 1) {
        cfg.set_num_devices(devices);
    }
    if (fault != nullptr) {
        cfg.fault_plan = *fault;
    }

    {
        core::System sys(cfg);
        core::Runner runner(sys);
        for (std::size_t d = 0; d < devices; ++d) {
            runner.dispatch(d, spec, core::Placement::host, /*verify=*/true);
        }
        sys.sim().request_checkpoint_at(path, ckpt_at);
        const auto res = runner.run_dispatched();
        EXPECT_TRUE(res.checkpointed)
            << "run finished at " << res.end
            << " before the checkpoint tick " << ckpt_at;
    }

    core::System sys(cfg);
    core::Runner runner(sys);
    for (std::size_t d = 0; d < devices; ++d) {
        runner.dispatch(d, spec, core::Placement::host, /*verify=*/true);
    }
    runner.set_restore_path(path);
    const bool verified = runner.run_dispatched().all_verified();
    std::remove(path.c_str());
    return snapshot_of(sys, verified);
}

/// The 4-endpoint HBM2 device-memory GEMM config with the given (ignored)
/// worker-thread setting.
SimSnapshot run_devmem_gemm(unsigned threads, std::size_t* domains)
{
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    cfg.set_devmem("HBM2");
    cfg.set_num_devices(4);
    cfg.threads = threads;
    core::System sys(cfg);
    core::Runner runner(sys);
    for (std::size_t d = 0; d < 4; ++d) {
        runner.dispatch(d, workload::GemmSpec{64, 64, 64, 3 + d},
                        core::Placement::devmem, /*verify=*/true);
    }
    const bool verified = runner.run_dispatched().all_verified();
    *domains = sys.sim().domain_count();
    return snapshot_of(sys, verified);
}

TEST(PoolDeterminism, ColdVsWarmPoolsAreBitIdentical)
{
    // First run: the global pools start cold (or in whatever state earlier
    // tests left them); it both produces the reference and warms the pools.
    const SimSnapshot cold = run_gemm_sim(1, 48);
    EXPECT_TRUE(cold.verified);
    EXPECT_GT(mem::packet_pool().free_count(), 0u);
    EXPECT_GT(pcie::tlp_pool().free_count(), 0u);

    // Second run: every packet/TLP is now a recycled object.
    const SimSnapshot warm = run_gemm_sim(1, 48);
    EXPECT_TRUE(warm.verified);
    EXPECT_EQ(cold.end_tick, warm.end_tick);
    EXPECT_EQ(cold.events, warm.events);
    EXPECT_EQ(cold.stats_text, warm.stats_text);
    EXPECT_EQ(cold.stats_json, warm.stats_json);
}

TEST(PoolDeterminism, MultiDeviceWarmRerunIsBitIdentical)
{
    const SimSnapshot first = run_gemm_sim(2, 32);
    const SimSnapshot second = run_gemm_sim(2, 32);
    EXPECT_TRUE(first.verified);
    EXPECT_EQ(first.end_tick, second.end_tick);
    EXPECT_EQ(first.events, second.events);
    EXPECT_EQ(first.stats_text, second.stats_text);
}

TEST(PoolDeterminism, ThreadsSettingIsAcceptedAndIgnored)
{
    // SystemConfig::threads survives only for source compatibility: every
    // config runs the one serial event queue, so threads=4 must produce
    // byte-identical stats, the same end tick, and no simulation domains.
    std::size_t domains1 = 1;
    std::size_t domains4 = 1;
    const SimSnapshot t1 = run_devmem_gemm(1, &domains1);
    const SimSnapshot t4 = run_devmem_gemm(4, &domains4);
    EXPECT_TRUE(t1.verified);
    EXPECT_TRUE(t4.verified);
    EXPECT_EQ(t1.end_tick, t4.end_tick);
    EXPECT_EQ(t1.stats_json, t4.stats_json);
    EXPECT_EQ(domains1, 0u);
    EXPECT_EQ(domains4, 0u);
}

TEST(PoolDeterminism, BatchedDispatchMatchesUnbatchedBitExactly)
{
    // Same-tick batch dispatch and same-resolved-tick egress fusion
    // (sim/event.hh, mem/port.hh) must be invisible to simulation results:
    // a run with the ACCESYS_NO_BATCH escape hatch set — forcing the
    // one-event-at-a-time path and disabling queue fusion — must produce
    // the same end tick and bit-identical stats dumps as the default
    // batched run. Event *counts* may differ (fusion elides self-events),
    // so they are deliberately not compared. Components capture the flag
    // at EventQueue construction, so the snapshot override swaps modes
    // between Simulator lifetimes within one process.
    const SimSnapshot batched = run_gemm_sim(2, 48);
    EXPECT_TRUE(batched.verified);

    SimSnapshot unbatched;
    {
        const ScopedEnvFlags override_flags(
            [](EnvFlags& f) { f.no_batch = true; });
        unbatched = run_gemm_sim(2, 48);
    }
    EXPECT_TRUE(unbatched.verified);

    EXPECT_EQ(batched.end_tick, unbatched.end_tick);
    EXPECT_EQ(batched.stats_text, unbatched.stats_text);
    EXPECT_EQ(batched.stats_json, unbatched.stats_json);
    EXPECT_GE(unbatched.events, batched.events)
        << "fusion may only remove self-events, never add them";
}

TEST(PoolDeterminism, HopFusionExpressLaneMatchesDisabledBitExactly)
{
    // The memory-hierarchy express lane (sim/event.hh schedule_express)
    // stages hop events in a one-slot lane and dispatches them straight
    // from it when they are the earliest pending work. The staged entry
    // carries the same (tick, priority, sequence) key a plain schedule()
    // would have produced, so dispatch order — and with it every stat and
    // the end tick — must be identical with no_hop_fusion set (which
    // degrades every schedule_express to schedule()). Unlike batch fusion
    // and lazy credits, the lane elides no events, so the counts must
    // match exactly as well.
    const SimSnapshot fused = run_gemm_sim(2, 48);
    EXPECT_TRUE(fused.verified);

    SimSnapshot plain;
    {
        const ScopedEnvFlags override_flags(
            [](EnvFlags& f) { f.no_hop_fusion = true; });
        plain = run_gemm_sim(2, 48);
    }
    EXPECT_TRUE(plain.verified);

    EXPECT_EQ(fused.end_tick, plain.end_tick);
    EXPECT_EQ(fused.events, plain.events)
        << "the express lane must dispatch, not elide";
    EXPECT_EQ(fused.stats_text, plain.stats_text);
    EXPECT_EQ(fused.stats_json, plain.stats_json);
}

TEST(PoolDeterminism, LazyCreditsMatchEagerBitExactly)
{
    // Lazy link-credit accounting (pcie/link.cc) elides the per-TLP
    // credit-return event on unstarved directions; a starved sender's kick
    // is scheduled for the exact tick the eager model would have fired it.
    // A run with eager_credits set — restoring the per-return event —
    // must therefore produce the same end tick and bit-identical stats
    // dumps. Event *counts* may differ (the elided kicks were no-ops), so
    // they are deliberately not compared. PcieLink captures the flag at
    // construction; the snapshot override swaps modes between Simulator
    // lifetimes within one process.
    const SimSnapshot lazy = run_gemm_sim(2, 48);
    EXPECT_TRUE(lazy.verified);

    SimSnapshot eager;
    {
        const ScopedEnvFlags override_flags(
            [](EnvFlags& f) { f.eager_credits = true; });
        eager = run_gemm_sim(2, 48);
    }
    EXPECT_TRUE(eager.verified);

    EXPECT_EQ(lazy.end_tick, eager.end_tick);
    EXPECT_EQ(lazy.stats_text, eager.stats_text);
    EXPECT_EQ(lazy.stats_json, eager.stats_json);
    EXPECT_GE(eager.events, lazy.events)
        << "lazy accounting may only elide credit events, never add them";
}

TEST(PoolDeterminism, SeededFaultPlanRerunIsBitIdentical)
{
    // The fault-injection determinism contract: per-(site, direction)
    // corruption streams are keyed by topology registration order, so a
    // fixed seeded plan (Bernoulli corruption everywhere plus a mid-run
    // link-down window) is bit-identical run to run.
    FaultPlan plan;
    plan.seed = 11;
    plan.corrupt_rate = 0.01;
    FaultEvent down;
    down.kind = FaultKind::link_down;
    down.site = "link_dn2";
    down.at_ns = 5000.0;
    down.duration_ns = 10000.0;
    plan.events.push_back(down);
    plan.max_replays = 16;
    plan.replay_timeout_ns = 3000.0;

    const SimSnapshot first = run_gemm_sim(4, 32, &plan);
    EXPECT_TRUE(first.verified) << "replay must recover every corruption";
    const SimSnapshot rerun = run_gemm_sim(4, 32, &plan);
    EXPECT_EQ(first.end_tick, rerun.end_tick);
    EXPECT_EQ(first.stats_text, rerun.stats_text);
    EXPECT_EQ(first.stats_json, rerun.stats_json);
}

TEST(PoolDeterminism, DegradedRunRerunIsBitIdentical)
{
    // Graceful degradation must also be deterministic: with one endpoint's
    // link dead from tick 0 and completion/job timeouts armed, the failed
    // job's give-up path and the surviving endpoints' completions land on
    // the same ticks run to run.
    FaultPlan plan;
    FaultEvent down;
    down.kind = FaultKind::link_down;
    down.site = "link_dn1";
    down.at_ns = 0.0;
    down.duration_ns = 1e12;
    plan.events.push_back(down);
    plan.max_replays = 4;
    plan.replay_timeout_ns = 2000.0;
    plan.completion_timeout_ns = 50000.0;
    plan.job_timeout_ns = 2e6;

    const SimSnapshot first = run_gemm_sim(4, 32, &plan);
    EXPECT_FALSE(first.verified) << "device 1's job must have timed out";
    const SimSnapshot rerun = run_gemm_sim(4, 32, &plan);
    EXPECT_EQ(first.end_tick, rerun.end_tick);
    EXPECT_EQ(first.stats_text, rerun.stats_text);
    EXPECT_EQ(first.stats_json, rerun.stats_json);
}

TEST(PoolDeterminism, DisabledFaultsMatchEmptyPlanBitExactly)
{
    // ACCESYS_FAULTS=0 is the escape hatch: a populated FaultPlan must
    // then behave exactly like an absent one — no fault state allocated,
    // no fault stats registered, and both dumps bit-identical to a run
    // with the default (inactive) plan.
    const SimSnapshot clean = run_gemm_sim(2, 32);
    EXPECT_TRUE(clean.verified);

    FaultPlan plan;
    plan.seed = 17;
    plan.corrupt_rate = 0.05;
    plan.completion_timeout_ns = 50000.0;
    plan.job_timeout_ns = 1e6;

    SimSnapshot disabled;
    {
        const ScopedEnvFlags override_flags(
            [](EnvFlags& f) { f.faults = false; });
        disabled = run_gemm_sim(2, 32, &plan);
    }
    EXPECT_TRUE(disabled.verified);
    EXPECT_EQ(clean.end_tick, disabled.end_tick);
    EXPECT_EQ(clean.events, disabled.events);
    EXPECT_EQ(clean.stats_text, disabled.stats_text);
    EXPECT_EQ(clean.stats_json, disabled.stats_json);
}

TEST(CheckpointRoundTrip, SplitRunBitIdentical)
{
    // The checkpoint/restore bit-identity contract: a run checkpointed at
    // its midpoint and resumed in a fresh System must finish with the
    // same end tick and byte-identical stats dumps as the uninterrupted
    // run.
    const SimSnapshot straight = run_gemm_sim(4, 32);
    ASSERT_TRUE(straight.verified);
    const Tick mid = straight.end_tick / 2;
    ASSERT_GT(mid, 0u);

    const std::string path = ::testing::TempDir() + "roundtrip.ckpt";
    const SimSnapshot split = run_gemm_split(4, 32, nullptr, mid, path);
    EXPECT_TRUE(split.verified);
    EXPECT_EQ(straight.end_tick, split.end_tick);
    EXPECT_EQ(straight.stats_text, split.stats_text);
    EXPECT_EQ(straight.stats_json, split.stats_json);
}

TEST(CheckpointRoundTrip, StaleFormatVersionIsRejected)
{
    // A snapshot stamped with an older format version must be refused
    // outright, naming both versions, instead of being misparsed.
    const std::string path = ::testing::TempDir() + "stale_version.ckpt";
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    {
        core::System sys(cfg);
        sys.sim().checkpoint(path);
    }
    const std::uint32_t old_version = Ckpt::kFormatVersion - 1;
    {
        // The u32 version follows the 8-byte magic.
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(sizeof(Ckpt::kMagic));
        f.write(reinterpret_cast<const char*>(&old_version),
                sizeof(old_version));
    }
    core::System sys(cfg);
    try {
        sys.sim().restore(path);
        FAIL() << "a stale-format checkpoint was accepted";
    } catch (const SimError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("v" + std::to_string(old_version)),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("v" + std::to_string(Ckpt::kFormatVersion)),
                  std::string::npos)
            << msg;
    }
    std::remove(path.c_str());
}

TEST(CheckpointRoundTrip, MidLinkDownWindowWithSeededCorruption)
{
    // Hardest restore case: checkpoint inside an active link_down window
    // of a seeded plan with Bernoulli corruption everywhere. The snapshot
    // must carry the replay buffers, ACK/NAK state, down-window cursors,
    // and — critically — the per-(site, direction) RNG stream positions,
    // so the resumed run draws the exact corruption sequence the straight
    // run drew.
    FaultPlan plan;
    plan.seed = 11;
    plan.corrupt_rate = 0.01;
    FaultEvent down;
    down.kind = FaultKind::link_down;
    down.site = "link_dn2";
    down.at_ns = 5000.0;
    down.duration_ns = 10000.0;
    plan.events.push_back(down);
    plan.max_replays = 16;
    plan.replay_timeout_ns = 3000.0;

    const SimSnapshot straight = run_gemm_sim(4, 32, &plan);
    ASSERT_TRUE(straight.verified);
    const Tick in_window = ticks_from_ns(8000.0); // 5000 + 10000 window
    ASSERT_GT(straight.end_tick, in_window)
        << "run must outlast the checkpoint point";

    const std::string path = ::testing::TempDir() + "roundtrip_fault.ckpt";
    const SimSnapshot split = run_gemm_split(4, 32, &plan, in_window, path);
    EXPECT_TRUE(split.verified);
    EXPECT_EQ(straight.end_tick, split.end_tick);
    EXPECT_EQ(straight.stats_text, split.stats_text);
    EXPECT_EQ(straight.stats_json, split.stats_json);
}

TEST(PoolDeterminism, FailoverHangPoisonFlrRerunIsBitIdentical)
{
    // The endpoint-level fault contract: device-fault streams (hang,
    // poison) are keyed by (site, channel) in topology registration
    // order, and the Runner's failover rounds (timeout -> FLR ->
    // re-dispatch) are host-driven, so a seeded hang+poison plan with
    // failover armed is bit-identical run to run.
    FaultPlan plan;
    plan.seed = 23;
    plan.poison_rate = 0.005;
    FaultEvent hang;
    hang.kind = FaultKind::accel_hang;
    hang.site = "mf1"; // endpoint 1's first command freezes its FSM
    hang.at_ns = 0.0;
    plan.events.push_back(hang);
    plan.job_timeout_ns = 2e6;
    plan.job_max_attempts = 3;
    plan.flr_ns = 2000.0;

    const SimSnapshot first = run_gemm_sim(4, 32, &plan);
    EXPECT_TRUE(first.verified)
        << "failover must re-dispatch every failed job to completion";
    const SimSnapshot rerun = run_gemm_sim(4, 32, &plan);
    EXPECT_EQ(first.end_tick, rerun.end_tick);
    EXPECT_EQ(first.stats_text, rerun.stats_text);
    EXPECT_EQ(first.stats_json, rerun.stats_json);
}

TEST(CheckpointRoundTrip, MidFlrCheckpointRoundTripsBitIdentical)
{
    // Checkpoint taken *inside* a function-level reset window: the
    // snapshot must carry the endpoint's flr_until horizon, the hung-flag
    // clear, the drained DMA/command state and the deferred doorbell
    // kick, so the resumed run re-arms the endpoint on the same tick and
    // finishes byte-identical to the straight run. The failover path
    // stays disarmed (job_max_attempts = 1): the test drives the
    // hang -> FLR -> re-ring sequence manually in two classic rounds so
    // the restore protocol (re-run the identical dispatch, then overwrite
    // dynamic state) applies to the round containing the checkpoint.
    auto make_cfg = [] {
        core::SystemConfig cfg = core::SystemConfig::paper_default();
        cfg.set_num_devices(2);
        FaultEvent hang;
        hang.kind = FaultKind::accel_hang;
        hang.site = "mf1";
        hang.at_ns = 0.0;
        cfg.fault_plan.events.push_back(hang);
        cfg.fault_plan.job_timeout_ns = 1e6;
        return cfg;
    };
    const workload::GemmSpec spec{32, 32, 32, 3};
    const double flr_ns = 4000.0;

    // One leg = round 1 (endpoint 1 hangs, its job times out), a manual
    // FLR, then round 2 (both jobs complete). `ckpt_at`, when non-zero,
    // schedules a checkpoint halfway into the FLR window and the leg
    // stops there; `restore` resumes round 2 from that snapshot.
    struct LegResult {
        SimSnapshot snap;
        Tick ckpt_at = 0;
    };
    auto run_leg = [&](Tick ckpt_at, const std::string& ckpt_path,
                       const std::string& restore) {
        core::System sys(make_cfg());
        core::Runner runner(sys);
        runner.dispatch(0, spec, core::Placement::host, /*verify=*/true);
        runner.dispatch(1, spec, core::Placement::host, /*verify=*/true);
        const auto r1 = runner.run_dispatched();
        EXPECT_EQ(r1.devices[0].status, core::JobStatus::ok);
        EXPECT_EQ(r1.devices[1].status, core::JobStatus::timed_out);

        const Tick flr_start = sys.sim().now();
        sys.accelerator(1).begin_flr(ticks_from_ns(flr_ns));

        LegResult leg;
        leg.ckpt_at = flr_start + ticks_from_ns(flr_ns / 2);
        runner.dispatch(0, spec, core::Placement::host, /*verify=*/true);
        runner.dispatch(1, spec, core::Placement::host, /*verify=*/true);
        if (ckpt_at != 0) {
            sys.sim().request_checkpoint_at(ckpt_path, ckpt_at);
        }
        if (!restore.empty()) {
            runner.set_restore_path(restore);
        }
        const auto r2 = runner.run_dispatched();
        if (ckpt_at != 0) {
            EXPECT_TRUE(r2.checkpointed)
                << "round 2 finished before the mid-FLR checkpoint";
        } else {
            EXPECT_TRUE(r2.all_verified())
                << "FLR must have unwedged endpoint 1";
        }

        leg.snap.end_tick = sys.sim().now();
        std::ostringstream text;
        sys.stats().write_text(text);
        leg.snap.stats_text = text.str();
        std::ostringstream json;
        sys.stats().write_json(json);
        leg.snap.stats_json = json.str();
        return leg;
    };

    const LegResult straight = run_leg(0, "", "");
    const std::string path = ::testing::TempDir() + "mid_flr.ckpt";
    const LegResult save = run_leg(straight.ckpt_at, path, "");
    const LegResult resumed = run_leg(0, "", path);
    std::remove(path.c_str());

    EXPECT_EQ(straight.snap.end_tick, resumed.snap.end_tick);
    EXPECT_EQ(straight.snap.stats_text, resumed.snap.stats_text);
    EXPECT_EQ(straight.snap.stats_json, resumed.snap.stats_json);
    EXPECT_LT(save.snap.end_tick, straight.snap.end_tick)
        << "the save leg must have stopped at the mid-FLR checkpoint";
}

TEST(PoolDeterminism, SteadyStateForwardingAllocatesNothing)
{
    // Warm-up run, then measure: the second identical sim must not grow
    // either pool's heap-allocation counter — every transaction object is
    // served from the free lists.
    (void)run_gemm_sim(1, 48);
    const std::uint64_t pkt_allocs = mem::packet_pool().allocs_total();
    const std::uint64_t tlp_allocs = pcie::tlp_pool().allocs_total();
    (void)run_gemm_sim(1, 48);
    EXPECT_EQ(mem::packet_pool().allocs_total(), pkt_allocs);
    EXPECT_EQ(pcie::tlp_pool().allocs_total(), tlp_allocs);
}

} // namespace
} // namespace accesys
