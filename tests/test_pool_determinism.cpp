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
#include <functional>
#include <regex>
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
    double iocache_writebacks = 0.0;
};

SimSnapshot snapshot_of(core::System& sys, bool verified)
{
    SimSnapshot snap;
    snap.end_tick = sys.sim().now();
    snap.events = sys.sim().queue().events_processed();
    snap.verified = verified;
    snap.iocache_writebacks = sys.stats().value("iocache.writebacks");
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

TEST(CheckpointRoundTrip, DevMemSplitRunsBitIdentical)
{
    // The device-memory data path keeps in-flight state of its own: the
    // mover's job ring and outstanding window, and the aperture's owed CPU
    // reads. Splitting a devmem run at several points and resuming in a
    // fresh System must reproduce the straight run byte for byte.
    using Drive = std::function<bool(core::System&, core::Runner&)>;
    const auto expect_splits_identical = [](const core::SystemConfig& cfg,
                                            const Drive& drive,
                                            std::initializer_list<int> tenths,
                                            const std::string& label) {
        SimSnapshot straight;
        {
            core::System sys(cfg);
            core::Runner runner(sys);
            const bool ok = drive(sys, runner);
            straight = snapshot_of(sys, ok);
        }
        ASSERT_TRUE(straight.verified) << label;
        for (const int tenth : tenths) {
            const Tick at = straight.end_tick / 10 * tenth;
            const std::string path =
                ::testing::TempDir() + "devmem_split.ckpt";
            {
                core::System sys(cfg);
                core::Runner runner(sys);
                sys.sim().request_checkpoint_at(path, at);
                drive(sys, runner);
                ASSERT_TRUE(std::ifstream(path).good())
                    << label << ": no checkpoint at " << tenth << "/10";
            }
            core::System sys(cfg);
            core::Runner runner(sys);
            runner.set_restore_path(path);
            drive(sys, runner);
            std::remove(path.c_str());
            const SimSnapshot split = snapshot_of(sys, true);
            EXPECT_EQ(straight.end_tick, split.end_tick)
                << label << " split at " << tenth << "/10";
            EXPECT_EQ(straight.stats_json, split.stats_json)
                << label << " split at " << tenth << "/10";
        }
    };

    core::SystemConfig gemm_cfg = core::SystemConfig::paper_default();
    gemm_cfg.set_devmem("HBM2");
    gemm_cfg.set_num_devices(4);
    expect_splits_identical(
        gemm_cfg,
        [](core::System&, core::Runner& runner) {
            for (std::size_t d = 0; d < 4; ++d) {
                runner.dispatch(d, workload::GemmSpec{96, 96, 96, 5 + d},
                                core::Placement::devmem, /*verify=*/true);
            }
            const auto res = runner.run_dispatched();
            return res.checkpointed || res.all_verified();
        },
        {3, 5, 7}, "4-endpoint HBM2 devmem GEMM");

    // Fig. 7 "DevMem" (the last design point): CPU loads and stores cross
    // PCIe into the aperture.
    const core::DesignPoint devmem = core::transformer_design_points().back();
    workload::VitConfig vit = workload::VitConfig::base();
    vit.layers = 1;
    vit.seq = 50;
    expect_splits_identical(
        devmem.cfg,
        [&vit, &devmem](core::System&, core::Runner& runner) {
            // A resumed run skips the ops before the checkpoint, so only
            // the straight run's count is meaningful.
            const auto res = runner.run_vit(vit, devmem.place);
            return res.gemm_cmds > 0 || res.vector_ops > 0;
        },
        {2, 5, 8}, "1-layer ViT-Base at Fig. 7 DevMem");
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

TEST(CheckpointRoundTrip, ConfigHashCoversEveryTimingParameter)
{
    // A snapshot restores only into the SystemConfig it was taken under:
    // changing any one timing parameter must make restore() refuse it.
    using Tweak = std::function<void(core::SystemConfig&)>;
    const auto base = [] {
        core::SystemConfig cfg = core::SystemConfig::paper_default();
        cfg.set_devmem("HBM2");
        return cfg;
    };
    const std::pair<const char*, Tweak> tweaks[] = {
        {"host tCL", [](auto& c) { c.host_mem.dram.tCL_ns = 30.0; }},
        {"host write queue",
         [](auto& c) { c.host_mem.write_queue_capacity = 8; }},
        {"l1d lookup", [](auto& c) { c.l1d.lookup_latency_ns = 4.0; }},
        {"llc lookup", [](auto& c) { c.llc.lookup_latency_ns = 20.0; }},
        {"iocache mshrs", [](auto& c) { c.iocache.mshrs = 4; }},
        {"membus request",
         [](auto& c) { c.membus.request_latency_ns = 30.0; }},
        {"smmu utlb hit", [](auto& c) { c.smmu.utlb_hit_latency_ns = 10.0; }},
        {"smmu tlb hit", [](auto& c) { c.smmu.tlb_hit_latency_ns = 10.0; }},
        {"systolic rows", [](auto& c) { c.devices[0].accel.sa.rows = 8; }},
        {"systolic fill/drain",
         [](auto& c) { c.devices[0].accel.sa.fill_drain_cycles = 64; }},
        {"devmem tRCD",
         [](auto& c) { c.devices[0].devmem_mem.dram.tRCD_ns = 30.0; }},
        {"devmem xbar",
         [](auto& c) { c.devices[0].devmem_xbar.request_latency_ns = 9.0; }},
        {"devmem simple", [](auto& c) { c.devices[0].devmem_simple = true; }},
        {"devmem simple latency",
         [](auto& c) { c.devices[0].devmem_simple_mem.latency_ns = 90.0; }},
    };

    const std::string path = ::testing::TempDir() + "config_hash.ckpt";
    {
        core::System sys(base());
        sys.sim().checkpoint(path);
    }
    {
        core::System same(base());
        EXPECT_NO_THROW(same.sim().restore(path));
    }
    for (const auto& [what, tweak] : tweaks) {
        SCOPED_TRACE(what);
        core::SystemConfig cfg = base();
        tweak(cfg);
        core::System sys(cfg);
        try {
            sys.sim().restore(path);
            ADD_FAILURE() << "restore accepted a checkpoint of another config";
        } catch (const SimError& e) {
            EXPECT_NE(std::string(e.what()).find("different SystemConfig"),
                      std::string::npos)
                << e.what();
        }
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

TEST(CheckpointRoundTrip, EveryPcieStageOccupiedRoundTripsBitIdentical)
{
    // Shallow link credits (8 headers, 512 B of data) back the 4-endpoint
    // host GEMM up so that at kAt every PCIe staging point holds TLPs: an
    // endpoint's delay stage (a completion) and egress queue (DMA writes
    // with their SentHooks), the switch's delay stage and credit-starved
    // upstream egress (forwards whose SentHooks release switch ingress),
    // and the RC's delay stage and egress queue (completions). A run
    // checkpointed there and resumed in a fresh System must match the
    // straight run byte for byte.
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    cfg.set_num_devices(4);
    cfg.pcie.hdr_credits = 8;
    cfg.pcie.data_credit_bytes = 512;
    const Tick at = ticks_from_ns(11000.0);
    const auto drive = [](core::Runner& runner) {
        for (std::size_t d = 0; d < 4; ++d) {
            runner.dispatch(d, workload::GemmSpec{64, 64, 64, 3},
                            core::Placement::host, /*verify=*/true);
        }
        return runner.run_dispatched();
    };

    SimSnapshot straight;
    {
        core::System sys(cfg);
        core::Runner runner(sys);
        straight = snapshot_of(sys, drive(runner).all_verified());
    }
    ASSERT_TRUE(straight.verified);
    ASSERT_GT(straight.end_tick, at);

    const std::string path = ::testing::TempDir() + "pcie_stages.ckpt";
    {
        core::System sys(cfg);
        core::Runner runner(sys);
        sys.sim().request_checkpoint_at(path, at);
        ASSERT_TRUE(drive(runner).checkpointed);
        const std::string occ = sys.sim().occupancy_report();
        const auto shows = [&occ](const char* pattern) {
            return std::regex_search(occ, std::regex(pattern));
        };
        EXPECT_TRUE(shows(R"(  mf\d*: ingress_delayed=[1-9]\d* \(head CplD)"
                          R"([^\n]*egress_staged=[1-9]\d* \(head MWr[^\n]*, )"
                          R"([1-9]\d* with SentHook\))"))
            << occ;
        EXPECT_TRUE(shows(R"(  pcie_sw: delayed=[1-9][^\n]*egress0=[1-9]\d* )"
                          R"(\([^\n]*, [1-9]\d* with SentHook\))"))
            << occ;
        EXPECT_TRUE(shows(R"(  link_up: [^\n]*tx credit-starved)")) << occ;
        EXPECT_TRUE(shows(R"(  rc: delayed=[1-9][^\n]*egress=[1-9])")) << occ;
    }
    core::System sys(cfg);
    core::Runner runner(sys);
    runner.set_restore_path(path);
    const SimSnapshot split = snapshot_of(sys, drive(runner).all_verified());
    std::remove(path.c_str());
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
    // stays disarmed (job_max_attempts = 1) so the FLR is driven by hand
    // between two single-round batches; failover's own round state
    // (backlog, attempts, health, retry budget) is covered by
    // MidFailoverRoundTwoRoundTripsBitIdentical below.
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

TEST(CheckpointRoundTrip, MidFailoverRoundTwoRoundTripsBitIdentical)
{
    // Failover's round state must ride in the snapshot: endpoint 1 hangs
    // on every command, so its job times out in round 1, the endpoint is
    // FLRed and degraded, and the job is re-dispatched in round 2. A
    // checkpoint halfway through round 2 must carry the backlog, the
    // attempt history, the retry budget and the health table, and the
    // resumed process must re-stage round 2 (not round 1) so the run
    // finishes byte-identical to the straight one.
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    cfg.set_num_devices(4);
    cfg.fault_plan.hang_rate = 1.0;
    cfg.fault_plan.hang_site = "mf1";
    cfg.fault_plan.job_timeout_ns = 2e6;
    cfg.fault_plan.job_max_attempts = 3;

    struct Leg {
        SimSnapshot snap;
        core::MultiGemmResult res;
    };
    auto run_leg = [&](Tick ckpt_at, const std::string& ckpt_path,
                       const std::string& restore) {
        core::System sys(cfg);
        core::Runner runner(sys);
        for (std::size_t d = 0; d < 4; ++d) {
            runner.dispatch(d, workload::GemmSpec{48, 48, 48, 7 + d},
                            core::Placement::host, /*verify=*/true);
        }
        if (ckpt_at != 0) {
            sys.sim().request_checkpoint_at(ckpt_path, ckpt_at);
        }
        if (!restore.empty()) {
            runner.set_restore_path(restore);
        }
        Leg leg;
        leg.res = runner.run_dispatched();
        leg.snap = snapshot_of(sys, leg.res.all_verified());
        return leg;
    };

    const Leg straight = run_leg(0, "", "");
    ASSERT_TRUE(straight.snap.verified);
    ASSERT_EQ(straight.res.devices[1].attempts.size(), 2u);
    const core::JobAttempt& round2 = straight.res.devices[1].attempts[1];
    ASSERT_LT(round2.start, round2.end);
    const Tick mid = round2.start + (round2.end - round2.start) / 2;

    const std::string path = ::testing::TempDir() + "mid_failover.ckpt";
    const Leg save = run_leg(mid, path, "");
    ASSERT_TRUE(save.res.checkpointed)
        << "the save leg must stop inside failover round 2";
    const Leg resumed = run_leg(0, "", path);
    std::remove(path.c_str());

    EXPECT_TRUE(resumed.snap.verified);
    EXPECT_EQ(straight.snap.end_tick, resumed.snap.end_tick);
    EXPECT_EQ(straight.snap.stats_text, resumed.snap.stats_text);
    EXPECT_EQ(straight.snap.stats_json, resumed.snap.stats_json);
    EXPECT_EQ(straight.res.health, resumed.res.health);
}

TEST(PoolDeterminism, SteadyStateForwardingAllocatesNothing)
{
    // Warm-up run, then measure: the second identical sim must not grow
    // either pool's heap-allocation counter — every transaction object is
    // served from the free lists. Two shapes: one endpoint at 48^3, and
    // the 4-endpoint contention config at 128^3 (switch, shared uplink),
    // whose DMA writes of C fill dirty IOCache lines that are later
    // evicted and written back.
    struct Shape {
        std::size_t devices;
        std::uint32_t size;
    };
    for (const Shape shape : {Shape{1, 48}, Shape{4, 128}}) {
        SCOPED_TRACE(std::to_string(shape.devices) + " endpoints, " +
                     std::to_string(shape.size) + "^3");
        (void)run_gemm_sim(shape.devices, shape.size);
        const std::uint64_t pkt_allocs = mem::packet_pool().allocs_total();
        const std::uint64_t tlp_allocs = pcie::tlp_pool().allocs_total();
        const SimSnapshot measured = run_gemm_sim(shape.devices, shape.size);
        EXPECT_TRUE(measured.verified);
        EXPECT_EQ(mem::packet_pool().allocs_total(), pkt_allocs);
        EXPECT_EQ(pcie::tlp_pool().allocs_total(), tlp_allocs);
        if (shape.devices == 4) {
            EXPECT_GT(measured.iocache_writebacks, 0.0)
                << "the 4-endpoint run must cover writeback churn";
        }
    }
}

} // namespace
} // namespace accesys
