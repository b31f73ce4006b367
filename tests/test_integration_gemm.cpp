// Integration tests: verified GEMM offloads through the full system
// (driver -> doorbell -> descriptor DMA -> SMMU -> PCIe -> systolic array
// -> C writeback -> completion flag), across placements, access modes and
// packet sizes. Every run bit-compares the accelerator's output against a
// reference rebuilt from the job's seed, which validates the complete
// functional DMA path.
#include <gtest/gtest.h>

#include "core/runner.hh"
#include "sim/random.hh"
#include "test_util.hh"

namespace accesys::core {
namespace {

using workload::GemmSpec;

GemmRunResult run_one(SystemConfig cfg, const GemmSpec& spec,
                      Placement place)
{
    System sys(cfg);
    Runner runner(sys);
    return runner.run_gemm(spec, place, /*verify=*/true);
}

TEST(IntegrationGemm, HostDcModeVerifies)
{
    const auto res = run_one(SystemConfig::paper_default(),
                             GemmSpec{64, 64, 64, 42}, Placement::host);
    EXPECT_TRUE(res.verified) << res.mismatches << " mismatches";
    EXPECT_GT(res.elapsed(), 0u);
}

TEST(IntegrationGemm, NonSquareAndPaddedShapes)
{
    // Partial strips (m % 16), partial panels (n % 16), odd K.
    const auto res = run_one(SystemConfig::paper_default(),
                             GemmSpec{37, 53, 96, 7}, Placement::host);
    EXPECT_TRUE(res.verified) << res.mismatches << " mismatches";
}

TEST(IntegrationGemm, SingleTile)
{
    const auto res = run_one(SystemConfig::paper_default(),
                             GemmSpec{16, 16, 16, 3}, Placement::host);
    EXPECT_TRUE(res.verified);
}

TEST(IntegrationGemm, TinyDegenerateShapes)
{
    const auto res = run_one(SystemConfig::paper_default(),
                             GemmSpec{1, 1, 1, 5}, Placement::host);
    EXPECT_TRUE(res.verified);
}

TEST(IntegrationGemm, OperandOverwrittenAfterDispatchFailsVerification)
{
    // The check rebuilds the operands from the spec's seed, so a byte of A
    // changed in memory between dispatch() and the run shows up: the
    // device computes with the changed byte, the reference does not.
    for (const Placement place : {Placement::host, Placement::devmem}) {
        auto cfg = SystemConfig::paper_default();
        if (place == Placement::devmem) {
            cfg.set_devmem("HBM2");
        }
        System sys(cfg);
        Runner runner(sys);
        const GemmSpec spec{48, 40, 64, 21};
        // A is dispatch()'s first allocation: the page after this probe.
        const Addr a = sys.alloc_on(0, place, 1) + 4096;
        runner.dispatch(0, spec, place, /*verify=*/true);
        Rng rng(spec.seed);
        const std::uint64_t first_draw = rng.next();
        ASSERT_EQ(sys.store().read_obj<std::uint64_t>(a), first_draw)
            << "A is not where the probe says";
        const Addr victim = a + 5 * spec.k + 3; // row 5, column 3
        sys.store().write_obj<std::uint8_t>(
            victim, sys.store().read_obj<std::uint8_t>(victim) ^ 0x5A);
        const MultiGemmResult res = runner.run_dispatched();
        ASSERT_EQ(res.devices[0].status, JobStatus::ok);
        EXPECT_FALSE(res.devices[0].verified);
        // Row 5 of C changes wherever B_T's column 3 byte is nonzero.
        EXPECT_GT(res.devices[0].mismatches, 0u);
        EXPECT_LE(res.devices[0].mismatches, spec.n);
    }
}

TEST(IntegrationGemm, DmModeBypassesCachesAndVerifies)
{
    auto cfg = SystemConfig::paper_default();
    cfg.access_mode = AccessMode::dm;
    System sys(cfg);
    Runner runner(sys);
    const auto res =
        runner.run_gemm(GemmSpec{48, 48, 48, 11}, Placement::host, true);
    EXPECT_TRUE(res.verified);
    // DM mode: the IOCache only sees bypasses, no allocations.
    EXPECT_EQ(sys.stat("iocache.hits") + sys.stat("iocache.misses"), 0.0);
    EXPECT_GT(sys.stat("iocache.bypasses"), 0.0);
}

TEST(IntegrationGemm, DevMemPlacementVerifies)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_devmem("HBM2");
    System sys(cfg);
    Runner runner(sys);
    const auto res =
        runner.run_gemm(GemmSpec{64, 64, 64, 13}, Placement::devmem, true);
    EXPECT_TRUE(res.verified);
    // Operand traffic went to device memory, not over PCIe DMA.
    EXPECT_GT(sys.stat("mf.devmem_mover.bytes"), 0.0);
    EXPECT_LT(sys.stat("mf.dma.bytes_read"), 1024.0); // descriptor only
    test::expect_credits_home(sys);
}

TEST(IntegrationGemm, SmmuDisabledStillVerifies)
{
    auto cfg = SystemConfig::paper_default();
    cfg.smmu.enabled = false;
    System sys(cfg);
    Runner runner(sys);
    const auto res =
        runner.run_gemm(GemmSpec{32, 32, 32, 17}, Placement::host, true);
    EXPECT_TRUE(res.verified);
    EXPECT_EQ(sys.stat("smmu.translations"), 0.0);
}

TEST(IntegrationGemm, SmmuTranslatesEveryDmaChunk)
{
    auto cfg = SystemConfig::paper_default();
    System sys(cfg);
    Runner runner(sys);
    const auto res =
        runner.run_gemm(GemmSpec{32, 32, 32, 19}, Placement::host, true);
    EXPECT_TRUE(res.verified);
    EXPECT_GT(sys.stat("smmu.translations"), 0.0);
    EXPECT_GT(sys.stat("smmu.ptw_count"), 0.0);
}

TEST(IntegrationGemm, FasterPcieIsFaster)
{
    const GemmSpec spec{128, 128, 128, 23};
    auto slow_cfg = SystemConfig::paper_default(); // 1.6 GB/s effective
    auto fast_cfg = SystemConfig::paper_default();
    fast_cfg.set_pcie_target_gbps(16.0);
    const auto slow = run_one(slow_cfg, spec, Placement::host);
    const auto fast = run_one(fast_cfg, spec, Placement::host);
    EXPECT_TRUE(slow.verified);
    EXPECT_TRUE(fast.verified);
    EXPECT_LT(fast.elapsed(), slow.elapsed());
}

TEST(IntegrationGemm, ComputeOverrideSlowsExecution)
{
    const GemmSpec spec{64, 64, 64, 29};
    auto cfg = SystemConfig::paper_default();
    const auto normal = run_one(cfg, spec, Placement::host);
    cfg.devices[0].accel.sa.compute_time_override_ns = 50000.0;
    const auto slowed = run_one(cfg, spec, Placement::host);
    EXPECT_GT(slowed.elapsed(), normal.elapsed() * 2);
}

TEST(IntegrationGemm, BackToBackCommandsOnOneSystem)
{
    System sys(SystemConfig::paper_default());
    Runner runner(sys);
    const auto r1 =
        runner.run_gemm(GemmSpec{32, 32, 32, 31}, Placement::host, true);
    const auto r2 =
        runner.run_gemm(GemmSpec{48, 32, 64, 37}, Placement::host, true);
    EXPECT_TRUE(r1.verified);
    EXPECT_TRUE(r2.verified);
    EXPECT_GT(r2.start, r1.end);
    EXPECT_EQ(sys.stat("mf.commands"), 2.0);
}

TEST(IntegrationGemm, StatsAccounting)
{
    auto cfg = SystemConfig::paper_default();
    System sys(cfg);
    Runner runner(sys);
    const GemmSpec spec{64, 64, 64, 41};
    const auto res = runner.run_gemm(spec, Placement::host, true);
    ASSERT_TRUE(res.verified);

    // PCIe must have carried at least A+B once and C once.
    const double payload = sys.stat("link_up.payload_bytes") +
                           sys.stat("link_dn.payload_bytes");
    EXPECT_GT(payload, static_cast<double>(spec.a_bytes() + spec.b_bytes() +
                                           spec.c_bytes()));
    // 64x64 output with 16-column panels: 4 strips x 4 blocks, one 16x16
    // tile each.
    EXPECT_EQ(sys.stat("mf.tiles"), 16.0);
}

TEST(IntegrationGemm, CleanBatchRecordsOneAttemptPerJob)
{
    // Every run records its attempts: a clean 4-endpoint batch rings each
    // job's doorbell exactly once, on the endpoint it was dispatched to,
    // in the one round that spans the whole run. Jobs are dispatched in
    // reverse endpoint order so "its endpoint" is not just its index.
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(4);
    System sys(cfg);
    Runner runner(sys);
    for (std::size_t d = 0; d < 4; ++d) {
        runner.dispatch(3 - d, GemmSpec{32, 32, 32, 3 + d}, Placement::host,
                        /*verify=*/true);
    }
    const auto res = runner.run_dispatched();
    ASSERT_TRUE(res.all_verified());
    ASSERT_EQ(res.devices.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        const DeviceGemmResult& d = res.devices[i];
        EXPECT_EQ(d.device, 3 - i);
        EXPECT_EQ(d.status, JobStatus::ok);
        ASSERT_EQ(d.attempts.size(), 1u) << "job " << i;
        EXPECT_EQ(d.attempts[0].device, d.device) << "job " << i;
        EXPECT_EQ(d.attempts[0].status, JobStatus::ok) << "job " << i;
        EXPECT_EQ(d.attempts[0].start, res.start) << "job " << i;
        EXPECT_EQ(d.attempts[0].end, res.end) << "job " << i;
    }
    // Failover is disarmed on a clean run: no health table, no fleet stats.
    EXPECT_TRUE(res.health.empty());
    EXPECT_EQ(sys.stats().find("runner.fleet.rounds"), nullptr);
}

// The event core's near window is sized to hold the live set of a
// 4-endpoint fleet, leaving the heap as the overflow path. An exact count:
// one heap push means the window no longer holds these workloads (the
// devmem case spills from a 16-entry window).
TEST(IntegrationGemm, FourEndpointLiveSetFitsTheNearWindow)
{
    for (const auto& [place, n] : {std::pair{Placement::host, 128U},
                                   std::pair{Placement::devmem, 192U}}) {
        SystemConfig cfg = SystemConfig::paper_default();
        if (place == Placement::devmem) {
            cfg.set_devmem("HBM2");
        }
        cfg.set_num_devices(4);
        System sys(cfg);
        Runner runner(sys);
        for (std::size_t d = 0; d < 4; ++d) {
            runner.dispatch(d, GemmSpec{n, n, n, 5 + d}, place,
                            /*verify=*/true);
        }
        EXPECT_TRUE(runner.run_dispatched().all_verified());
        EXPECT_EQ(sys.sim().queue().heap_pushes(), 0u)
            << (place == Placement::host ? "host" : "devmem");
        test::expect_credits_home(sys);
    }
}

TEST(IntegrationGemm, WideReuseAblationVerifies)
{
    auto cfg = SystemConfig::paper_default();
    cfg.devices[0].accel.max_block_cols = 0; // auto-fit the widest panel
    const auto res = run_one(cfg, GemmSpec{80, 96, 64, 47}, Placement::host);
    EXPECT_TRUE(res.verified);
}

TEST(IntegrationGemm, ReductionTooDeepForBufferRejected)
{
    // Two A strips plus one panel of K=16384 cannot fit the 256 KiB
    // scratchpad; the device must reject the command loudly.
    System sys(SystemConfig::paper_default());
    Runner runner(sys);
    EXPECT_THROW((void)runner.run_gemm(GemmSpec{16, 16, 16384, 1},
                                       Placement::host),
                 ConfigError);
}

// Property sweep: verification holds across packet sizes and both access
// modes (the paper's Fig. 4 knob must never affect correctness).
struct SweepPoint {
    std::uint32_t packet;
    AccessMode mode;
};

class GemmSweep : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(GemmSweep, VerifiesEverywhere)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_packet_size(GetParam().packet);
    cfg.access_mode = GetParam().mode;
    const auto res =
        run_one(cfg, GemmSpec{48, 48, 48, GetParam().packet}, Placement::host);
    EXPECT_TRUE(res.verified) << "packet=" << GetParam().packet;
}

INSTANTIATE_TEST_SUITE_P(
    PacketsAndModes, GemmSweep,
    ::testing::Values(SweepPoint{64, AccessMode::dc},
                      SweepPoint{128, AccessMode::dc},
                      SweepPoint{256, AccessMode::dc},
                      SweepPoint{1024, AccessMode::dc},
                      SweepPoint{4096, AccessMode::dc},
                      SweepPoint{64, AccessMode::dm},
                      SweepPoint{256, AccessMode::dm},
                      SweepPoint{4096, AccessMode::dm}));

// Property sweep: verification across memory technologies (host side).
class GemmMemTech : public ::testing::TestWithParam<std::string> {};

TEST_P(GemmMemTech, VerifiesOnEveryDram)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_host_dram(GetParam());
    const auto res =
        run_one(cfg, GemmSpec{32, 48, 32, 43}, Placement::host);
    EXPECT_TRUE(res.verified) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllPresets, GemmMemTech,
                         ::testing::Values("DDR3", "DDR4", "DDR5", "HBM2",
                                           "GDDR5", "GDDR6", "LPDDR5"));

} // namespace
} // namespace accesys::core
