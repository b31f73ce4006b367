// Tests for the System builder: address map, allocators, page mapping and
// the Runner's input validation.
#include <gtest/gtest.h>

#include "core/runner.hh"

namespace accesys::core {
namespace {

TEST(System, BuildsPaperDefault)
{
    System sys(SystemConfig::paper_default());
    EXPECT_EQ(sys.host_range().start(), 0u);
    EXPECT_EQ(sys.host_range().size(), 4 * kGiB);
    EXPECT_GT(sys.stats().size(), 50u); // components registered their stats
}

TEST(System, HostAllocatorAlignsAndAdvances)
{
    System sys(SystemConfig::paper_default());
    const Addr a = sys.alloc_host(100);
    const Addr b = sys.alloc_host(100);
    EXPECT_EQ(a % 4096, 0u);
    EXPECT_EQ(b % 4096, 0u);
    EXPECT_GT(b, a);
    EXPECT_TRUE(sys.host_range().contains(a, 100));
}

TEST(System, HostAllocatorExhausts)
{
    System sys(SystemConfig::paper_default());
    // The workload arena is bounded by the page-table carve-out.
    EXPECT_THROW((void)sys.alloc_host(16ULL * kGiB), SimError);
}

TEST(System, DevmemAllocRequiresEnable)
{
    System sys(SystemConfig::paper_default());
    EXPECT_THROW((void)sys.alloc_devmem(4096), SimError);

    auto cfg = SystemConfig::paper_default();
    cfg.set_devmem("HBM2");
    System sys2(cfg);
    const Addr d = sys2.alloc_devmem(4096);
    EXPECT_TRUE(sys2.devmem_range().contains(d, 4096));
}

TEST(System, MapHostPagesRoundsToPageBoundaries)
{
    System sys(SystemConfig::paper_default());
    const Addr a = sys.alloc_host(100);
    sys.map_host_pages(a + 10, 20); // interior span
    // The whole covering page must now translate (identity).
    EXPECT_EQ(sys.page_table().translate(a), a);
}

TEST(System, StatLookupThrowsOnUnknown)
{
    System sys(SystemConfig::paper_default());
    EXPECT_THROW((void)sys.stat("no.such.stat"), SimError);
    EXPECT_EQ(sys.stat("mf.commands"), 0.0);
}

TEST(System, AccessorsWired)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_devmem("GDDR6");
    System sys(cfg);
    EXPECT_EQ(sys.accelerator().device_id(), 1);
    EXPECT_TRUE(sys.host_cpu().idle());
    EXPECT_EQ(sys.pcie_uplink().params().lanes, cfg.pcie.lanes);
    EXPECT_EQ(sys.devmem_range().size(), cfg.devices[0].devmem_bytes);
}

TEST(Runner, DegenerateSpecRejected)
{
    System sys(SystemConfig::paper_default());
    Runner runner(sys);
    EXPECT_THROW((void)runner.run_gemm(workload::GemmSpec{0, 4, 4, 1},
                                       Placement::host),
                 SimError);
}

TEST(Runner, DevmemPlacementWithoutDevmemRejected)
{
    System sys(SystemConfig::paper_default());
    Runner runner(sys);
    EXPECT_THROW((void)runner.run_gemm(workload::GemmSpec{16, 16, 16, 1},
                                       Placement::devmem),
                 SimError);
}

TEST(System, TwoIndependentSystemsCoexist)
{
    // Each System owns its Simulator/stats; building two must not clash
    // (guards against hidden global state).
    System a(SystemConfig::paper_default());
    System b(SystemConfig::paper_default());
    Runner ra(a);
    Runner rb(b);
    const auto res_a =
        ra.run_gemm(workload::GemmSpec{16, 16, 16, 1}, Placement::host, true);
    const auto res_b =
        rb.run_gemm(workload::GemmSpec{16, 16, 16, 1}, Placement::host, true);
    EXPECT_TRUE(res_a.verified);
    EXPECT_TRUE(res_b.verified);
    // Determinism: identical configs and workloads give identical timing.
    EXPECT_EQ(res_a.elapsed(), res_b.elapsed());
}

} // namespace
} // namespace accesys::core
