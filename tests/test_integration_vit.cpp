// Integration tests: ViT inference across the paper's four system
// configurations, checking phase accounting and the qualitative orderings
// the evaluation section reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "core/runner.hh"

namespace accesys::core {
namespace {

workload::VitConfig tiny_vit()
{
    // One encoder layer with small hidden size: exercises the whole driver
    // and both op kinds while staying fast enough for CI.
    return workload::VitConfig{"ViT-Test", 1, 192, 3, 4, 197};
}

/// The shared Figs. 7-9 system called `label`.
DesignPoint point(std::string_view label)
{
    const auto points = transformer_design_points();
    const auto it =
        std::find_if(points.begin(), points.end(),
                     [&](const DesignPoint& p) { return p.label == label; });
    require_cfg(it != points.end(), "no design point named ", label);
    return *it;
}

VitRunResult run_point(std::string_view label,
                       const workload::VitConfig& model)
{
    const DesignPoint p = point(label);
    System sys(p.cfg);
    Runner runner(sys);
    return runner.run_vit(model, p.place);
}

TEST(IntegrationVit, PhaseAccountingConsistent)
{
    const auto model = tiny_vit();
    const auto res = run_point("PCIe-8GB", model);

    const auto sum = workload::summarize(workload::lower_vit(model));
    EXPECT_EQ(res.gemm_cmds, sum.gemm_count);
    EXPECT_EQ(res.vector_ops, sum.vector_count);
    EXPECT_GT(res.gemm_ticks, 0u);
    EXPECT_GT(res.nongemm_ticks, 0u);
    EXPECT_LE(res.gemm_ticks + res.nongemm_ticks, res.elapsed());
    // "Other" (driver glue) must be a small remainder.
    EXPECT_LT(res.other_ticks(), res.elapsed() / 4);
}

TEST(IntegrationVit, BandwidthOrderingHolds)
{
    const auto model = tiny_vit();
    const auto r2 = run_point("PCIe-2GB", model);
    const auto r8 = run_point("PCIe-8GB", model);
    const auto r64 = run_point("PCIe-64GB", model);

    // Paper Fig. 7: more PCIe bandwidth, faster inference.
    EXPECT_GT(r2.elapsed(), r8.elapsed());
    EXPECT_GT(r8.elapsed(), r64.elapsed());
    // Non-GEMM work runs on the CPU from host memory: roughly constant.
    const double ng2 = ticks_to_ms(r2.nongemm_ticks);
    const double ng64 = ticks_to_ms(r64.nongemm_ticks);
    EXPECT_NEAR(ng2, ng64, 0.25 * ng2);
}

TEST(IntegrationVit, DevMemTradeoffMatchesFig8)
{
    const auto model = tiny_vit();
    const auto pcie64 = run_point("PCIe-64GB", model);
    const auto devmem = run_point("DevMem", model);

    // Paper Fig. 8: DevMem wins the GEMM phase...
    EXPECT_LT(devmem.gemm_ticks, pcie64.gemm_ticks);
    // ...but loses Non-GEMM badly (NUMA penalty), by a multi-x factor.
    EXPECT_GT(devmem.nongemm_ticks, 2 * pcie64.nongemm_ticks);
    // Paper Fig. 7: overall, DevMem lands behind PCIe-64GB.
    EXPECT_GT(devmem.elapsed(), pcie64.elapsed());
}

TEST(IntegrationVit, CommandsMatchAcceleratorCounters)
{
    const auto model = tiny_vit();
    const DesignPoint p = point("PCIe-8GB");
    System sys(p.cfg);
    Runner runner(sys);
    const auto res = runner.run_vit(model, p.place);
    EXPECT_EQ(sys.stat("mf.commands"), static_cast<double>(res.gemm_cmds));
    EXPECT_EQ(sys.stat("cpu0.vector_ops"),
              static_cast<double>(res.vector_ops));
    // Every command polls at least once.
    EXPECT_GE(sys.stat("cpu0.polls"), static_cast<double>(res.gemm_cmds));
}

TEST(IntegrationVit, DevMemUsesAperture)
{
    const auto model = tiny_vit();
    const DesignPoint p = point("DevMem");
    System sys(p.cfg);
    Runner runner(sys);
    (void)runner.run_vit(model, p.place);
    // CPU Non-GEMM reads crossed PCIe into device memory.
    EXPECT_GT(sys.stat("mf.aperture_reads"), 0.0);
    EXPECT_GT(sys.stat("mf.aperture_writes"), 0.0);
}

} // namespace
} // namespace accesys::core
