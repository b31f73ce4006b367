// Tests for the declarative multi-accelerator topology: address-map
// resolution (auto-carved BARs / devmem / staging, requester + stream
// ids), multi-endpoint System construction, per-device stats, concurrent
// dispatch, nested switch levels and per-device device memory.
#include <gtest/gtest.h>

#include <set>

#include "core/runner.hh"
#include "core/topology.hh"

namespace accesys::core {
namespace {

TEST(TopologyResolve, AutoCarvesDistinctPlacements)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(4);
    const auto plan = TopologyBuilder::resolve(cfg);

    ASSERT_EQ(plan.devices.size(), 4u);
    std::set<Addr> bar_bases;
    std::set<Addr> staging_bases;
    std::set<std::uint16_t> ids;
    std::set<std::string> names;
    for (const auto& dev : plan.devices) {
        EXPECT_NE(dev.accel.bar0_base, 0u);
        EXPECT_NE(dev.accel.local_base, 0u);
        EXPECT_NE(dev.requester_id(), 0u);
        bar_bases.insert(dev.accel.bar0_base);
        staging_bases.insert(dev.accel.local_base);
        ids.insert(dev.requester_id());
        names.insert(dev.name);
        // Stream ids default to the requester id.
        EXPECT_EQ(dev.stream_id, dev.requester_id());
    }
    EXPECT_EQ(bar_bases.size(), 4u);
    EXPECT_EQ(staging_bases.size(), 4u);
    EXPECT_EQ(ids.size(), 4u);
    EXPECT_EQ(names.size(), 4u);

    // Device 0 keeps the classic single-device address map and name.
    EXPECT_EQ(plan.devices[0].name, "mf");
    EXPECT_EQ(plan.devices[0].accel.bar0_base, cfg.devices[0].accel.bar0_base);
    EXPECT_EQ(plan.devices[0].requester_id(), 1u);

    // The window covers every BAR without touching host DRAM.
    for (const auto& dev : plan.devices) {
        EXPECT_TRUE(plan.pcie_window.contains(dev.accel.bar0_base,
                                              dev.accel.bar0_size));
    }
    EXPECT_GE(plan.pcie_window.start(), cfg.host_dram_bytes);
}

TEST(TopologyResolve, HonoursExplicitPlacement)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    cfg.devices[1].accel.bar0_base = 0x180000000000ULL;
    cfg.devices[1].accel.ep.device_id = 9;
    cfg.devices[1].stream_id = 42;
    const auto plan = TopologyBuilder::resolve(cfg);
    EXPECT_EQ(plan.devices[1].accel.bar0_base, 0x180000000000ULL);
    EXPECT_EQ(plan.devices[1].requester_id(), 9u);
    EXPECT_EQ(plan.devices[1].stream_id, 42u);
    EXPECT_GE(plan.pcie_window.end(),
              0x180000000000ULL + cfg.devices[1].accel.bar0_size);
}

TEST(TopologyResolve, RejectsConflictingLayouts)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    cfg.devices[1].accel.ep.device_id = 1; // collides with device 0
    EXPECT_THROW((void)TopologyBuilder::resolve(cfg), ConfigError);

    cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    cfg.devices[1].accel.bar0_base = cfg.devices[0].accel.bar0_base;
    EXPECT_THROW((void)TopologyBuilder::resolve(cfg), ConfigError);

    cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    cfg.devices[1].name = "mf"; // duplicate stat prefix
    EXPECT_THROW((void)TopologyBuilder::resolve(cfg), ConfigError);
}

TEST(TopologyResolve, PerDeviceDevmemCarvesDisjointApertures)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_devmem("HBM2");
    cfg.devices[0].devmem_bytes = kGiB;
    cfg.set_num_devices(3);
    const auto plan = TopologyBuilder::resolve(cfg);
    for (std::size_t i = 0; i < plan.devices.size(); ++i) {
        ASSERT_TRUE(plan.devices[i].devmem_enabled);
        EXPECT_EQ(plan.devices[i].devmem.size(), kGiB);
        for (std::size_t j = i + 1; j < plan.devices.size(); ++j) {
            EXPECT_FALSE(
                plan.devices[i].devmem.overlaps(plan.devices[j].devmem));
        }
    }
    // The aperture is routable: part of the device's BAR set and window.
    EXPECT_TRUE(plan.pcie_window.contains(plan.devices[2].devmem.start()));
}

TEST(TopologyResolve, PerDeviceLinkOverride)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(3);
    // Device 1 gets a faster mixed-generation downstream link; the others
    // keep the system-wide PCIe parameters.
    pcie::LinkParams fast;
    fast.lanes = 8;
    fast.lane_gbps = 16.0;
    fast.gen = pcie::Gen::gen4;
    cfg.devices[1].link = fast;

    const auto plan = TopologyBuilder::resolve(cfg);
    ASSERT_EQ(plan.devices.size(), 3u);
    EXPECT_EQ(plan.devices[0].link.lanes, cfg.pcie.lanes);
    EXPECT_DOUBLE_EQ(plan.devices[0].link.lane_gbps, cfg.pcie.lane_gbps);
    EXPECT_EQ(plan.devices[1].link.lanes, 8u);
    EXPECT_DOUBLE_EQ(plan.devices[1].link.lane_gbps, 16.0);
    EXPECT_EQ(plan.devices[1].link.gen, pcie::Gen::gen4);
    EXPECT_EQ(plan.devices[2].link.lanes, cfg.pcie.lanes);

    // The live system instantiates the override on link_dn1 only, and the
    // mixed-generation fabric still runs a GEMM on the fast device.
    System sys(cfg);
    EXPECT_DOUBLE_EQ(sys.pcie_downlink(1).params().lane_gbps, 16.0);
    EXPECT_EQ(sys.pcie_downlink(1).params().gen, pcie::Gen::gen4);
    EXPECT_DOUBLE_EQ(sys.pcie_downlink(0).params().lane_gbps,
                     cfg.pcie.lane_gbps);
    Runner runner(sys);
    runner.dispatch(1, workload::GemmSpec{32, 32, 32, 7}, Placement::host,
                    /*verify=*/true);
    const auto res = runner.run_dispatched();
    EXPECT_TRUE(res.all_verified());
}

TEST(TopologyResolve, InvalidLinkOverrideRejected)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    pcie::LinkParams bad;
    bad.lanes = 3; // not a standard width
    cfg.devices[1].link = bad;
    EXPECT_THROW((void)TopologyBuilder::resolve(cfg), ConfigError);
}

TEST(TopologyResolve, AttachToUnknownSwitchRejected)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    cfg.devices[1].attach_to = 5;
    EXPECT_THROW((void)TopologyBuilder::resolve(cfg), ConfigError);
}

TEST(MultiSystem, FourEndpointsRegisterDistinctStatPrefixes)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(4);
    System sys(cfg);
    EXPECT_EQ(sys.device_count(), 4u);

    EXPECT_EQ(sys.stat("mf.commands"), 0.0);
    EXPECT_EQ(sys.stat("mf1.commands"), 0.0);
    EXPECT_EQ(sys.stat("mf2.commands"), 0.0);
    EXPECT_EQ(sys.stat("mf3.commands"), 0.0);
    EXPECT_EQ(sys.stat("link_dn1.tlps"), 0.0);

    // Thin single-device accessors alias device 0.
    EXPECT_EQ(&sys.accelerator(), &sys.accelerator(0));
    std::set<std::uint16_t> ids;
    for (std::size_t d = 0; d < 4; ++d) {
        ids.insert(sys.accelerator(d).device_id());
    }
    EXPECT_EQ(ids.size(), 4u);
}

TEST(MultiSystem, ConcurrentGemmsVerifyAndFillPerStreamStats)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    System sys(cfg);
    Runner runner(sys);

    const workload::GemmSpec spec{32, 32, 32, /*seed=*/11};
    runner.dispatch(0, spec, Placement::host, /*verify=*/true);
    runner.dispatch(1, spec, Placement::host, /*verify=*/true);
    const auto res = runner.run_dispatched();

    ASSERT_EQ(res.devices.size(), 2u);
    EXPECT_TRUE(res.all_verified());
    EXPECT_GT(res.devices[0].dma_bytes, 0u);
    EXPECT_GT(res.devices[1].dma_bytes, 0u);
    EXPECT_EQ(sys.stat("mf.commands"), 1.0);
    EXPECT_EQ(sys.stat("mf1.commands"), 1.0);

    // Each endpoint translated through its own SMMU stream context.
    const auto s0 = std::to_string(sys.stream_id_of(0));
    const auto s1 = std::to_string(sys.stream_id_of(1));
    EXPECT_NE(s0, s1);
    EXPECT_GT(sys.stat("smmu.stream" + s0 + ".translations"), 0.0);
    EXPECT_GT(sys.stat("smmu.stream" + s1 + ".translations"), 0.0);
    EXPECT_EQ(sys.stat("smmu.stream" + s0 + ".translations") +
                  sys.stat("smmu.stream" + s1 + ".translations"),
              sys.stat("smmu.translations"));
}

TEST(MultiSystem, NestedSwitchLevelsRunEndToEnd)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(2);
    const std::size_t leaf = cfg.add_switch_below(0);
    cfg.devices[1].attach_to = leaf;
    System sys(cfg);
    Runner runner(sys);

    const workload::GemmSpec spec{32, 32, 32, /*seed=*/5};
    runner.dispatch(0, spec, Placement::host, /*verify=*/true);
    runner.dispatch(1, spec, Placement::host, /*verify=*/true);
    const auto res = runner.run_dispatched();
    EXPECT_TRUE(res.all_verified());
    // The nested switch and its uplink exist and carried traffic.
    EXPECT_GT(sys.stat("pcie_sw1.forwarded"), 0.0);
    EXPECT_GT(sys.stat("pcie_sw1_up.tlps"), 0.0);
}

TEST(MultiSystem, PerDeviceDevmemAllocatesAndComputes)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_devmem("HBM2");
    cfg.devices[0].devmem_bytes = kGiB;
    cfg.set_num_devices(2);
    System sys(cfg);

    const Addr d0 = sys.alloc_devmem_on(0, 4096);
    const Addr d1 = sys.alloc_devmem_on(1, 4096);
    EXPECT_TRUE(sys.devmem_range(0).contains(d0, 4096));
    EXPECT_TRUE(sys.devmem_range(1).contains(d1, 4096));
    EXPECT_FALSE(sys.devmem_range(0).overlaps(sys.devmem_range(1)));

    Runner runner(sys);
    runner.dispatch(1, workload::GemmSpec{32, 32, 32, 13},
                    Placement::devmem, /*verify=*/true);
    const auto res = runner.run_dispatched();
    EXPECT_TRUE(res.all_verified());
    EXPECT_GT(sys.stat("devmem1.reads"), 0.0);
}

TEST(MultiSystem, DispatchToUnknownDeviceThrows)
{
    System sys(SystemConfig::paper_default());
    Runner runner(sys);
    EXPECT_THROW(runner.dispatch(1, workload::GemmSpec{16, 16, 16, 1},
                                 Placement::host),
                 SimError);
}

TEST(MultiSystem, SingleDeviceLayoutUnchanged)
{
    // set_num_devices(1) leaves device 0 exactly as paper_default() built
    // it: same address map, same timing.
    auto default_cfg = SystemConfig::paper_default();
    auto listed_cfg = SystemConfig::paper_default();
    listed_cfg.set_num_devices(1);

    System defaulted(default_cfg);
    System listed(listed_cfg);
    Runner r_default(defaulted);
    Runner r_listed(listed);
    const auto a = r_default.run_gemm(workload::GemmSpec{32, 32, 32, 2},
                                      Placement::host, true);
    const auto b = r_listed.run_gemm(workload::GemmSpec{32, 32, 32, 2},
                                     Placement::host, true);
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    EXPECT_EQ(a.elapsed(), b.elapsed());
}

} // namespace
} // namespace accesys::core
