// Tests for SystemConfig (Table II defaults, knobs, validation).
#include <gtest/gtest.h>

#include "core/system_config.hh"
#include "core/topology.hh"
#include "mem/dram_config.hh"

namespace accesys::core {
namespace {

TEST(SystemConfig, PaperDefaultMatchesTableII)
{
    const auto cfg = SystemConfig::paper_default();
    EXPECT_DOUBLE_EQ(cfg.cpu.freq_ghz, 1.0);
    EXPECT_EQ(cfg.l1d.size_bytes, 64 * kKiB);
    EXPECT_EQ(cfg.llc.size_bytes, 2 * kMiB);
    EXPECT_EQ(cfg.iocache.size_bytes, 32 * kKiB);
    EXPECT_EQ(cfg.host_mem.dram.name, "DDR3-1600");
    EXPECT_EQ(cfg.host_dram_bytes, 4 * kGiB);
    EXPECT_EQ(cfg.pcie.lanes, 4u);
    EXPECT_DOUBLE_EQ(cfg.pcie.lane_gbps, 4.0);
    EXPECT_EQ(cfg.pcie.gen, pcie::Gen::gen2);
    EXPECT_DOUBLE_EQ(cfg.rc.latency_ns, 150.0);
    ASSERT_EQ(cfg.switch_tree.size(), 1u);
    EXPECT_DOUBLE_EQ(cfg.switch_tree[0].params.latency_ns, 50.0);
    EXPECT_FALSE(cfg.switch_tree[0].uplink.has_value()); // follows `pcie`
    ASSERT_EQ(cfg.devices.size(), 1u);
    EXPECT_EQ(cfg.devices[0].accel.sa.rows, 16u);
    EXPECT_EQ(cfg.devices[0].accel.sa.cols, 16u);
    EXPECT_EQ(cfg.devices[0].devmem_base, 0x200000000000ULL);
    EXPECT_EQ(cfg.devices[0].devmem_mem.dram.name, "HBM2");
    EXPECT_NO_THROW(cfg.validate());
}

TEST(SystemConfig, SetPacketSizeSyncsKnobs)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_packet_size(1024);
    EXPECT_EQ(cfg.devices[0].accel.dma.request_bytes, 1024u);
    EXPECT_EQ(cfg.devices[0].accel.dma.write_bytes, 1024u);
    EXPECT_EQ(cfg.rc.max_payload_bytes, 1024u);
}

TEST(SystemConfig, SetPcieTargetHitsBandwidth)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_pcie_target_gbps(8.0);
    EXPECT_NEAR(cfg.pcie.effective_gbps(), 8.0, 1e-9);
    cfg.set_pcie_target_gbps(64.0, 16);
    EXPECT_NEAR(cfg.pcie.effective_gbps(), 64.0, 1e-9);
    EXPECT_EQ(cfg.pcie.lanes, 16u);
}

TEST(SystemConfig, SetHostDram)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_host_dram("HBM2");
    EXPECT_EQ(cfg.host_mem.dram.name, "HBM2");
    EXPECT_THROW(cfg.set_host_dram("nvram"), ConfigError);
}

TEST(SystemConfig, SetDevmemEnables)
{
    auto cfg = SystemConfig::paper_default();
    EXPECT_FALSE(cfg.devices[0].enable_devmem);
    cfg.set_devmem("GDDR6");
    EXPECT_TRUE(cfg.devices[0].enable_devmem);
    EXPECT_EQ(cfg.devices[0].devmem_mem.dram.name, "GDDR6");
}

TEST(SystemConfig, SettersReachEveryEndpoint)
{
    // Setters called after set_num_devices() act on every endpoint, not
    // only on device 0.
    auto cfg = SystemConfig::paper_default();
    cfg.set_num_devices(3);
    cfg.set_packet_size(64);
    cfg.set_devmem("HBM2");
    const ResolvedTopology plan = TopologyBuilder::resolve(cfg);
    ASSERT_EQ(plan.devices.size(), 3u);
    for (const ResolvedDevice& dev : plan.devices) {
        SCOPED_TRACE(dev.name);
        EXPECT_EQ(dev.accel.dma.request_bytes, 64u);
        EXPECT_EQ(dev.accel.dma.write_bytes, 64u);
        EXPECT_TRUE(dev.devmem_enabled);
        EXPECT_FALSE(dev.devmem_simple);
        EXPECT_EQ(dev.devmem_mem.dram.name, "HBM2");
        EXPECT_EQ(dev.devmem.size(), cfg.devices[0].devmem_bytes);
    }
    EXPECT_EQ(cfg.rc.max_payload_bytes, 64u);
}

TEST(SystemConfig, SwitchUplinkFollowsPcieUnlessSet)
{
    auto cfg = SystemConfig::paper_default();
    cfg.pcie.lanes = 8;
    const std::size_t leaf = cfg.add_switch_below(0);
    cfg.switch_tree[leaf].uplink = pcie::LinkParams{};
    const ResolvedTopology plan = TopologyBuilder::resolve(cfg);
    ASSERT_EQ(plan.switches.size(), 2u);
    EXPECT_EQ(plan.switches[0].uplink->lanes, 8u);
    EXPECT_EQ(plan.switches[1].uplink->lanes, pcie::LinkParams{}.lanes);
}

TEST(SystemConfig, ValidationCatchesBadConfigs)
{
    auto cfg = SystemConfig::paper_default();
    cfg.host_dram_bytes = 1 * kMiB; // too small for page tables
    EXPECT_THROW(cfg.validate(), ConfigError);

    cfg = SystemConfig::paper_default();
    cfg.devices[0].accel.bar0_base = 0x1000; // overlaps host DRAM
    EXPECT_THROW(cfg.validate(), ConfigError);

    cfg = SystemConfig::paper_default();
    cfg.devices.clear();
    EXPECT_THROW(cfg.validate(), ConfigError);

    cfg = SystemConfig::paper_default();
    cfg.switch_tree.clear();
    EXPECT_THROW(cfg.validate(), ConfigError);

    cfg = SystemConfig::paper_default();
    cfg.pcie.lanes = 5;
    EXPECT_THROW(cfg.validate(), ConfigError);

    cfg = SystemConfig::paper_default();
    cfg.cpu.freq_ghz = 0.0;
    EXPECT_THROW(cfg.validate(), ConfigError);

    // A TLP the RC can never admit: 4096 B split into 16 B chunks is up to
    // 257 chunks against a mem queue of 128, a head-of-line stall forever.
    cfg = SystemConfig::paper_default();
    cfg.set_packet_size(4096);
    cfg.rc.host_split_bytes = 16;
    try {
        cfg.validate();
        ADD_FAILURE() << "unadmittable TLP size validated";
    } catch (const ConfigError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("device 0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("4096 B"), std::string::npos) << msg;
        EXPECT_NE(msg.find("257"), std::string::npos) << msg;
        EXPECT_NE(msg.find("128"), std::string::npos) << msg;
    }

    // Fig. 4's largest point, 4096 B TLPs over the 64 B host split (up to
    // 65 chunks), still fits.
    cfg = SystemConfig::paper_default();
    cfg.set_packet_size(4096);
    EXPECT_EQ(cfg.rc.host_split_bytes, 64u);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(SystemConfig, DefaultAccessModeIsDc)
{
    const auto cfg = SystemConfig::paper_default();
    EXPECT_EQ(cfg.access_mode, AccessMode::dc);
}

TEST(SystemConfig, MatrixFlowDefaultsMatchPaper)
{
    const auto cfg = SystemConfig::paper_default();
    const accel::MatrixFlowParams& mf = cfg.devices[0].accel;
    EXPECT_EQ(mf.local_buffer_bytes, 256 * kKiB);
    // Streaming dataflow: one tile-column panels (16 B/cycle intensity).
    EXPECT_EQ(mf.max_block_cols, 16u);
    EXPECT_DOUBLE_EQ(mf.sa.freq_ghz, 1.0);
}

TEST(SystemConfig, TransformerDesignPointsMatchFig7)
{
    struct Expected {
        const char* label;
        Placement place;
        double gbps;
        const char* host_dram;
        std::uint32_t packet;
    };
    const Expected expected[] = {
        {"PCIe-2GB", Placement::host, 2.0, "DDR4-2400", 256},
        {"PCIe-8GB", Placement::host, 8.0, "DDR4-2400", 256},
        {"PCIe-64GB", Placement::host, 64.0, "HBM2", 256},
        {"DevMem", Placement::devmem, 64.0, "DDR3-1600", 64},
    };
    const auto points = transformer_design_points();
    ASSERT_EQ(points.size(), std::size(expected));
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto& p = points[i];
        const auto& e = expected[i];
        SCOPED_TRACE(e.label);
        EXPECT_STREQ(p.label, e.label);
        EXPECT_EQ(p.place, e.place);
        EXPECT_NEAR(p.cfg.pcie.effective_gbps(), e.gbps, 1e-9);
        EXPECT_EQ(p.cfg.host_mem.dram.name, e.host_dram);
        EXPECT_EQ(p.cfg.devices[0].enable_devmem,
                  e.place == Placement::devmem);
        EXPECT_EQ(p.cfg.devices[0].accel.dma.request_bytes, e.packet);
        EXPECT_EQ(p.cfg.rc.max_payload_bytes, e.packet);
        EXPECT_NO_THROW(p.cfg.validate());
    }
    EXPECT_EQ(points.back().cfg.devices[0].devmem_mem.dram.name, "HBM2");
}

} // namespace
} // namespace accesys::core
