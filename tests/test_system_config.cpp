// Tests for SystemConfig (Table II defaults, knobs, validation).
#include <gtest/gtest.h>

#include "core/system_config.hh"
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
    EXPECT_DOUBLE_EQ(cfg.pcie_switch.latency_ns, 50.0);
    EXPECT_EQ(cfg.accel.sa.rows, 16u);
    EXPECT_EQ(cfg.accel.sa.cols, 16u);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(SystemConfig, SetPacketSizeSyncsKnobs)
{
    auto cfg = SystemConfig::paper_default();
    cfg.set_packet_size(1024);
    EXPECT_EQ(cfg.accel.dma.request_bytes, 1024u);
    EXPECT_EQ(cfg.accel.dma.write_bytes, 1024u);
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
    EXPECT_FALSE(cfg.enable_devmem);
    cfg.set_devmem("GDDR6");
    EXPECT_TRUE(cfg.enable_devmem);
    EXPECT_EQ(cfg.devmem_mem.dram.name, "GDDR6");
}

TEST(SystemConfig, ValidationCatchesBadConfigs)
{
    auto cfg = SystemConfig::paper_default();
    cfg.host_dram_bytes = 1 * kMiB; // too small for page tables
    EXPECT_THROW(cfg.validate(), ConfigError);

    cfg = SystemConfig::paper_default();
    cfg.accel.bar0_base = 0x1000; // overlaps host DRAM
    EXPECT_THROW(cfg.validate(), ConfigError);

    cfg = SystemConfig::paper_default();
    cfg.pcie.lanes = 5;
    EXPECT_THROW(cfg.validate(), ConfigError);

    cfg = SystemConfig::paper_default();
    cfg.cpu.freq_ghz = 0.0;
    EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(SystemConfig, DefaultAccessModeIsDc)
{
    const auto cfg = SystemConfig::paper_default();
    EXPECT_EQ(cfg.access_mode, AccessMode::dc);
}

TEST(SystemConfig, MatrixFlowDefaultsMatchPaper)
{
    const auto cfg = SystemConfig::paper_default();
    EXPECT_EQ(cfg.accel.local_buffer_bytes, 256 * kKiB);
    // Streaming dataflow: one tile-column panels (16 B/cycle intensity).
    EXPECT_EQ(cfg.accel.max_block_cols, 16u);
    EXPECT_DOUBLE_EQ(cfg.accel.sa.freq_ghz, 1.0);
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
        EXPECT_EQ(p.cfg.enable_devmem, e.place == Placement::devmem);
        EXPECT_EQ(p.cfg.accel.dma.request_bytes, e.packet);
        EXPECT_EQ(p.cfg.rc.max_payload_bytes, e.packet);
        EXPECT_NO_THROW(p.cfg.validate());
    }
    EXPECT_EQ(points.back().cfg.devmem_mem.dram.name, "HBM2");
}

} // namespace
} // namespace accesys::core
