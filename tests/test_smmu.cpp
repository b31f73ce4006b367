// Tests for the page table, TLBs and the SMMU translation pipeline.
#include "test_util.hh"

#include "mem/mem_ctrl.hh"
#include "smmu/page_table.hh"
#include "smmu/smmu.hh"
#include "smmu/tlb.hh"

namespace accesys::smmu {
namespace {

using mem::Packet;
using test::MockRequestor;

TEST(PageTableBits, LevelIndices)
{
    // VA bits: L0[47:39] L1[38:30] L2[29:21] L3[20:12].
    const Addr va = (0x1ULL << 39) | (0x2ULL << 30) | (0x3ULL << 21) |
                    (0x4ULL << 12) | 0x567;
    EXPECT_EQ(level_index(va, 0), 1u);
    EXPECT_EQ(level_index(va, 1), 2u);
    EXPECT_EQ(level_index(va, 2), 3u);
    EXPECT_EQ(level_index(va, 3), 4u);
    EXPECT_EQ(vpn_of(va), va >> 12);
}

struct PageTableFixture : ::testing::Test {
    mem::BackingStore store;
    PageTable pt{store, 0x10000000, 0x10001000, 0x18000000};
};

TEST_F(PageTableFixture, MapAndTranslate)
{
    pt.map(0x5000, 0x9000, kPageBytes);
    EXPECT_EQ(pt.translate(0x5000), 0x9000u);
    EXPECT_EQ(pt.translate(0x5ABC), 0x9ABCu);
}

TEST_F(PageTableFixture, IdentityMap)
{
    pt.map_identity(0x40000, 4 * kPageBytes);
    EXPECT_EQ(pt.translate(0x41234), 0x41234u);
    EXPECT_EQ(pt.pages_mapped(), 4u);
}

TEST_F(PageTableFixture, UnmappedFaults)
{
    EXPECT_THROW((void)pt.translate(0xDEAD000), SimError);
}

TEST_F(PageTableFixture, RemapDoesNotDoubleCount)
{
    pt.map_identity(0x1000, kPageBytes);
    pt.map_identity(0x1000, kPageBytes);
    EXPECT_EQ(pt.pages_mapped(), 1u);
}

TEST_F(PageTableFixture, TablesAllocatedLazily)
{
    const auto before = pt.tables_allocated();
    pt.map_identity(0x1000, kPageBytes);
    // First mapping allocates L1+L2+L3 tables.
    EXPECT_EQ(pt.tables_allocated(), before + 3);
    pt.map_identity(0x2000, kPageBytes); // same leaf table
    EXPECT_EQ(pt.tables_allocated(), before + 3);
    // A VA far away needs a fresh subtree.
    pt.map_identity(0x800000000000ULL >> 1, kPageBytes);
    EXPECT_GT(pt.tables_allocated(), before + 3);
}

TEST_F(PageTableFixture, MisalignedMapThrows)
{
    EXPECT_THROW(pt.map(0x123, 0x1000, kPageBytes), SimError);
}

TEST(Tlb, HitMissLru)
{
    Tlb tlb(4, 4); // fully associative, 4 entries
    EXPECT_FALSE(tlb.lookup(1).has_value());
    tlb.insert(1, 101);
    tlb.insert(2, 102);
    tlb.insert(3, 103);
    tlb.insert(4, 104);
    EXPECT_EQ(tlb.lookup(1).value(), 101u); // touch 1 -> MRU
    tlb.insert(5, 105);                     // evicts LRU (2)
    EXPECT_TRUE(tlb.lookup(1).has_value());
    EXPECT_FALSE(tlb.lookup(2).has_value());
    EXPECT_EQ(tlb.evictions(), 1u);
}

TEST(Tlb, CountersAndFlush)
{
    Tlb tlb(8, 2);
    (void)tlb.lookup(7);
    tlb.insert(7, 70);
    (void)tlb.lookup(7);
    EXPECT_EQ(tlb.lookups(), 2u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
    tlb.flush();
    EXPECT_FALSE(tlb.lookup(7).has_value());
}

TEST(Tlb, ContainsDoesNotTouchCounters)
{
    Tlb tlb(4, 4);
    tlb.insert(9, 90);
    const auto lookups = tlb.lookups();
    EXPECT_TRUE(tlb.contains(9));
    EXPECT_FALSE(tlb.contains(10));
    EXPECT_EQ(tlb.lookups(), lookups);
}

TEST(Tlb, BadGeometryThrows)
{
    EXPECT_THROW(Tlb(0, 1), ConfigError);
    EXPECT_THROW(Tlb(6, 4), ConfigError);  // not a multiple
    EXPECT_THROW(Tlb(12, 4), ConfigError); // 3 sets: not a power of two
}

/// Full SMMU harness: device-side requestor, memory-side SimpleMem holding
/// the page tables and data.
struct SmmuFixture : ::testing::Test {
    Simulator sim;
    mem::BackingStore store;
    SmmuParams params;
    mem::SimpleMemParams mem_params;

    static constexpr Addr kPtRoot = 0x10000000;
    static constexpr Addr kPtArena = 0x10001000;

    std::unique_ptr<PageTable> pt;
    std::unique_ptr<Smmu> smmu;
    std::unique_ptr<mem::SimpleMem> memory;
    MockRequestor dev{"dev"};

    void build()
    {
        pt = std::make_unique<PageTable>(store, kPtRoot, kPtArena,
                                         kPtRoot + 0x8000000);
        smmu = std::make_unique<Smmu>(sim, "smmu", params, *pt, store);
        memory = std::make_unique<mem::SimpleMem>(
            sim, "mem", mem_params, mem::AddrRange(0, kGiB));
        dev.port().bind(smmu->dev_side());
        smmu->mem_side().bind(memory->port());
    }

    mem::PacketPtr translated_read(Addr va, std::uint32_t size = 64)
    {
        auto pkt = Packet::make_read(va, size);
        pkt->flags.needs_translation = true;
        return pkt;
    }
};

TEST_F(SmmuFixture, PassThroughWhenNoTranslationNeeded)
{
    build();
    auto pkt = Packet::make_read(0x4000, 64);
    ASSERT_TRUE(dev.port().send_req(pkt));
    test::drain(sim);
    ASSERT_EQ(dev.responses.size(), 1u);
    EXPECT_EQ(smmu->translations(), 0u);
}

TEST_F(SmmuFixture, DisabledSmmuForwardsEverything)
{
    params.enabled = false;
    build();
    auto pkt = translated_read(0x5000);
    ASSERT_TRUE(dev.port().send_req(pkt));
    test::drain(sim);
    ASSERT_EQ(dev.responses.size(), 1u);
    EXPECT_EQ(smmu->translations(), 0u);
}

TEST_F(SmmuFixture, ColdMissWalksAndTranslates)
{
    build();
    pt->map(0x5000, 0x9000, kPageBytes);
    auto pkt = translated_read(0x5040);
    ASSERT_TRUE(dev.port().send_req(pkt));
    test::drain(sim);

    ASSERT_EQ(dev.responses.size(), 1u);
    EXPECT_EQ(dev.responses[0]->addr(), 0x9040u); // translated
    EXPECT_EQ(dev.responses[0]->orig_addr(), 0x5040u);
    EXPECT_EQ(smmu->translations(), 1u);
    EXPECT_EQ(smmu->ptw_count(), 1u);
    // A cold 4-level walk issues 4 PTE reads.
    EXPECT_EQ(sim.stats().value("smmu.pte_reads"), 4.0);
}

TEST_F(SmmuFixture, SecondAccessHitsUtlb)
{
    build();
    pt->map_identity(0x5000, kPageBytes);
    auto p1 = translated_read(0x5000);
    ASSERT_TRUE(dev.port().send_req(p1));
    test::drain(sim);
    auto p2 = translated_read(0x5080);
    ASSERT_TRUE(dev.port().send_req(p2));
    test::drain(sim);
    EXPECT_EQ(smmu->ptw_count(), 1u); // no second walk
    EXPECT_EQ(smmu->utlb().hits(), 1u);
}

TEST_F(SmmuFixture, StreamRemapAddedAfterTrafficTakesEffect)
{
    // The stream resolution is memoised per raw id; a remap installed once
    // that id has already translated must still redirect its next request.
    build();
    pt->map_identity(0x5000, kPageBytes);
    const auto send = [&](Addr va) {
        auto pkt = translated_read(va);
        pkt->set_stream(5);
        ASSERT_TRUE(dev.port().send_req(pkt));
        test::drain(sim);
    };
    send(0x5000);
    EXPECT_EQ(sim.stats().value("smmu.stream5.translations"), 1.0);
    smmu->map_stream(5, 7);
    send(0x5040);
    EXPECT_EQ(sim.stats().value("smmu.stream5.translations"), 1.0);
    EXPECT_EQ(sim.stats().value("smmu.stream7.translations"), 1.0);
    // Stream 7's micro-TLB is cold, so the remapped request missed it.
    EXPECT_EQ(sim.stats().value("smmu.stream7.utlb_misses"), 1.0);
}

TEST_F(SmmuFixture, PwcShortensLaterWalks)
{
    build();
    pt->map_identity(0x100000, 64 * kPageBytes);
    auto p1 = translated_read(0x100000);
    ASSERT_TRUE(dev.port().send_req(p1));
    test::drain(sim);
    const auto reads_first = sim.stats().value("smmu.pte_reads");
    EXPECT_EQ(reads_first, 4.0);

    // Neighbouring page: upper levels cached in the PWC -> 1 read.
    auto p2 = translated_read(0x101000);
    ASSERT_TRUE(dev.port().send_req(p2));
    test::drain(sim);
    EXPECT_EQ(sim.stats().value("smmu.pte_reads") - reads_first, 1.0);
}

TEST_F(SmmuFixture, ConcurrentSameVpnCoalesces)
{
    build();
    pt->map_identity(0x7000, kPageBytes);
    auto p1 = translated_read(0x7000);
    auto p2 = translated_read(0x7100);
    ASSERT_TRUE(dev.port().send_req(p1));
    ASSERT_TRUE(dev.port().send_req(p2));
    test::drain(sim);
    EXPECT_EQ(dev.responses.size(), 2u);
    EXPECT_EQ(smmu->ptw_count(), 1u); // one walk served both
}

TEST_F(SmmuFixture, WalkFaultPanics)
{
    build(); // nothing mapped
    auto pkt = translated_read(0xBAD000);
    ASSERT_TRUE(dev.port().send_req(pkt));
    EXPECT_THROW(sim.run(), SimError);
}

TEST_F(SmmuFixture, CrossPageRequestPanics)
{
    build();
    pt->map_identity(0x5000, 2 * kPageBytes);
    auto pkt = translated_read(0x5FC0, 128); // crosses 0x6000
    EXPECT_THROW((void)dev.port().send_req(pkt), SimError);
}

TEST_F(SmmuFixture, PostedWritesTranslateToo)
{
    build();
    pt->map(0x8000, 0xC000, kPageBytes);
    auto pkt = Packet::make_write(0x8010, 8);
    pkt->flags.needs_translation = true;
    pkt->flags.posted = true;
    ASSERT_TRUE(dev.port().send_req(pkt));
    test::drain(sim);
    EXPECT_EQ(smmu->translations(), 1u);
    EXPECT_EQ(sim.stats().value("mem.writes"), 1.0);
}

TEST_F(SmmuFixture, TranslationLatencyAccounted)
{
    build();
    pt->map_identity(0x5000, kPageBytes);
    auto p = translated_read(0x5000);
    ASSERT_TRUE(dev.port().send_req(p));
    test::drain(sim);
    EXPECT_GT(smmu->total_translation_ns(), 0.0);
    EXPECT_GT(smmu->total_ptw_ns(), 0.0);
}

TEST(SmmuParams, Validation)
{
    SmmuParams p;
    p.walk_slots = 0;
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.max_pending = 1;
    p.walk_slots = 4;
    EXPECT_THROW(p.validate(), ConfigError);
}

} // namespace
} // namespace accesys::smmu
