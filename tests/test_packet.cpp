// Unit tests for mem::Packet and the address-range helpers.
#include <gtest/gtest.h>

#include "mem/addr_range.hh"
#include "mem/backing_store.hh"
#include "mem/packet.hh"

namespace accesys::mem {
namespace {

TEST(Packet, FactoryAndPredicates)
{
    auto rd = Packet::make_read(0x1000, 64);
    EXPECT_TRUE(rd->is_read());
    EXPECT_TRUE(rd->is_request());
    EXPECT_FALSE(rd->is_response());
    EXPECT_EQ(rd->addr(), 0x1000u);
    EXPECT_EQ(rd->size(), 64u);
    EXPECT_EQ(rd->end_addr(), 0x1040u);

    auto wr = Packet::make_write(0x2000, 8);
    EXPECT_TRUE(wr->is_write());
    EXPECT_TRUE(wr->is_request());
}

TEST(Packet, MakeResponseFlipsCommand)
{
    auto rd = Packet::make_read(0, 4);
    rd->make_response();
    EXPECT_EQ(rd->cmd(), MemCmd::read_resp);
    EXPECT_TRUE(rd->is_response());
    EXPECT_THROW(rd->make_response(), SimError);

    auto wr = Packet::make_write(0, 4);
    wr->make_response();
    EXPECT_EQ(wr->cmd(), MemCmd::write_resp);
}

TEST(Packet, RouteStackLifo)
{
    auto p = Packet::make_read(0, 4);
    p->push_route(3);
    p->push_route(7);
    EXPECT_EQ(p->route_depth(), 2u);
    EXPECT_EQ(p->pop_route(), 7);
    EXPECT_EQ(p->pop_route(), 3);
    EXPECT_THROW((void)p->pop_route(), SimError);
}

TEST(Packet, TranslationRecordsOriginal)
{
    auto p = Packet::make_read(0x5123, 8);
    p->flags.needs_translation = true;
    p->record_translation(0x9123);
    EXPECT_EQ(p->addr(), 0x9123u);
    EXPECT_EQ(p->orig_addr(), 0x5123u);
    EXPECT_FALSE(p->flags.needs_translation);
}

TEST(Packet, PayloadRoundTrip)
{
    auto p = Packet::make_write(0, 8);
    EXPECT_FALSE(p->has_payload());
    p->set_payload_value<std::uint64_t>(0xDEADBEEFCAFEF00DULL);
    EXPECT_TRUE(p->has_payload());
    EXPECT_EQ(p->payload_value<std::uint64_t>(), 0xDEADBEEFCAFEF00DULL);
}

TEST(Packet, DescribeMentionsKeyFields)
{
    auto p = Packet::make_read(0xABC, 32);
    p->flags.uncacheable = true;
    const auto s = p->describe();
    EXPECT_NE(s.find("ReadReq"), std::string::npos);
    EXPECT_NE(s.find("abc"), std::string::npos);
    EXPECT_NE(s.find("UC"), std::string::npos);
}

TEST(Packet, RequestorIdsUnique)
{
    const auto a = alloc_requestor_id();
    const auto b = alloc_requestor_id();
    EXPECT_NE(a, b);
}

TEST(AddrRange, ContainsAndOverlaps)
{
    const AddrRange r(0x1000, 0x2000);
    EXPECT_TRUE(r.contains(0x1000));
    EXPECT_TRUE(r.contains(0x1FFF));
    EXPECT_FALSE(r.contains(0x2000));
    EXPECT_TRUE(r.contains(0x1800, 0x800));
    EXPECT_FALSE(r.contains(0x1801, 0x800));
    EXPECT_TRUE(r.overlaps(AddrRange(0x1FFF, 0x3000)));
    EXPECT_FALSE(r.overlaps(AddrRange(0x2000, 0x3000)));
    EXPECT_EQ(r.size(), 0x1000u);
}

TEST(AddrRange, WithSizeAndOffset)
{
    const auto r = AddrRange::with_size(0x4000, 0x100);
    EXPECT_EQ(r.end(), 0x4100u);
    EXPECT_EQ(r.offset(0x4080), 0x80u);
    EXPECT_THROW((void)r.offset(0x4100), SimError);
}

TEST(AddrRange, CheckDisjoint)
{
    EXPECT_NO_THROW(check_disjoint(
        {AddrRange(0, 10), AddrRange(10, 20), AddrRange(30, 40)}));
    EXPECT_THROW(check_disjoint({AddrRange(0, 10), AddrRange(5, 15)}),
                 ConfigError);
}

TEST(AddrRange, BadBoundsThrow)
{
    EXPECT_THROW(AddrRange(10, 5), ConfigError);
}

TEST(BackingStore, ReadBackWritten)
{
    BackingStore store;
    const std::uint32_t v = 0x12345678;
    store.write_obj(0x1000, v);
    EXPECT_EQ(store.read_obj<std::uint32_t>(0x1000), v);
}

TEST(BackingStore, UntouchedReadsZero)
{
    BackingStore store;
    EXPECT_EQ(store.read_obj<std::uint64_t>(0x123456789ULL), 0u);
    EXPECT_EQ(store.chunks_allocated(), 0u);
}

TEST(Packet, RouteOverflowThrows)
{
    auto p = Packet::make_read(0, 4);
    for (std::size_t i = 0; i < Packet::kMaxRouteDepth; ++i) {
        p->push_route(static_cast<std::uint16_t>(i));
    }
    EXPECT_EQ(p->route_depth(), Packet::kMaxRouteDepth);
    EXPECT_THROW(p->push_route(99), SimError);
}

TEST(Packet, PayloadOverflowThrows)
{
    auto p = Packet::make_write(0, 64);
    std::vector<std::uint8_t> big(Packet::kMaxInlinePayload + 1, 0xAB);
    EXPECT_THROW(p->set_payload(big.data(), big.size()), SimError);
    p->set_payload(big.data(), Packet::kMaxInlinePayload); // exactly fits
    EXPECT_EQ(p->payload_size(), Packet::kMaxInlinePayload);
}

TEST(PacketPool, RecyclesStorageAndResetsState)
{
    PacketPool pool;
    const Packet* first = nullptr;
    {
        auto p = pool.make_read(0x1000, 64);
        first = p.get();
        p->push_route(5);
        p->set_payload_value<std::uint64_t>(0x1234);
        p->set_requestor(7);
        p->set_tag(42);
        p->flags.uncacheable = true;
    }
    EXPECT_EQ(pool.allocs_total(), 1u);
    EXPECT_EQ(pool.recycles_total(), 1u);
    EXPECT_EQ(pool.free_count(), 1u);

    // The same storage comes back, fully re-initialised.
    auto q = pool.make_write(0x2000, 8);
    EXPECT_EQ(q.get(), first);
    EXPECT_EQ(pool.allocs_total(), 1u); // no new heap allocation
    EXPECT_EQ(pool.acquires_total(), 2u);
    EXPECT_EQ(q->route_depth(), 0u);
    EXPECT_FALSE(q->has_payload());
    EXPECT_EQ(q->requestor(), 0u);
    EXPECT_EQ(q->tag(), 0u);
    EXPECT_FALSE(q->flags.uncacheable);
    EXPECT_EQ(q->addr(), 0x2000u);
    EXPECT_TRUE(q->is_write());
}

TEST(PacketPool, AllocsStayFlatUnderChurn)
{
    PacketPool pool;
    pool.reserve(4);
    const auto baseline = pool.allocs_total();
    for (int i = 0; i < 10000; ++i) {
        auto a = pool.make_read(static_cast<Addr>(i) * 64, 64);
        auto b = pool.make_write(static_cast<Addr>(i) * 64, 64);
        a->push_route(1);
        b->make_response();
    }
    EXPECT_EQ(pool.allocs_total(), baseline); // steady state: zero news
    EXPECT_EQ(pool.acquires_total(), 20000u);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPool, GlobalFactoriesDrawFromGlobalPool)
{
    auto& pool = packet_pool();
    const auto acquires = pool.acquires_total();
    auto p = Packet::make_read(0x10, 4);
    EXPECT_EQ(pool.acquires_total(), acquires + 1);
}

TEST(BackingStore, CrossChunkAccess)
{
    BackingStore store;
    std::vector<std::uint8_t> data(3 * BackingStore::kChunkBytes);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>(i * 7);
    }
    // Deliberately offset so the write straddles chunk boundaries.
    const Addr base = BackingStore::kChunkBytes / 2 + 13;
    store.write(base, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    store.read(base, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(BackingStore, CopyMovesBytes)
{
    BackingStore store;
    const char msg[] = "hello accelerator";
    store.write(0x100, msg, sizeof(msg));
    store.copy(0x900000, 0x100, sizeof(msg));
    char out[sizeof(msg)] = {};
    store.read(0x900000, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST(BackingStore, SparseAllocationOnlyTouched)
{
    BackingStore store;
    store.write_obj<std::uint8_t>(0, 1);
    store.write_obj<std::uint8_t>(10 * kGiB, 1);
    EXPECT_EQ(store.chunks_allocated(), 2u);
}

} // namespace
} // namespace accesys::mem
