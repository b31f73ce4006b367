// Tests for the set-associative write-back cache.
#include "test_util.hh"

#include <cstdio>
#include <tuple>

#include "cache/cache.hh"
#include "mem/mem_ctrl.hh"
#include "sim/serialize.hh"

namespace accesys::cache {
namespace {

using mem::Packet;
using test::MockRequestor;
using test::MockResponder;

struct CacheFixture : ::testing::Test {
    Simulator sim;
    CacheParams params;
    MockRequestor cpu{"cpu"};
    MockResponder memory{"mem"};

    CacheFixture()
    {
        params.size_bytes = 4 * kKiB;
        params.assoc = 2;
        params.line_bytes = 64;
        params.mshrs = 4;
    }

    std::unique_ptr<Cache> make()
    {
        auto cache = std::make_unique<Cache>(sim, "cache", params);
        cpu.port().bind(cache->cpu_side());
        cache->mem_side().bind(memory.port());
        return cache;
    }

    /// Serve all outstanding fill requests from the mock memory.
    void serve_memory()
    {
        test::drain(sim);
        while (!memory.requests.empty()) {
            ASSERT_TRUE(memory.answer_one());
            test::drain(sim);
        }
    }
};

TEST_F(CacheFixture, ColdMissFetchesLine)
{
    auto cache = make();
    auto pkt = Packet::make_read(0x100, 8);
    ASSERT_TRUE(cpu.port().send_req(pkt));
    test::drain(sim);

    ASSERT_EQ(memory.requests.size(), 1u);
    EXPECT_EQ(memory.requests.front()->addr(), 0x100u); // line-aligned
    EXPECT_EQ(memory.requests.front()->size(), 64u);

    serve_memory();
    ASSERT_EQ(cpu.responses.size(), 1u);
    EXPECT_EQ(cache->misses(), 1u);
    EXPECT_TRUE(cache->contains_line(0x100));
}

TEST_F(CacheFixture, SecondAccessHits)
{
    auto cache = make();
    auto p1 = Packet::make_read(0x100, 8);
    ASSERT_TRUE(cpu.port().send_req(p1));
    serve_memory();

    auto p2 = Packet::make_read(0x108, 8); // same line
    ASSERT_TRUE(cpu.port().send_req(p2));
    test::drain(sim);
    EXPECT_EQ(cpu.responses.size(), 2u);
    EXPECT_EQ(cache->hits(), 1u);
    EXPECT_EQ(memory.requests.size(), 0u); // no new fill
}

TEST_F(CacheFixture, WriteHitMarksDirty)
{
    auto cache = make();
    auto p1 = Packet::make_read(0x100, 8);
    ASSERT_TRUE(cpu.port().send_req(p1));
    serve_memory();

    auto p2 = Packet::make_write(0x100, 8);
    ASSERT_TRUE(cpu.port().send_req(p2));
    test::drain(sim);
    EXPECT_TRUE(cache->line_dirty(0x100));
}

TEST_F(CacheFixture, WholeLineWriteSkipsFill)
{
    auto cache = make();
    auto pkt = Packet::make_write(0x200, 64);
    ASSERT_TRUE(cpu.port().send_req(pkt));
    test::drain(sim);
    EXPECT_EQ(memory.requests.size(), 0u); // no fill read
    EXPECT_TRUE(cache->contains_line(0x200));
    EXPECT_TRUE(cache->line_dirty(0x200));
    EXPECT_EQ(cpu.responses.size(), 1u);
}

TEST_F(CacheFixture, PartialWriteMissFillsThenDirties)
{
    auto cache = make();
    auto pkt = Packet::make_write(0x200, 8);
    ASSERT_TRUE(cpu.port().send_req(pkt));
    test::drain(sim);
    ASSERT_EQ(memory.requests.size(), 1u); // fill read required
    serve_memory();
    EXPECT_TRUE(cache->line_dirty(0x200));
}

TEST_F(CacheFixture, DirtyEvictionWritesBack)
{
    auto cache = make();
    // Set count = 4KiB / 64 / 2 = 32 sets. Two lines mapping to set 0:
    const Addr a = 0;
    const Addr b = 32 * 64;
    const Addr c = 2 * 32 * 64;

    auto w = Packet::make_write(a, 64);
    ASSERT_TRUE(cpu.port().send_req(w));
    auto w2 = Packet::make_write(b, 64);
    ASSERT_TRUE(cpu.port().send_req(w2));
    test::drain(sim);

    // Third line in the same set evicts LRU (line a, dirty).
    auto w3 = Packet::make_write(c, 64);
    ASSERT_TRUE(cpu.port().send_req(w3));
    test::drain(sim);

    ASSERT_EQ(memory.requests.size(), 1u);
    EXPECT_TRUE(memory.requests.front()->is_write());
    EXPECT_EQ(memory.requests.front()->addr(), a);
    EXPECT_TRUE(memory.requests.front()->flags.posted);
    EXPECT_FALSE(cache->contains_line(a));
}

TEST_F(CacheFixture, LruKeepsRecentlyUsed)
{
    auto cache = make();
    const Addr a = 0;
    const Addr b = 32 * 64;
    const Addr c = 2 * 32 * 64;
    for (const Addr addr : {a, b}) {
        auto p = Packet::make_read(addr, 8);
        ASSERT_TRUE(cpu.port().send_req(p));
        serve_memory();
    }
    // Touch `a` so `b` becomes LRU.
    auto touch = Packet::make_read(a, 8);
    ASSERT_TRUE(cpu.port().send_req(touch));
    test::drain(sim);

    auto p = Packet::make_read(c, 8);
    ASSERT_TRUE(cpu.port().send_req(p));
    serve_memory();
    EXPECT_TRUE(cache->contains_line(a));
    EXPECT_FALSE(cache->contains_line(b));
    EXPECT_TRUE(cache->contains_line(c));
}

TEST_F(CacheFixture, MshrCoalescesSameLine)
{
    auto cache = make();
    auto p1 = Packet::make_read(0x100, 8);
    auto p2 = Packet::make_read(0x120, 8); // same line
    ASSERT_TRUE(cpu.port().send_req(p1));
    ASSERT_TRUE(cpu.port().send_req(p2));
    test::drain(sim);
    EXPECT_EQ(memory.requests.size(), 1u); // one fill for both
    serve_memory();
    EXPECT_EQ(cpu.responses.size(), 2u);
}

TEST_F(CacheFixture, RestoredMshrStillCoalescesSameLine)
{
    // The MSHR lookup index is not in the checkpoint; a restore rebuilds
    // it, so a same-line miss after the restore joins the restored MSHR.
    // Both caches draw the same fill requestor id, as a restore into a
    // rebuilt System does.
    mem::reset_requestor_ids();
    auto cache = make();
    auto p1 = Packet::make_read(0x100, 8);
    ASSERT_TRUE(cpu.port().send_req(p1));
    test::drain(sim);
    ASSERT_EQ(memory.requests.size(), 1u); // fill in flight, MSHR live
    const std::string path = ::testing::TempDir() + "cache_mshr.ckpt";
    {
        Ckpt ar;
        ar.begin_section("cache");
        cache->serialize(ar);
        ar.end_section();
        ar.write_file(path, 0);
    }

    Simulator sim2;
    MockRequestor cpu2{"cpu2"};
    MockResponder memory2{"mem2"};
    mem::reset_requestor_ids();
    Cache restored(sim2, "cache", params);
    cpu2.port().bind(restored.cpu_side());
    restored.mem_side().bind(memory2.port());
    {
        Ckpt ar = Ckpt::load_file(path, 0);
        ar.begin_section("cache");
        restored.serialize(ar);
        ar.end_section();
    }
    std::remove(path.c_str());

    auto p2 = Packet::make_read(0x120, 8); // same line
    ASSERT_TRUE(cpu2.port().send_req(p2));
    test::drain(sim2);
    EXPECT_EQ(memory2.requests.size(), 0u); // no second fill
    // The original fill completes both the restored and the new target.
    memory2.requests.push_back(std::move(memory.requests.front()));
    memory.requests.pop_front();
    ASSERT_TRUE(memory2.answer_one());
    test::drain(sim2);
    EXPECT_EQ(cpu2.responses.size(), 2u);
}

TEST_F(CacheFixture, MshrExhaustionBackpressures)
{
    params.mshrs = 2;
    auto cache = make();
    int accepted = 0;
    for (int i = 0; i < 4; ++i) {
        auto p = Packet::make_read(static_cast<Addr>(i) * 64, 8);
        if (!cpu.port().send_req(p)) {
            break;
        }
        ++accepted;
    }
    EXPECT_EQ(accepted, 2);
    serve_memory();
    EXPECT_GE(cpu.req_retries, 1u);
}

TEST_F(CacheFixture, UncacheableBypasses)
{
    auto cache = make();
    auto p = Packet::make_read(0x300, 8);
    p->flags.uncacheable = true;
    ASSERT_TRUE(cpu.port().send_req(p));
    test::drain(sim);
    ASSERT_EQ(memory.requests.size(), 1u);
    EXPECT_EQ(memory.requests.front()->size(), 8u); // not line-expanded
    serve_memory();
    ASSERT_EQ(cpu.responses.size(), 1u);
    EXPECT_FALSE(cache->contains_line(0x300));
}

TEST_F(CacheFixture, UncacheableWriteInvalidatesCachedLine)
{
    auto cache = make();
    auto p1 = Packet::make_read(0x100, 8);
    ASSERT_TRUE(cpu.port().send_req(p1));
    serve_memory();
    ASSERT_TRUE(cache->contains_line(0x100));

    auto p2 = Packet::make_write(0x100, 8);
    p2->flags.uncacheable = true;
    p2->flags.posted = true;
    ASSERT_TRUE(cpu.port().send_req(p2));
    test::drain(sim);
    EXPECT_FALSE(cache->contains_line(0x100));
}

TEST_F(CacheFixture, SnoopInvalidateDropsLine)
{
    auto cache = make();
    auto p = Packet::make_write(0x100, 64);
    ASSERT_TRUE(cpu.port().send_req(p));
    test::drain(sim);
    ASSERT_TRUE(cache->line_dirty(0x100));

    cache->snoop_invalidate(0x100, 64);
    EXPECT_FALSE(cache->contains_line(0x100));
}

TEST_F(CacheFixture, SnoopCleanDemotesDirty)
{
    auto cache = make();
    auto p = Packet::make_write(0x100, 64);
    ASSERT_TRUE(cpu.port().send_req(p));
    test::drain(sim);

    cache->snoop_clean(0x100, 64);
    EXPECT_TRUE(cache->contains_line(0x100));
    EXPECT_FALSE(cache->line_dirty(0x100));
}

TEST_F(CacheFixture, StraddlingRequestPanics)
{
    auto cache = make();
    auto p = Packet::make_read(0x3C, 16); // crosses 0x40
    EXPECT_THROW((void)cpu.port().send_req(p), SimError);
}

TEST_F(CacheFixture, PostedWriteHitAbsorbedSilently)
{
    auto cache = make();
    auto fill = Packet::make_read(0x100, 8);
    ASSERT_TRUE(cpu.port().send_req(fill));
    serve_memory();
    const auto responses_before = cpu.responses.size();

    auto p = Packet::make_write(0x100, 8);
    p->flags.posted = true;
    ASSERT_TRUE(cpu.port().send_req(p));
    test::drain(sim);
    EXPECT_EQ(cpu.responses.size(), responses_before);
    EXPECT_TRUE(cache->line_dirty(0x100));
}

TEST(CacheParams, Validation)
{
    CacheParams p;
    p.line_bytes = 48;
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.size_bytes = 1000; // not a multiple of line*assoc
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.mshrs = 0;
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.mshrs = 128; // > 64: exceeds the free-slot bitmap
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.line_bytes = 16;
    p.mshrs = 32; // > line_bytes: slot index no longer fits the fill tag
    EXPECT_THROW(p.validate(), ConfigError);
}

// Property sweep: for several geometries, a working set exactly matching
// capacity (touched twice, sequentially) must hit on the second pass.
struct Geometry {
    std::uint64_t size;
    unsigned assoc;
};

class CacheGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometry, CapacityWorkingSetHitsOnSecondPass)
{
    Simulator sim;
    CacheParams params;
    params.size_bytes = GetParam().size;
    params.assoc = GetParam().assoc;
    params.mshrs = 8;
    Cache cache(sim, "cache", params);
    MockRequestor cpu("cpu");
    MockResponder memory("mem");
    cpu.port().bind(cache.cpu_side());
    cache.mem_side().bind(memory.port());

    auto serve = [&] {
        sim.run(sim.now() + kTicksPerMs);
        while (!memory.requests.empty()) {
            ASSERT_TRUE(memory.answer_one());
            sim.run(sim.now() + kTicksPerMs);
        }
    };

    const std::uint64_t lines = params.size_bytes / params.line_bytes;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t i = 0; i < lines; ++i) {
            auto p = mem::Packet::make_read(i * params.line_bytes, 8);
            if (!cpu.port().send_req(p)) {
                serve();
                auto retry = mem::Packet::make_read(i * params.line_bytes, 8);
                ASSERT_TRUE(cpu.port().send_req(retry));
            }
            serve();
        }
    }
    EXPECT_EQ(cache.misses(), lines);
    EXPECT_EQ(cache.hits(), lines);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometry,
                         ::testing::Values(Geometry{4 * kKiB, 1},
                                           Geometry{4 * kKiB, 4},
                                           Geometry{32 * kKiB, 4},
                                           Geometry{32 * kKiB, 8},
                                           Geometry{64 * kKiB, 16}));

// --- whole-line write run form ----------------------------------------------
// A write spanning several aligned whole lines is accepted as a run: one
// tag-array walk, per-line hit/miss accounting identical to the 64 B split
// train a bridge would otherwise send, and dirty victims flushed as one
// writeback batch.

TEST_F(CacheFixture, MultiLineWholeLineWriteRunMatchesSplitTrain)
{
    // Twin caches: one receives a single 4-line write run, the other the
    // equivalent four line-sized writes. Same installs, same dirt, same
    // writebacks (after forcing evictions with a conflicting run).
    auto run_one = [&](bool as_run) {
        Simulator s;
        CacheParams p = params;
        Cache cache(s, "c", p);
        MockRequestor drv("drv");
        MockResponder mem("mem");
        drv.port().bind(cache.cpu_side());
        cache.mem_side().bind(mem.port());

        auto write_span = [&](Addr base) {
            if (as_run) {
                auto w = Packet::make_write(base, 4 * 64);
                w->flags.posted = true;
                ASSERT_TRUE(drv.port().send_req(w));
            } else {
                for (int i = 0; i < 4; ++i) {
                    auto w = Packet::make_write(base + 64ull * i, 64);
                    w->flags.posted = true;
                    ASSERT_TRUE(drv.port().send_req(w));
                }
            }
            s.run(s.now() + kTicksPerMs);
        };
        write_span(0x0000);
        write_span(0x0000);  // second pass: pure hits
        // Conflicting span (same sets, 2-way cache, third distinct tag
        // after the fill reads' interference-free installs): evicts the
        // dirty lines -> posted writebacks downstream.
        write_span(0x10000);
        write_span(0x20000);
        s.run(s.now() + kTicksPerMs);

        std::size_t wbs = 0;
        for (const auto& req : mem.requests) {
            wbs += req->is_write() ? 1 : 0;
        }
        return std::tuple{cache.hits(), cache.misses(), wbs};
    };

    const auto run = run_one(true);
    const auto split = run_one(false);
    EXPECT_EQ(std::get<0>(run), std::get<0>(split));
    EXPECT_EQ(std::get<1>(run), std::get<1>(split));
    EXPECT_EQ(std::get<2>(run), std::get<2>(split));
    EXPECT_GT(std::get<2>(run), 0u); // the scenario really evicted dirt
}

TEST_F(CacheFixture, WholeLineWriteUnderPendingFillJoinsTheMiss)
{
    // A whole-line write arriving while a fill for the same line is in
    // flight must not install immediately — the landing fill would
    // re-install the line as a duplicate tag. It joins the miss instead;
    // the fill lands dirty, and exactly one copy of the line exists
    // (a snoop invalidate leaves nothing behind).
    auto cache = make();
    auto rd = Packet::make_read(0x100, 8);
    ASSERT_TRUE(cpu.port().send_req(rd));
    test::drain(sim);
    ASSERT_EQ(memory.requests.size(), 1u); // fill outstanding, unserved

    auto wr = Packet::make_write(0x100, 64);
    wr->flags.posted = true;
    ASSERT_TRUE(cpu.port().send_req(wr));
    test::drain(sim);
    EXPECT_FALSE(cache->contains_line(0x100)); // not installed early

    serve_memory();
    EXPECT_EQ(cpu.responses.size(), 1u); // the read's response
    ASSERT_TRUE(cache->contains_line(0x100));
    EXPECT_TRUE(cache->line_dirty(0x100));
    cache->snoop_invalidate(0x100, 64);
    EXPECT_FALSE(cache->contains_line(0x100)) << "duplicate tag installed";
}

TEST_F(CacheFixture, MultiLineRejectsNonRunShapes)
{
    auto cache = make();
    auto unaligned = Packet::make_write(0x20, 128); // straddles, not a run
    unaligned->flags.posted = true;
    EXPECT_THROW((void)cpu.port().send_req(unaligned), SimError);
    auto read = Packet::make_read(0x0, 128); // reads have no run form
    EXPECT_THROW((void)cpu.port().send_req(read), SimError);
    // Non-posted runs are rejected too: their completion would have to
    // wait on in-flight fills (split-train semantics) and no bridge
    // emits them.
    auto nonposted = Packet::make_write(0x0, 128);
    EXPECT_THROW((void)cpu.port().send_req(nonposted), SimError);
}

} // namespace
} // namespace accesys::cache
