// Tests for the crossbar: routing, response return, backpressure, snooping.
#include "test_util.hh"

#include "mem/xbar.hh"

namespace accesys::mem {
namespace {

using test::MockRequestor;
using test::MockResponder;

struct XbarFixture : ::testing::Test {
    Simulator sim;
    XbarParams params;
};

TEST_F(XbarFixture, RoutesByAddressRange)
{
    Xbar xbar(sim, "xbar", params);
    MockRequestor cpu("cpu");
    MockResponder memA("memA");
    MockResponder memB("memB");

    cpu.port().bind(xbar.add_upstream("cpu"));
    xbar.add_downstream("a", AddrRange(0, 0x1000)).bind(memA.port());
    xbar.add_downstream("b", AddrRange(0x1000, 0x2000)).bind(memB.port());
    sim.startup();

    auto p1 = Packet::make_read(0x10, 4);
    auto p2 = Packet::make_read(0x1800, 4);
    ASSERT_TRUE(cpu.port().send_req(p1));
    ASSERT_TRUE(cpu.port().send_req(p2));
    test::drain(sim);

    EXPECT_EQ(memA.requests.size(), 1u);
    EXPECT_EQ(memB.requests.size(), 1u);
    EXPECT_EQ(memB.requests.front()->addr(), 0x1800u);
}

TEST_F(XbarFixture, DefaultRouteCatchesUnmatched)
{
    Xbar xbar(sim, "xbar", params);
    MockRequestor cpu("cpu");
    MockResponder memory("mem");
    MockResponder pcie("pcie");

    cpu.port().bind(xbar.add_upstream("cpu"));
    xbar.add_downstream("mem", AddrRange(0, 0x1000)).bind(memory.port());
    xbar.add_default_downstream("pcie").bind(pcie.port());
    sim.startup();

    auto p = Packet::make_read(0x999999, 4);
    ASSERT_TRUE(cpu.port().send_req(p));
    test::drain(sim);
    EXPECT_EQ(pcie.requests.size(), 1u);
}

TEST_F(XbarFixture, NoRoutePanics)
{
    Xbar xbar(sim, "xbar", params);
    MockRequestor cpu("cpu");
    MockResponder memory("mem");
    cpu.port().bind(xbar.add_upstream("cpu"));
    xbar.add_downstream("mem", AddrRange(0, 0x1000)).bind(memory.port());
    sim.startup();
    auto p = Packet::make_read(0x5000, 4);
    EXPECT_THROW((void)cpu.port().send_req(p), SimError);
}

TEST_F(XbarFixture, OverlappingRangesRejectedAtStartup)
{
    Xbar xbar(sim, "xbar", params);
    MockRequestor cpu("cpu");
    MockResponder a("a");
    MockResponder b("b");
    cpu.port().bind(xbar.add_upstream("cpu"));
    xbar.add_downstream("a", AddrRange(0, 0x1000)).bind(a.port());
    xbar.add_downstream("b", AddrRange(0x800, 0x1800)).bind(b.port());
    EXPECT_THROW(sim.startup(), ConfigError);
}

TEST_F(XbarFixture, ResponsesReturnToOriginatingPort)
{
    Xbar xbar(sim, "xbar", params);
    MockRequestor cpu0("cpu0");
    MockRequestor cpu1("cpu1");
    MockResponder memory("mem");

    cpu0.port().bind(xbar.add_upstream("cpu0"));
    cpu1.port().bind(xbar.add_upstream("cpu1"));
    xbar.add_downstream("mem", AddrRange(0, kMiB)).bind(memory.port());
    sim.startup();

    auto p0 = Packet::make_read(0x100, 4);
    auto p1 = Packet::make_read(0x200, 4);
    ASSERT_TRUE(cpu0.port().send_req(p0));
    ASSERT_TRUE(cpu1.port().send_req(p1));
    test::drain(sim);
    ASSERT_EQ(memory.requests.size(), 2u);

    // Answer in reverse order; each response must find its own origin.
    while (!memory.requests.empty()) {
        mem::PacketPtr pkt = std::move(memory.requests.back());
        memory.requests.pop_back();
        pkt->make_response();
        ASSERT_TRUE(memory.port().send_resp(pkt));
    }
    test::drain(sim);
    ASSERT_EQ(cpu0.responses.size(), 1u);
    ASSERT_EQ(cpu1.responses.size(), 1u);
    EXPECT_EQ(cpu0.responses[0]->addr(), 0x100u);
    EXPECT_EQ(cpu1.responses[0]->addr(), 0x200u);
}

TEST_F(XbarFixture, RequestLatencyApplied)
{
    params.request_latency_ns = 10.0;
    Xbar xbar(sim, "xbar", params);
    MockRequestor cpu("cpu");
    MockResponder memory("mem");
    cpu.port().bind(xbar.add_upstream("cpu"));
    xbar.add_downstream("mem", AddrRange(0, kMiB)).bind(memory.port());
    sim.startup();
    auto p = Packet::make_read(0, 4);
    ASSERT_TRUE(cpu.port().send_req(p));
    test::drain(sim);
    EXPECT_GE(sim.now(), ticks_from_ns(10.0));
}

TEST_F(XbarFixture, BoundedQueueBackpressuresAndRecovers)
{
    params.queue_capacity = 2;
    Xbar xbar(sim, "xbar", params);
    MockRequestor cpu("cpu");
    MockResponder memory("mem");
    cpu.port().bind(xbar.add_upstream("cpu"));
    xbar.add_downstream("mem", AddrRange(0, kMiB)).bind(memory.port());
    sim.startup();

    int accepted = 0;
    for (int i = 0; i < 5; ++i) {
        auto p = Packet::make_read(static_cast<Addr>(i) * 64, 4);
        if (!cpu.port().send_req(p)) {
            break;
        }
        ++accepted;
    }
    EXPECT_EQ(accepted, 2);
    test::drain(sim);
    EXPECT_GE(cpu.req_retries, 1u);
    EXPECT_EQ(memory.requests.size(), 2u);
}

struct RecordingSnooper : Snooper {
    void snoop_invalidate(Addr addr, std::uint32_t size) override
    {
        invalidations.push_back({addr, size});
    }
    void snoop_clean(Addr addr, std::uint32_t size) override
    {
        cleans.push_back({addr, size});
    }
    std::vector<std::pair<Addr, std::uint32_t>> invalidations;
    std::vector<std::pair<Addr, std::uint32_t>> cleans;
};

TEST_F(XbarFixture, CoherentBusDistributesSnoops)
{
    params.coherent = true;
    Xbar xbar(sim, "bus", params);
    MockRequestor cpu("cpu");
    MockRequestor io("io");
    MockResponder memory("mem");

    auto& cpu_up = xbar.add_upstream("cpu");
    auto& io_up = xbar.add_upstream("io");
    cpu.port().bind(cpu_up);
    io.port().bind(io_up);
    xbar.add_downstream("mem", AddrRange(0, kMiB)).bind(memory.port());

    RecordingSnooper cpu_snoop;
    RecordingSnooper io_snoop;
    xbar.register_snooper(cpu_snoop, cpu_up);
    xbar.register_snooper(io_snoop, io_up);
    sim.startup();

    // IO write: must invalidate the CPU snooper only (not reflect to IO).
    auto w = Packet::make_write(0x400, 64);
    ASSERT_TRUE(io.port().send_req(w));
    EXPECT_EQ(cpu_snoop.invalidations.size(), 1u);
    EXPECT_EQ(io_snoop.invalidations.size(), 0u);
    EXPECT_EQ(cpu_snoop.invalidations[0].first, 0x400u);

    // CPU read: demotes dirty lines elsewhere.
    auto r = Packet::make_read(0x800, 64);
    ASSERT_TRUE(cpu.port().send_req(r));
    EXPECT_EQ(io_snoop.cleans.size(), 1u);
    EXPECT_EQ(cpu_snoop.cleans.size(), 0u);
    test::drain(sim);
}

TEST_F(XbarFixture, UncacheableTrafficSkipsSnoops)
{
    params.coherent = true;
    Xbar xbar(sim, "bus", params);
    MockRequestor cpu("cpu");
    MockRequestor io("io");
    MockResponder memory("mem");
    auto& cpu_up = xbar.add_upstream("cpu");
    auto& io_up = xbar.add_upstream("io");
    cpu.port().bind(cpu_up);
    io.port().bind(io_up);
    xbar.add_downstream("mem", AddrRange(0, kMiB)).bind(memory.port());
    RecordingSnooper cpu_snoop;
    xbar.register_snooper(cpu_snoop, cpu_up);
    sim.startup();

    auto w = Packet::make_write(0x400, 64);
    w->flags.uncacheable = true;
    ASSERT_TRUE(io.port().send_req(w));
    EXPECT_EQ(cpu_snoop.invalidations.size(), 0u);
    test::drain(sim);
}

TEST_F(XbarFixture, SnooperMustBeRegisteredOnOwnPort)
{
    Xbar xbar(sim, "bus", params);
    MockRequestor cpu("cpu");
    cpu.port().bind(xbar.add_upstream("cpu"));

    Xbar other(sim, "other", params);
    MockRequestor foreign("foreign");
    auto& foreign_up = other.add_upstream("x");
    foreign.port().bind(foreign_up);

    RecordingSnooper snoop;
    EXPECT_THROW(xbar.register_snooper(snoop, foreign_up), ConfigError);
}

// --- address-range routing --------------------------------------------------
// Every request goes to the downstream port whose range claims it, else to
// the default port: alternating targets, ports added after traffic has
// flowed, and addresses no range claims.

TEST_F(XbarFixture, AlternatingTargetsRouteExactly)
{
    Xbar xbar(sim, "xbar", params);
    MockRequestor cpu("cpu");
    MockResponder memA("memA");
    MockResponder memB("memB");
    cpu.port().bind(xbar.add_upstream("cpu"));
    xbar.add_downstream("a", AddrRange(0, 0x1000)).bind(memA.port());
    xbar.add_downstream("b", AddrRange(0x1000, 0x2000)).bind(memB.port());
    sim.startup();

    // A, B, A, B, A: every request reaches its own range's port.
    for (int i = 0; i < 5; ++i) {
        auto p = Packet::make_read(i % 2 == 0 ? 0x10 : 0x1800, 4);
        ASSERT_TRUE(cpu.port().send_req(p));
        test::drain(sim);
    }
    EXPECT_EQ(memA.requests.size(), 3u);
    EXPECT_EQ(memB.requests.size(), 2u);
}

TEST_F(XbarFixture, LatePortAdditionClaimsItsRange)
{
    Xbar xbar(sim, "xbar", params);
    MockRequestor cpu("cpu");
    MockResponder memA("memA");
    MockResponder late("late");
    MockResponder fallback("fallback");
    cpu.port().bind(xbar.add_upstream("cpu"));
    xbar.add_downstream("a", AddrRange(0, 0x1000)).bind(memA.port());
    xbar.add_default_downstream("dflt").bind(fallback.port());
    sim.startup();

    // One request to range A, and one to an unclaimed address, which
    // reaches the default port.
    auto p1 = Packet::make_read(0x20, 4);
    auto p2 = Packet::make_read(0x5000, 4);
    ASSERT_TRUE(cpu.port().send_req(p1));
    ASSERT_TRUE(cpu.port().send_req(p2));
    test::drain(sim);
    EXPECT_EQ(memA.requests.size(), 1u);
    EXPECT_EQ(fallback.requests.size(), 1u);

    // Add a port claiming the formerly-default address: the same address
    // now routes to the new port.
    xbar.add_downstream("late", AddrRange(0x5000, 0x6000)).bind(late.port());
    auto p3 = Packet::make_read(0x5000, 4);
    auto p4 = Packet::make_read(0x20, 4); // range A still routes to A
    ASSERT_TRUE(cpu.port().send_req(p3));
    ASSERT_TRUE(cpu.port().send_req(p4));
    test::drain(sim);
    EXPECT_EQ(late.requests.size(), 1u);
    EXPECT_EQ(fallback.requests.size(), 1u); // unchanged
    EXPECT_EQ(memA.requests.size(), 2u);
}

TEST_F(XbarFixture, OverlappingRangesStillRejectedAtStartup)
{
    // Routing takes the first range that claims an address, which names
    // one port only when the ranges are disjoint; make sure overlap keeps
    // failing loudly.
    Xbar xbar(sim, "xbar", params);
    MockRequestor cpu("cpu");
    MockResponder memA("memA");
    MockResponder memB("memB");
    cpu.port().bind(xbar.add_upstream("cpu"));
    xbar.add_downstream("a", AddrRange(0, 0x1000)).bind(memA.port());
    xbar.add_downstream("b", AddrRange(0x800, 0x1800)).bind(memB.port());
    EXPECT_THROW(sim.startup(), ConfigError);
}

} // namespace
} // namespace accesys::mem
