// Tests for TLPs, PCIe generations and the credit-gated link model.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>

#include "pcie/link.hh"
#include "sim/fault_injector.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace accesys::pcie {
namespace {

TEST(Tlp, FactoriesAndPayloadRules)
{
    auto rd = make_mem_read(0x1000, 256, 7, 3);
    EXPECT_EQ(rd->type, TlpType::mem_read);
    EXPECT_FALSE(rd->has_payload());
    EXPECT_EQ(rd->payload_bytes(), 0u); // MRd carries no data on the wire
    EXPECT_EQ(rd->length, 256u);
    EXPECT_EQ(rd->tag, 7);
    EXPECT_EQ(rd->requester, 3);

    auto wr = make_mem_write(0x2000, 128, 3);
    EXPECT_EQ(wr->payload_bytes(), 128u);

    auto cpl = make_completion(64, 7, 3, 192, true);
    EXPECT_EQ(cpl->byte_offset, 192u);
    EXPECT_TRUE(cpl->is_last);
    EXPECT_EQ(cpl->payload_bytes(), 64u);
}

TEST(TlpPool, RecyclesStorageAndResetsState)
{
    TlpPool pool;
    const Tlp* first = nullptr;
    {
        auto t = pool.make_completion(64, 9, 2, 128, false);
        first = t.get();
        const std::uint64_t v = 0xFEED;
        t->set_data(&v, sizeof(v));
    }
    EXPECT_EQ(pool.allocs_total(), 1u);
    EXPECT_EQ(pool.free_count(), 1u);

    auto u = pool.make_mem_read(0x40, 64, 1, 1);
    EXPECT_EQ(u.get(), first);
    EXPECT_EQ(pool.allocs_total(), 1u);
    EXPECT_FALSE(u->has_data());
    EXPECT_EQ(u->byte_offset, 0u);
    EXPECT_TRUE(u->is_last);
    EXPECT_EQ(u->type, TlpType::mem_read);
}

TEST(TlpPool, DataOverflowThrows)
{
    auto t = make_mem_write(0, 64, 1);
    std::vector<std::uint8_t> big(Tlp::kMaxInlineData + 1, 1);
    EXPECT_THROW(t->set_data(big.data(), big.size()), SimError);
}

TEST(Tlp, DescribeMentionsType)
{
    auto cpl = make_completion(64, 7, 3, 0, false);
    EXPECT_NE(cpl->describe().find("CplD"), std::string::npos);
    auto rd = make_mem_read(0x10, 64, 1, 2);
    EXPECT_NE(rd->describe().find("MRd"), std::string::npos);
}

TEST(Gen, EncodingEfficiency)
{
    EXPECT_DOUBLE_EQ(encoding_efficiency(Gen::gen1), 0.8);
    EXPECT_DOUBLE_EQ(encoding_efficiency(Gen::gen2), 0.8);
    EXPECT_DOUBLE_EQ(encoding_efficiency(Gen::gen3), 128.0 / 130.0);
    EXPECT_GT(encoding_efficiency(Gen::gen6), 0.9);
}

TEST(LinkParams, EffectiveBandwidth)
{
    LinkParams p; // gen2, 4 lanes, 4 Gb/s
    EXPECT_NEAR(p.effective_gbps(), 4 * 4 * 0.8 / 8.0, 1e-9); // 1.6 GB/s
    p.gen = Gen::gen3;
    p.lanes = 16;
    p.lane_gbps = 8;
    EXPECT_NEAR(p.effective_gbps(), 16 * 8 * (128.0 / 130.0) / 8.0, 1e-9);
}

TEST(LinkParams, SerializeTicks)
{
    LinkParams p = LinkParams::from_target_gbps(1.0); // 1 GB/s effective
    EXPECT_NEAR(static_cast<double>(p.serialize_ticks(1000)), 1000.0 * 1000,
                2000); // ~1 us for 1000 B
}

TEST(LinkParams, FromTargetRoundTrips)
{
    for (const double gbps : {0.5, 2.0, 8.0, 64.0}) {
        const auto p = LinkParams::from_target_gbps(gbps);
        EXPECT_NEAR(p.effective_gbps(), gbps, 1e-9);
    }
}

TEST(LinkParams, Validation)
{
    LinkParams p;
    p.lanes = 3;
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.lane_gbps = 0;
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.hdr_credits = 0;
    EXPECT_THROW(p.validate(), ConfigError);
}

/// Node that records received TLPs and can release their ingress cost.
struct RecordingNode : PcieNode {
    PciePort* port = nullptr;
    Simulator* sim = nullptr;
    std::vector<TlpPtr> received;
    std::vector<Tick> arrival_ticks;
    bool auto_release = true;
    int credit_notifications = 0;

    void recv_tlp(unsigned, TlpPtr tlp) override
    {
        arrival_ticks.push_back(sim->now());
        if (auto_release) {
            port->release_ingress(tlp->payload_bytes());
        }
        received.push_back(std::move(tlp));
    }

    void credit_avail(unsigned) override { ++credit_notifications; }
};

struct LinkFixture : ::testing::Test {
    Simulator sim;
    LinkParams params;
    RecordingNode node_a;
    RecordingNode node_b;

    std::unique_ptr<PcieLink> make()
    {
        auto link = std::make_unique<PcieLink>(sim, "link", params);
        node_a.port = &link->end_a();
        node_b.port = &link->end_b();
        node_a.sim = node_b.sim = &sim;
        link->end_a().attach(node_a, 0);
        link->end_b().attach(node_b, 0);
        return link;
    }

    void drain() { sim.run(); }
};

TEST_F(LinkFixture, DeliversAfterSerializationAndPropagation)
{
    params = LinkParams::from_target_gbps(1.0); // 1 byte/ns
    params.propagation_delay_ns = 10.0;
    params.tlp_overhead_bytes = 24;
    auto link = make();

    auto tlp = make_mem_write(0x0, 100, 1);
    ASSERT_TRUE(link->end_a().can_send(*tlp));
    link->end_a().send(std::move(tlp));
    drain();
    ASSERT_EQ(node_b.received.size(), 1u);
    // 124 wire bytes at 1 B/ns + 10 ns propagation.
    EXPECT_NEAR(ticks_to_ns(node_b.arrival_ticks[0]), 134.0, 2.0);
    EXPECT_EQ(node_a.received.size(), 0u);
}

TEST_F(LinkFixture, FifoOrderPreserved)
{
    auto link = make();
    for (int i = 0; i < 5; ++i) {
        link->end_a().send(make_mem_write(static_cast<Addr>(i), 64, 1));
    }
    drain();
    ASSERT_EQ(node_b.received.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(node_b.received[i]->addr, static_cast<Addr>(i));
    }
}

TEST_F(LinkFixture, BackToBackSerializationAccumulates)
{
    params = LinkParams::from_target_gbps(1.0);
    params.propagation_delay_ns = 0.0;
    params.tlp_overhead_bytes = 0;
    auto link = make();
    link->end_a().send(make_mem_write(1, 100, 1));
    link->end_a().send(make_mem_write(2, 100, 1));
    drain();
    ASSERT_EQ(node_b.received.size(), 2u);
    EXPECT_NEAR(ticks_to_ns(node_b.arrival_ticks[0]), 100.0, 1.0);
    EXPECT_NEAR(ticks_to_ns(node_b.arrival_ticks[1]), 200.0, 1.0);
}

TEST_F(LinkFixture, FullDuplexDirectionsIndependent)
{
    params = LinkParams::from_target_gbps(1.0);
    auto link = make();
    link->end_a().send(make_mem_write(1, 4096, 1));
    link->end_b().send(make_mem_write(2, 64, 1));
    drain();
    ASSERT_EQ(node_b.received.size(), 1u);
    ASSERT_EQ(node_a.received.size(), 1u);
    // The small b->a TLP must not wait behind the big a->b one.
    EXPECT_LT(node_a.arrival_ticks[0], node_b.arrival_ticks[0]);
}

TEST_F(LinkFixture, CreditsBlockWhenIngressHeld)
{
    params.hdr_credits = 2;
    params.data_credit_bytes = 4 * kKiB;
    auto link = make();
    node_b.auto_release = false; // B hoards its ingress buffer

    auto t1 = make_mem_write(1, 64, 1);
    auto t2 = make_mem_write(2, 64, 1);
    auto t3 = make_mem_write(3, 64, 1);
    link->end_a().send(std::move(t1));
    link->end_a().send(std::move(t2));
    EXPECT_FALSE(link->end_a().can_send(*t3)); // header credits exhausted
    drain();
    EXPECT_EQ(node_b.received.size(), 2u);

    // Release one: credits return after the propagation delay.
    node_b.port->release_ingress(64);
    drain();
    EXPECT_TRUE(link->end_a().can_send(*t3));
    EXPECT_GE(node_a.credit_notifications, 1);
}

TEST_F(LinkFixture, DataCreditsTrackPayloadBytes)
{
    params.hdr_credits = 64;
    params.data_credit_bytes = 256;
    auto link = make();
    node_b.auto_release = false;

    link->end_a().send(make_mem_write(1, 256, 1));
    auto more = make_mem_write(2, 64, 1);
    EXPECT_FALSE(link->end_a().can_send(*more)); // data credits gone
    auto read = make_mem_read(3, 4096, 0, 1);
    EXPECT_TRUE(link->end_a().can_send(*read)); // MRd needs no data credits
    drain();
}

TEST_F(LinkFixture, SendWithoutCreditsPanics)
{
    params.hdr_credits = 1;
    auto link = make();
    node_b.auto_release = false;
    link->end_a().send(make_mem_write(1, 64, 1));
    EXPECT_THROW(link->end_a().send(make_mem_write(2, 64, 1)), SimError);
    drain();
}

TEST_F(LinkFixture, SameTickProbeCannotSwallowStarvedKick)
{
    // Lost-wakeup regression for lazy credit accounting: a sender starves
    // (credit kick armed), and at the exact tick the credit return
    // arrives, an earlier-dispatched event probes can_send() on the same
    // direction — harvesting the matured return inline — and still fails.
    // The credit event then fires having granted nothing; it must still
    // deliver credit_avail() to the starved node, or the staged TLP
    // strands forever.
    params.hdr_credits = 1;
    params.data_credit_bytes = 16 * kKiB;

    struct QueuedSender : PcieNode {
        TlpQueue q;
        explicit QueuedSender(PciePort& p) : q(p) {}
        void recv_tlp(unsigned, TlpPtr) override {}
        void credit_avail(unsigned) override { q.kick(); }
    };
    Simulator sim2;
    auto link2 = std::make_unique<PcieLink>(sim2, "link2", params);
    QueuedSender tx2(link2->end_a());
    RecordingNode rx2;
    rx2.sim = &sim2;
    rx2.port = &link2->end_b();
    rx2.auto_release = false;
    link2->end_a().attach(tx2, 0);
    link2->end_b().attach(rx2, 0);

    tx2.q.push(make_mem_write(1, 64, 1)); // consumes the only hdr credit
    tx2.q.push(make_mem_write(2, 64, 1)); // starves; kick armed on demand
    ASSERT_EQ(tx2.q.size(), 1u);

    const Tick t_rel = 200000; // after TLP1 delivery
    const Tick t_arr = t_rel + ticks_from_ns(params.propagation_delay_ns);
    // Scheduled *before* the release, so at t_arr it dispatches before the
    // credit event and its failing probe harvests the matured return.
    Event probe("probe", [&] {
        auto big = make_mem_write(3, 32 * kKiB, 1); // exceeds data credits
        EXPECT_FALSE(link2->end_a().can_send(*big));
    });
    sim2.queue().schedule(probe, t_arr);
    Event releaser("releaser", [&] { rx2.port->release_ingress(64); });
    sim2.queue().schedule(releaser, t_rel);

    sim2.run();
    EXPECT_EQ(rx2.received.size(), 2u)
        << "starved sender never got its credit kick";
    EXPECT_TRUE(tx2.q.empty());
}

/// Randomized reference model of the link's credit accounting. Both ends
/// send seeded random TLPs, both receivers hold their ingress buffer and
/// release it at random ticks, and random probes read both transmit
/// balances. Per transmit side the model is the advertised buffer, minus
/// what that side sent, plus every return whose arrival (release tick plus
/// propagation) is at or before now(). Probes are also aimed one tick
/// before, at and after a return's arrival, where an off-by-one shows.
/// The senders here never re-probe while starved, so only the link's
/// credit_avail() kick can unblock them: it must reach a starved sender by
/// the first tick at which the model admits its head TLP, never later, and
/// never reach a sender that is not starved.
class LinkCreditRandomized : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LinkCreditRandomized, MatchesReferenceModel)
{
    Rng rng(GetParam());
    Simulator sim;
    LinkParams params;
    params.hdr_credits = static_cast<unsigned>(rng.between(1, 6));
    params.data_credit_bytes = rng.between(1, 8) * 64;
    params.propagation_delay_ns = static_cast<double>(rng.between(1, 20));
    PcieLink link(sim, "link", params);
    const Tick prop = ticks_from_ns(params.propagation_delay_ns);
    PciePort* const ends[2] = {&link.end_a(), &link.end_b()};

    struct Node : PcieNode {
        std::function<void(TlpPtr)> on_recv;
        std::function<void()> on_credit;
        void recv_tlp(unsigned, TlpPtr tlp) override
        {
            on_recv(std::move(tlp));
        }
        void credit_avail(unsigned) override { on_credit(); }
    };
    struct Return {
        Tick arrival;
        std::uint64_t data;
    };
    // One per link end: its transmitter's model and staging, and its
    // receiver's held ingress. `returns` are credits coming back to this
    // end's transmitter, freed by the other end's receiver.
    struct Side {
        std::int64_t sent_hdr = 0;
        std::int64_t sent_data = 0;
        std::vector<Return> returns;
        std::deque<TlpPtr> staged;
        bool starved = false; ///< a probe failed; no kick since
        Tick starved_at = 0;
        std::vector<TlpPtr> held; ///< unreleased ingress
        std::size_t received = 0;
    };
    Side tx[2];
    Node nodes[2];

    // Model balance of side s's transmitter at tick t (t >= its last send).
    const auto balance = [&](unsigned s, Tick t) {
        std::int64_t hdr = params.hdr_credits - tx[s].sent_hdr;
        auto data =
            static_cast<std::int64_t>(params.data_credit_bytes) -
            tx[s].sent_data;
        for (const Return& r : tx[s].returns) {
            if (r.arrival <= t) {
                ++hdr;
                data += static_cast<std::int64_t>(r.data);
            }
        }
        return std::pair{hdr, data};
    };
    const auto admits = [&](unsigned s, Tick t, const Tlp& tlp) {
        const auto [hdr, data] = balance(s, t);
        return hdr >= 1 && data >= tlp.payload_bytes();
    };
    // First tick after a starved side's failed probe at which the model
    // admits its head (kMaxTick: not yet). Its balance only grows while
    // starved: it sends nothing until the kick.
    const auto first_admit = [&](unsigned s) {
        std::vector<Tick> ticks;
        for (const Return& r : tx[s].returns) {
            if (r.arrival > tx[s].starved_at) {
                ticks.push_back(r.arrival);
            }
        }
        std::sort(ticks.begin(), ticks.end());
        for (const Tick t : ticks) {
            if (admits(s, t, *tx[s].staged.front())) {
                return t;
            }
        }
        return kMaxTick;
    };
    const auto check_not_late = [&](unsigned s) {
        if (tx[s].starved) {
            EXPECT_GE(first_admit(s), sim.now())
                << "side " << s << " starved since " << tx[s].starved_at
                << ": credit_avail() missed the first admitting tick";
        }
    };

    const auto try_send = [&](unsigned s) {
        while (!tx[s].staged.empty()) {
            const Tlp& head = *tx[s].staged.front();
            const bool ok = ends[s]->can_send(head);
            EXPECT_EQ(ok, admits(s, sim.now(), head))
                << "side " << s << " probe at tick " << sim.now();
            if (!ok) {
                tx[s].starved = true;
                tx[s].starved_at = sim.now();
                return;
            }
            ++tx[s].sent_hdr;
            tx[s].sent_data += head.payload_bytes();
            ends[s]->send(std::move(tx[s].staged.front()));
            tx[s].staged.pop_front();
        }
    };

    std::deque<Event> events;
    const auto at = [&](Tick t, std::string name, std::function<void()> fn) {
        events.emplace_back(std::move(name), std::move(fn));
        sim.queue().schedule(events.back(), t);
    };
    std::size_t probes = 0;
    const auto probe = [&] {
        ++probes;
        for (unsigned s = 0; s < 2; ++s) {
            const auto [hdr, data] = balance(s, sim.now());
            EXPECT_EQ(static_cast<std::int64_t>(ends[s]->hdr_credits()), hdr)
                << "side " << s << " at tick " << sim.now();
            EXPECT_EQ(static_cast<std::int64_t>(ends[s]->data_credits()),
                      data)
                << "side " << s << " at tick " << sim.now();
            check_not_late(s);
        }
    };
    // Node r frees its ingress slot `idx`: the credits travel back to the
    // peer's transmitter.
    const auto release = [&](unsigned r, std::size_t idx) {
        const std::uint32_t bytes = tx[r].held[idx]->payload_bytes();
        tx[r].held.erase(tx[r].held.begin() +
                         static_cast<std::ptrdiff_t>(idx));
        const Tick arrival = sim.now() + prop;
        tx[1 - r].returns.push_back(Return{arrival, bytes});
        ends[r]->release_ingress(bytes);
        if (rng.chance(0.5)) {
            at(arrival - 1 + rng.below(3), "edge_probe", probe);
        }
    };

    bool draining = false;
    std::size_t kicks = 0;
    std::size_t starvations = 0;
    for (unsigned s = 0; s < 2; ++s) {
        ends[s]->attach(nodes[s], 0);
        nodes[s].on_recv = [&, s](TlpPtr tlp) {
            ++tx[s].received;
            tx[s].held.push_back(std::move(tlp));
            if (draining) {
                release(s, 0);
            }
        };
        nodes[s].on_credit = [&, s] {
            ++kicks;
            EXPECT_TRUE(tx[s].starved)
                << "credit_avail() on side " << s << " at tick " << sim.now()
                << ", which was not starved";
            check_not_late(s);
            tx[s].starved = false;
            try_send(s);
        };
    }

    const Tick horizon = 40 * kTicksPerUs;
    std::size_t sent_total = 0;
    for (int i = 0; i < 400; ++i) {
        const auto s = static_cast<unsigned>(rng.below(2));
        const auto payload = static_cast<std::uint32_t>(
            rng.below(3) == 0 ? 0 : rng.between(1, params.data_credit_bytes));
        ++sent_total;
        at(rng.below(horizon), "send", [&, s, payload, i] {
            TlpPtr tlp = payload == 0
                             ? make_mem_read(static_cast<Addr>(i), 64, 0, 1)
                             : make_mem_write(static_cast<Addr>(i), payload, 1);
            const bool was_idle = tx[s].staged.empty();
            tx[s].staged.push_back(std::move(tlp));
            if (was_idle) {
                try_send(s);
                starvations += tx[s].starved ? 1 : 0;
            }
        });
    }
    for (int i = 0; i < 300; ++i) {
        const auto r = static_cast<unsigned>(rng.below(2));
        at(rng.below(horizon), "release", [&, r] {
            for (auto k = rng.between(1, 3); k > 0 && !tx[r].held.empty();
                 --k) {
                release(r, rng.below(tx[r].held.size()));
            }
        });
        at(rng.below(horizon), "probe", probe);
    }
    at(horizon, "drain", [&] {
        draining = true;
        for (unsigned r = 0; r < 2; ++r) {
            while (!tx[r].held.empty()) {
                release(r, 0);
            }
        }
    });
    sim.run();
    // Lazy returns schedule no event: let the last ones arrive.
    at(sim.now() + prop, "settle", [] {});
    sim.run();

    // Everything sent arrived, nobody is left stranded, and every credit
    // is home.
    EXPECT_EQ(tx[0].received + tx[1].received, sent_total);
    for (unsigned s = 0; s < 2; ++s) {
        EXPECT_TRUE(tx[s].staged.empty()) << "side " << s << " stranded";
        EXPECT_FALSE(tx[s].starved) << "side " << s << " never kicked";
        EXPECT_EQ(ends[s]->hdr_credits(), params.hdr_credits);
        EXPECT_EQ(ends[s]->data_credits(), params.data_credit_bytes);
    }
    probe();
    // The run exercised what it checks.
    EXPECT_GT(starvations, 0u);
    EXPECT_GT(kicks, 0u);
    EXPECT_GT(probes, 300u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkCreditRandomized,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

TEST_F(LinkFixture, OneShotCorruptionIsReplayedNeverSilentlyDelivered)
{
    // An explicit corrupt_tlp event hits the first TLP transmitted at or
    // after its tick; the receiver drops and NAKs it, and the transmitter
    // replays from its buffer — exactly one delivery, no dead TLP.
    FaultPlan plan;
    FaultEvent ev;
    ev.kind = FaultKind::corrupt_tlp;
    ev.site = "link";
    ev.dir = 0; // a -> b
    ev.at_ns = 0.0;
    plan.events.push_back(ev);
    FaultInjector fi(plan);
    sim.set_fault_injector(&fi);
    auto link = make();

    link->end_a().send(make_mem_write(0x10, 64, 1));
    drain();

    ASSERT_EQ(node_b.received.size(), 1u);
    EXPECT_EQ(node_b.received[0]->addr, 0x10u);
    EXPECT_EQ(sim.stats().value("link.link_corrupted_tlps"), 1.0);
    EXPECT_EQ(sim.stats().value("link.link_nak_count"), 1.0);
    EXPECT_EQ(sim.stats().value("link.link_replays"), 1.0);
    EXPECT_EQ(sim.stats().value("link.link_dead_tlps"), 0.0);
    EXPECT_GT(sim.stats().value("link.recovery_ns"), 0.0);
}

TEST_F(LinkFixture, ReplayBufferExhaustionBackpressuresUntilAcked)
{
    // A full replay buffer must back-pressure the transmitter exactly like
    // credit starvation — can_send() fails even with link credits free —
    // and release it once cumulative ACKs retire entries.
    FaultPlan plan;
    plan.replay_buffer_tlps = 2;
    FaultEvent ev; // activates the plan; the site never matches this link
    ev.kind = FaultKind::corrupt_tlp;
    ev.site = "elsewhere";
    plan.events.push_back(ev);
    FaultInjector fi(plan);
    sim.set_fault_injector(&fi);
    params.hdr_credits = 64; // credits are NOT the bottleneck here
    auto link = make();

    link->end_a().send(make_mem_write(1, 64, 1));
    link->end_a().send(make_mem_write(2, 64, 1));
    auto t3 = make_mem_write(3, 64, 1);
    EXPECT_FALSE(link->end_a().can_send(*t3))
        << "two un-ACKed TLPs must fill the depth-2 replay buffer";
    drain(); // deliveries + DLL ACKs retire both entries

    EXPECT_TRUE(link->end_a().can_send(*t3));
    link->end_a().send(std::move(t3));
    drain();
    ASSERT_EQ(node_b.received.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(node_b.received[i]->addr, static_cast<Addr>(i + 1));
    }
    EXPECT_EQ(sim.stats().value("link.link_replays"), 0.0);
    EXPECT_EQ(sim.stats().value("link.link_dead_tlps"), 0.0);
    EXPECT_GE(node_a.credit_notifications, 1)
        << "the starved sender never got its replay-buffer kick";
}

TEST_F(LinkFixture, NakStormEscalatesToLinkFailureWithoutWedging)
{
    // corrupt_rate = 1.0: every transmission — including every replay —
    // is corrupted, so the receiver NAK-storms and the replay budget runs
    // out. The direction latches link-failed: the TLP dies, its credits
    // are synthesized back, and later sends fast-fail instead of wedging.
    FaultPlan plan;
    plan.seed = 3;
    plan.corrupt_rate = 1.0;
    plan.max_replays = 2;
    plan.replay_timeout_ns = 1000.0;
    FaultInjector fi(plan);
    sim.set_fault_injector(&fi);
    auto link = make();

    link->end_a().send(make_mem_write(1, 64, 1));
    drain(); // must terminate: a dead direction re-arms no replay timer

    EXPECT_EQ(node_b.received.size(), 0u)
        << "a corrupted TLP must never be delivered";
    EXPECT_EQ(sim.stats().value("link.link_dead_tlps"), 1.0);
    EXPECT_GE(sim.stats().value("link.link_nak_count"), 3.0)
        << "initial transmission plus both replays NAKed";
    EXPECT_EQ(sim.stats().value("link.link_replays"), 2.0);

    // The failed direction absorbs further traffic without throwing or
    // deadlocking: the TLP is swallowed, its credits synthesized back, and
    // the loss is left for transaction-layer timeouts to surface.
    ASSERT_TRUE(link->end_a().can_send(*make_mem_write(2, 64, 1)));
    link->end_a().send(make_mem_write(2, 64, 1));
    drain();
    EXPECT_EQ(node_b.received.size(), 0u);
    EXPECT_EQ(sim.stats().value("link.link_dead_tlps"), 2.0);
}

TEST_F(LinkFixture, UtilizationTracksBusyTime)
{
    params = LinkParams::from_target_gbps(1.0);
    auto link = make();
    link->end_a().send(make_mem_write(1, 1000, 1));
    drain();
    EXPECT_GT(link->utilization(0), 0.5);
    EXPECT_DOUBLE_EQ(link->utilization(1), 0.0);
}

TEST_F(LinkFixture, AttachTwicePanics)
{
    auto link = make();
    RecordingNode other;
    EXPECT_THROW(link->end_a().attach(other, 0), SimError);
}

} // namespace
} // namespace accesys::pcie
