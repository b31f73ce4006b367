// Unit and property tests for the discrete-event core.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event.hh"
#include "sim/random.hh"
#include "sim/ring_buffer.hh"
#include "sim/serialize.hh"
#include "sim/simulator.hh"

namespace accesys {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    Event a("a", [&] { order.push_back(1); });
    Event b("b", [&] { order.push_back(2); });
    Event c("c", [&] { order.push_back(3); });
    q.schedule(a, 30);
    q.schedule(b, 10);
    q.schedule(c, 20);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue q;
    std::vector<int> order;
    Event a("a", [&] { order.push_back(1); });
    Event b("b", [&] { order.push_back(2); });
    q.schedule(a, 5);
    q.schedule(b, 5);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue q;
    std::vector<int> order;
    Event late("late", [&] { order.push_back(1); }, kPrioLate);
    Event early("early", [&] { order.push_back(2); }, kPrioEarly);
    q.schedule(late, 5);
    q.schedule(early, 5);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueue, DescheduleSquashes)
{
    EventQueue q;
    int fired = 0;
    Event a("a", [&] { ++fired; });
    q.schedule(a, 10);
    q.deschedule(a);
    EXPECT_FALSE(a.scheduled());
    q.run();
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue q;
    Tick fired_at = 0;
    Event a("a", [&] { fired_at = q.now(); });
    q.schedule(a, 100);
    q.reschedule(a, 50);
    q.run();
    EXPECT_EQ(fired_at, 50u);
    EXPECT_EQ(q.events_processed(), 1u);
}

TEST(EventQueue, RescheduleAfterDescheduleWorks)
{
    EventQueue q;
    int fired = 0;
    Event a("a", [&] { ++fired; });
    q.schedule(a, 10);
    q.deschedule(a);
    q.schedule(a, 20);
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueue, SelfReschedulingEvent)
{
    EventQueue q;
    int count = 0;
    Event tick("tick", nullptr);
    tick.set_callback([&] {
        if (++count < 5) {
            q.schedule(tick, q.now() + 10);
        }
    });
    q.schedule(tick, 10);
    q.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, DoubleScheduleThrows)
{
    EventQueue q;
    Event a("a", [] {});
    q.schedule(a, 10);
    EXPECT_THROW(q.schedule(a, 20), SimError);
}

TEST(EventQueue, ScheduleInPastThrows)
{
    EventQueue q;
    Event a("a", [] {});
    Event b("b", [] {});
    q.schedule(a, 100);
    q.run();
    EXPECT_THROW(q.schedule(b, 50), SimError);
}

TEST(EventQueue, DescheduleIdleThrows)
{
    EventQueue q;
    Event a("a", [] {});
    EXPECT_THROW(q.deschedule(a), SimError);
}

TEST(EventQueue, RunHorizonStopsAndWarps)
{
    EventQueue q;
    int fired = 0;
    Event a("a", [&] { ++fired; });
    Event b("b", [&] { ++fired; });
    q.schedule(a, 10);
    q.schedule(b, 1000);
    q.run(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 100u);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventAtHorizonStillRuns)
{
    EventQueue q;
    int fired = 0;
    Event a("a", [&] { ++fired; });
    q.schedule(a, 100);
    q.run(100);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, NextEventNameAndTick)
{
    EventQueue q;
    Event a("alpha", [] {});
    EXPECT_EQ(q.next_event_tick(), kMaxTick);
    EXPECT_TRUE(q.next_event_name().empty());
    q.schedule(a, 42);
    EXPECT_EQ(q.next_event_tick(), 42u);
    EXPECT_EQ(q.next_event_name(), "alpha");
}

TEST(EventQueue, WarpRespectsPendingEvents)
{
    EventQueue q;
    Event a("a", [] {});
    q.schedule(a, 50);
    EXPECT_THROW(q.warp_to(60), SimError);
    q.warp_to(50);
    EXPECT_EQ(q.now(), 50u);
}

// Property: against a reference model ordered by (tick, priority,
// sequence), random schedule/deschedule/reschedule sequences must produce
// identical firing orders. Changes come both from outside before the run
// and from callbacks during it, at the current tick and later, across all
// three priorities. The drain() variant raises the stop flag while peers
// are still pending at the current tick, changes the schedule from
// outside, and resumes.
class EventQueueRandomized
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(EventQueueRandomized, MatchesReferenceModel)
{
    const auto [seed, use_drain] = GetParam();
    Rng rng(seed);
    EventQueue q;

    constexpr int kEvents = 64;
    constexpr int kPrios[] = {kPrioEarly, kPrioDefault, kPrioLate};
    using Key = std::tuple<Tick, int, std::uint64_t>;
    std::map<Key, int> model;
    std::uint64_t seq = 0;
    std::vector<std::map<Key, int>::iterator> live(kEvents, model.end());
    std::vector<std::unique_ptr<Event>> events;

    // Schedule, deschedule or reschedule `id` in both queue and model.
    const auto act = [&](int id, Tick when) {
        Event& ev = *events[id];
        if (ev.scheduled()) {
            model.erase(live[id]);
            live[id] = model.end();
            if (rng.below(2) == 0) {
                q.deschedule(ev);
                return;
            }
            q.reschedule(ev, when);
        } else if (when == q.now() && rng.below(2) == 0) {
            q.schedule_now(ev);
        } else {
            q.schedule(ev, when);
        }
        live[id] = model.insert({Key{when, ev.priority(), seq++}, id}).first;
    };
    int budget = 3000; // in-run changes left; bounds the run
    const auto act_in_run = [&] {
        if (budget == 0) {
            return;
        }
        --budget;
        const int id = static_cast<int>(rng.below(kEvents));
        act(id, rng.below(3) == 0 ? q.now() : q.now() + rng.between(1, 50));
    };

    std::vector<std::pair<Tick, int>> fired;    // (tick, id) dispatched
    std::vector<std::pair<Tick, int>> expected; // model head at dispatch
    std::atomic<bool> stop{false};
    int mid_tick_stops = 0;
    for (int i = 0; i < kEvents; ++i) {
        events.push_back(std::make_unique<Event>(
            std::to_string(i),
            [&, i] {
                ASSERT_FALSE(model.empty());
                expected.push_back(
                    {std::get<0>(model.begin()->first), model.begin()->second});
                fired.push_back({q.now(), i});
                ASSERT_NE(live[i], model.end());
                model.erase(live[i]);
                live[i] = model.end();
                for (auto k = rng.below(4); k > 0; --k) {
                    act_in_run();
                }
                if (use_drain && rng.below(4) == 0 && !model.empty() &&
                    std::get<0>(model.begin()->first) == q.now()) {
                    stop = true;
                    ++mid_tick_stops;
                }
            },
            kPrios[i % 3]));
    }

    for (int step = 0; step < 500; ++step) {
        act(static_cast<int>(rng.below(kEvents)), rng.between(1, 1000));
    }

    std::uint64_t n = 0;
    if (use_drain) {
        while (q.drain(kMaxTick, stop, n) ==
               EventQueue::DrainOutcome::stopped) {
            stop = false;
            act_in_run();
        }
        EXPECT_GT(mid_tick_stops, 0);
    } else {
        n = q.run();
    }

    EXPECT_EQ(n, fired.size());
    EXPECT_EQ(budget, 0);
    EXPECT_EQ(fired, expected);
    EXPECT_TRUE(model.empty());
    EXPECT_TRUE(q.empty());
    // Up to kEvents live entries overflow the near window, so both overflow
    // paths ran: entries pushed to the heap, and window entries spilled to
    // it by an earlier arrival into a full window. A spill is the one
    // schedule counted both as a window hit and as a heap push.
    EXPECT_GT(q.heap_pushes(), 0u);
    EXPECT_GT(q.heap_pushes() + q.near_ring_hits(), q.events_scheduled());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EventQueueRandomized,
    ::testing::Combine(::testing::Values(1, 2, 3, 17, 99, 12345),
                       ::testing::Bool()));

// Restore re-inserts every pending event through the heap. With more live
// events than the near window holds, the resumed run must still dispatch
// in the uninterrupted run's exact order.
TEST(EventQueue, RestoreWithOverflowedWindowMatchesStraightRun)
{
    constexpr int kLive = 48;
    constexpr Tick kMid = 2000;
    constexpr Tick kEnd = 5000;
    static constexpr int kPrios[] = {kPrioEarly, kPrioDefault, kPrioLate};
    using Log = std::vector<std::pair<Tick, int>>;

    // kLive self-rescheduling events; event i's k-th delay is a pure
    // function of (i, k), so the fire counts are the whole model state.
    struct Model {
        EventQueue q;
        std::vector<std::unique_ptr<Event>> events;
        std::vector<std::uint64_t> fires = std::vector<std::uint64_t>(kLive);
        Log log;

        Model()
        {
            for (int i = 0; i < kLive; ++i) {
                events.push_back(std::make_unique<Event>(
                    std::to_string(i),
                    [this, i] {
                        log.push_back({q.now(), i});
                        const std::uint64_t h =
                            (static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ULL) ^
                            (++fires[i] * 0xBF58476D1CE4E5B9ULL);
                        q.schedule_in(*events[i], 1 + (h >> 59));
                    },
                    kPrios[i % 3]));
            }
        }
        void start()
        {
            for (int i = 0; i < kLive; ++i) {
                q.schedule(*events[i], 1 + static_cast<Tick>(i % 7));
            }
        }
        void serialize(Ckpt& ar)
        {
            ar.begin_section("clock");
            q.serialize_clock(ar);
            ar.end_section();
            ar.begin_section("events");
            for (auto& ev : events) {
                ev->serialize(ar, q);
            }
            ar.pod_vec(fires);
            ar.end_section();
            ar.begin_section("counters");
            q.serialize_counters(ar);
            ar.end_section();
        }
    };

    Model straight;
    straight.start();
    straight.q.run(kMid);
    straight.q.run(kEnd);

    const std::string path = ::testing::TempDir() + "event_queue.ckpt";
    Model before;
    before.start();
    before.q.run(kMid);
    ASSERT_GT(before.q.live_event_count(), 32u);
    {
        Ckpt ar;
        before.serialize(ar);
        ar.write_file(path, 0);
    }
    Model after;
    after.q.restore_begin();
    {
        Ckpt ar = Ckpt::load_file(path, 0);
        after.serialize(ar);
    }
    std::remove(path.c_str());
    ASSERT_TRUE(after.q.restore_complete());
    after.q.run(kEnd);

    Log resumed = before.log;
    resumed.insert(resumed.end(), after.log.begin(), after.log.end());
    EXPECT_EQ(resumed, straight.log);
    EXPECT_EQ(after.q.now(), straight.q.now());
    EXPECT_EQ(after.q.events_processed(), straight.q.events_processed());
}

TEST(EventQueue, ScheduleNowRunsAfterCurrentEvent)
{
    EventQueue q;
    std::vector<int> order;
    Event b("b", [&] { order.push_back(2); });
    Event c("c", [&] { order.push_back(3); });
    Event a("a", [&] {
        order.push_back(1);
        q.schedule_now(b); // same tick, runs after already-queued peers
    });
    q.schedule(a, 10);
    q.schedule(c, 10);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, CachedTopSurvivesInterleavedScheduling)
{
    // Regression shape: after an event executes (cache empty), scheduling a
    // LATER event than a live entry still in the heap must not let the new
    // entry overtake it.
    EventQueue q;
    std::vector<int> order;
    Event late("late", [&] { order.push_back(3); });
    Event mid("mid", [&] { order.push_back(2); });
    Event first("first", [&] {
        order.push_back(1);
        q.schedule(late, 30); // heap holds mid@20; 30 must not be cached
    });
    q.schedule(first, 10);
    q.schedule(mid, 20);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// A schedule later than every entry of a partly full window becomes its
// new latest entry: the whole window shifts up a slot, and later inserts
// into the middle must still see every entry in order.
TEST(EventQueue, ScheduleLaterThanWholeWindowKeepsOrder)
{
    EventQueue q;
    std::vector<Tick> fired;
    std::vector<std::unique_ptr<Event>> events;
    const auto add = [&](Tick when) {
        events.push_back(std::make_unique<Event>(
            std::to_string(when), [&] { fired.push_back(q.now()); }));
        q.schedule(*events.back(), when);
    };
    for (const Tick when : {10, 30, 50, 70}) { // each later than the window
        add(when);
    }
    for (const Tick when : {60, 20, 40, 5, 80}) {
        add(when);
    }
    EXPECT_EQ(q.next_event_tick(), 5u);
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{5, 10, 20, 30, 40, 50, 60, 70, 80}));
    EXPECT_EQ(q.heap_pushes(), 0u);
    EXPECT_EQ(q.near_ring_hits(), q.events_scheduled());
}

// Filling the window in tick order and then inserting into its middle
// spills the window's latest entry to the heap; the dispatch order must
// still be the sorted order of every key.
TEST(EventQueue, FullWindowSpillThenMiddleInsertMatchesSortedOrder)
{
    EventQueue q;
    std::vector<Tick> fired;
    std::vector<Tick> reference;
    std::vector<std::unique_ptr<Event>> events;
    const auto add = [&](Tick when) {
        events.push_back(std::make_unique<Event>(
            std::to_string(when), [&] { fired.push_back(q.now()); }));
        q.schedule(*events.back(), when);
        reference.push_back(when);
    };
    for (Tick when = 100; when <= 4000; when += 100) { // overfills the window
        add(when);
    }
    const std::uint64_t pushes_before = q.heap_pushes();
    EXPECT_GT(pushes_before, 0u);
    add(1650); // window full: spills its latest entry, lands in the middle
    EXPECT_EQ(q.heap_pushes(), pushes_before + 1);
    for (const Tick when : {1550, 50, 3150, 2450, 120}) {
        add(when);
    }
    q.run();
    std::sort(reference.begin(), reference.end());
    EXPECT_EQ(fired, reference);
    EXPECT_GT(q.heap_pushes() + q.near_ring_hits(), q.events_scheduled());
}

// An entry is live only while its sequence matches the event's generation.
// A deschedule then reschedule to the same tick and priority leaves a stale
// entry with the same (tick, priority) ahead of a peer; it must not fire.
TEST(EventQueue, RescheduleToSameKeyDoesNotFireStaleEntry)
{
    EventQueue q;
    std::vector<int> order;
    Event a("a", [&] { order.push_back(1); });
    Event b("b", [&] { order.push_back(2); });
    q.schedule(a, 10);
    q.schedule(b, 10);
    q.deschedule(a);
    q.schedule(a, 10); // same tick and priority, now after b
    EXPECT_EQ(q.live_event_count(), 2u);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
    EXPECT_EQ(q.events_processed(), 2u);
}

TEST(RingBuffer, FifoReuseAndGrowth)
{
    RingBuffer<int> r;
    EXPECT_TRUE(r.empty());
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 20; ++i) {
            r.push_back(round * 100 + i);
        }
        for (int i = 0; i < 20; ++i) {
            EXPECT_EQ(r.front(), round * 100 + i);
            r.pop_front();
        }
    }
    EXPECT_TRUE(r.empty());
    const std::size_t cap = r.capacity();
    for (int i = 0; i < 16; ++i) {
        r.push_back(i);
    }
    EXPECT_EQ(r.capacity(), cap); // steady state reuses storage
    EXPECT_THROW((void)RingBuffer<int>{}.front(), SimError);
}

TEST(RingBuffer, IndexAndEraseAt)
{
    RingBuffer<int> r;
    for (int i = 0; i < 6; ++i) {
        r.push_back(i);
    }
    r.pop_front();
    r.pop_front();
    r.push_back(6);
    r.push_back(7); // wraps
    EXPECT_EQ(r[0], 2);
    EXPECT_EQ(r[5], 7);
    r.erase_at(1); // removes 3
    EXPECT_EQ(r.size(), 5u);
    EXPECT_EQ(r[0], 2);
    EXPECT_EQ(r[1], 4);
    EXPECT_EQ(r[4], 7);
    EXPECT_THROW(r.erase_at(5), SimError);
}

TEST(Simulator, ExitRequestStopsRun)
{
    Simulator sim;
    Event a("a", [&] { sim.request_exit("test reason"); });
    Event b("b", [] { FAIL() << "must not run"; });
    sim.queue().schedule(a, 10);
    sim.queue().schedule(b, 20);
    const auto rr = sim.run();
    EXPECT_EQ(rr.cause, ExitCause::exit_requested);
    EXPECT_EQ(rr.exit_reason, "test reason");
    EXPECT_EQ(rr.end_tick, 10u);
}

TEST(Simulator, DrainedRunReportsCause)
{
    Simulator sim;
    Event a("a", [] {});
    sim.queue().schedule(a, 5);
    const auto rr = sim.run();
    EXPECT_EQ(rr.cause, ExitCause::queue_drained);
    EXPECT_EQ(rr.events, 1u);
}

TEST(Simulator, StartupCalledOncePerObject)
{
    Simulator sim;
    struct Obj : SimObject {
        using SimObject::SimObject;
        int started = 0;
        void startup() override { ++started; }
    };
    Obj o(sim, "obj");
    sim.run();
    sim.run();
    EXPECT_EQ(o.started, 1);
}

TEST(EventQueue, StopMidTickPreservesOrderAcrossDrains)
{
    // Stopping a drain while a same-tick peer is still pending must leave
    // it ahead of later-tick events on the resumed drain.
    EventQueue q;
    std::vector<int> order;
    std::atomic<bool> stop{false};
    Event a("a", [&] {
        order.push_back(0);
        stop = true;
    });
    Event b("b", [&] { order.push_back(1); });
    Event c("c", [&] { order.push_back(2); });
    q.schedule(a, 10);
    q.schedule(b, 10); // same tick as a
    q.schedule(c, 15); // later tick
    std::uint64_t n = 0;
    EXPECT_EQ(q.drain(kMaxTick, stop, n),
              EventQueue::DrainOutcome::stopped);
    stop = false;
    EXPECT_EQ(q.drain(kMaxTick, stop, n),
              EventQueue::DrainOutcome::drained);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(n, 3u);
}

TEST(EventQueue, EarlyPriorityScheduledMidTickRunsBeforePeers)
{
    // A kPrioEarly event scheduled at the current tick from inside a
    // callback must run ahead of the tick's pending default-priority
    // peers, and later-tick entries stay after them all.
    EventQueue q;
    std::vector<int> order;
    Event early("early", [&] { order.push_back(9); }, kPrioEarly);
    Event a("a", [&] {
        order.push_back(0);
        q.schedule_now(early);
    });
    Event b("b", [&] { order.push_back(1); });
    Event c("c", [&] { order.push_back(2); });
    q.schedule(a, 10);
    q.schedule(b, 10);
    q.schedule(c, 15);
    (void)q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 9, 1, 2}));
}

TEST(Clocked, EdgeMath)
{
    Clocked c(period_from_ghz(1.0)); // 1000 ticks
    EXPECT_EQ(c.cycles_to_ticks(5), 5000u);
    EXPECT_EQ(c.ticks_to_cycles(5999), 5u);
    EXPECT_EQ(c.next_edge(0), 0u);
    EXPECT_EQ(c.next_edge(1), 1000u);
    EXPECT_EQ(c.next_edge(1000), 1000u);
    EXPECT_DOUBLE_EQ(c.freq_ghz(), 1.0);
}

} // namespace
} // namespace accesys
