// Discrete-event core: `Event` handles and the `EventQueue` scheduler.
//
// Events are long-lived objects owned by components and (re)scheduled many
// times; the queue stores lightweight entries and uses lazy deletion, so
// deschedule/reschedule are O(1) and pop skips stale entries. Determinism:
// ties on (tick, priority) break by schedule order (monotonic sequence).
//
// Hot-path structure:
//   * the common path is a window of the earliest live entries (`near_`,
//     kNearCap = 32), a plain array sorted latest-first: `near_[near_n_-1]`
//     is the next event, so a dispatch pops from the end and a peek
//     validates that slot instead of re-pruning. The window is sized to the
//     measured live set: at most 16 entries pending at once on the
//     host-placement, ViT and serving benchmark workloads and 21 on the
//     4-endpoint HBM2 devmem GEMM, so those runs make no heap push at all;
//   * a schedule walks down from the earliest end and shifts up only the
//     entries that run before the new one. The window's latest slots hold
//     long-lived events scheduled far ahead (CPU polls, link deliveries,
//     RC/switch processing, request arrivals) while new hop events land a
//     few slots from the earliest end. Measured entry moves per schedule,
//     seed-1 legs of gemm_host_4ep / vit_base_host / serving_overload /
//     gemm_devmem_4ep_t4 / vit_base_devmem: 1.03 / 1.74 / 1.70 / 5.92 /
//     0.99, against 4.50 / 5.15 / 4.52 / 8.08 / 1.60 for the same window
//     kept earliest-first and shifted from its latest end. Two rare paths
//     move the whole window, and those counts include them: a new entry
//     later than every window entry, and a full window spilling its latest
//     entry to the heap;
//   * an entry is 24 bytes, {tick, priority|sequence, event}, ordered as
//     one 128-bit (tick, priority, sequence) key. The key's low 48 bits are
//     the schedule sequence, which is also the event's generation stamp, so
//     liveness compares those bits with `Event::generation_`;
//   * the heap is the overflow path for larger live sets (bigger fleets,
//     checkpoint restore): a hand-rolled 4-ary min-heap, shallower than a
//     binary heap and sifted with hole insertion, so a push or pop moves
//     entries instead of swapping them.
// There is one dispatch path: every event, whatever its tick, is pulled
// from the window's earliest end and executed by exec_top(); run(),
// drain(), step() and step_bounded() differ only in when they stop.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/error.hh"
#include "sim/types.hh"

namespace accesys {

class Ckpt;
class EventQueue;

/// Priorities: lower value runs earlier within the same tick.
enum : int {
    kPrioEarly = -100,  ///< bookkeeping that must precede normal activity
    kPrioDefault = 0,
    kPrioLate = 100,    ///< e.g. stat sampling after the tick's activity
};

/// A schedulable callback. Construct once, schedule as often as needed.
///
/// Dispatch is a raw `fn(ctx)` indirect call. std::function callbacks are
/// supported through a fixed trampoline (`invoke_` then points at a shim
/// that calls `cb_`), and `set_raw_callback` binds an object+method pair
/// directly with no std::function layer at all — used by the hottest
/// periodic events.
class Event {
  public:
    using Callback = std::function<void()>;
    using RawFn = void (*)(void*);

    Event() = default;
    Event(std::string name, Callback cb, int priority = kPrioDefault)
        : priority_(priority), name_(std::move(name))
    {
        set_callback_unchecked(std::move(cb));
    }

    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;

    /// Replace the callback; must not be scheduled.
    void set_callback(Callback cb)
    {
        ensure(!scheduled_, "Event::set_callback while scheduled: ", name_);
        set_callback_unchecked(std::move(cb));
    }

    /// Bind `fn(ctx)` directly (fastest dispatch); must not be scheduled.
    void set_raw_callback(RawFn fn, void* ctx)
    {
        ensure(!scheduled_, "Event::set_raw_callback while scheduled: ",
               name_);
        cb_ = nullptr;
        invoke_ = fn;
        ctx_ = ctx;
    }

    void set_name(std::string name) { name_ = std::move(name); }

    [[nodiscard]] bool scheduled() const noexcept { return scheduled_; }
    [[nodiscard]] Tick when() const noexcept { return when_; }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] int priority() const noexcept { return priority_; }

    /// Checkpoint this event's schedule state (see sim/serialize.hh). On
    /// load the event re-enters `eq` with its exact saved (tick, priority,
    /// sequence) key, so the resumed run dispatches in the same total
    /// order — bit-for-bit — as the uninterrupted one. Every component
    /// owning a schedulable Event must route it through here from its own
    /// serialize(); the queue cross-checks the count against the saved
    /// live-entry total.
    void serialize(Ckpt& ar, EventQueue& eq);

  private:
    friend class EventQueue;

    void set_callback_unchecked(Callback cb)
    {
        cb_ = std::move(cb);
        if (cb_) {
            invoke_ = [](void* self) { static_cast<Event*>(self)->cb_(); };
            ctx_ = this;
        } else {
            invoke_ = nullptr;
            ctx_ = nullptr;
        }
    }

    // Hot fields first: schedule/refresh/dispatch touch only these, so
    // they share the object's first cache line (name_/cb_ are cold).
    RawFn invoke_ = nullptr; ///< dispatch target (shim or raw binding)
    void* ctx_ = nullptr;
    Tick when_ = 0;
    std::uint64_t generation_ = 0; ///< bumped on every schedule
    int priority_ = kPrioDefault;
    bool scheduled_ = false;
    std::string name_;
    Callback cb_;
};

/// Min-heap event scheduler; also the keeper of simulated time.
class EventQueue {
  public:
    /// Pre-dispatch hook for profiling tools (see
    /// bench_multi_accel_contention --profile and benchmark/leg.cc).
    /// Called with every event about to execute; the hot path pays one
    /// predictable branch when no observer is installed.
    class DispatchObserver {
      public:
        virtual ~DispatchObserver() = default;
        virtual void on_dispatch(const Event& ev) = 0;
    };

    EventQueue()
    {
        heap_.reserve(64);
    }
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    [[nodiscard]] Tick now() const noexcept { return now_; }

    /// Schedule `ev` at absolute tick `when` (>= now).
    void schedule(Event& ev, Tick when)
    {
        ensure(when >= now_, "schedule in the past: ", ev.name_, " at ", when,
               " now ", now_);
        schedule_impl(ev, when);
    }

    /// Schedule `ev` `delta` ticks from now.
    void schedule_in(Event& ev, Tick delta) { schedule(ev, now_ + delta); }

    /// Schedule `ev` at the current tick (it runs after the event currently
    /// executing, in schedule order among same-tick, same-priority peers).
    /// Skips the past-tick check.
    void schedule_now(Event& ev) { schedule_impl(ev, now_); }

    /// Remove `ev` from the schedule (no-op entry left in heap).
    void deschedule(Event& ev)
    {
        ensure(ev.scheduled_, "deschedule of idle event ", ev.name_);
        ev.scheduled_ = false;
    }

    /// Move an event (scheduled or not) to a new absolute time.
    void reschedule(Event& ev, Tick when)
    {
        if (ev.scheduled_) {
            deschedule(ev);
        }
        schedule(ev, when);
    }

    /// True when no live (non-squashed) events remain.
    [[nodiscard]] bool empty()
    {
        return !refresh_top();
    }

    /// Tick of the next live event, or kMaxTick when empty.
    [[nodiscard]] Tick next_event_tick()
    {
        return refresh_top() ? top().tick : kMaxTick;
    }

    /// Name of the next live event (debugging aid); empty when drained.
    [[nodiscard]] std::string next_event_name()
    {
        return refresh_top() ? top().ev->name() : std::string{};
    }

    /// Execute the single next event; returns false when none remain.
    bool step()
    {
        if (!refresh_top()) {
            return false;
        }
        exec_top();
        return true;
    }

    /// One fused probe-and-execute for driver loops: a single cache refresh
    /// decides between drain, horizon and execution.
    enum class StepOutcome { executed, horizon, drained };
    StepOutcome step_bounded(Tick max_tick)
    {
        if (!refresh_top()) {
            return StepOutcome::drained;
        }
        if (top().tick > max_tick) {
            return StepOutcome::horizon;
        }
        exec_top();
        return StepOutcome::executed;
    }

    /// Run until the queue drains or simulated time would pass `max_tick`
    /// (events at exactly `max_tick` still run). Returns events processed.
    std::uint64_t run(Tick max_tick = kMaxTick);

    /// Driver loop: like run(), but checks `stop` before every
    /// event (request_exit semantics) and reports why it returned.
    /// `executed` accumulates the events dispatched by this call. `stop`
    /// may be raised from another thread or a signal handler; it is read
    /// with relaxed order (a plain load on x86).
    enum class DrainOutcome { stopped, horizon, drained };
    DrainOutcome drain(Tick max_tick, const std::atomic<bool>& stop,
                       std::uint64_t& executed);

    /// Total events executed since construction.
    [[nodiscard]] std::uint64_t events_processed() const noexcept
    {
        return stat_processed_;
    }

    [[nodiscard]] std::uint64_t events_scheduled() const noexcept
    {
        return stat_scheduled_;
    }

    /// Entries that actually reached the 4-ary heap (pushes, incl. window
    /// spills).
    [[nodiscard]] std::uint64_t heap_pushes() const noexcept
    {
        return stat_heap_pushes_;
    }

    /// Schedules absorbed by the near window without a heap push.
    [[nodiscard]] std::uint64_t near_ring_hits() const noexcept
    {
        return stat_near_hits_;
    }

    /// Advance time with no event execution (used by drained fast-forward).
    void warp_to(Tick when)
    {
        ensure(when >= now_, "warp into the past");
        ensure(next_event_tick() >= when, "warp past a pending event");
        now_ = when;
    }

    /// Install (or clear, with nullptr) a pre-dispatch profiling hook.
    void set_dispatch_observer(DispatchObserver* obs) noexcept
    {
        observer_ = obs;
    }

    // --- checkpoint/restore (see sim/serialize.hh) --------------------------

    /// Live (non-squashed) entries currently pending. Non-mutating — a checkpoint probe must not perturb the
    /// dispatch-path counters of the run it snapshots.
    [[nodiscard]] std::uint64_t live_event_count() const;

    /// Wipe every scheduling structure ahead of a restore: pending entries
    /// are dropped wholesale (their events marked unscheduled) — each
    /// component re-inserts its own events via Event::serialize. Resets
    /// the restored-event tally.
    void restore_begin() noexcept;

    /// Clock + schedule counter + saved live-entry count. Load side must
    /// run after restore_begin() and before any component section.
    void serialize_clock(Ckpt& ar);

    /// Dispatch-path counters. Load side must run after every component
    /// section (restoration itself bumps them; the saved values win).
    void serialize_counters(Ckpt& ar);

    /// Re-insert a restored event with its exact saved key. Called from
    /// Event::serialize's load path only; the event's fields are already
    /// restored.
    void restore_event(Event& ev);

    /// True once every saved live entry has been re-inserted (checked by
    /// Simulator::restore after the last component section).
    [[nodiscard]] bool restore_complete() const noexcept
    {
        return restored_count_ == expected_live_;
    }
    [[nodiscard]] std::uint64_t restored_count() const noexcept
    {
        return restored_count_;
    }
    [[nodiscard]] std::uint64_t expected_live() const noexcept
    {
        return expected_live_;
    }

  private:
#if defined(__SIZEOF_INT128__)
    /// Full sort key in one integer: tick in the high 64 bits, biased
    /// priority and schedule sequence in the low 64. Ordering is a single
    /// wide compare (two instructions on 64-bit targets).
    using SortKey = unsigned __int128;
    [[nodiscard]] static constexpr SortKey make_key(
        Tick when, std::uint64_t prio_seq) noexcept
    {
        return (static_cast<SortKey>(when) << 64) | prio_seq;
    }
#else
    /// Portable fallback: lexicographic (tick, prio_seq) in a struct.
    struct SortKey {
        Tick when;
        std::uint64_t prio_seq;
        constexpr bool operator>(const SortKey& o) const noexcept
        {
            return when != o.when ? when > o.when : prio_seq > o.prio_seq;
        }
    };
    [[nodiscard]] static constexpr SortKey make_key(
        Tick when, std::uint64_t prio_seq) noexcept
    {
        return SortKey{when, prio_seq};
    }
#endif

    /// 24-byte entry ordered by the (tick, priority, sequence) key that its
    /// first two fields form, so ordering is one wide integer compare.
    struct Entry {
        Tick tick;
        std::uint64_t prio_seq; ///< see pack_prio_seq
        Event* ev;
    };
    static_assert(sizeof(Entry) == 24);

    static constexpr int kPrioBias = 1 << 15;
    static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 48) - 1;

    [[nodiscard]] static std::uint64_t pack_prio_seq(int priority,
                                                     std::uint64_t seq)
    {
        // 16 bits of biased priority, 48 bits of sequence (~2.8e14
        // schedules before wrap — far beyond any practical run). The
        // priority range is validated once at schedule time via
        // check_priority(); the hot path just packs.
        return (static_cast<std::uint64_t>(priority + kPrioBias) << 48) |
               (seq & kSeqMask);
    }

    static void check_priority(int priority)
    {
        ensure(priority >= -kPrioBias && priority < kPrioBias,
               "event priority out of the representable range");
    }

    /// True when `a` runs strictly later than `b`.
    [[nodiscard]] static bool later(const Entry& a, const Entry& b) noexcept
    {
        return make_key(a.tick, a.prio_seq) > make_key(b.tick, b.prio_seq);
    }

    /// The entry's sequence (low 48 key bits) is the generation its event
    /// was stamped with when the entry was made; a later schedule restamps.
    [[nodiscard]] static bool entry_live(const Entry& e) noexcept
    {
        return e.ev->scheduled_ &&
               ((e.ev->generation_ ^ e.prio_seq) & kSeqMask) == 0;
    }

    /// Validate, stamp the event with the next (sequence, generation)
    /// value, and place its entry.
    void schedule_impl(Event& ev, Tick when)
    {
        ensure(!ev.scheduled_, "double schedule of event ", ev.name_);
        if (ev.priority_ != kPrioDefault) [[unlikely]] {
            check_priority(ev.priority_);
        }
        // One monotonic counter serves both the tie-break sequence (low 48
        // key bits) and the lazy-deletion generation stamp.
        const std::uint64_t seq = ++next_seq_;
        ev.when_ = when;
        ev.generation_ = seq;
        ev.scheduled_ = true;
        ++stat_scheduled_;
        schedule_entry(Entry{when, pack_prio_seq(ev.priority_, seq), &ev});
    }

    /// Window / heap placement. Invariant: every window entry precedes (by
    /// key) every heap entry; the window is sorted latest-first, so
    /// `near_[0]` is its latest entry and `near_[near_n_ - 1]` its
    /// earliest. Stale entries may sit anywhere — their keys still order
    /// correctly and refresh_top skips them.
    void schedule_entry(const Entry& e)
    {
        if (near_n_ == 0 || later(e, near_[0])) {
            // Sorts after the window: it becomes the window's new latest
            // entry (the whole window shifts up a slot) when it still
            // precedes the heap minimum and there is room, else it goes
            // straight to the heap.
            if (near_n_ < kNearCap && (heap_.empty() || later(heap_[0], e))) {
                std::copy_backward(near_, near_ + near_n_,
                                   near_ + near_n_ + 1);
                near_[0] = e;
                ++near_n_;
                ++stat_near_hits_;
            } else {
                heap_push(e);
            }
            return;
        }
        // Belongs inside the window: if full, spill the latest entry to the
        // heap (it already precedes every heap entry) and close the gap.
        if (near_n_ == kNearCap) {
            heap_push(near_[0]);
            std::copy(near_ + 1, near_ + kNearCap, near_);
            --near_n_;
        }
        // Walk down from the earliest end, shifting up the entries that
        // run before `e`.
        std::size_t pos = near_n_;
        while (pos > 0 && later(e, near_[pos - 1])) {
            near_[pos] = near_[pos - 1];
            --pos;
        }
        near_[pos] = e;
        ++near_n_;
        ++stat_near_hits_;
    }

    // --- hand-rolled 4-ary min-heap -----------------------------------------
    // Shallower than a binary heap (log4 vs log2 levels) and sifted with
    // hole insertion: each level moves one 24-byte entry instead of
    // swapping two. Pop order is the sorted order of the (when, prio_seq)
    // keys — unique by construction — so the internal layout cannot affect
    // simulation results.

    void heap_push(const Entry& e)
    {
        ++stat_heap_pushes_;
        heap_.push_back(e);
        std::size_t i = heap_.size() - 1;
        while (i > 0) {
            const std::size_t parent = (i - 1) >> 2;
            if (!later(heap_[parent], e)) {
                break;
            }
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = e;
    }

    /// Remove and return the heap minimum (precondition: non-empty).
    Entry heap_pop()
    {
        const Entry min = heap_[0];
        const Entry last = heap_.back();
        heap_.pop_back();
        const std::size_t n = heap_.size();
        if (n > 0) {
            std::size_t i = 0;
            for (;;) {
                const std::size_t c0 = 4 * i + 1;
                if (c0 >= n) {
                    break;
                }
                std::size_t m = c0;
                const std::size_t cend = c0 + 4 < n ? c0 + 4 : n;
                for (std::size_t c = c0 + 1; c < cend; ++c) {
                    if (later(heap_[m], heap_[c])) {
                        m = c;
                    }
                }
                if (!later(last, heap_[m])) {
                    break;
                }
                heap_[i] = heap_[m];
                i = m;
            }
            heap_[i] = last;
        }
        return min;
    }

    /// Make the window's earliest entry live; false when drained.
    /// Amortised O(1): each entry is popped at most once.
    bool refresh_top()
    {
        for (;;) {
            while (near_n_ > 0) {
                if (entry_live(near_[near_n_ - 1])) {
                    return true;
                }
                --near_n_;
            }
            if (heap_.empty()) {
                return false;
            }
            near_[0] = heap_pop();
            near_n_ = 1;
        }
    }

    /// The window's earliest entry (precondition: refresh_top() returned
    /// true).
    [[nodiscard]] const Entry& top() const noexcept
    {
        return near_[near_n_ - 1];
    }

    /// Consume and dispatch the window's earliest entry (precondition:
    /// refresh_top() returned true).
    void exec_top()
    {
        const Entry e = near_[--near_n_];
        ensure(e.tick >= now_, "event heap corrupted");
        now_ = e.tick;
        Event& ev = *e.ev;
        ev.scheduled_ = false;
        ++stat_processed_;
        ensure(ev.invoke_ != nullptr, "event without callback: ", ev.name_);
        if (observer_ != nullptr) [[unlikely]] {
            observer_->on_dispatch(ev);
        }
        ev.invoke_(ev.ctx_);
    }

    std::vector<Entry> heap_; ///< 4-ary min-heap (see heap_push/heap_pop)
    /// The earliest entries, sorted latest-first (see schedule_entry
    /// invariant). Sized to hold the benchmark workloads' live sets (file
    /// header); a 16-entry window fills and spills on the 4-endpoint
    /// devmem GEMM.
    static constexpr std::size_t kNearCap = 32;
    Entry near_[kNearCap];
    std::size_t near_n_ = 0;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0; ///< schedule counter: sort tie-break + generation stamp
    std::uint64_t stat_processed_ = 0;
    std::uint64_t stat_scheduled_ = 0;
    std::uint64_t stat_heap_pushes_ = 0;
    std::uint64_t stat_near_hits_ = 0;
    std::uint64_t expected_live_ = 0;  ///< saved live count (restore)
    std::uint64_t restored_count_ = 0; ///< restore_event() calls so far
    DispatchObserver* observer_ = nullptr;
};

} // namespace accesys
