// Discrete-event core: `Event` handles and the `EventQueue` scheduler.
//
// Events are long-lived objects owned by components and (re)scheduled many
// times; the queue stores lightweight entries and uses lazy deletion, so
// deschedule/reschedule are O(1) and pop skips stale entries. Determinism:
// ties on (tick, priority) break by schedule order (monotonic sequence).
//
// Hot-path structure (in order of introduction):
//   * the earliest live entries are cached outside the heap in a small
//     sorted ring (`near_`, the generalization of a cached-top slot): peeks
//     validate the cache instead of re-pruning, the single-event
//     schedule→fire ping-pong (links, egress queues) never touches the
//     heap, and a schedule that lands among the next few events inserts
//     into the ring instead of paying a heap push + pop round trip;
//   * the heap itself is a hand-rolled 4-ary min-heap — shallower than a
//     binary heap and sifted with hole insertion, so a push or pop moves
//     entries instead of swapping them;
//   * `run()` / `drain()` dispatch same-tick events as a *batch*: every
//     entry for the current tick is pulled out of the heap in one sweep and
//     dispatched back-to-back from a flat array, and an event scheduled *at
//     the current tick while the batch runs* (the response-chain pattern:
//     link → switch → RC → xbar → mem and back) is appended straight to the
//     batch — one queue transaction for the whole chain instead of N
//     schedule/pop round-trips. Ordering stays bit-exact: appending is only
//     legal when the new entry sorts after everything still pending, which
//     the monotonic sequence guarantees for same-priority events; the rare
//     earlier-priority insert spills the remainder back to the heap and
//     re-sorts. Set ACCESYS_NO_BATCH=1 to force the one-event-at-a-time
//     path (escape hatch; results are identical by contract, see
//     tests/test_pool_determinism.cpp);
//   * memory-hierarchy hop events (PacketQueue sends, link delivery,
//     RC/switch process, controller issue) go through a one-slot *express
//     lane* (`schedule_express`): when nothing earlier is pending the
//     entry never touches the ring or heap — the run loop's per-object
//     quiescence check dispatches it straight from the slot, so a
//     quiescent RC -> membus -> iocache -> LLC -> MemCtrl chain
//     trampolines hop-to-hop with zero heap traffic. Entries keep the
//     exact (tick, priority, sequence) key schedule() would assign, so
//     order (and every stat) is identical by construction; the lane
//     elides nothing, it only cheapens the bookkeeping.
//     ACCESYS_NO_HOP_FUSION=1 is the escape hatch (also locked by
//     tests/test_pool_determinism.cpp). tick_quiescent() — the legality
//     probe for the synchronous same-tick hand-off in PacketQueue::push —
//     memoizes a proven-quiescent tick so a fused streaming train pays
//     the full probe once per tick instead of once per push.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/env_flags.hh"
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
    /// Pre-dispatch hook for profiling tools (see perf_baseline --profile).
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
        // Cached process-wide snapshot (sim/env_flags.hh): no getenv() on
        // any path.
        batch_enabled_ = !env_flags().no_batch;
        fusion_enabled_ = !env_flags().no_hop_fusion;
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

    /// Fast path: schedule `ev` at the current tick (it runs after the
    /// event currently executing, in schedule order among same-tick,
    /// same-priority peers). Skips the past-tick check; when a same-tick
    /// batch is being dispatched the event is appended to it directly.
    void schedule_now(Event& ev) { schedule_impl(ev, now_); }

    /// Explicit name for the same fast path (see file header: response
    /// chains fuse into the running batch instead of heap round-trips).
    void schedule_at_current_tick(Event& ev) { schedule_now(ev); }

    /// Express-lane schedule for memory-hierarchy hop events (PacketQueue
    /// sends, link delivery, controller issue): semantically identical to
    /// schedule(), but the entry is staged in a one-slot lane instead of
    /// the near-ring/heap. The run loop performs a per-object quiescence
    /// check at its top — is anything due before *this* event? — and when
    /// the staged hop is the earliest pending work it dispatches straight
    /// from the slot, so a quiescent RC → membus → iocache → LLC → MemCtrl
    /// chain trampolines hop-to-hop with zero heap traffic. The entry
    /// carries the same (tick, priority, sequence) key a schedule() call
    /// would have produced, so dispatch order — and therefore every stat —
    /// is identical by construction. ACCESYS_NO_HOP_FUSION=1 disables the
    /// lane (every call degrades to schedule(); see
    /// tests/test_pool_determinism.cpp for the bit-identity lock).
    void schedule_express(Event& ev, Tick when)
    {
        if (!fusion_enabled_ || express_pending_ || when <= now_) {
            schedule(ev, when);
            return;
        }
        const Entry e = stamp_entry(ev, when);
        // Stage only when the hop can actually be the next dispatch: if an
        // earlier entry is already waiting (stale keys still order
        // correctly, so a dead head just spills conservatively), the slot
        // round-trip is wasted work — place the entry normally instead.
        if ((near_n_ > 0 && later(e, near_[near_head_])) ||
            (near_n_ == 0 && !heap_.empty() && later(e, heap_[0]))) {
            ++stat_express_spills_;
            if (batch_active()) {
                schedule_during_batch(e);
            } else {
                schedule_entry(e);
            }
            return;
        }
        express_ = e;
        express_pending_ = true;
    }

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
        flush_express();
        return !refresh_top();
    }

    /// Tick of the next live event, or kMaxTick when empty.
    [[nodiscard]] Tick next_event_tick()
    {
        flush_express();
        return refresh_top() ? near_[near_head_].when() : kMaxTick;
    }

    /// Name of the next live event (debugging aid); empty when drained.
    [[nodiscard]] std::string next_event_name()
    {
        flush_express();
        return refresh_top() ? near_[near_head_].ev->name() : std::string{};
    }

    /// Execute the single next event; returns false when none remain.
    bool step()
    {
        flush_express();
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
        flush_express();
        if (!refresh_top()) {
            return StepOutcome::drained;
        }
        if (near_[near_head_].when() > max_tick) {
            return StepOutcome::horizon;
        }
        exec_top();
        return StepOutcome::executed;
    }

    /// Run until the queue drains or simulated time would pass `max_tick`
    /// (events at exactly `max_tick` still run). Returns events processed.
    std::uint64_t run(Tick max_tick = kMaxTick);

    /// Batched driver loop: like run(), but checks `stop` after every
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

    /// Hop events dispatched straight from the express slot (heap-free).
    [[nodiscard]] std::uint64_t express_hits() const noexcept
    {
        return stat_express_hits_;
    }

    /// Express requests folded back into the ring/heap (not the minimum).
    [[nodiscard]] std::uint64_t express_spills() const noexcept
    {
        return stat_express_spills_;
    }

    /// Entries that actually reached the 4-ary heap (pushes, incl. spills).
    [[nodiscard]] std::uint64_t heap_pushes() const noexcept
    {
        return stat_heap_pushes_;
    }

    /// Schedules absorbed by the sorted near ring without a heap push.
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

    /// Whether same-tick batch dispatch is active (ACCESYS_NO_BATCH unset).
    [[nodiscard]] bool batching_enabled() const noexcept
    {
        return batch_enabled_;
    }

    /// Whether the express lane is active (ACCESYS_NO_HOP_FUSION unset).
    [[nodiscard]] bool hop_fusion_enabled() const noexcept
    {
        return fusion_enabled_;
    }

    // --- checkpoint/restore (see sim/serialize.hh) --------------------------

    /// Live (non-squashed) entries currently pending, the express slot
    /// included. Non-mutating — a checkpoint probe must not perturb the
    /// dispatch-path counters of the run it snapshots.
    [[nodiscard]] std::uint64_t live_event_count() const;

    /// Wipe every scheduling structure ahead of a restore: pending entries
    /// are dropped wholesale (their events marked unscheduled) — each
    /// component re-inserts its own events via Event::serialize. Resets
    /// the quiescence memo and the restored-event tally.
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

    /// True when no live event remains scheduled at the current tick, i.e.
    /// an event the caller (running inside a callback) would schedule "now"
    /// is guaranteed to be the very next dispatch. This is the legality
    /// condition for fusing a same-tick hand-off synchronously instead of
    /// round-tripping a self-event (see PacketQueue::push): with nothing
    /// else pending at this tick, executing the hand-off in place is
    /// order-identical to scheduling it.
    [[nodiscard]] bool tick_quiescent()
    {
        // Memoized positive answer: once the current tick is proven
        // quiescent, it stays quiescent until something lands *at* this
        // tick (schedule_impl bumps the epoch; future-tick schedules
        // cannot end quiescence, and time moving invalidates via the tick
        // compare). A streaming chain of fused hand-offs pays the full
        // probe once per tick instead of once per push.
        if (q_memo_tick_ == now_ && q_memo_epoch_ == at_now_epoch_) {
            return true;
        }
        if (batch_pos_ + 1 < batch_len_) {
            return false; // same-tick batch entries still pending
        }
        if (express_pending_ && express_.when() <= now_) {
            return false; // a staged hop is due (defensive: the run loop
                          // folds same-tick express entries back before
                          // dispatching, so this should not trigger)
        }
        if (refresh_top() && near_[near_head_].when() <= now_) {
            return false;
        }
        q_memo_tick_ = now_;
        q_memo_epoch_ = at_now_epoch_;
        return true;
    }

  private:
#if defined(__SIZEOF_INT128__)
    /// Full sort key in one integer: tick in the high 64 bits, biased
    /// priority and schedule sequence in the low 64. Heap ordering is a
    /// single wide compare (two instructions on 64-bit targets).
    using SortKey = unsigned __int128;
    [[nodiscard]] static constexpr SortKey make_key(
        Tick when, std::uint64_t prio_seq) noexcept
    {
        return (static_cast<SortKey>(when) << 64) | prio_seq;
    }
    [[nodiscard]] static constexpr Tick key_tick(SortKey key) noexcept
    {
        return static_cast<Tick>(key >> 64);
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
    [[nodiscard]] static constexpr Tick key_tick(SortKey key) noexcept
    {
        return key.when;
    }
#endif

    /// 32-byte heap entry ordered by the packed (tick, priority, sequence)
    /// key, so ordering is one wide integer compare.
    struct Entry {
        SortKey key;
        std::uint64_t generation;
        Event* ev;

        [[nodiscard]] Tick when() const noexcept { return key_tick(key); }
    };

    static constexpr int kPrioBias = 1 << 15;
    /// Same-tick dispatch batch size; overflow falls back to heap pulls.
    static constexpr std::size_t kBatchMax = 64;

    [[nodiscard]] static std::uint64_t pack_prio_seq(int priority,
                                                     std::uint64_t seq)
    {
        // 16 bits of biased priority, 48 bits of sequence (~2.8e14
        // schedules before wrap — far beyond any practical run). The
        // priority range is validated once at schedule time via
        // check_priority(); the hot path just packs.
        return (static_cast<std::uint64_t>(priority + kPrioBias) << 48) |
               (seq & ((std::uint64_t{1} << 48) - 1));
    }

    static void check_priority(int priority)
    {
        ensure(priority >= -kPrioBias && priority < kPrioBias,
               "event priority out of the representable range");
    }

    /// True when `a` runs strictly later than `b`.
    [[nodiscard]] static bool later(const Entry& a, const Entry& b) noexcept
    {
        return a.key > b.key;
    }

    [[nodiscard]] static bool entry_live(const Entry& e) noexcept
    {
        return e.ev->scheduled_ && e.ev->generation_ == e.generation;
    }

    [[nodiscard]] bool batch_active() const noexcept
    {
        return batch_pos_ < batch_len_;
    }

    /// Shared scheduling bookkeeping: validate, stamp the event with the
    /// next (sequence, generation) value, and build its heap entry. Both
    /// the normal path and the express lane stamp through here, so their
    /// entries are indistinguishable by construction.
    [[nodiscard]] Entry stamp_entry(Event& ev, Tick when)
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
        if (when == now_) {
            ++at_now_epoch_; // ends any memoized quiescence for this tick
        }
        return Entry{make_key(when, pack_prio_seq(ev.priority_, seq)), seq,
                     &ev};
    }

    void schedule_impl(Event& ev, Tick when)
    {
        const Entry e = stamp_entry(ev, when);
        if (batch_active()) {
            schedule_during_batch(e);
            return;
        }
        schedule_entry(e);
    }

    /// Near-ring / heap placement shared by the normal and post-spill
    /// paths. Invariant: every near-ring entry precedes (by key) every
    /// heap entry; the ring itself is sorted ascending. Stale entries may
    /// sit anywhere — their keys still order correctly and refresh_top
    /// skips them.
    void schedule_entry(const Entry& e)
    {
        if (near_n_ == 0) {
            if (heap_.empty() || later(heap_[0], e)) {
                near_at(0) = e;
                near_n_ = 1;
                ++stat_near_hits_;
            } else {
                heap_push(e);
            }
            return;
        }
        if (later(e, near_at(near_n_ - 1))) {
            // Sorts after the ring: append when it still precedes the
            // heap minimum and there is room, else straight to the heap.
            if (near_n_ < kNearCap && (heap_.empty() || later(heap_[0], e))) {
                near_at(near_n_) = e;
                ++near_n_;
                ++stat_near_hits_;
            } else {
                heap_push(e);
            }
            return;
        }
        // Belongs inside the ring: spill the ring's latest entry to the
        // heap if full (it already precedes every heap entry), then shift.
        if (near_n_ == kNearCap) {
            heap_push(near_at(kNearCap - 1));
            --near_n_;
        }
        std::size_t pos = near_n_;
        while (pos > 0 && later(near_at(pos - 1), e)) {
            near_at(pos) = near_at(pos - 1);
            --pos;
        }
        near_at(pos) = e;
        ++near_n_;
        ++stat_near_hits_;
    }

    /// A schedule issued by an event executing inside a same-tick batch.
    /// Three cases, ordered by frequency:
    ///   1. current-tick, sorts after everything pending, batch has room →
    ///      append to the batch (the response-chain fusion fast path);
    ///   2. sorts after all pending batch entries (future tick, or batch
    ///      full / same-tick entries still in the heap) → normal placement;
    ///   3. must run *before* a pending batch entry (earlier priority at
    ///      the same tick) → spill the untouched remainder back to the
    ///      heap and place normally; the run loop re-sorts.
    void schedule_during_batch(const Entry& e)
    {
        const Entry& last = batch_[batch_len_ - 1];
        if (later(e, last)) {
            if (e.when() == now_ && batch_len_ < kBatchMax &&
                (near_n_ == 0 || near_at(0).when() > now_) &&
                (heap_.empty() || heap_[0].when() > now_)) {
                // Nothing at the current tick exists outside the batch, so
                // appending preserves the total order exactly.
                batch_[batch_len_++] = e;
                return;
            }
            schedule_entry(e);
            return;
        }
        // Earlier than a pending batch entry: check it really interleaves
        // (it may only precede entries that are already dead).
        std::size_t insert_at = batch_len_;
        for (std::size_t i = batch_pos_ + 1; i < batch_len_; ++i) {
            if (later(batch_[i], e)) {
                insert_at = i;
                break;
            }
        }
        if (insert_at == batch_len_) {
            schedule_entry(e);
            return;
        }
        // Spill the remainder (rare: same-tick kPrioEarly schedule) and
        // re-place the new entry; the run loop re-sorts.
        spill_batch_remainder(batch_pos_ + 1);
        batch_len_ = batch_pos_ + 1;
        schedule_entry(e);
    }

    /// Return the unexecuted batch entries [from, batch_len_) to the
    /// ring/heap without breaking the ring-precedes-heap invariant. The
    /// remainder is at the current tick and precedes every ring entry
    /// (batch appends only happen when nothing at the current tick exists
    /// outside the batch) and every heap entry — so the ring is rebuilt
    /// from the earliest remainder prefix and everything else, including
    /// the displaced ring entries, goes to the heap. Rare path (mid-batch
    /// stop or same-tick earlier-priority schedule): cost is irrelevant,
    /// order exactness is not.
    void spill_batch_remainder(std::size_t from)
    {
        if (from >= batch_len_) {
            return;
        }
        while (near_n_ > 0) {
            heap_push(near_at(near_n_ - 1));
            --near_n_;
        }
        near_head_ = 0;
        std::size_t i = from;
        for (; i < batch_len_ && near_n_ < kNearCap; ++i) {
            if (entry_live(batch_[i])) {
                near_[near_n_++] = batch_[i];
            }
        }
        for (; i < batch_len_; ++i) {
            if (entry_live(batch_[i])) {
                heap_push(batch_[i]);
            }
        }
    }

    // --- hand-rolled 4-ary min-heap -----------------------------------------
    // Shallower than a binary heap (log4 vs log2 levels) and sifted with
    // hole insertion: each level moves one 32-byte entry instead of
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

    /// Make the near-ring head the earliest live entry; false when
    /// drained. Amortised O(1): each entry is popped at most once.
    bool refresh_top()
    {
        for (;;) {
            while (near_n_ > 0) {
                if (entry_live(near_at(0))) {
                    return true;
                }
                near_pop_front();
            }
            if (heap_.empty()) {
                return false;
            }
            near_at(0) = heap_pop();
            near_n_ = 1;
        }
    }

    [[nodiscard]] Entry& near_at(std::size_t i) noexcept
    {
        return near_[(near_head_ + i) & (kNearCap - 1)];
    }

    /// Does a second entry share the head's tick? (Precondition:
    /// refresh_top() returned true.) Decides singleton vs batched dispatch.
    [[nodiscard]] bool tick_has_run() noexcept
    {
        const Tick t = near_at(0).when();
        if (near_n_ > 1) {
            return near_at(1).when() == t;
        }
        return !heap_.empty() && heap_[0].when() == t;
    }

    void near_pop_front() noexcept
    {
        near_head_ = (near_head_ + 1) & (kNearCap - 1);
        --near_n_;
    }

    /// Dispatch a live entry pulled from the ring or the express slot.
    void exec_entry(const Entry& e)
    {
        ensure(e.when() >= now_, "event heap corrupted");
        now_ = e.when();
        Event& ev = *e.ev;
        ev.scheduled_ = false;
        ++stat_processed_;
        ensure(ev.invoke_ != nullptr, "event without callback: ", ev.name_);
        if (observer_ != nullptr) [[unlikely]] {
            observer_->on_dispatch(ev);
        }
        ev.invoke_(ev.ctx_);
    }

    /// Consume the ring head (precondition: refresh_top() returned true).
    void exec_top()
    {
        const Entry e = near_at(0);
        near_pop_front();
        exec_entry(e);
    }

    /// Return a staged express entry to the ring/heap (query and step paths
    /// that need the full ordered view; the run loops handle the slot
    /// inline instead).
    void flush_express()
    {
        if (express_pending_) [[unlikely]] {
            express_pending_ = false;
            if (entry_live(express_)) {
                ++stat_express_spills_;
                schedule_entry(express_);
            }
        }
    }

    /// Dispatch every event at the cached top's tick (and any same-tick
    /// events scheduled while doing so) back-to-back. Precondition:
    /// refresh_top() returned true. When `stop` is non-null, dispatching
    /// pauses after the event that sets it (the remainder is spilled back
    /// to the heap, preserving order). Returns events executed.
    std::uint64_t dispatch_tick(const std::atomic<bool>* stop);

    /// Loop-top express slot arbitration for run()/drain(); see event.cc.
    void express_step(Tick max_tick, bool& dispatched, bool& horizon);

    std::vector<Entry> heap_; ///< 4-ary min-heap (see heap_push/heap_pop)
    /// Sorted ring of the earliest entries (see schedule_entry invariant).
    static constexpr std::size_t kNearCap = 8;
    Entry near_[kNearCap];
    std::size_t near_head_ = 0;
    std::size_t near_n_ = 0;
    bool batch_enabled_ = true;
    bool fusion_enabled_ = true; ///< express lane on (ACCESYS_NO_HOP_FUSION)
    /// One-slot express lane (see schedule_express): a staged hop event the
    /// run loop dispatches directly when it is the earliest pending work.
    bool express_pending_ = false;
    Entry express_{};
    Tick now_ = 0;
    /// tick_quiescent() memo: the tick proven quiescent and the value of
    /// `at_now_epoch_` when it was proven (schedules at the current tick
    /// bump the epoch, ending the memo's validity).
    Tick q_memo_tick_ = kMaxTick;
    std::uint64_t q_memo_epoch_ = 0;
    std::uint64_t at_now_epoch_ = 1;
    std::uint64_t next_seq_ = 0; ///< schedule counter: sort tie-break + generation stamp
    std::uint64_t stat_processed_ = 0;
    std::uint64_t stat_scheduled_ = 0;
    std::uint64_t stat_express_hits_ = 0;
    std::uint64_t stat_express_spills_ = 0;
    std::uint64_t stat_heap_pushes_ = 0;
    std::uint64_t stat_near_hits_ = 0;
    std::uint64_t expected_live_ = 0;  ///< saved live count (restore)
    std::uint64_t restored_count_ = 0; ///< restore_event() calls so far
    DispatchObserver* observer_ = nullptr;
    /// Same-tick dispatch batch (active only inside dispatch_tick).
    Entry batch_[kBatchMax];
    std::size_t batch_pos_ = 0;
    std::size_t batch_len_ = 0;
};

} // namespace accesys
