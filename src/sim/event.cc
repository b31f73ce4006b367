#include "sim/event.hh"

#include "sim/serialize.hh"

namespace accesys {

void Event::serialize(Ckpt& ar, EventQueue& eq)
{
    std::uint8_t sched = scheduled_ ? 1 : 0;
    ar.io(when_, generation_, priority_, sched);
    if (ar.loading()) {
        scheduled_ = sched != 0;
        if (scheduled_) {
            eq.restore_event(*this);
        }
    }
}

std::uint64_t EventQueue::live_event_count() const
{
    ensure(batch_pos_ >= batch_len_,
           "live_event_count inside a dispatch batch");
    std::uint64_t n = 0;
    if (express_pending_ && entry_live(express_)) {
        ++n;
    }
    for (std::size_t i = 0; i < near_n_; ++i) {
        n += entry_live(near_[(near_head_ + i) & (kNearCap - 1)]) ? 1 : 0;
    }
    for (const Entry& e : heap_) {
        n += entry_live(e) ? 1 : 0;
    }
    return n;
}

void EventQueue::restore_begin() noexcept
{
    // Mark every pending event idle so events a fresh construction+startup
    // scheduled — but the checkpoint does not cover — end up cleanly
    // unscheduled rather than flagged-scheduled with no entry.
    if (express_pending_) {
        express_.ev->scheduled_ = false;
        express_pending_ = false;
    }
    for (std::size_t i = 0; i < near_n_; ++i) {
        near_[(near_head_ + i) & (kNearCap - 1)].ev->scheduled_ = false;
    }
    near_head_ = 0;
    near_n_ = 0;
    for (Entry& e : heap_) {
        e.ev->scheduled_ = false;
    }
    heap_.clear();
    batch_pos_ = 0;
    batch_len_ = 0;
    q_memo_tick_ = kMaxTick;
    q_memo_epoch_ = 0;
    at_now_epoch_ = 1;
    expected_live_ = 0;
    restored_count_ = 0;
}

void EventQueue::serialize_clock(Ckpt& ar)
{
    std::uint64_t live = ar.saving() ? live_event_count() : 0;
    ar.io(now_, next_seq_, live);
    if (ar.loading()) {
        expected_live_ = live;
    }
}

void EventQueue::serialize_counters(Ckpt& ar)
{
    ar.io(stat_processed_, stat_scheduled_, stat_express_hits_,
          stat_express_spills_, stat_heap_pushes_, stat_near_hits_);
}

void EventQueue::restore_event(Event& ev)
{
    ensure(ev.scheduled_, "restore_event on an idle event: ", ev.name_);
    check_priority(ev.priority_);
    heap_push(Entry{
        make_key(ev.when_, pack_prio_seq(ev.priority_, ev.generation_)),
        ev.generation_, &ev});
    ++restored_count_;
}

std::uint64_t EventQueue::dispatch_tick(const std::atomic<bool>* stop)
{
    const Tick t = near_at(0).when();
    ensure(t >= now_, "event heap corrupted");
    now_ = t;
    // Pull the whole same-tick run out of the near ring, then the heap, in
    // one sweep. Ring entries precede heap entries and both come out in
    // exact run order, so the batch array is sorted by construction.
    batch_[0] = near_at(0);
    near_pop_front();
    std::size_t len = 1;
    while (len < kBatchMax && near_n_ > 0 && near_at(0).when() == t) {
        const Entry e = near_at(0);
        near_pop_front();
        if (entry_live(e)) {
            batch_[len++] = e;
        }
    }
    if (near_n_ == 0) {
        while (len < kBatchMax && !heap_.empty() && heap_[0].when() == t) {
            const Entry e = heap_pop();
            if (entry_live(e)) {
                batch_[len++] = e;
            }
        }
    }
    batch_len_ = len;

    std::uint64_t n = 0;
    for (batch_pos_ = 0; batch_pos_ < batch_len_; ++batch_pos_) {
        const Entry& e = batch_[batch_pos_];
        if (!entry_live(e)) {
            continue; // descheduled or rescheduled while batched
        }
        Event& ev = *e.ev;
        ev.scheduled_ = false;
        ++stat_processed_;
        ensure(ev.invoke_ != nullptr, "event without callback: ", ev.name_);
        if (observer_ != nullptr) [[unlikely]] {
            observer_->on_dispatch(ev);
        }
        ev.invoke_(ev.ctx_);
        ++n;
        if (stop != nullptr && stop->load(std::memory_order_relaxed))
            [[unlikely]] {
            // Return the unexecuted remainder so the next drain() resumes
            // in exact order (see spill_batch_remainder for the invariant).
            spill_batch_remainder(batch_pos_ + 1);
            batch_pos_ = batch_len_ = 0;
            return n;
        }
    }
    batch_pos_ = batch_len_ = 0;
    return n;
}

// Express slot handling shared by run() and drain(): decide what to do
// with a staged hop entry before looking at the ring/heap.
//   * dead (descheduled/rescheduled): drop it;
//   * earliest pending work and within the horizon: dispatch it straight
//     from the slot — the hop-fusion fast path (zero heap traffic);
//   * later than the head: fold it into the ring/heap and proceed — the
//     fast path only pays off when the hop is next, so the slot never
//     stays parked (a parked slot would re-arbitrate on every dispatch).
// `dispatched` reports an actual execution; `horizon` that the staged hop
// (the earliest pending work) lies beyond the caller's window.
void EventQueue::express_step(Tick max_tick, bool& dispatched, bool& horizon)
{
    const Entry e = express_;
    express_pending_ = false;
    if (!entry_live(e)) {
        return;
    }
    if (!refresh_top() || later(near_at(0), e)) {
        // Per-object quiescence: nothing anywhere is due before this hop.
        if (e.when() > max_tick) {
            horizon = true;
            express_pending_ = true; // leave staged for the next window
            return;
        }
        ++stat_express_hits_;
        exec_entry(e);
        dispatched = true;
        return;
    }
    ++stat_express_spills_;
    schedule_entry(e);
}

std::uint64_t EventQueue::run(Tick max_tick)
{
    std::uint64_t n = 0;
    for (;;) {
        if (express_pending_) {
            bool dispatched = false;
            bool horizon = false;
            express_step(max_tick, dispatched, horizon);
            if (horizon) {
                break; // staged hop past the window (and it is the
                       // earliest work, so nothing else fits either)
            }
            n += dispatched ? 1 : 0;
            continue;
        }
        if (!refresh_top() || near_at(0).when() > max_tick) {
            break;
        }
        if (batch_enabled_ && tick_has_run()) {
            n += dispatch_tick(nullptr);
        } else {
            exec_top();
            ++n;
        }
    }
    // Even if nothing ran, time observably advances to the horizon so
    // callers can interleave run() windows deterministically.
    if (now_ < max_tick && max_tick != kMaxTick) {
        now_ = max_tick;
    }
    return n;
}

EventQueue::DrainOutcome EventQueue::drain(Tick max_tick,
                                           const std::atomic<bool>& stop,
                                           std::uint64_t& executed)
{
    for (;;) {
        if (stop.load(std::memory_order_relaxed)) {
            return DrainOutcome::stopped;
        }
        if (express_pending_) {
            bool dispatched = false;
            bool horizon = false;
            express_step(max_tick, dispatched, horizon);
            if (horizon) {
                return DrainOutcome::horizon;
            }
            executed += dispatched ? 1 : 0;
            continue;
        }
        if (!refresh_top()) {
            return DrainOutcome::drained;
        }
        if (near_at(0).when() > max_tick) {
            return DrainOutcome::horizon;
        }
        // Singleton ticks (no same-tick peer waiting behind the head) take
        // the lean one-event path; batch mechanics only engage when a
        // same-tick run actually exists.
        if (batch_enabled_ && tick_has_run()) {
            executed += dispatch_tick(&stop);
        } else {
            exec_top();
            ++executed;
        }
    }
}

} // namespace accesys
