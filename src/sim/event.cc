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
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < near_n_; ++i) {
        n += entry_live(near_[i]) ? 1 : 0;
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
    for (std::size_t i = 0; i < near_n_; ++i) {
        near_[i].ev->scheduled_ = false;
    }
    near_n_ = 0;
    for (Entry& e : heap_) {
        e.ev->scheduled_ = false;
    }
    heap_.clear();
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
    ar.io(stat_processed_, stat_scheduled_, stat_heap_pushes_,
          stat_near_hits_);
}

void EventQueue::restore_event(Event& ev)
{
    ensure(ev.scheduled_, "restore_event on an idle event: ", ev.name_);
    check_priority(ev.priority_);
    heap_push(
        Entry{ev.when_, pack_prio_seq(ev.priority_, ev.generation_), &ev});
    ++restored_count_;
}

std::uint64_t EventQueue::run(Tick max_tick)
{
    static const std::atomic<bool> never_stop{false};
    std::uint64_t n = 0;
    drain(max_tick, never_stop, n);
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
        if (!refresh_top()) {
            return DrainOutcome::drained;
        }
        if (top().tick > max_tick) {
            return DrainOutcome::horizon;
        }
        exec_top();
        ++executed;
    }
}

} // namespace accesys
