#include "sim/simulator.hh"

#include <algorithm>
#include <set>

#include "sim/fault_injector.hh"
#include "sim/serialize.hh"

namespace accesys {

FaultInjector* Simulator::fault_injector() const noexcept
{
    return fault_injector_ != nullptr && fault_injector_->enabled()
               ? fault_injector_
               : nullptr;
}

void Simulator::startup()
{
    if (started_) {
        return;
    }
    started_ = true;
    // Objects may attach more objects during startup; index loop is safe.
    for (std::size_t i = 0; i < objects_.size(); ++i) {
        objects_[i]->startup();
    }
}

RunResult Simulator::run(Tick max_tick)
{
    startup();
    exit_requested_ = false;
    stop_now_.store(false, std::memory_order_relaxed);
    exit_reason_.clear();

    RunResult res;
    std::uint64_t n = 0;
    // The queue's batched drain loop owns event dispatch; the stop flag is
    // observed between events exactly as the per-event exit check did. A
    // pending deterministic checkpoint clips the horizon to its tick; any
    // inter-event point is a legal serial checkpoint, so async interrupts
    // snapshot right where they stopped.
    for (;;) {
        Tick horizon = max_tick;
        const bool ckpt_clips = ckpt_at_ != kMaxTick && ckpt_at_ - 1 < horizon;
        if (ckpt_clips) {
            horizon = ckpt_at_ - 1;
        }
        const EventQueue::DrainOutcome outcome =
            queue_.drain(horizon, stop_now_, n);
        if (outcome == EventQueue::DrainOutcome::stopped) {
            if (exit_requested_) {
                res.cause = ExitCause::exit_requested;
                res.exit_reason = exit_reason_;
                break;
            }
            // Async interrupt (signal/watchdog thread) between events.
            interrupt_posted_.store(false, std::memory_order_relaxed);
            stop_now_.store(false, std::memory_order_relaxed);
            if (!interrupt_ckpt_path_.empty()) {
                checkpoint(interrupt_ckpt_path_);
                res.cause = ExitCause::checkpointed;
                res.exit_reason = interrupt_ckpt_path_;
                break;
            }
            continue; // spurious interrupt with nothing armed
        }
        if (outcome == EventQueue::DrainOutcome::drained) {
            res.cause = ExitCause::queue_drained;
            break;
        }
        if (ckpt_clips && queue_.next_event_tick() > horizon) {
            // Every event before the requested tick has run: snapshot.
            const std::string path = std::move(ckpt_path_);
            ckpt_path_.clear();
            ckpt_at_ = kMaxTick;
            checkpoint(path);
            res.cause = ExitCause::checkpointed;
            res.exit_reason = path;
            break;
        }
        res.cause = ExitCause::horizon_reached;
        queue_.warp_to(max_tick);
        break;
    }
    res.end_tick = queue_.now();
    res.events = n;
    return res;
}

void Simulator::request_checkpoint_at(std::string path, Tick at)
{
    ensure(at > 0, "checkpoint tick must be positive");
    ckpt_path_ = std::move(path);
    ckpt_at_ = at;
}

void Simulator::serialize_state(Ckpt& ar)
{
    ar.begin_section("sim");
    queue_.serialize_clock(ar);
    ar.end_section();

    for (SimObject* obj : objects_) {
        ar.begin_section(obj->name());
        obj->serialize(ar);
        ar.end_section();
    }
    for (CkptHook& hook : ckpt_hooks_) {
        ar.begin_section(hook.name);
        hook.fn(ar);
        ar.end_section();
    }

    // Dispatch-path counters last: restoration itself schedules nothing,
    // but re-inserting events bumps heap counters — the saved values win.
    ar.begin_section("sim.counters");
    queue_.serialize_counters(ar);
    ar.end_section();

    ar.begin_section("stats");
    stats_.serialize(ar);
    ar.end_section();
}

void Simulator::checkpoint(const std::string& path)
{
    std::set<std::string> names;
    for (const SimObject* obj : objects_) {
        ensure(names.insert(obj->name()).second,
               "duplicate component name in checkpoint: ", obj->name());
    }
    Ckpt ar;
    serialize_state(ar);
    ar.write_file(path, config_hash_);
}

void Simulator::restore(const std::string& path)
{
    startup();
    Ckpt ar = Ckpt::load_file(path, config_hash_);

    // Wipe the queue: construction/startup-scheduled events are dropped
    // wholesale and each component re-inserts its own pending events with
    // their exact checkpointed keys.
    queue_.restore_begin();
    serialize_state(ar);
    ensure(queue_.restore_complete(), "restore re-inserted ",
           queue_.restored_count(), " events but the checkpoint recorded ",
           queue_.expected_live(), " live entries (a component is missing "
           "an Event in its serialize())");
}

std::string Simulator::occupancy_report() const
{
    std::string out;
    for (const SimObject* obj : objects_) {
        obj->report_occupancy(out);
    }
    if (out.empty()) {
        out = "  (no component reports queued work)\n";
    }
    return out;
}

void Simulator::detach(SimObject& obj) noexcept
{
    objects_.erase(std::remove(objects_.begin(), objects_.end(), &obj),
                   objects_.end());
}

SimObject::SimObject(Simulator& sim, std::string name)
    : sim_(&sim),
      eq_(&sim.queue()),
      name_(std::move(name)),
      stats_(sim.stats(), name_)
{
    sim_->attach(*this);
}

SimObject::~SimObject()
{
    sim_->detach(*this);
}

} // namespace accesys
