#include "dma/dma_engine.hh"

#include <algorithm>

#include "sim/fault_injector.hh"
#include "sim/serialize.hh"

namespace accesys::dma {

void DmaParams::validate() const
{
    require_cfg(channels >= 1, "DMA needs at least one channel");
    require_cfg(is_pow2(request_bytes) && request_bytes >= 16,
                "DMA request size must be a power of two >= 16");
    require_cfg(is_pow2(write_bytes) && write_bytes >= 16,
                "DMA write size must be a power of two >= 16");
    require_cfg(window_bytes >= request_bytes,
                "DMA window must hold at least one request");
    require_cfg(max_tags >= 1 && max_tags <= 256,
                "DMA tags must be in 1..256 (8-bit PCIe tag field)");
}

DmaEngine::DmaEngine(Simulator& sim, std::string name,
                     const DmaParams& params, DmaPort& port,
                     mem::BackingStore& store)
    : SimObject(sim, std::move(name)),
      params_(params),
      port_(&port),
      store_(&store),
      tags_(params.max_tags)
{
    params_.validate();
    tlp_pool_ = &pcie::tlp_pool();
    tag_free_bits_.assign((params_.max_tags + 63) / 64, 0);
    for (unsigned t = 0; t < params_.max_tags; ++t) {
        tag_free_bits_[t / 64] |= std::uint64_t{1} << (t % 64);
    }
    if (const FaultInjector* fi = sim.fault_injector(); fi != nullptr) {
        fault_stats_ = std::make_unique<FaultStats>(stat_group());
        const FaultPlan& plan = fi->plan();
        max_retries_ = plan.completion_max_retries;
        if (plan.completion_timeout_ns > 0) {
            timeout_ticks_ = ticks_from_ns(plan.completion_timeout_ns);
            timeout_event_.set_name(this->name() + ".cpl_timeout");
            timeout_event_.set_raw_callback(
                [](void* self) {
                    static_cast<DmaEngine*>(self)->check_timeouts();
                },
                this);
        }
    }
}

void DmaEngine::set_request_bytes(std::uint32_t bytes)
{
    ensure(idle(), name(), ": cannot change request size mid-transfer");
    params_.request_bytes = bytes;
    params_.validate();
}

void DmaEngine::submit(std::span<const DmaJob> jobs)
{
    // Snapshot the device data of the whole batch now: the producer may
    // reuse its staging buffer before the posted writes drain (models a
    // drain FIFO).
    for (const DmaJob& job : jobs) {
        ensure(job.bytes > 0, name(), ": zero-length DMA job");
        if (job.dir == DmaJob::Dir::dev_to_host) {
            store_->copy(job.host_addr, job.dev_addr, job.bytes);
        }
    }
    for (const DmaJob& job : jobs) {
        queued_.push_back(job);
        pump();
    }
}

void DmaEngine::pump()
{
    // `on_sent` callbacks can fire synchronously from dma_send and re-enter
    // pump() while we iterate `active_`; fold nested calls into the loop.
    if (pumping_) {
        repump_ = true;
        return;
    }
    if (active_.empty() && queued_.empty()) {
        return; // idle engine: credit_avail/tx_ready ticks are free
    }
    pumping_ = true;
    do {
        repump_ = false;
        while (active_.size() < params_.channels && !queued_.empty()) {
            JobState* js = acquire_job_state();
            js->job = queued_.take_front();
            active_.push_back(js);
        }
        // Round-robin service across the active channels.
        for (std::size_t i = 0; i < active_.size(); ++i) {
            JobState& js = *active_[i];
            if (js.job.dir == DmaJob::Dir::host_to_dev) {
                pump_read(js);
            } else {
                pump_write(js);
            }
        }
        // Reap any job that completed during pumping.
        for (std::size_t i = 0; i < active_.size();) {
            JobState* js = active_[i];
            if (js->finished < js->job.bytes) {
                ++i;
                continue;
            }
            const Continuation cb = js->job.on_complete;
            js->job = DmaJob{}; // drop the descriptor before recycling
            job_free_.push_back(js);
            active_.erase_at(i);
            ++jobs_done_;
            if (cb) {
                cb.fire();
            }
        }
        if (!queued_.empty() && active_.size() < params_.channels) {
            repump_ = true; // a channel freed during reaping
        }
    } while (repump_);
    pumping_ = false;
}

DmaEngine::JobState* DmaEngine::acquire_job_state()
{
    if (job_free_.empty()) {
        job_pool_.push_back(std::make_unique<JobState>());
        job_pool_.back()->engine = this;
        job_free_.push_back(job_pool_.back().get());
    }
    JobState* js = job_free_.back();
    job_free_.pop_back();
    js->issued = 0;
    js->finished = 0;
    return js;
}

void DmaEngine::pump_read(JobState& js)
{
    while (js.issued < js.job.bytes && tags_in_use_ < params_.max_tags &&
           window_in_use_ + params_.request_bytes <= params_.window_bytes) {
        const auto chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            params_.request_bytes, js.job.bytes - js.issued));
        // Claim the lowest free tag (same pick order as a linear scan).
        unsigned tag = tags_.size();
        for (std::size_t w = 0; w < tag_free_bits_.size(); ++w) {
            if (tag_free_bits_[w] != 0) {
                tag = static_cast<unsigned>(
                    w * 64 +
                    static_cast<unsigned>(
                        __builtin_ctzll(tag_free_bits_[w])));
                break;
            }
        }
        ensure(tag < tags_.size(), name(), ": tag accounting broken");
        tag_free_bits_[tag / 64] &= ~(std::uint64_t{1} << (tag % 64));
        tags_[tag] = TagState{&js, js.issued, chunk, true};
        ++tags_in_use_;
        window_in_use_ += chunk;
        if (timeout_ticks_ > 0) {
            tags_[tag].deadline = now() + timeout_ticks_;
            arm_timeout(tags_[tag].deadline);
        }

        port_->dma_send(
            tlp_pool_->make_mem_read(js.job.host_addr + js.issued, chunk,
                                     static_cast<std::uint8_t>(tag),
                                     port_->dma_device_id()),
            {});
        ++reads_issued_;
        js.issued += chunk;
    }
}

void DmaEngine::pump_write(JobState& js)
{
    while (js.issued < js.job.bytes &&
           port_->dma_egress_depth() < params_.max_egress) {
        const auto chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            params_.write_bytes, js.job.bytes - js.issued));
        const std::uint64_t off = js.issued;

        port_->dma_send(
            tlp_pool_->make_mem_write(js.job.host_addr + off, chunk,
                                      port_->dma_device_id()),
            pcie::SentHook{&DmaEngine::write_sent_cb, &js, chunk});
        ++writes_issued_;
        js.issued += chunk;
    }
}

void DmaEngine::write_sent_cb(void* p, std::uint32_t sent)
{
    auto* jsp = static_cast<JobState*>(p);
    jsp->finished += sent;
    jsp->engine->bytes_written_ += sent;
    if (jsp->finished >= jsp->job.bytes) {
        jsp->engine->pump(); // reap + refill the channel
    }
}

void DmaEngine::arm_timeout(Tick deadline)
{
    // One shared timer at the earliest known deadline; check_timeouts()
    // re-arms from a scan. Deadlines only grow (issue order + backoff), so
    // an already-scheduled timer is never late.
    if (!timeout_event_.scheduled()) {
        schedule(timeout_event_, deadline);
    }
}

void DmaEngine::check_timeouts()
{
    Tick next = kMaxTick;
    for (unsigned t = 0; t < tags_.size(); ++t) {
        TagState& ts = tags_[t];
        if (!ts.busy) {
            continue;
        }
        if (ts.deadline <= now()) {
            ++fault_stats_->timeouts;
            if (port_->dma_path_dead()) {
                // The link tx path has latched failed: no retry can ever
                // complete, so skip the backoff ladder and fail now.
                ++fault_stats_->dead_path;
                fail_job(*ts.job);
                continue;
            }
            if (ts.retries >= max_retries_) {
                // Retry budget exhausted: the whole transfer is abandoned
                // (frees every tag of this job, including this one).
                fail_job(*ts.job);
                continue;
            }
            // Re-issue the read under the same tag with exponential
            // backoff; a late completion of the original attempt retires
            // the tag early and the duplicate is dropped as stray.
            ++ts.retries;
            ts.deadline =
                now() + (timeout_ticks_ << std::min(ts.retries, 16U));
            ++fault_stats_->retries;
            port_->dma_send(
                tlp_pool_->make_mem_read(ts.job->job.host_addr + ts.offset,
                                         ts.bytes,
                                         static_cast<std::uint8_t>(t),
                                         port_->dma_device_id()),
                {});
        }
        if (ts.busy) {
            next = std::min(next, ts.deadline);
        }
    }
    if (next != kMaxTick) {
        schedule(timeout_event_, next);
    }
    pump(); // failed jobs free channels; refill from the queue
}

void DmaEngine::fail_job(JobState& js)
{
    ++fault_stats_->jobs_failed;
    for (unsigned t = 0; t < tags_.size(); ++t) {
        TagState& ts = tags_[t];
        if (ts.busy && ts.job == &js) {
            ts.busy = false;
            tag_free_bits_[t / 64] |= std::uint64_t{1} << (t % 64);
            --tags_in_use_;
            window_in_use_ -= ts.bytes;
        }
    }
    active_.erase_at(active_index(&js));
    // Job-level failure: the completion callback is dropped, never fired —
    // the consumer (accelerator pipeline, and transitively the host's
    // completion-flag poll) observes the failure as absence of progress.
    js.job = DmaJob{};
    job_free_.push_back(&js);
}

void DmaEngine::flr_reset()
{
    ensure(!pumping_, name(), ": function-level reset mid-pump");
    for (unsigned t = 0; t < tags_.size(); ++t) {
        TagState& ts = tags_[t];
        if (ts.busy) {
            ts.busy = false;
            tag_free_bits_[t / 64] |= std::uint64_t{1} << (t % 64);
        }
        ts.job = nullptr;
        ts.retries = 0;
    }
    tags_in_use_ = 0;
    window_in_use_ = 0;
    // Reset discards jobs without firing continuations: the controller
    // state they would notify dies with the same reset.
    while (!active_.empty()) {
        active_.front()->job = DmaJob{};
        job_free_.push_back(active_.take_front());
    }
    queued_.clear();
    // A scheduled watchdog tick fires over all-free tags and goes idle.
}

void DmaEngine::on_completion(const pcie::Tlp& cpl)
{
    if (fault_stats_ != nullptr &&
        (cpl.tag >= tags_.size() || !tags_[cpl.tag].busy)) {
        // Unexpected completion: the tag was retired by a timeout retry
        // racing the original CplD, or by a job-level failure. Dropped,
        // exactly as a real requester handles completions it no longer
        // expects.
        ++fault_stats_->stray;
        return;
    }
    ensure(cpl.tag < tags_.size() && tags_[cpl.tag].busy, name(),
           ": completion for idle tag ", static_cast<int>(cpl.tag));
    if (cpl.poisoned) {
        // Poison containment: the data is never consumed — no store copy,
        // no progress. The whole job is failed (its other tags retire as
        // strays) so the poison surfaces as a missing completion flag, not
        // silent corruption.
        ++fault_stats_->poisoned;
        fail_job(*tags_[cpl.tag].job);
        pump();
        return;
    }
    if (!cpl.is_last) {
        if (timeout_ticks_ > 0) {
            // Data is flowing: restart the watchdog for the tail chunks.
            tags_[cpl.tag].deadline = now() + timeout_ticks_;
        }
        return; // partial completion; wait for the final chunk
    }
    TagState& ts = tags_[cpl.tag];
    JobState& js = *ts.job;

    store_->copy(js.job.dev_addr + ts.offset, js.job.host_addr + ts.offset,
                 ts.bytes);
    bytes_read_ += ts.bytes;
    js.finished += ts.bytes;
    window_in_use_ -= ts.bytes;
    ts.busy = false;
    tag_free_bits_[cpl.tag / 64] |= std::uint64_t{1} << (cpl.tag % 64);
    --tags_in_use_;
    pump();
}

namespace {

void ckpt_dma_job(Ckpt& ar, DmaJob& job, TransferListener* listener)
{
    auto dir = static_cast<std::uint8_t>(job.dir);
    std::uint8_t has_cont = job.on_complete ? 1 : 0;
    ar.io(dir, job.host_addr, job.dev_addr, job.bytes, has_cont,
          job.on_complete.kind, job.on_complete.arg);
    if (ar.loading()) {
        job.dir = static_cast<DmaJob::Dir>(dir);
        if (has_cont != 0) {
            ensure(listener != nullptr,
                   "DMA job with continuation but no listener registered");
            job.on_complete.listener = listener;
        } else {
            job.on_complete.listener = nullptr;
        }
    }
}

} // namespace

void DmaEngine::serialize_jobs(Ckpt& ar)
{
    std::uint64_t n_active = active_.size();
    std::uint64_t n_queued = queued_.size();
    ar.io(n_active, n_queued);
    if (ar.saving()) {
        for (std::size_t i = 0; i < active_.size(); ++i) {
            ckpt_dma_job(ar, active_[i]->job, listener_);
            ar.io(active_[i]->issued, active_[i]->finished);
        }
        for (std::size_t i = 0; i < queued_.size(); ++i) {
            ckpt_dma_job(ar, queued_[i], listener_);
        }
    } else {
        ensure(active_.empty() && queued_.empty(), name(),
               ": restore into a busy DMA engine");
        for (std::uint64_t i = 0; i < n_active; ++i) {
            JobState* js = acquire_job_state();
            ckpt_dma_job(ar, js->job, listener_);
            ar.io(js->issued, js->finished);
            active_.push_back(js);
        }
        for (std::uint64_t i = 0; i < n_queued; ++i) {
            DmaJob job;
            ckpt_dma_job(ar, job, listener_);
            queued_.push_back(std::move(job));
        }
    }
}

void DmaEngine::serialize(Ckpt& ar)
{
    ensure(!pumping_, name(), ": checkpoint mid-pump");
    ar.io(window_in_use_, tags_in_use_);
    ar.pod_vec(tag_free_bits_);
    for (TagState& ts : tags_) {
        ar.io(ts.busy, ts.offset, ts.bytes, ts.deadline, ts.retries);
        std::uint64_t job_idx = ~0ULL;
        if (ar.saving() && ts.busy) {
            job_idx = active_index(ts.job);
        }
        ar.io(job_idx);
        if (ar.loading()) {
            if (ts.busy) {
                ensure(job_idx < active_.size(), name(),
                       ": tag job index out of range");
                ts.job = active_[static_cast<std::size_t>(job_idx)];
            } else {
                ts.job = nullptr;
            }
        }
    }
    if (timeout_ticks_ > 0) {
        timeout_event_.serialize(ar, eq());
    }
}

void DmaEngine::report_occupancy(std::string& out) const
{
    if (active_.empty() && queued_.empty()) {
        return;
    }
    out += "  " + name() + ": active_jobs=" + std::to_string(active_.size()) +
           ", queued_jobs=" + std::to_string(queued_.size()) +
           ", tags_in_use=" + std::to_string(tags_in_use_) +
           ", window_bytes=" + std::to_string(window_in_use_) + "\n";
}

std::uint64_t DmaEngine::encode_sent_hook(const pcie::SentHook& h) const
{
    ensure(h.fn == &DmaEngine::write_sent_cb, name(),
           ": unencodable SentHook staged in egress");
    const std::uint64_t idx =
        active_index(static_cast<const JobState*>(h.ctx));
    return (idx << 32) | h.arg;
}

std::size_t DmaEngine::active_index(const JobState* js) const
{
    for (std::size_t i = 0; i < active_.size(); ++i) {
        if (active_[i] == js) {
            return i;
        }
    }
    panic(name(), ": not an active DMA job");
}

pcie::SentHook DmaEngine::decode_sent_hook(std::uint64_t code)
{
    const auto idx = static_cast<std::size_t>(code >> 32);
    ensure(idx < active_.size(), name(),
           ": SentHook job index out of range");
    return pcie::SentHook{&DmaEngine::write_sent_cb, active_[idx],
                          static_cast<std::uint32_t>(code & 0xffffffffULL)};
}

} // namespace accesys::dma
