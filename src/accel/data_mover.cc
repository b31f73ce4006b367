#include "accel/data_mover.hh"

#include <algorithm>
#include <array>

#include "sim/serialize.hh"

namespace accesys::accel {

void PcieDmaMover::submit(std::span<const TransferJob> jobs)
{
    ensure(jobs.size() <= kMaxBatch, "PCIe mover batch too large");
    // Translated on the stack, not into a member: a continuation fired
    // while the engine pumps may submit again (a run's completion flag).
    std::array<dma::DmaJob, kMaxBatch> batch;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const TransferJob& job = jobs[i];
        const bool src_host = host_range_.contains(job.src);
        const bool dst_host = host_range_.contains(job.dst);
        ensure(src_host != dst_host,
               "PCIe transfer must cross the host boundary exactly once");
        dma::DmaJob& dj = batch[i];
        if (src_host) {
            dj.dir = dma::DmaJob::Dir::host_to_dev;
            dj.host_addr = job.src;
            dj.dev_addr = job.dst;
        } else {
            dj.dir = dma::DmaJob::Dir::dev_to_host;
            dj.host_addr = job.dst;
            dj.dev_addr = job.src;
        }
        dj.bytes = job.bytes;
        dj.on_complete = job.on_complete;
    }
    engine_->submit(std::span(batch.data(), jobs.size()));
}

DevMemMover::DevMemMover(Simulator& sim, std::string name,
                         const Params& params, mem::AddrRange devmem_range,
                         mem::BackingStore& store)
    : SimObject(sim, std::move(name)),
      params_(params),
      devmem_range_(devmem_range),
      store_(&store),
      port_(this->name() + ".port", *this)
{
    require_cfg(params_.request_bytes >= 16 && params_.max_outstanding >= 1,
                this->name(), ": bad mover parameters");
    port_.set_fast_path(
        [](void* s, mem::PacketPtr& pkt) {
            return static_cast<DevMemMover*>(s)->recv_resp(pkt);
        },
        [](void* s) { static_cast<DevMemMover*>(s)->retry_req(); }, this);
}

void DevMemMover::submit(std::span<const TransferJob> jobs)
{
    ensure(jobs.size() <= kMaxBatch, name(), ": batch too large");
    // Write path (scratchpad -> device memory): snapshot the whole batch
    // first, since the producer may reuse its staging buffer before the
    // writes drain.
    for (const TransferJob& job : jobs) {
        ensure(job.bytes > 0 && job.bytes < (1ULL << 24), name(),
               ": transfer size out of range");
        if (!devmem_range_.contains(job.src)) {
            store_->copy(job.dst, job.src, job.bytes);
        }
    }
    for (const TransferJob& job : jobs) {
        active_.push_back(
            JobState{job, 0, 0, devmem_range_.contains(job.src)});
        ++next_id_;
        pump();
    }
}

void DevMemMover::pump()
{
    if (pumping_) {
        return;
    }
    pumping_ = true;
    while (issue_id_ < next_id_ && !blocked_ &&
           outstanding_ < params_.max_outstanding) {
        JobState& js = active_[issue_id_ - front_id()];
        while (js.issued < js.job.bytes && !blocked_ &&
               outstanding_ < params_.max_outstanding) {
            const auto chunk =
                static_cast<std::uint32_t>(std::min<std::uint64_t>(
                    params_.request_bytes, js.job.bytes - js.issued));
            const std::uint64_t off = js.issued;

            mem::PacketPtr pkt;
            if (js.reads_devmem) {
                pkt = mem::packet_pool().make_read(js.job.src + off, chunk);
                ++reads_;
            } else {
                // Data was snapshotted at submit(); the non-posted write
                // tracks completion timing and ordering only.
                pkt = mem::packet_pool().make_write(js.job.dst + off, chunk);
                ++writes_;
            }
            // Responses carry (job id, offset) for reassembly.
            pkt->set_tag((issue_id_ << 24) | off);
            if (!port_.send_req(pkt)) {
                blocked_ = true;
                break;
            }
            ++outstanding_;
            js.issued += chunk;
            bytes_ += chunk;
        }
        if (js.issued >= js.job.bytes) {
            ++issue_id_;
        }
    }
    pumping_ = false;
    reap();
}

void DevMemMover::reap()
{
    while (!active_.empty() &&
           active_.front().finished >= active_.front().job.bytes) {
        const dma::Continuation cb = active_.front().job.on_complete;
        active_.pop_front();
        if (cb) {
            cb.fire();
        }
    }
}

void DevMemMover::flr_reset()
{
    ensure(!pumping_, name(), ": function-level reset mid-pump");
    // Issued-but-unanswered requests become orphans: their responses are
    // already queued downstream and must be drained, not asserted on. Their
    // ids all fall below the (now empty) ring's front.
    orphans_pending_ += outstanding_;
    outstanding_ = 0;
    active_.clear();
    issue_id_ = next_id_;
    blocked_ = false;
}

bool DevMemMover::recv_resp(mem::PacketPtr& pkt)
{
    const std::uint64_t id = pkt->tag() >> 24;
    const std::uint64_t off = pkt->tag() & ((1ULL << 24) - 1);
    if (id < front_id() && orphans_pending_ > 0) {
        --orphans_pending_;
        pkt.reset();
        return true;
    }
    ensure(id >= front_id() && id < next_id_, name(),
           ": response for unknown job");
    JobState& js = active_[id - front_id()];
    const auto chunk = pkt->size();

    if (js.reads_devmem) {
        store_->copy(js.job.dst + off, js.job.src + off, chunk);
    }
    js.finished += chunk;
    --outstanding_;
    pkt.reset();
    pump();
    return true;
}

void DevMemMover::serialize(Ckpt& ar)
{
    ensure(!pumping_, name(), ": checkpoint mid-pump");
    std::uint64_t n = active_.size();
    ar.io(n, next_id_, outstanding_, orphans_pending_, blocked_);
    if (ar.loading()) {
        ensure(active_.empty(), name(), ": restore into a busy mover");
    }
    // Ids are implied by ring position; they stay in the stream to keep
    // its layout, and a restore checks they are still dense.
    const std::uint64_t first = next_id_ - n;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (ar.loading()) {
            active_.push_back(JobState{});
        }
        JobState& js = active_[i];
        std::uint8_t has_cont = js.job.on_complete ? 1 : 0;
        std::uint64_t id = first + i;
        ar.io(js.job.src, js.job.dst, js.job.bytes, has_cont,
              js.job.on_complete.kind, js.job.on_complete.arg, id, js.issued,
              js.finished, js.reads_devmem);
        if (ar.loading()) {
            ensure(id == first + i, name(),
                   ": checkpointed job ids not dense");
            if (has_cont != 0) {
                ensure(listener_ != nullptr, name(),
                       ": job with continuation but no listener");
                js.job.on_complete.listener = listener_;
            }
        }
    }
    if (ar.loading()) {
        issue_id_ = first;
        while (issue_id_ < next_id_) {
            const JobState& js = active_[issue_id_ - first];
            if (js.issued < js.job.bytes) {
                break;
            }
            ++issue_id_;
        }
    }
    port_.serialize(ar);
}

void DevMemMover::report_occupancy(std::string& out) const
{
    if (active_.empty() && outstanding_ == 0) {
        return;
    }
    out += "  " + name() + ": active_jobs=" + std::to_string(active_.size()) +
           ", outstanding_reqs=" + std::to_string(outstanding_) +
           (blocked_ ? ", blocked on downstream" : "") + "\n";
}

} // namespace accesys::accel
