#include "mem/mem_ctrl.hh"

#include <algorithm>

#include "sim/serialize.hh"

namespace accesys::mem {

namespace {

/// Picoseconds one byte occupies a channel of `gb_per_s` gigaBYTES per
/// second. Note the unit: despite the "gbps" spelling used by
/// DramParams::peak_gbps() and SimpleMemParams::bandwidth_gbps, both report
/// GB/s (bytes, not bits) — one byte at X GB/s takes 1000/X ps. Callers
/// must reject a zero bandwidth before dividing.
double ps_per_byte(double gb_per_s)
{
    return 1000.0 / gb_per_s;
}

} // namespace

MemCtrl::MemCtrl(Simulator& sim, std::string name,
                 const MemCtrlParams& params, AddrRange range)
    : SimObject(sim, std::move(name)),
      params_(params),
      range_(range),
      dram_(params.dram),
      port_(this->name() + ".port", *this),
      resp_q_(sim, this->name() + ".resp_q",
              [](void* s, PacketPtr& pkt) {
                  return static_cast<MemCtrl*>(s)->port_.send_resp(pkt);
              },
              this),
      issue_event_(this->name() + ".issue", nullptr)
{
    issue_event_.set_raw_callback(
        [](void* s) { static_cast<MemCtrl*>(s)->issue_next(); }, this);
    port_.set_fast_path(
        [](void* s, PacketPtr& pkt) {
            return static_cast<MemCtrl*>(s)->recv_req(pkt);
        },
        [](void* s) { static_cast<MemCtrl*>(s)->retry_resp(); }, this);
    require_cfg(params_.read_queue_capacity > 0 &&
                    params_.write_queue_capacity > 0,
                this->name(), ": zero queue capacity");
    require_cfg(dram_.params().peak_gbps() > 0, this->name(),
                ": DRAM peak bandwidth must be nonzero");
    frontend_ticks_ = ticks_from_ns(params_.frontend_latency_ns);
    backend_ticks_ = ticks_from_ns(params_.backend_latency_ns);
    dram_ps_per_byte_ = ps_per_byte(dram_.params().peak_gbps());
}

double MemCtrl::row_hit_rate() const
{
    const auto total = dram_.row_hits() + dram_.row_misses();
    return total == 0
               ? 0.0
               : static_cast<double>(dram_.row_hits()) /
                     static_cast<double>(total);
}

bool MemCtrl::recv_req(PacketPtr& pkt)
{
    if (!range_.contains(pkt->addr(), pkt->size())) {
        panic(name(), ": request outside range: ", pkt->describe());
    }

    if (pkt->is_read()) {
        if (read_q_full()) {
            ++retries_;
            blocked_upstream_ = true;
            return false;
        }
        ++n_reads_;
        pkt->set_created_at(now());
        // Packed FR-FCFS key computed once at admission; the issue-side
        // window scan then never decodes addresses.
        read_keys_.push_back(dram_.packed_key(pkt->addr()));
        read_q_.push_back(std::move(pkt));
    } else {
        if (write_q_full()) {
            ++retries_;
            blocked_upstream_ = true;
            return false;
        }
        ++n_writes_;
        write_q_.push_back(WriteJob{pkt->addr(), pkt->size()});
        // Writes are acknowledged at admission (posted semantics at the
        // controller); the job object keeps consuming DRAM bandwidth.
        if (!pkt->flags.posted) {
            pkt->make_response();
            resp_q_.push(std::move(pkt),
                         now() + frontend_ticks_);
        }
    }
    schedule_issue();
    return true;
}

void MemCtrl::schedule_issue()
{
    if (read_q_.empty() && write_q_.empty()) {
        return;
    }
    const Tick when = std::max(now(), issue_free_);
    if (!issue_event_.scheduled()) {
        eq().schedule(issue_event_, when);
    } else if (issue_event_.when() > when) {
        reschedule(issue_event_, when);
    }
}

void MemCtrl::service_dram(Addr addr, std::uint32_t size, bool is_write,
                           Tick& completion)
{
    const std::uint32_t atom = dram_.params().burst_bytes();
    const Addr first = align_down(addr, atom);
    const Addr last = align_up(addr + size, atom);
    const Tick start = std::max(now(), issue_free_);
    // One row-streaming walk over all consecutive bursts (bit-equivalent
    // to the per-burst access() loop this replaces).
    const auto acc =
        dram_.access_run(first, (last - first) / atom, is_write, start);
    completion = std::max(completion, acc.data_ready);
    // Pace the next issue so the queue drains at (at most) peak bandwidth.
    const auto bytes = static_cast<double>(last - first);
    issue_free_ = start + static_cast<Tick>(bytes * dram_ps_per_byte_);
}

void MemCtrl::issue_next()
{
    // Hysteresis-based write drain: start when the write queue is filling,
    // keep going until it is nearly empty or reads are starved.
    const auto high = static_cast<std::size_t>(
        params_.write_drain_threshold *
        static_cast<double>(params_.write_queue_capacity));
    if (write_q_.size() >= high || read_q_.empty()) {
        draining_writes_ = !write_q_.empty();
    } else if (write_q_.size() <= params_.write_queue_capacity / 8) {
        draining_writes_ = false;
    }

    if (draining_writes_ && !write_q_.empty()) {
        const WriteJob job = write_q_.front();
        write_q_.pop_front();
        Tick completion = 0;
        service_dram(job.addr, job.size, true, completion);
        bytes_written_ += job.size;
    } else if (!read_q_.empty()) {
        // FR-FCFS: prefer a row-hitting read within the window, else oldest.
        // Each queued read's packed (channel,bank,row) key (stamped at
        // admission) is compared against its bank's open-row key — first
        // match in age order wins, exactly like the decode-based probe loop
        // this replaces, but at one 64-bit compare per entry.
        std::size_t pick = 0;
        bool window_hit = false;
        const std::size_t window =
            std::min(params_.frfcfs_window, read_q_.size());
        const std::uint64_t* open = dram_.open_keys();
        const std::uint64_t smask = dram_.slot_mask();
        for (std::size_t i = 0; i < window; ++i) {
            const std::uint64_t key = read_keys_[i];
            if (open[key & smask] == key) {
                pick = i;
                window_hit = true;
                break;
            }
        }
        if (window_hit) {
            ++frfcfs_window_hits_;
        } else {
            ++frfcfs_oldest_picks_;
        }
        PacketPtr pkt = read_q_.take_at(pick);
        (void)read_keys_.take_at(pick);

        Tick completion = 0;
        service_dram(pkt->addr(), pkt->size(), false, completion);
        bytes_read_ += pkt->size();

        const Tick done =
            completion + backend_ticks_;
        read_latency_ns_.sample(ticks_to_ns(done - pkt->created_at()));
        pkt->make_response();
        resp_q_.push(std::move(pkt), done);
    }

    maybe_unblock();
    schedule_issue();
}

void MemCtrl::maybe_unblock()
{
    if (blocked_upstream_ && !read_q_full() && !write_q_full()) {
        blocked_upstream_ = false;
        port_.send_retry_req();
    }
}

SimpleMem::SimpleMem(Simulator& sim, std::string name,
                     const SimpleMemParams& params, AddrRange range)
    : SimObject(sim, std::move(name)),
      params_(params),
      range_(range),
      port_(this->name() + ".port", *this),
      resp_q_(sim, this->name() + ".resp_q",
              [](void* s, PacketPtr& pkt) {
                  auto* self = static_cast<SimpleMem*>(s);
                  const bool ok = self->port_.send_resp(pkt);
                  if (ok) {
                      --self->in_flight_;
                      if (self->blocked_upstream_) {
                          self->blocked_upstream_ = false;
                          self->port_.send_retry_req();
                      }
                  }
                  return ok;
              },
              this)
{
    port_.set_fast_path(
        [](void* s, PacketPtr& pkt) {
            return static_cast<SimpleMem*>(s)->recv_req(pkt);
        },
        [](void* s) { static_cast<SimpleMem*>(s)->retry_resp(); }, this);
    require_cfg(params_.bandwidth_gbps > 0, this->name(), ": zero bandwidth");
    latency_ticks_ = ticks_from_ns(params_.latency_ns);
    ps_per_byte_ = ps_per_byte(params_.bandwidth_gbps);
}

bool SimpleMem::recv_req(PacketPtr& pkt)
{
    if (!range_.contains(pkt->addr(), pkt->size())) {
        panic(name(), ": request outside range: ", pkt->describe());
    }
    if (in_flight_ >= params_.queue_capacity) {
        blocked_upstream_ = true;
        return false;
    }

    // Serialise on the memory's internal bus, then add the access latency.
    const Tick ser = static_cast<Tick>(static_cast<double>(pkt->size()) *
                                       ps_per_byte_);
    bus_free_ = std::max(bus_free_, now()) + ser;
    const Tick done = bus_free_ + latency_ticks_;

    bytes_ += pkt->size();
    if (pkt->is_read()) {
        ++n_reads_;
    } else {
        ++n_writes_;
    }

    const bool posted = pkt->flags.posted && pkt->is_write();
    if (!posted) {
        ++in_flight_;
        pkt->make_response();
        resp_q_.push(std::move(pkt), done);
    }
    return true;
}

void SimpleMem::retry_resp()
{
    resp_q_.retry();
}

void MemCtrl::serialize(Ckpt& ar)
{
    ar.io(issue_free_, draining_writes_, blocked_upstream_);
    std::uint64_t nr = read_q_.size();
    std::uint64_t nw = write_q_.size();
    ar.io(nr, nw);
    if (ar.saving()) {
        for (std::size_t i = 0; i < nr; ++i) {
            ckpt_packet(ar, read_q_[i]);
            ar.io(read_keys_[i]);
        }
        for (std::size_t i = 0; i < nw; ++i) {
            ar.io(write_q_[i]);
        }
    } else {
        read_q_.clear();
        read_keys_.clear();
        write_q_.clear();
        for (std::uint64_t i = 0; i < nr; ++i) {
            PacketPtr pkt;
            ckpt_packet(ar, pkt);
            std::uint64_t key = 0;
            ar.io(key);
            read_q_.push_back(std::move(pkt));
            read_keys_.push_back(key);
        }
        for (std::uint64_t i = 0; i < nw; ++i) {
            WriteJob job{};
            ar.io(job);
            write_q_.push_back(job);
        }
    }
    dram_.serialize(ar);
    port_.serialize(ar);
    resp_q_.serialize(ar);
    issue_event_.serialize(ar, eq());
}

void MemCtrl::report_occupancy(std::string& out) const
{
    if (read_q_.empty() && write_q_.empty() && resp_q_.empty() &&
        !blocked_upstream_) {
        return;
    }
    out += "  " + name() + ": read_q=" + std::to_string(read_q_.size()) +
           ", write_q=" + std::to_string(write_q_.size()) +
           ", resp_q=" + std::to_string(resp_q_.size()) +
           (resp_q_.blocked() ? " (blocked)" : "") +
           (blocked_upstream_ ? ", upstream refused" : "") + "\n";
}

void SimpleMem::serialize(Ckpt& ar)
{
    std::uint64_t inflight = in_flight_;
    ar.io(bus_free_, inflight, blocked_upstream_);
    in_flight_ = static_cast<std::size_t>(inflight);
    port_.serialize(ar);
    resp_q_.serialize(ar);
}

void SimpleMem::report_occupancy(std::string& out) const
{
    if (in_flight_ == 0 && resp_q_.empty() && !blocked_upstream_) {
        return;
    }
    out += "  " + name() + ": in_flight=" + std::to_string(in_flight_) +
           ", resp_q=" + std::to_string(resp_q_.size()) +
           (blocked_upstream_ ? ", upstream refused" : "") + "\n";
}

} // namespace accesys::mem
