#include "cpu/host_cpu.hh"

#include <algorithm>

#include "sim/serialize.hh"

namespace accesys::cpu {

namespace {

/// Response-tag namespace: distinguishes what a returning packet was for.
enum : std::uint64_t {
    kTagMmio = 1,
    kTagPoll = 2,
    kTagVecRead = 3,
};

} // namespace

void CpuParams::validate() const
{
    require_cfg(freq_ghz > 0, "CPU frequency must be positive");
    require_cfg(mem_window >= 1, "CPU memory window must be >= 1");
    require_cfg(is_pow2(line_bytes) && line_bytes >= 16,
                "CPU line size must be a power of two >= 16");
    require_cfg(simd_lanes >= 1, "CPU needs at least one SIMD lane");
}

HostCpu::HostCpu(Simulator& sim, std::string name, const CpuParams& params,
                 mem::BackingStore& store)
    : SimObject(sim, std::move(name)),
      Clocked(period_from_ghz(params.freq_ghz)),
      params_(params),
      store_(&store),
      port_(this->name() + ".mem_port", *this),
      requestor_id_(mem::alloc_requestor_id())
{
    params_.validate();
    port_.set_fast_path(
        [](void* s, mem::PacketPtr& pkt) {
            return static_cast<HostCpu*>(s)->recv_resp(pkt);
        },
        [](void* s) { static_cast<HostCpu*>(s)->retry_req(); }, this);
    wake_event_.set_name(this->name() + ".wake");
    wake_event_.set_callback([this] { on_wake(); });
    poll_event_.set_name(this->name() + ".poll");
    poll_event_.set_callback([this] { issue_poll(); });
    alu_event_.set_name(this->name() + ".alu_done");
    alu_event_.set_callback([this] { vector_maybe_done(); });
}

void HostCpu::run_program(std::vector<CpuOp> ops,
                          std::function<void()> on_done)
{
    ensure(!running_, name(), ": program already running");
    program_ = std::move(ops);
    on_done_ = std::move(on_done);
    pc_ = 0;
    running_ = true;
    // Start at the next clock edge.
    schedule(wake_event_, next_edge(now()));
}

bool HostCpu::is_uncacheable(Addr addr) const
{
    return std::any_of(uncacheable_.begin(), uncacheable_.end(),
                       [addr](const mem::AddrRange& r) {
                           return r.contains(addr);
                       });
}

bool HostCpu::send(mem::PacketPtr& pkt)
{
    pkt->set_requestor(requestor_id_);
    pkt->flags.uncacheable = is_uncacheable(pkt->addr());
    return port_.send_req(pkt);
}

void HostCpu::next_op()
{
    ++pc_;
    if (pc_ >= program_.size()) {
        running_ = false;
        if (on_done_) {
            // Move first: the callback may start a new program.
            std::function<void()> cb = std::move(on_done_);
            cb();
        }
        return;
    }
    exec_current();
}

void HostCpu::exec_current()
{
    if (pc_ >= program_.size()) {
        next_op();
        return;
    }
    CpuOp& op = program_[pc_];

    if (auto* w = std::get_if<MmioWrite>(&op); w != nullptr) {
        ++n_mmio_writes_;
        auto pkt = mem::packet_pool().make_write(w->addr, 8);
        pkt->set_payload_value(w->value);
        pkt->set_tag(kTagMmio);
        pkt->flags.uncacheable = true;
        pkt->set_requestor(requestor_id_);
        const bool ok = port_.send_req(pkt);
        ensure(ok, name(), ": fabric refused an MMIO write");
        // Wait for the (posted-at-RC) ack before proceeding.
        return;
    }
    if (auto* p = std::get_if<PollFlag>(&op); p != nullptr) {
        polls_this_op_ = 0;
        poll_backoff_ = params_.poll_interval_cycles;
        poll_deadline_ = p->timeout_ns > 0
                             ? now() + ticks_from_ns(p->timeout_ns)
                             : kMaxTick;
        issue_poll();
        return;
    }
    if (auto* v = std::get_if<VectorOp>(&op); v != nullptr) {
        ++n_vector_ops_;
        vec_bytes_ += static_cast<double>(v->bytes_in + v->bytes_out);
        vec_read_issued_ = vec_read_done_ = vec_write_issued_ = 0;
        vec_inflight_ = 0;
        vec_reads_complete_ = v->bytes_in == 0;
        const Cycles alu_cycles =
            div_ceil(v->alu_ops, params_.simd_lanes);
        vec_alu_done_ = now() + cycles_to_ticks(alu_cycles);
        pump_vector();
        return;
    }
    if (auto* d = std::get_if<Delay>(&op); d != nullptr) {
        busy_ticks_ += static_cast<double>(cycles_to_ticks(d->cycles));
        delay_pending_ = true;
        schedule(wake_event_, now() + cycles_to_ticks(d->cycles));
        return;
    }
    if (auto* c = std::get_if<Call>(&op); c != nullptr) {
        if (c->fn) {
            c->fn();
        }
        next_op();
        return;
    }
    panic(name(), ": unknown CPU op");
}

void HostCpu::issue_poll()
{
    ensure(pc_ < program_.size() &&
               std::holds_alternative<PollFlag>(program_[pc_]),
           name(), ": poll issue outside a poll op (pc=", pc_, ")");
    const auto& p = std::get<PollFlag>(program_[pc_]);
    if (params_.max_polls_per_op != 0 &&
        ++polls_this_op_ > params_.max_polls_per_op) {
        throw SimError(strcat_msg(
            name(), ": poll of flag 0x", p.addr, " exceeded ",
            params_.max_polls_per_op,
            " reads without a match (liveness watchdog: the completion "
            "can no longer arrive); component occupancy:\n",
            sim().occupancy_report()));
    }
    ++n_polls_;
    auto pkt = mem::packet_pool().make_read(p.addr, 8);
    pkt->set_tag(kTagPoll);
    const bool ok = send(pkt);
    ensure(ok, name(), ": fabric refused a poll read");
}

void HostCpu::pump_vector()
{
    ensure(pc_ < program_.size() &&
               std::holds_alternative<VectorOp>(program_[pc_]),
           name(), ": pump_vector outside a vector op (pc=", pc_, ")");
    const auto& v = std::get<VectorOp>(program_[pc_]);
    const unsigned window = is_uncacheable(v.in_addr)
                                ? params_.uncacheable_window
                                : params_.mem_window;

    // Phase 1: stream reads (window-limited).
    while (vec_read_issued_ < v.bytes_in && !blocked_ &&
           vec_inflight_ < window) {
        const Addr addr = v.in_addr + vec_read_issued_;
        const auto chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            params_.line_bytes - addr % params_.line_bytes,
            v.bytes_in - vec_read_issued_));
        auto pkt = mem::packet_pool().make_read(addr, chunk);
        pkt->set_tag(kTagVecRead);
        if (!send(pkt)) {
            blocked_ = true;
            return;
        }
        vec_read_issued_ += chunk;
        ++vec_inflight_;
    }

    // Phase 2: once reads are done, stream posted writes.
    if (vec_reads_complete_) {
        while (vec_write_issued_ < v.bytes_out && !blocked_) {
            const Addr addr = v.out_addr + vec_write_issued_;
            const auto chunk =
                static_cast<std::uint32_t>(std::min<std::uint64_t>(
                    params_.line_bytes - addr % params_.line_bytes,
                    v.bytes_out - vec_write_issued_));
            auto pkt = mem::packet_pool().make_write(addr, chunk);
            pkt->flags.posted = true;
            if (!send(pkt)) {
                blocked_ = true;
                return;
            }
            vec_write_issued_ += chunk;
        }
        vector_maybe_done();
    }
}

void HostCpu::vector_maybe_done()
{
    ensure(pc_ < program_.size() &&
               std::holds_alternative<VectorOp>(program_[pc_]),
           name(), ": vector completion outside a vector op (pc=", pc_, ")");
    const auto& v = std::get<VectorOp>(program_[pc_]);
    const bool mem_done = vec_reads_complete_ &&
                          vec_write_issued_ >= v.bytes_out &&
                          vec_inflight_ == 0;
    if (!mem_done) {
        return;
    }
    if (now() < vec_alu_done_) {
        // Memory finished first; wait out the ALU pipe.
        if (!alu_event_.scheduled()) {
            schedule(alu_event_, vec_alu_done_);
        }
        return;
    }
    next_op();
}

void HostCpu::on_wake()
{
    if (delay_pending_) {
        delay_pending_ = false;
        next_op();
        return;
    }
    // Program start (run_program scheduled us at the next clock edge).
    exec_current();
}

bool HostCpu::recv_resp(mem::PacketPtr& pkt)
{
    switch (pkt->tag()) {
    case kTagMmio:
        pkt.reset();
        next_op();
        return true;

    case kTagPoll: {
        ensure(pc_ < program_.size() &&
                   std::holds_alternative<PollFlag>(program_[pc_]),
               name(), ": poll response outside a poll op (pc=", pc_, ")");
        const auto& p = std::get<PollFlag>(program_[pc_]);
        const auto value = store_->read_obj<std::uint64_t>(p.addr);
        pkt.reset();
        if (value == p.expected) {
            next_op();
        } else if (now() >= poll_deadline_) {
            // Job timeout: the flag never arrived within the budget. Give
            // up on this poll so the program (and the other devices'
            // polls) can finish; the caller reads the flag to tell
            // success from timeout.
            next_op();
        } else {
            schedule(poll_event_, now() + cycles_to_ticks(poll_backoff_));
            poll_backoff_ = std::min(poll_backoff_ * 2,
                                     params_.poll_interval_max_cycles);
        }
        return true;
    }

    case kTagVecRead: {
        ensure(pc_ < program_.size() &&
                   std::holds_alternative<VectorOp>(program_[pc_]),
               name(), ": vector response outside a vector op (pc=", pc_,
               ")");
        const auto& v = std::get<VectorOp>(program_[pc_]);
        pkt.reset();
        ensure(vec_inflight_ > 0, name(), ": vector window underflow");
        --vec_inflight_;
        vec_read_done_ += 1;
        if (vec_read_issued_ >= v.bytes_in && vec_inflight_ == 0) {
            vec_reads_complete_ = true;
        }
        // pump_vector() drives phase 2 and completion; it may finish the op
        // and advance the program, so nothing may touch vector state after.
        pump_vector();
        return true;
    }

    default:
        panic(name(), ": response with unknown tag ", pkt->tag());
    }
}

void HostCpu::serialize(Ckpt& ar)
{
    std::uint64_t pc = pc_;
    ar.io(pc, running_, blocked_, delay_pending_, poll_backoff_,
          poll_deadline_, polls_this_op_, vec_read_issued_, vec_read_done_,
          vec_write_issued_, vec_inflight_, vec_alu_done_,
          vec_reads_complete_);
    pc_ = static_cast<std::size_t>(pc);
    port_.serialize(ar);
    wake_event_.serialize(ar, eq());
    poll_event_.serialize(ar, eq());
    alu_event_.serialize(ar, eq());
    if (ar.loading()) {
        ensure(!running_ || pc_ < program_.size(), name(),
               ": checkpointed pc ", pc_, " outside the re-dispatched "
               "program (", program_.size(),
               " ops) — restore needs the identical dispatch");
    }
}

void HostCpu::report_occupancy(std::string& out) const
{
    if (!running_) {
        return;
    }
    out += "  " + name() + ": op " + std::to_string(pc_) + "/" +
           std::to_string(program_.size()) +
           (blocked_ ? " (blocked on fabric)" : "") + ", vec_inflight=" +
           std::to_string(vec_inflight_) + "\n";
}

} // namespace accesys::cpu
