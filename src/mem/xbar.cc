#include "mem/xbar.hh"

#include <algorithm>

#include "sim/serialize.hh"

namespace accesys::mem {

namespace {

double ps_per_byte(double gbps)
{
    return 1000.0 / gbps;
}

} // namespace

/// Upstream side: receives requests from a requestor, sends responses back.
struct Xbar::InSide final : Responder {
    InSide(Xbar& xbar, std::uint16_t idx, const std::string& label)
        : xbar_(xbar),
          idx_(idx),
          rport(xbar.name() + "." + label, *this),
          resp_q(xbar.sim(), xbar.name() + "." + label + ".resp_q",
                 [](void* s, PacketPtr& pkt) {
                     return static_cast<InSide*>(s)->rport.send_resp(pkt);
                 },
                 this)
    {
        resp_q.set_drain_hook(
            [](void* s) { static_cast<InSide*>(s)->wake_waiters(); }, this);
        rport.set_fast_path(
            [](void* s, PacketPtr& pkt) {
                return static_cast<InSide*>(s)->recv_req(pkt);
            },
            [](void* s) { static_cast<InSide*>(s)->retry_resp(); }, this);
    }

    bool recv_req(PacketPtr& pkt) override
    {
        return xbar_.handle_req(idx_, pkt);
    }

    void retry_resp() override { resp_q.retry(); }

    void wake_waiters(); // defined after OutSide (calls into it)

    Xbar& xbar_;
    std::uint16_t idx_;
    ResponsePort rport;
    PacketQueue resp_q;
    Tick ser_free = 0;
    std::vector<OutSide*> resp_waiters;
};

/// Downstream side: sends requests to a responder, receives responses.
struct Xbar::OutSide final : Requestor {
    OutSide(Xbar& xbar, std::uint16_t idx, const std::string& label,
            AddrRange r, bool is_default)
        : xbar_(xbar),
          idx_(idx),
          range(r),
          deflt(is_default),
          qport(xbar.name() + "." + label, *this),
          req_q(xbar.sim(), xbar.name() + "." + label + ".req_q",
                [](void* s, PacketPtr& pkt) {
                    return static_cast<OutSide*>(s)->qport.send_req(pkt);
                },
                this)
    {
        req_q.set_drain_hook(
            [](void* s) { static_cast<OutSide*>(s)->wake_waiters(); }, this);
        qport.set_fast_path(
            [](void* s, PacketPtr& pkt) {
                return static_cast<OutSide*>(s)->recv_resp(pkt);
            },
            [](void* s) { static_cast<OutSide*>(s)->retry_req(); }, this);
    }

    bool recv_resp(PacketPtr& pkt) override
    {
        return xbar_.handle_resp(idx_, pkt);
    }

    void retry_req() override { req_q.retry(); }

    void grant_resp_retry() { qport.send_retry_resp(); }

    void wake_waiters()
    {
        if (req_q.size() < xbar_.params_.queue_capacity) {
            for (InSide* waiter : std::exchange(req_waiters, {})) {
                waiter->rport.send_retry_req();
            }
        }
    }

    Xbar& xbar_;
    std::uint16_t idx_;
    AddrRange range;
    bool deflt;
    RequestPort qport;
    PacketQueue req_q;
    Tick ser_free = 0;
    std::vector<InSide*> req_waiters;
};

void Xbar::InSide::wake_waiters()
{
    if (resp_q.size() < xbar_.params_.queue_capacity) {
        // Downstream ports that were refused a response slot.
        for (OutSide* waiter : std::exchange(resp_waiters, {})) {
            waiter->grant_resp_retry();
        }
    }
}

Xbar::Xbar(Simulator& sim, std::string name, const XbarParams& params)
    : SimObject(sim, std::move(name)), params_(params)
{
    require_cfg(params_.queue_capacity > 0, this->name(),
                ": zero queue capacity");
    require_cfg(params_.width_gbps > 0, this->name(), ": zero width");
    ps_per_byte_ = ps_per_byte(params_.width_gbps);
    req_lat_ticks_ = ticks_from_ns(params_.request_latency_ns);
    resp_lat_ticks_ = ticks_from_ns(params_.response_latency_ns);
}

Xbar::~Xbar() = default;

ResponsePort& Xbar::add_upstream(const std::string& label)
{
    ins_.push_back(std::make_unique<InSide>(
        *this, static_cast<std::uint16_t>(ins_.size()), label));
    return ins_.back()->rport;
}

RequestPort& Xbar::add_downstream(const std::string& label, AddrRange range)
{
    outs_.push_back(std::make_unique<OutSide>(
        *this, static_cast<std::uint16_t>(outs_.size()), label, range,
        false));
    return outs_.back()->qport;
}

RequestPort& Xbar::add_default_downstream(const std::string& label)
{
    require_cfg(default_out_ == nullptr, name(),
                ": only one default downstream port allowed");
    outs_.push_back(std::make_unique<OutSide>(
        *this, static_cast<std::uint16_t>(outs_.size()), label, AddrRange{},
        true));
    default_out_ = outs_.back().get();
    return default_out_->qport;
}

void Xbar::register_snooper(Snooper& snooper, const ResponsePort& via)
{
    for (const auto& in : ins_) {
        if (&in->rport == &via) {
            snoopers_.push_back(SnoopEntry{&snooper, in->idx_});
            return;
        }
    }
    throw ConfigError(name() + ": snooper port is not one of my upstreams");
}

void Xbar::startup()
{
    std::vector<AddrRange> ranges;
    for (const auto& out : outs_) {
        if (!out->deflt) {
            ranges.push_back(out->range);
        }
    }
    check_disjoint(ranges);
}

Xbar::OutSide* Xbar::route(Addr addr, std::uint32_t size)
{
    for (const auto& out : outs_) {
        if (!out->deflt && out->range.contains(addr, size)) {
            return out.get();
        }
    }
    return default_out_;
}

void Xbar::distribute_snoops(std::uint16_t in_idx, const Packet& pkt)
{
    if (!params_.coherent || pkt.flags.uncacheable) {
        return;
    }
    for (const auto& entry : snoopers_) {
        if (entry.in_idx == in_idx) {
            continue; // don't reflect snoops at the initiator
        }
        ++n_snoops_;
        if (pkt.is_write()) {
            entry.snooper->snoop_invalidate(pkt.addr(), pkt.size());
        } else {
            entry.snooper->snoop_clean(pkt.addr(), pkt.size());
        }
    }
}

bool Xbar::handle_req(std::uint16_t in_idx, PacketPtr& pkt)
{
    OutSide* out = route(pkt->addr(), pkt->size());
    if (out == nullptr) {
        panic(name(), ": no route for ", pkt->describe());
    }

    if (out->req_q.size() >= params_.queue_capacity) {
        ++retries_;
        InSide* in = ins_[in_idx].get();
        auto& waiters = out->req_waiters;
        if (std::find(waiters.begin(), waiters.end(), in) == waiters.end()) {
            waiters.push_back(in);
        }
        return false;
    }

    distribute_snoops(in_idx, *pkt);

    ++n_requests_;
    bytes_ += pkt->size();
    pkt->push_route(in_idx);

    out->ser_free = std::max(out->ser_free, now()) +
                    static_cast<Tick>(pkt->size() * ps_per_byte_);
    const Tick ready = out->ser_free + req_lat_ticks_;
    out->req_q.push(std::move(pkt), ready);
    return true;
}

bool Xbar::handle_resp(std::uint16_t out_idx, PacketPtr& pkt)
{
    ensure(pkt->route_depth() > 0, name(), ": response lost its route");
    // Peek the route without popping until we know we can accept.
    const std::uint16_t in_idx = pkt->pop_route();
    ensure(in_idx < ins_.size(), name(), ": bad route index");
    InSide* in = ins_[in_idx].get();

    if (in->resp_q.size() >= params_.queue_capacity) {
        pkt->push_route(in_idx); // restore for the retry
        OutSide* out = outs_[out_idx].get();
        auto& waiters = in->resp_waiters;
        if (std::find(waiters.begin(), waiters.end(), out) == waiters.end()) {
            waiters.push_back(out);
        }
        return false;
    }

    ++n_responses_;
    in->ser_free = std::max(in->ser_free, now()) +
                   static_cast<Tick>(pkt->size() * ps_per_byte_);
    const Tick ready = in->ser_free + resp_lat_ticks_;
    in->resp_q.push(std::move(pkt), ready);
    return true;
}

namespace {

// Retry-waiter lists hold raw pointers into ins_/outs_; checkpoint them as
// index lists and rebuild the pointers on load.
template <typename Side, typename Owner>
void ckpt_waiters(Ckpt& ar, std::vector<Side*>& waiters,
                  const std::vector<std::unique_ptr<Owner>>& pool)
{
    std::uint64_t n = waiters.size();
    ar.io(n);
    if (ar.saving()) {
        for (Side* w : waiters) {
            std::uint16_t idx = w->idx_;
            ar.io(idx);
        }
    } else {
        waiters.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint16_t idx = 0;
            ar.io(idx);
            ensure(idx < pool.size(), "xbar waiter index out of range");
            waiters.push_back(pool[idx].get());
        }
    }
}

} // namespace

void Xbar::serialize(Ckpt& ar)
{
    for (auto& in : ins_) {
        ar.io(in->ser_free);
        in->rport.serialize(ar);
        in->resp_q.serialize(ar);
        ckpt_waiters(ar, in->resp_waiters, outs_);
    }
    for (auto& out : outs_) {
        ar.io(out->ser_free);
        out->qport.serialize(ar);
        out->req_q.serialize(ar);
        ckpt_waiters(ar, out->req_waiters, ins_);
    }
}

void Xbar::report_occupancy(std::string& out) const
{
    std::size_t req = 0;
    std::size_t resp = 0;
    std::size_t waiters = 0;
    for (const auto& in : ins_) {
        resp += in->resp_q.size();
        waiters += in->resp_waiters.size();
    }
    for (const auto& o : outs_) {
        req += o->req_q.size();
        waiters += o->req_waiters.size();
    }
    if (req == 0 && resp == 0 && waiters == 0) {
        return;
    }
    out += "  " + name() + ": req_queued=" + std::to_string(req) +
           ", resp_queued=" + std::to_string(resp) +
           ", retry_waiters=" + std::to_string(waiters) + "\n";
}

} // namespace accesys::mem
