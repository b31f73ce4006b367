#include "pcie/switch.hh"

#include "sim/serialize.hh"

namespace accesys::pcie {

PcieSwitch::PcieSwitch(Simulator& sim, std::string name,
                       const SwitchParams& params)
    : SimObject(sim, std::move(name)), params_(params)
{
    latency_ticks_ = ticks_from_ns(params_.latency_ns);
    egress_.resize(1); // slot 0 reserved for the upstream port
    forward_event_.set_name(this->name() + ".forward");
    forward_event_.set_raw_callback(
        [](void* self) { static_cast<PcieSwitch*>(self)->forward_delayed(); },
        this);
}

void PcieSwitch::forward_delayed()
{
    while (!delay_q_.empty() && delay_q_.front().ready <= now()) {
        Delayed d = std::move(delay_q_.front());
        delay_q_.pop_front();
        const unsigned out = route(*d.tlp);
        if (out == 0) {
            ++upstream_tlps_;
        } else {
            ++downstream_tlps_;
        }
        Egress& e = egress_[out];
        ensure(e.port != nullptr, name(), ": egress port not connected");
        // Uncongested fast path: nothing staged ahead and credits ready —
        // forward without the ring round trip (order-identical: empty queue).
        if (e.q.empty() && e.port->can_send(*d.tlp)) {
            const std::uint32_t cost = d.tlp->payload_bytes();
            e.port->send(std::move(d.tlp));
            ensure(egress_[d.from].port != nullptr, name(),
                   ": ingress port vanished");
            egress_[d.from].port->release_ingress(cost);
            ++forwarded_;
        } else {
            e.q.push_back(Egress::Staged{std::move(d.tlp), d.from});
            kick(out);
        }
    }
    if (!delay_q_.empty()) {
        eq().schedule(forward_event_,
                                       delay_q_.front().ready);
    }
}

void PcieSwitch::set_upstream(PciePort& port)
{
    ensure(egress_[0].port == nullptr, name(), ": upstream already set");
    egress_[0].port = &port;
    port.attach(*this, 0);
}

void PcieSwitch::add_downstream(PciePort& port,
                                std::vector<mem::AddrRange> bars,
                                std::uint16_t device_id)
{
    add_downstream(port, std::move(bars),
                   std::vector<std::uint16_t>{device_id});
}

void PcieSwitch::add_downstream(PciePort& port,
                                std::vector<mem::AddrRange> bars,
                                const std::vector<std::uint16_t>& device_ids)
{
    require_cfg(!device_ids.empty(), name(),
                ": downstream port needs at least one requester id");
    // Validate the whole list before touching by_device_, so a rejected
    // call cannot leave routes to a never-created egress slot behind.
    for (std::size_t i = 0; i < device_ids.size(); ++i) {
        const std::uint16_t id = device_ids[i];
        require_cfg(id != 0, name(),
                    ": device id 0 is reserved for the host");
        require_cfg(egress_for_device(id) == nullptr, name(),
                    ": requester id ", id,
                    " already claimed by another downstream port");
        for (std::size_t j = 0; j < i; ++j) {
            require_cfg(device_ids[j] != id, name(), ": requester id ", id,
                        " listed twice for one downstream port");
        }
    }
    // Routing (and its one-entry memo) assumes downstream BARs are
    // disjoint; an overlap would make first-match order — and thus the
    // chosen port — depend on registration or traffic history.
    {
        std::vector<mem::AddrRange> all;
        for (const Downstream& d : downstream_) {
            all.insert(all.end(), d.bars.begin(), d.bars.end());
        }
        all.insert(all.end(), bars.begin(), bars.end());
        mem::check_disjoint(all);
    }
    const auto idx = static_cast<unsigned>(egress_.size());
    for (const std::uint16_t id : device_ids) {
        by_device_.emplace_back(id, idx);
    }
    egress_.emplace_back();
    egress_.back().port = &port;
    downstream_.push_back(Downstream{std::move(bars), device_ids});
    // Drop any memoised BAR answer taken before this port existed (ranges
    // are checked disjoint above, but the memo must not outlive a
    // topology change — see test_pcie_fabric BarMemo tests).
    last_bar_out_ = 0;
    port.attach(*this, idx);
}

unsigned PcieSwitch::route(const Tlp& tlp) const
{
    if (tlp.type == TlpType::completion) {
        if (tlp.requester == 0) {
            return 0;
        }
        const unsigned* idx = egress_for_device(tlp.requester);
        ensure(idx != nullptr, name(), ": completion for unknown device ",
               tlp.requester);
        return *idx;
    }
    const std::uint32_t span = tlp.length == 0 ? 1 : tlp.length;
    if (last_bar_out_ != 0 && last_bar_.contains(tlp.addr, span)) {
        return last_bar_out_;
    }
    for (std::size_t i = 0; i < downstream_.size(); ++i) {
        for (const auto& bar : downstream_[i].bars) {
            if (bar.contains(tlp.addr, span)) {
                last_bar_ = bar;
                last_bar_out_ = static_cast<unsigned>(i + 1);
                return last_bar_out_;
            }
        }
    }
    return 0; // host memory
}

void PcieSwitch::recv_tlp(unsigned port_idx, TlpPtr tlp)
{
    // Store-and-forward: the TLP is only routed after the switch latency.
    const Tick ready = now() + latency_ticks_;
    delay_q_.push_back(Delayed{ready, std::move(tlp), port_idx});
    if (!forward_event_.scheduled()) {
        eq().schedule(forward_event_, ready);
    }
}

void PcieSwitch::credit_avail(unsigned port_idx)
{
    kick(port_idx);
}

void PcieSwitch::kick(unsigned egress_idx)
{
    Egress& e = egress_[egress_idx];
    ensure(e.port != nullptr, name(), ": egress port not connected");
    while (!e.q.empty() && e.port->can_send(*e.q.front().tlp)) {
        Egress::Staged staged = std::move(e.q.front());
        e.q.pop_front();
        const std::uint32_t cost = staged.tlp->payload_bytes();
        e.port->send(std::move(staged.tlp));
        // Departure frees our ingress buffer for the port it arrived on.
        ensure(egress_[staged.from].port != nullptr, name(),
               ": ingress port vanished");
        egress_[staged.from].port->release_ingress(cost);
        ++forwarded_;
    }
}

void PcieSwitch::serialize(Ckpt& ar)
{
    std::uint64_t n_delay = delay_q_.size();
    ar.io(n_delay);
    if (ar.loading()) {
        delay_q_.clear();
    }
    for (std::uint64_t i = 0; i < n_delay; ++i) {
        if (ar.saving()) {
            Delayed& d = delay_q_[i];
            ar.io(d.ready, d.from);
            ckpt_tlp(ar, d.tlp);
        } else {
            Delayed d;
            ar.io(d.ready, d.from);
            ckpt_tlp(ar, d.tlp);
            delay_q_.push_back(std::move(d));
        }
    }

    std::uint64_t n_egress = egress_.size();
    ar.io(n_egress);
    ensure(n_egress == egress_.size(), name(),
           ": port count changed across checkpoint");
    for (Egress& e : egress_) {
        std::uint64_t n_staged = e.q.size();
        ar.io(n_staged);
        if (ar.loading()) {
            e.q.clear();
        }
        for (std::uint64_t i = 0; i < n_staged; ++i) {
            if (ar.saving()) {
                Egress::Staged& s = e.q[i];
                ar.io(s.from);
                ckpt_tlp(ar, s.tlp);
            } else {
                Egress::Staged s;
                ar.io(s.from);
                ckpt_tlp(ar, s.tlp);
                e.q.push_back(std::move(s));
            }
        }
    }
    if (ar.loading()) {
        last_bar_out_ = 0; // pure routing memo
    }
    forward_event_.serialize(ar, eq());
}

void PcieSwitch::report_occupancy(std::string& out) const
{
    std::size_t staged = 0;
    for (const Egress& e : egress_) {
        staged += e.q.size();
    }
    if (delay_q_.empty() && staged == 0) {
        return;
    }
    out += "  " + name() + ": delayed=" + std::to_string(delay_q_.size()) +
           ", egress_staged=" + std::to_string(staged) + "\n";
}

} // namespace accesys::pcie
