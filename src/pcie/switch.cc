#include "pcie/switch.hh"

#include "sim/serialize.hh"

namespace accesys::pcie {

namespace {

/// SentHook body for a forwarded TLP: free its buffer on the ingress port.
void release_ingress_hook(void* port, std::uint32_t payload_bytes)
{
    static_cast<PciePort*>(port)->release_ingress(payload_bytes);
}

} // namespace

PcieSwitch::PcieSwitch(Simulator& sim, std::string name,
                       const SwitchParams& params)
    : SimObject(sim, std::move(name)),
      params_(params),
      delay_(sim, this->name() + ".forward",
             ticks_from_ns(params.latency_ns),
             [](void* self) {
                 static_cast<PcieSwitch*>(self)->forward_delayed();
             },
             this)
{
    egress_.resize(1); // slot 0 reserved for the upstream port
}

void PcieSwitch::forward_delayed()
{
    while (delay_.ready_head() != nullptr) {
        DelayStage::Entry d = delay_.pop();
        const unsigned out = route(*d.tlp);
        if (out == 0) {
            ++upstream_tlps_;
        } else {
            ++downstream_tlps_;
        }
        // Departure frees our ingress buffer for the port it arrived on.
        const SentHook release{&release_ingress_hook, egress_[d.from].port(),
                               d.tlp->payload_bytes()};
        egress_[out].push(std::move(d.tlp), release);
    }
    delay_.rearm();
}

void PcieSwitch::set_upstream(PciePort& port)
{
    ensure(egress_[0].port() == nullptr, name(), ": upstream already set");
    egress_[0] = TlpQueue(port, &forwarded_);
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
    // Routing assumes downstream BARs are disjoint; an overlap would make
    // the chosen port depend on first-match (registration) order.
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
    egress_.emplace_back(port, &forwarded_);
    downstream_.push_back(Downstream{std::move(bars), device_ids});
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
    for (std::size_t i = 0; i < downstream_.size(); ++i) {
        for (const auto& bar : downstream_[i].bars) {
            if (bar.contains(tlp.addr, span)) {
                return static_cast<unsigned>(i + 1);
            }
        }
    }
    return 0; // host memory
}

void PcieSwitch::recv_tlp(unsigned port_idx, TlpPtr tlp)
{
    // Store-and-forward: the TLP is only routed after the switch latency.
    delay_.push(std::move(tlp), port_idx);
}

void PcieSwitch::credit_avail(unsigned port_idx)
{
    egress_[port_idx].kick();
}

std::uint64_t PcieSwitch::encode_sent_hook(const SentHook& hook) const
{
    ensure(hook.fn == &release_ingress_hook, name(),
           ": staged SentHook is not an ingress release");
    for (std::size_t i = 0; i < egress_.size(); ++i) {
        if (egress_[i].port() == hook.ctx) {
            return (std::uint64_t{i} << 32) | hook.arg;
        }
    }
    panic(name(), ": staged ingress release names no port");
}

SentHook PcieSwitch::decode_sent_hook(std::uint64_t code)
{
    const std::uint64_t from = code >> 32;
    ensure(from < egress_.size(), name(), ": ingress index out of range");
    return SentHook{&release_ingress_hook, egress_[from].port(),
                    static_cast<std::uint32_t>(code)};
}

void PcieSwitch::serialize(Ckpt& ar)
{
    delay_.serialize(ar);
    std::uint64_t n_egress = egress_.size();
    ar.io(n_egress);
    ensure(n_egress == egress_.size(), name(),
           ": port count changed across checkpoint");
    for (TlpQueue& e : egress_) {
        e.serialize(ar, *this);
    }
}

void PcieSwitch::report_occupancy(std::string& out) const
{
    std::string line = delay_.occupancy("delayed");
    bool busy = !delay_.empty();
    for (std::size_t i = 0; i < egress_.size(); ++i) {
        if (!egress_[i].empty()) {
            std::string label = "egress";
            label += std::to_string(i);
            line += ", " + egress_[i].occupancy(label);
            busy = true;
        }
    }
    if (busy) {
        out += "  " + name() + ": " + line + "\n";
    }
}

} // namespace accesys::pcie
