#include "pcie/endpoint.hh"

#include <cstring>

#include "sim/serialize.hh"

namespace accesys::pcie {

Endpoint::Endpoint(Simulator& sim, std::string name,
                   const EndpointParams& params,
                   std::vector<mem::AddrRange> bars)
    : SimObject(sim, std::move(name)), params_(params), bars_(std::move(bars))
{
    require_cfg(params_.device_id != 0,
                "endpoint device id 0 is reserved for the host");
    latency_ticks_ = ticks_from_ns(params_.latency_ns);
    process_event_.set_name(this->name() + ".process");
    process_event_.set_raw_callback(
        [](void* self) { static_cast<Endpoint*>(self)->process_delayed(); },
        this);
    if (FaultInjector* fi = sim.fault_injector(); fi != nullptr) {
        fault_ =
            std::make_unique<EpFaultState>(stat_group(), *fi, this->name());
    }
}

Endpoint::EpFaultState::EpFaultState(stats::Group& g, FaultInjector& fi,
                                     const std::string& site_name)
    : stats(g)
{
    site_id = fi.register_site(site_name);
    poison_rate_on = fi.poison_applies(site_name);
    poison_rate = fi.plan().poison_rate;
    poison_rng.reseed(fi.device_stream_seed(site_id, 0));
    std::vector<Tick> hang_ticks; // MatrixFlow collects its own
    fi.collect_device(site_name, hang_ticks, poison_ticks, ur_windows);
}

void Endpoint::connect_pcie(PciePort& port)
{
    ensure(pcie_port_ == nullptr, name(), ": PCIe port already connected");
    pcie_port_ = &port;
    port.attach(*this, 0);
}

void Endpoint::release_pcie_ingress(std::uint32_t payload_bytes)
{
    ensure(pcie_port_ != nullptr, name(), ": endpoint not connected");
    pcie_port_->release_ingress(payload_bytes);
}

Addr Endpoint::bar_offset(Addr addr) const
{
    for (const auto& bar : bars_) {
        if (bar.contains(addr)) {
            return addr - bar.start();
        }
    }
    panic(name(), ": address 0x", std::hex, addr, " not in any BAR");
}

void Endpoint::recv_tlp(unsigned /*port_idx*/, TlpPtr tlp)
{
    const Tick ready = now() + latency_ticks_;
    delay_q_.push_back(Delayed{ready, std::move(tlp)});
    if (!process_event_.scheduled()) {
        eq().schedule(process_event_, ready);
    }
}

void Endpoint::process_delayed()
{
    while (!delay_q_.empty() && delay_q_.front().ready <= now()) {
        TlpPtr tlp = std::move(delay_q_.front().tlp);
        delay_q_.pop_front();
        const std::uint32_t ingress_cost = tlp->payload_bytes();

        switch (tlp->type) {
        case TlpType::mem_read: {
            ++mmio_reads_;
            std::uint64_t value;
            if (fault_ != nullptr && mmio_ur_active()) {
                // Unsupported request: complete all-ones without touching
                // the register file.
                ++fault_->stats.ur_reads;
                value = ~std::uint64_t{0};
            } else {
                value = mmio_read(bar_offset(tlp->addr), tlp->length);
            }
            auto cpl = tlp_pool().make_completion(tlp->length, tlp->tag,
                                                  tlp->requester, 0, true);
            cpl->set_data(&value,
                          std::min<std::size_t>(tlp->length, sizeof(value)));
            send_tlp(std::move(cpl));
            break;
        }
        case TlpType::mem_write: {
            ++mmio_writes_;
            if (fault_ != nullptr && mmio_ur_active()) {
                // Posted write into a UR window: silently dropped, like a
                // real UR on a posted request (the host finds out via the
                // missing completion flag).
                ++fault_->stats.ur_dropped_writes;
                break;
            }
            std::uint64_t value = 0;
            if (tlp->has_data()) {
                std::memcpy(&value, tlp->data(),
                            std::min<std::size_t>(tlp->data_size(),
                                                  sizeof(value)));
            }
            mmio_write(bar_offset(tlp->addr), tlp->length, value);
            break;
        }
        case TlpType::completion:
            ++dma_completions_;
            if (fault_ != nullptr && poison_roll()) {
                tlp->poisoned = true;
                ++fault_->stats.poisoned_cpls;
            }
            recv_dma_completion(*tlp);
            break;
        }
        pcie_port_->release_ingress(ingress_cost);
    }
    if (!delay_q_.empty() && !process_event_.scheduled()) {
        eq().schedule(process_event_,
                                       delay_q_.front().ready);
    }
}

bool Endpoint::poison_roll()
{
    EpFaultState& f = *fault_;
    bool hit = false;
    if (f.poison_idx < f.poison_ticks.size() &&
        now() >= f.poison_ticks[f.poison_idx]) {
        ++f.poison_idx;
        hit = true;
    }
    if (f.poison_rate_on) {
        // Always consume the stream: the draw count per arrival is fixed,
        // so explicit events never shift the Bernoulli sequence.
        const bool rolled = f.poison_rng.chance(f.poison_rate);
        hit = hit || rolled;
    }
    return hit;
}

bool Endpoint::mmio_ur_active()
{
    EpFaultState& f = *fault_;
    while (f.ur_idx < f.ur_windows.size() &&
           now() >= f.ur_windows[f.ur_idx].second) {
        ++f.ur_idx;
    }
    return f.ur_idx < f.ur_windows.size() &&
           now() >= f.ur_windows[f.ur_idx].first;
}

unsigned Endpoint::fault_site_id() const
{
    ensure(fault_ != nullptr, name(), ": fault site id without fault state");
    return fault_->site_id;
}

bool Endpoint::pcie_tx_failed() const
{
    ensure(pcie_port_ != nullptr, name(), ": endpoint not connected");
    return pcie_port_->tx_failed();
}

void Endpoint::begin_flr(Tick duration)
{
    ensure(fault_ != nullptr, name(),
           ": function-level reset without an active fault plan");
    ++fault_->stats.flrs;
    // Every TLP parked in the ingress delay stage still holds link ingress
    // credits: drop the TLP and release them, re-arming the link.
    while (!delay_q_.empty()) {
        TlpPtr tlp = std::move(delay_q_.front().tlp);
        delay_q_.pop_front();
        ++fault_->stats.flr_dropped_tlps;
        pcie_port_->release_ingress(tlp->payload_bytes());
    }
    // Staged egress TLPs never consumed credits; their sent-hooks point at
    // function state that dies with this reset — drop them.
    while (!egress_q_.empty()) {
        egress_q_.pop_front();
        ++fault_->stats.flr_dropped_tlps;
    }
    fault_->flr_until = now() + duration;
}

void Endpoint::credit_avail(unsigned /*port_idx*/)
{
    // Under lazy link credits this fires only when a send was refused for
    // want of credits (PcieLink arms it from the failed can_send probe);
    // idle-link credit returns are harvested inline instead. Anything that
    // must make progress on credit availability has to stage through
    // send_tlp / kick_egress — which the DMA engine's egress-depth gating
    // and tx_ready() hook do.
    kick_egress();
    tx_ready();
}

void Endpoint::send_tlp(TlpPtr tlp, SentHook on_sent)
{
    ensure(pcie_port_ != nullptr, name(), ": endpoint not connected");
    // Uncongested fast path: nothing staged ahead and credits ready — send
    // without the ring round trip (order-identical: the queue was empty).
    if (egress_q_.empty() && pcie_port_->can_send(*tlp)) {
        pcie_port_->send(std::move(tlp));
        ++tlps_sent_;
        if (on_sent) {
            on_sent();
        }
        return;
    }
    egress_q_.push_back(Staged{std::move(tlp), on_sent});
    kick_egress();
}

std::size_t Endpoint::egress_depth() const
{
    return egress_q_.size();
}

std::uint64_t Endpoint::encode_sent_hook(const SentHook& hook) const
{
    ensure(!hook, name(), ": staged SentHook with no encoder");
    return 0;
}

SentHook Endpoint::decode_sent_hook(std::uint64_t /*code*/)
{
    panic(name(), ": SentHook decode without an encoder override");
}

void Endpoint::serialize(Ckpt& ar)
{
    std::uint64_t n_delay = delay_q_.size();
    std::uint64_t n_egress = egress_q_.size();
    ar.io(n_delay, n_egress);
    if (ar.saving()) {
        for (std::size_t i = 0; i < n_delay; ++i) {
            Delayed& d = delay_q_[i];
            ar.io(d.ready);
            ckpt_tlp(ar, d.tlp);
        }
        for (std::size_t i = 0; i < n_egress; ++i) {
            Staged& s = egress_q_[i];
            std::uint8_t has_hook = s.on_sent ? 1 : 0;
            std::uint64_t code = has_hook != 0
                                     ? encode_sent_hook(s.on_sent)
                                     : 0;
            ar.io(has_hook, code);
            ckpt_tlp(ar, s.tlp);
        }
    } else {
        delay_q_.clear();
        egress_q_.clear();
        for (std::uint64_t i = 0; i < n_delay; ++i) {
            Delayed d;
            ar.io(d.ready);
            ckpt_tlp(ar, d.tlp);
            delay_q_.push_back(std::move(d));
        }
        for (std::uint64_t i = 0; i < n_egress; ++i) {
            Staged s;
            std::uint8_t has_hook = 0;
            std::uint64_t code = 0;
            ar.io(has_hook, code);
            ckpt_tlp(ar, s.tlp);
            if (has_hook != 0) {
                s.on_sent = decode_sent_hook(code);
            }
            egress_q_.push_back(std::move(s));
        }
    }
    process_event_.serialize(ar, eq());
    if (fault_ != nullptr) {
        // Config-keyed presence (plan active + ACCESYS_FAULTS): a restore
        // against the same config reconstructs the same block.
        ar.io(fault_->poison_idx, fault_->ur_idx, fault_->flr_until);
        fault_->poison_rng.serialize(ar);
    }
}

void Endpoint::report_occupancy(std::string& out) const
{
    if (delay_q_.empty() && egress_q_.empty()) {
        return;
    }
    out += "  " + name() + ": ingress_delayed=" +
           std::to_string(delay_q_.size()) +
           ", egress_staged=" + std::to_string(egress_q_.size()) + "\n";
}

void Endpoint::kick_egress()
{
    ensure(pcie_port_ != nullptr, name(), ": endpoint not connected");
    while (!egress_q_.empty() && pcie_port_->can_send(*egress_q_.front().tlp)) {
        Staged staged = std::move(egress_q_.front());
        egress_q_.pop_front();
        pcie_port_->send(std::move(staged.tlp));
        ++tlps_sent_;
        if (staged.on_sent) {
            staged.on_sent();
        }
    }
}

} // namespace accesys::pcie
