#include "pcie/endpoint.hh"

#include <cstring>

#include "sim/serialize.hh"

namespace accesys::pcie {

Endpoint::Endpoint(Simulator& sim, std::string name,
                   const EndpointParams& params,
                   std::vector<mem::AddrRange> bars)
    : SimObject(sim, std::move(name)),
      params_(params),
      bars_(std::move(bars)),
      delay_(sim, this->name() + ".process",
             ticks_from_ns(params.latency_ns),
             [](void* self) { static_cast<Endpoint*>(self)->process_delayed(); },
             this)
{
    require_cfg(params_.device_id != 0,
                "endpoint device id 0 is reserved for the host");
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
    egress_ = TlpQueue(port, &tlps_sent_);
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

void Endpoint::recv_tlp(unsigned port_idx, TlpPtr tlp)
{
    delay_.push(std::move(tlp), port_idx);
}

void Endpoint::process_delayed()
{
    while (delay_.ready_head() != nullptr) {
        TlpPtr tlp = delay_.pop().tlp;
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
    delay_.rearm();
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
    // credits: drop the TLP and release them, re-arming the link. Staged
    // egress TLPs never consumed credits; their sent-hooks point at
    // function state that dies with this reset — drop them.
    fault_->stats.flr_dropped_tlps +=
        static_cast<double>(delay_.drop_all(*pcie_port_) + egress_.clear());
    fault_->flr_until = now() + duration;
}

void Endpoint::credit_avail(unsigned /*port_idx*/)
{
    // Under lazy link credits this fires only when a send was refused for
    // want of credits (PcieLink arms it from the failed can_send probe);
    // idle-link credit returns are harvested inline instead. Anything that
    // must make progress on credit availability has to stage through
    // send_tlp — which the DMA engine's egress-depth gating and tx_ready()
    // hook do.
    egress_.kick();
    tx_ready();
}

void Endpoint::send_tlp(TlpPtr tlp, SentHook on_sent)
{
    egress_.push(std::move(tlp), on_sent);
}

void Endpoint::serialize(Ckpt& ar)
{
    delay_.serialize(ar);
    egress_.serialize(ar, *this);
    if (fault_ != nullptr) {
        // Config-keyed presence (plan active + ACCESYS_FAULTS): a restore
        // against the same config reconstructs the same block.
        ar.io(fault_->poison_idx, fault_->ur_idx, fault_->flr_until);
        fault_->poison_rng.serialize(ar);
    }
}

void Endpoint::report_occupancy(std::string& out) const
{
    if (delay_.empty() && egress_.empty()) {
        return;
    }
    out += "  " + name() + ": " + delay_.occupancy("ingress_delayed") +
           ", " + egress_.occupancy("egress_staged") + "\n";
}

} // namespace accesys::pcie
