// PCIe switch: one upstream port, N downstream ports, store-and-forward.
//
// Routing rules:
//   * memory TLPs (MRd/MWr) whose address falls in a downstream BAR go to
//     that downstream port; all other memory TLPs go upstream (host memory).
//   * completions route by requester id (0 = root complex / host).
//
// Each forwarded TLP is charged the switch latency (paper Table II: 50 ns)
// in the shared DelayStage before entering its egress port's shared
// TlpQueue (pcie/link.hh). Ingress buffer space (and thus the upstream
// transmitter's credits) is released only once the TLP leaves on the
// egress wire — the staged TLP's SentHook releases it — which is what
// makes large packets "stall at each component" (paper §V-B1b).
#pragma once

#include <utility>
#include <vector>

#include "mem/addr_range.hh"
#include "pcie/link.hh"
#include "sim/simulator.hh"

namespace accesys::pcie {

struct SwitchParams {
    double latency_ns = 50.0;
};

class PcieSwitch final : public SimObject, public PcieNode {
  public:
    PcieSwitch(Simulator& sim, std::string name, const SwitchParams& params);

    /// Connect the port that faces the root complex.
    void set_upstream(PciePort& port);

    /// Connect a device-facing port. `bars` are the address ranges owned by
    /// the device behind it; `device_id` its requester id (non-zero).
    void add_downstream(PciePort& port,
                        std::vector<mem::AddrRange> bars,
                        std::uint16_t device_id);

    /// Connect a port with a whole subtree behind it (e.g. a nested
    /// switch): `bars` is the union of the subtree's address ranges and
    /// `device_ids` every requester id reachable through it, so memory
    /// TLPs route down by BAR and completions route down by requester id.
    void add_downstream(PciePort& port,
                        std::vector<mem::AddrRange> bars,
                        const std::vector<std::uint16_t>& device_ids);

    // PcieNode
    void recv_tlp(unsigned port_idx, TlpPtr tlp) override;
    void credit_avail(unsigned port_idx) override;

    /// Checkpoint/restore the delay stage and per-egress staging queues.
    void serialize(Ckpt& ar) override;
    void report_occupancy(std::string& out) const override;

    /// Staged SentHooks release an ingress buffer: encoded as the ingress
    /// port index (high half) and the payload bytes (low half).
    [[nodiscard]] std::uint64_t encode_sent_hook(
        const SentHook& hook) const override;
    [[nodiscard]] SentHook decode_sent_hook(std::uint64_t code) override;

  private:
    struct Downstream {
        std::vector<mem::AddrRange> bars;
        std::vector<std::uint16_t> device_ids;
    };

    [[nodiscard]] unsigned route(const Tlp& tlp) const;
    void forward_delayed();

    SwitchParams params_;
    DelayStage delay_;
    /// Egress queues, one per port; index 0 = upstream. The port a TLP
    /// arrived on is egress_[from].port().
    std::vector<TlpQueue> egress_;
    std::vector<Downstream> downstream_; ///< parallel to egress_[1..]
    /// requester id -> egress index; flat (a handful of entries), scanned
    /// linearly on the completion routing fast path.
    std::vector<std::pair<std::uint16_t, unsigned>> by_device_;
    [[nodiscard]] const unsigned* egress_for_device(std::uint16_t id) const
    {
        for (const auto& [dev, idx] : by_device_) {
            if (dev == id) {
                return &idx;
            }
        }
        return nullptr;
    }

    stats::Scalar forwarded_{stat_group(), "forwarded", "TLPs forwarded"};
    stats::Scalar upstream_tlps_{stat_group(), "upstream_tlps",
                                 "TLPs routed toward the root complex"};
    stats::Scalar downstream_tlps_{stat_group(), "downstream_tlps",
                                   "TLPs routed toward endpoints"};
};

} // namespace accesys::pcie
