// PCIe endpoint base class: BAR-mapped register file plus DMA TLP plumbing.
//
// Subclasses (e.g. the MatrixFlow accelerator device) implement the MMIO
// register hooks and receive DMA read completions; they transmit via
// `send_tlp()`, which stages into a credit-gated egress queue.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "mem/addr_range.hh"
#include "pcie/link.hh"
#include "sim/fault_injector.hh"
#include "sim/random.hh"
#include "sim/ring_buffer.hh"
#include "sim/simulator.hh"

namespace accesys::pcie {

struct EndpointParams {
    std::uint16_t device_id = 1; ///< requester id (0 is the host)
    double latency_ns = 20.0;    ///< device controller ingress latency
};

class Endpoint : public SimObject, public PcieNode {
  public:
    Endpoint(Simulator& sim, std::string name, const EndpointParams& params,
             std::vector<mem::AddrRange> bars);

    void connect_pcie(PciePort& port);

    [[nodiscard]] std::uint16_t device_id() const noexcept
    {
        return params_.device_id;
    }
    [[nodiscard]] const std::vector<mem::AddrRange>& bars() const noexcept
    {
        return bars_;
    }

    // PcieNode
    void recv_tlp(unsigned port_idx, TlpPtr tlp) override;
    void credit_avail(unsigned port_idx) override;

    /// Modeled function-level reset: drop everything parked in the ingress
    /// delay stage (releasing the link ingress credits each entry still
    /// holds — re-arming the link) and the staged egress queue, then sit
    /// busy until now() + `duration` ticks. Subclasses override to also
    /// drain their command/DMA state and call this base. Only legal under
    /// an active fault plan, from a quiescent point (between runs or
    /// between events).
    virtual void begin_flr(Tick duration);

    /// Inside a function-level reset window?
    [[nodiscard]] bool in_flr() const noexcept
    {
        return fault_ != nullptr && now() < fault_->flr_until;
    }

    /// Checkpoint/restore the delay and egress queues. Subclasses carrying
    /// extra state override, call this, and append their own fields.
    void serialize(Ckpt& ar) override;
    void report_occupancy(std::string& out) const override;

  protected:
    /// Encode/decode a staged SentHook for checkpointing. The base class
    /// never produces hooks, so the defaults only handle the empty case;
    /// subclasses whose engines attach hooks must override both.
    [[nodiscard]] virtual std::uint64_t encode_sent_hook(
        const SentHook& hook) const;
    [[nodiscard]] virtual SentHook decode_sent_hook(std::uint64_t code);

    /// Register read at BAR-relative `addr`; returns the register value.
    virtual std::uint64_t mmio_read(Addr addr, std::uint32_t size) = 0;

    /// Register write at BAR-relative `addr`.
    virtual void mmio_write(Addr addr, std::uint32_t size,
                            std::uint64_t value) = 0;

    /// A DMA read completion arrived (tag identifies the request).
    virtual void recv_dma_completion(const Tlp& cpl) = 0;

    /// Transmit credits became available; DMA engines can push more.
    virtual void tx_ready() {}

    /// Stage a TLP for transmission; `on_sent` fires when it hits the wire.
    void send_tlp(TlpPtr tlp, SentHook on_sent = {});

    /// Number of TLPs waiting for wire/credits.
    [[nodiscard]] std::size_t egress_depth() const;

    /// Translate an absolute BAR address to a BAR-relative offset.
    [[nodiscard]] Addr bar_offset(Addr addr) const;

    /// Free ingress buffer for a TLP a subclass consumed in its own
    /// recv_tlp override (bypassing the base delay stage).
    void release_pcie_ingress(std::uint32_t payload_bytes);

    /// End of the current FLR window (0 when none was ever issued).
    [[nodiscard]] Tick flr_until() const noexcept
    {
        return fault_ != nullptr ? fault_->flr_until : 0;
    }

    /// Endpoint fault state present (active plan + faults enabled)?
    [[nodiscard]] bool fault_armed() const noexcept
    {
        return fault_ != nullptr;
    }

    /// This endpoint's fault site id (subclasses key additional RNG
    /// channels off it). Requires fault_armed().
    [[nodiscard]] unsigned fault_site_id() const;

    /// This endpoint's transmit direction has latched failed (replay
    /// budget exhausted on the downstream link).
    [[nodiscard]] bool pcie_tx_failed() const;

  private:
    void process_delayed();
    /// Deterministic per-completion poison decision (explicit one-shot
    /// events first, then the seeded Bernoulli stream).
    bool poison_roll();
    /// Inside an mmio_ur fault window? Advances the monotonic cursor.
    bool mmio_ur_active();

    EndpointParams params_;
    Tick latency_ticks_ = 0; ///< precomputed ticks_from_ns(latency_ns)
    std::vector<mem::AddrRange> bars_;
    PciePort* pcie_port_ = nullptr;

    struct Staged {
        TlpPtr tlp;
        SentHook on_sent;
    };
    RingBuffer<Staged> egress_q_;
    void kick_egress();

    struct Delayed {
        Tick ready = 0;
        TlpPtr tlp;
    };
    RingBuffer<Delayed> delay_q_;
    Event process_event_{"", nullptr};

    /// Device-level fault stats, registered only under an active plan so
    /// clean-run stat dumps are untouched.
    struct EpFaultStats {
        explicit EpFaultStats(stats::Group& g)
            : poisoned_cpls(g, "poisoned_cpls",
                            "DMA completions delivered with the poison bit"),
              ur_reads(g, "ur_reads",
                       "MMIO reads completed as all-ones unsupported-request"),
              ur_dropped_writes(g, "ur_dropped_writes",
                                "MMIO writes dropped in a UR window"),
              flrs(g, "flrs", "function-level resets performed"),
              flr_dropped_tlps(g, "flr_dropped_tlps",
                               "queued TLPs drained by function-level reset")
        {
        }
        stats::Scalar poisoned_cpls;
        stats::Scalar ur_reads;
        stats::Scalar ur_dropped_writes;
        stats::Scalar flrs;
        stats::Scalar flr_dropped_tlps;
    };

    /// Per-endpoint fault state: allocated in the constructor iff the
    /// simulator carries an enabled FaultInjector (any active plan), so an
    /// inactive plan costs a single null check on the hot paths.
    struct EpFaultState {
        EpFaultState(stats::Group& g, FaultInjector& fi,
                     const std::string& site_name);
        unsigned site_id = 0;
        Rng poison_rng{0};
        bool poison_rate_on = false;
        double poison_rate = 0.0;
        std::vector<Tick> poison_ticks; ///< one-shot explicit poisons
        std::size_t poison_idx = 0;
        std::vector<std::pair<Tick, Tick>> ur_windows;
        std::size_t ur_idx = 0;
        Tick flr_until = 0;
        EpFaultStats stats;
    };
    std::unique_ptr<EpFaultState> fault_;

    stats::Scalar mmio_reads_{stat_group(), "mmio_reads",
                              "register reads served"};
    stats::Scalar mmio_writes_{stat_group(), "mmio_writes",
                               "register writes served"};
    stats::Scalar dma_completions_{stat_group(), "dma_completions",
                                   "DMA completions received"};
    stats::Scalar tlps_sent_{stat_group(), "tlps_sent", "TLPs transmitted"};
};

} // namespace accesys::pcie
