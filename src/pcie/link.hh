// PCIe link: full-duplex serialization with credit-based flow control.
//
// A link joins two PcieNodes. Each direction independently serialises TLPs
// at the line rate (lanes × lane speed × encoding efficiency) and delivers
// them after a propagation delay. Transmission is gated by credits that
// mirror the receiver's ingress buffer (header slots + payload bytes);
// receivers release credits when they consume or forward a TLP, and the
// release travels back with the propagation delay.
//
// The `tlp_overhead_bytes` parameter lumps TLP header, LCRC, sequence number
// and framing symbols. DLLP (Ack/Nak and flow-control update) bandwidth is
// not modelled: those packets are a few bytes each and take a small share
// of the line rate, so absolute link throughput reads slightly high.
//
// Credit accounting is lazy: a released ingress buffer is recorded with its
// return-arrival tick, and the transmit side harvests every matured return
// the next time it probes can_send(). No event is scheduled per return, so
// uncongested links carry zero credit events per TLP. Only a failed probe
// marks the direction starved and schedules one credit event at the
// earliest in-flight return's arrival; that event harvests and kicks the
// starved node's credit_avail(). test_pcie_link's randomized reference
// model (LinkCreditRandomized) locks both halves: the balance a probe sees
// is the advertised buffer minus sends plus matured returns, and the kick
// reaches a starved sender at the first tick its head TLP fits.
// Fault model (active only when a FaultPlan is configured — see
// sim/fault_injector.hh): each direction becomes a data-link layer with
// sequence numbers, a bounded replay buffer, cumulative ACK / NAK-once
// accounting and a replay timer. A TLP marked corrupted at transmit is
// discarded by the receiving end (never delivered) and recovered by
// retransmission from the replay buffer; TLPs that exhaust the replay
// budget are dropped for good (their flow-control credits synthesized
// back) and the direction latches failed — recovery above that point is
// the transaction layer's completion timeouts. Link-down windows drop
// everything in transit; the retrain at window end drains pending credit
// returns, re-arms full credits and kicks the starved transmitter, while
// the replay timer re-sends what the wire lost. Without a plan no fault
// state is allocated and no fault stat registered: the clean path and its
// stats dumps are bit-identical to a build without the fault model.
//
// The two TLP staging stages every PcieNode (endpoint, switch, root
// complex) builds on also live here: DelayStage, the store-and-forward
// ingress latency that holds a TLP's ingress credits until its owner
// consumes or forwards it, and TlpQueue, the credit-gated egress FIFO in
// front of a PciePort whose departures fire each TLP's SentHook.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "pcie/tlp.hh"
#include "sim/fault_injector.hh"
#include "sim/random.hh"
#include "sim/ring_buffer.hh"
#include "sim/simulator.hh"

namespace accesys::pcie {

struct LinkParams {
    unsigned lanes = 4;
    double lane_gbps = 4.0; ///< raw line rate per lane (paper sweeps 2..64)
    Gen gen = Gen::gen2;
    double propagation_delay_ns = 5.0;
    std::uint32_t tlp_overhead_bytes = 24;
    /// Receiver ingress buffering advertised as credits, per direction.
    unsigned hdr_credits = 64;
    std::uint64_t data_credit_bytes = 16 * kKiB;

    /// Effective payload-agnostic bandwidth in GB/s (after encoding).
    [[nodiscard]] double effective_gbps() const
    {
        return lanes * lane_gbps * encoding_efficiency(gen) / 8.0;
    }

    /// Picoseconds to serialise `bytes` on the wire.
    [[nodiscard]] Tick serialize_ticks(std::uint64_t bytes) const
    {
        return static_cast<Tick>(static_cast<double>(bytes) * 1000.0 /
                                 effective_gbps());
    }

    void validate() const;

    /// Configure (lanes, lane speed) for a target *effective* bandwidth,
    /// mirroring the paper's "PCIe-xGB" system labels.
    [[nodiscard]] static LinkParams from_target_gbps(double gbps,
                                                     unsigned lanes = 8,
                                                     Gen gen = Gen::gen3);
};

class PcieLink;

/// Receiving interface implemented by RC / switch / endpoints.
class PcieNode {
  public:
    virtual ~PcieNode() = default;

    /// A TLP fully arrived into this node's ingress buffer on `port_idx`.
    /// The node must eventually call PciePort::release_ingress() with the
    /// same TLP's cost to free the buffer.
    virtual void recv_tlp(unsigned port_idx, TlpPtr tlp) = 0;

    /// Transmit credits became available on `port_idx` — kick egress queues.
    virtual void credit_avail(unsigned /*port_idx*/) {}

    /// Encode/decode a SentHook staged in one of this node's egress queues
    /// for checkpointing. The defaults handle only the empty hook; nodes
    /// that stage hooks override both.
    [[nodiscard]] virtual std::uint64_t encode_sent_hook(
        const SentHook& hook) const;
    [[nodiscard]] virtual SentHook decode_sent_hook(std::uint64_t code);
};

/// One end of a link. Owned by the link, used by the attached node.
class PciePort {
  public:
    /// Attach the consuming node; `node_port_idx` is the node's local index
    /// for this port (passed back in recv_tlp / credit_avail).
    void attach(PcieNode& node, unsigned node_port_idx);

    /// Would the peer's ingress accept this TLP right now? Harvests any
    /// matured lazy credit returns first; a failed probe arms the
    /// credit_avail() kick for this direction.
    [[nodiscard]] bool can_send(const Tlp& tlp) const;

    /// Transmit (requires can_send). Consumes peer-ingress credits.
    void send(TlpPtr tlp);

    /// The node consumed/forwarded a TLP received on this port: free the
    /// ingress buffer (one header slot + `payload_bytes` of data buffer)
    /// and return the credits to the peer's transmitter.
    void release_ingress(std::uint32_t payload_bytes);

    /// Transmit-credit views (diagnostics/tests); harvest matured lazy
    /// returns so the count matches what a can_send() probe would see.
    [[nodiscard]] unsigned hdr_credits() const;
    [[nodiscard]] std::uint64_t data_credits() const;

    /// This side's transmit direction has latched failed (replay budget
    /// exhausted). Always false on clean links.
    [[nodiscard]] bool tx_failed() const;

  private:
    friend class PcieLink;
    PcieLink* link_ = nullptr;
    unsigned side_ = 0; ///< 0 = end_a, 1 = end_b
    PcieNode* node_ = nullptr;
    unsigned node_port_idx_ = 0;
    // Transmit-side view of the peer's ingress buffer.
    unsigned tx_hdr_credits_ = 0;
    std::uint64_t tx_data_credits_ = 0;
};

/// Ingress delay stage shared by every PCIe node (endpoint, switch, root
/// complex): store-and-forward. Each arriving TLP is held for the node's
/// latency (paper Table II) and keeps its link ingress credits until the
/// owner consumes or forwards it. The stage owns one event, armed for the
/// head entry; its callback is the owner's service loop, which drains
/// ready entries through ready_head()/pop() and ends with rearm(). An
/// owner that stalls at the head returns without re-arming and calls
/// rearm() once the stall can clear.
class DelayStage {
  public:
    using ServeFn = void (*)(void*);

    struct Entry {
        Tick ready = 0;
        TlpPtr tlp;
        unsigned from = 0; ///< owner's ingress port index
    };

    DelayStage(Simulator& sim, std::string event_name, Tick latency,
               ServeFn serve, void* ctx);

    /// Stamp `ready = now + latency` and arm the event if idle.
    void push(TlpPtr tlp, unsigned from)
    {
        const Tick ready = eq_->now() + latency_;
        q_.push_back(Entry{ready, std::move(tlp), from});
        if (!event_.scheduled()) {
            eq_->schedule(event_, ready);
        }
    }

    /// The head entry once its latency has elapsed, else null.
    [[nodiscard]] Entry* ready_head()
    {
        return !q_.empty() && q_.front().ready <= eq_->now() ? &q_.front()
                                                             : nullptr;
    }

    Entry pop() { return q_.take_front(); }

    /// Arm the event at max(now, head.ready) unless empty or armed.
    void rearm()
    {
        if (!q_.empty() && !event_.scheduled()) {
            eq_->schedule(event_, std::max(eq_->now(), q_.front().ready));
        }
    }

    /// Drop every entry, releasing the ingress credits each still holds
    /// on `ingress` (function-level reset); returns the count dropped.
    std::size_t drop_all(PciePort& ingress);

    [[nodiscard]] bool empty() const noexcept { return q_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return q_.size(); }

    /// Checkpoint/restore the entries and the event.
    void serialize(Ckpt& ar);

    /// Occupancy-report fragment: "<label>=<n>", plus the head TLP when
    /// non-empty.
    [[nodiscard]] std::string occupancy(const std::string& label) const;

  private:
    EventQueue* eq_;
    Tick latency_;
    RingBuffer<Entry> q_;
    Event event_;
};

/// Credit-gated FIFO egress staging in front of a PciePort, shared by every
/// PCIe node. A TLP leaves as soon as it reaches the head and the peer's
/// ingress has credits; on departure the queue bumps the owner's sent
/// counter (if any) and fires the TLP's SentHook.
class TlpQueue {
  public:
    TlpQueue() = default;
    explicit TlpQueue(PciePort& port, stats::Scalar* sent = nullptr)
        : port_(&port), sent_(sent)
    {
    }

    [[nodiscard]] PciePort* port() const noexcept { return port_; }

    /// Stage `tlp`; `on_sent` fires when it hits the wire.
    void push(TlpPtr tlp, SentHook on_sent = {})
    {
        ensure(port_ != nullptr, "PCIe egress queue not connected");
        // Uncongested fast path: nothing staged ahead and credits ready —
        // skip the ring round trip (order-identical: the queue was empty).
        if (q_.empty() && port_->can_send(*tlp)) {
            depart(std::move(tlp), on_sent);
            return;
        }
        q_.push_back(Staged{std::move(tlp), on_sent});
        kick();
    }

    /// Send as many staged TLPs as credits permit (call from credit_avail).
    void kick()
    {
        while (!q_.empty() && port_->can_send(*q_.front().tlp)) {
            Staged s = q_.take_front();
            depart(std::move(s.tlp), s.on_sent);
        }
    }

    /// Drop every staged TLP unsent; returns the count dropped.
    std::size_t clear()
    {
        const std::size_t n = q_.size();
        q_.clear();
        return n;
    }

    [[nodiscard]] bool empty() const noexcept { return q_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return q_.size(); }

    /// Checkpoint/restore the staged TLPs; hooks go through `owner`'s
    /// encode_sent_hook/decode_sent_hook.
    void serialize(Ckpt& ar, PcieNode& owner);

    /// Occupancy-report fragment: "<label>=<n>", plus the head TLP and the
    /// number of staged SentHooks when non-empty.
    [[nodiscard]] std::string occupancy(const std::string& label) const;

  private:
    struct Staged {
        TlpPtr tlp;
        SentHook on_sent;
    };

    void depart(TlpPtr tlp, SentHook on_sent)
    {
        port_->send(std::move(tlp));
        if (sent_ != nullptr) {
            ++*sent_;
        }
        if (on_sent) {
            on_sent();
        }
    }

    PciePort* port_ = nullptr;
    stats::Scalar* sent_ = nullptr;
    RingBuffer<Staged> q_;
};

/// The wire. Symmetric; see file header for the model.
class PcieLink final : public SimObject {
  public:
    PcieLink(Simulator& sim, std::string name, const LinkParams& params);

    [[nodiscard]] PciePort& end_a() noexcept { return ports_[0]; }
    [[nodiscard]] PciePort& end_b() noexcept { return ports_[1]; }
    [[nodiscard]] const LinkParams& params() const noexcept
    {
        return params_;
    }

    /// Wire footprint of a TLP (payload + lumped overhead).
    [[nodiscard]] std::uint64_t wire_bytes(const Tlp& tlp) const
    {
        return tlp.payload_bytes() + params_.tlp_overhead_bytes;
    }

    /// Observed utilisation of direction a->b / b->a so far (0..1).
    [[nodiscard]] double utilization(unsigned dir) const;

    /// Arms the per-direction retrain events for scheduled link-down
    /// windows (fault model only).
    void startup() override;

    /// Checkpoint/restore wire state: per-side transmit credits, in-flight
    /// TLPs, pending credit returns, and — when the fault model is active —
    /// the full data-link recovery state (sequence numbers, replay buffer,
    /// ACK/NAK records, RNG stream positions, down-window cursors).
    void serialize(Ckpt& ar) override;
    void report_occupancy(std::string& out) const override;

    /// Test hook: silently drop every future credit return toward `side`'s
    /// transmitter and zero its current balance, as if the peer stopped
    /// releasing its ingress buffers. Liveness-watchdog tests use this to
    /// fabricate a credit-leak deadlock; never called on the clean path.
    void test_leak_credits(unsigned side);

  private:
    friend class PciePort;

    struct InFlight {
        Tick arrival;
        TlpPtr tlp;
    };

    struct CreditReturn {
        Tick arrival;
        unsigned hdr;
        std::uint64_t data;
    };

    /// Per-direction state.
    struct Direction {
        Tick busy_until = 0;
        std::uint64_t busy_ticks = 0; ///< for utilisation stats
        RingBuffer<CreditReturn> credit_returns;
        Event credit_event;
        /// A can_send() probe on this side failed: schedule the pending
        /// credit kick instead of harvesting lazily.
        bool tx_starved = false;
        RingBuffer<InFlight> in_flight;
        Event deliver_event;
    };

    // --- fault model (allocated only when a FaultPlan is active) -----------

    /// ACK/NAK record on the (lossless) DLLP side channel, receiver to
    /// transmitter. `seq` is cumulative: every sequence below it has been
    /// accepted; a NAK additionally requests replay from `seq`.
    struct DllRecord {
        Tick arrival = 0;
        std::uint64_t seq = 0;
        bool nak = false;
    };

    /// Replay-buffer entry: a value snapshot of a transmitted TLP plus
    /// the flow-control credits it consumed (replays bypass flow control;
    /// the credits are synthesized back if the TLP dies for good).
    struct ReplayEntry {
        Tick first_tx = 0;
        /// Tick the replay timer counts from: the expected ACK-return tick
        /// of the latest wire attempt (wire backlog + propagation both
        /// ways), so a congested link never looks like a lossy one. Falls
        /// back to the attempt tick when the wire was down and the attempt
        /// transmitted nothing.
        Tick ack_base = 0;
        std::uint64_t seq = 0;
        unsigned tries = 0; ///< retransmissions so far
        unsigned hdr_cost = 0;
        std::uint64_t data_cost = 0;
        Tlp tlp;
    };

    /// Per-direction fault/recovery state.
    struct FaultDir {
        // --- transmit side -----------------------------------------------
        Rng rng;            ///< per-(site, dir) corruption stream
        bool rate_on = false;
        bool link_failed = false; ///< replay budget exhausted: fast-fail
        std::uint64_t next_seq = 0;
        RingBuffer<ReplayEntry> replay;
        RingBuffer<DllRecord> dll; ///< matured by `arrival`, tx harvests
        unsigned naks_pending = 0; ///< NAK records still in `dll`
        Event dll_event;           ///< NAK service / replay-starved kick
        Event replay_event;        ///< replay timer
        Event retrain_event;       ///< fires at each down-window end
        bool replay_starved = false;
        std::vector<Tick> corrupt_at; ///< one-shot corruption ticks
        std::size_t corrupt_idx = 0;
        std::vector<std::pair<Tick, Tick>> down; ///< link-down windows
        std::size_t tx_down_idx = 0;
        std::size_t retrain_idx = 0;
        /// Summed first-transmit-to-ACK ticks of replayed TLPs, in exact
        /// integer ticks (read at dump time by the recovery_ns ValueFn).
        std::uint64_t recovery_ticks = 0;
        // --- receive side ------------------------------------------------
        std::uint64_t expect_seq = 0;
        bool nak_armed = false; ///< NAK sent, replay not yet seen
        std::size_t rx_down_idx = 0;
    };

    struct FaultState {
        FaultState(PcieLink& link, FaultInjector& fi);
        const FaultPlan& plan;
        unsigned site_id;
        Tick replay_timeout;
        FaultDir dir[2];
        stats::Scalar corrupted, naks, replays, dropped, dead, retrains;
        stats::ValueFn recovery_ns;
    };

    void fault_transmit(unsigned side, TlpPtr tlp);
    /// One wire attempt (first transmission or replay): rolls the
    /// corruption decision, drops during down windows, serializes and
    /// queues delivery. Returns the tick the
    /// transmitter should expect the receiver's ACK back — arrival plus
    /// the return propagation — or 0 when the attempt hit a down window
    /// and transmitted nothing.
    Tick send_attempt(unsigned side, TlpPtr tlp, bool is_replay);
    /// Receiver-side DLL filter; true = deliver to the node.
    [[nodiscard]] bool fault_accept(unsigned dir, Tlp& tlp, Tick arrival);
    void queue_dll(unsigned dir, DllRecord rec);
    /// Apply matured ACK/NAK records; returns true when entries freed.
    bool harvest_acks(unsigned dir);
    void process_dll(unsigned dir);
    void replay_timer(unsigned dir);
    /// Retransmit every replay entry with seq >= `from_seq` (killing the
    /// ones past their replay budget).
    void do_replay(unsigned dir, std::uint64_t from_seq);
    void retrain(unsigned dir);
    void arm_replay_timer(unsigned dir);
    /// Return credits the wire ate (dead TLP / failed-direction drop).
    void synthesize_credits(unsigned side, unsigned hdr, std::uint64_t data);

    void transmit(unsigned from_side, TlpPtr tlp);
    void queue_credit_return(unsigned to_side, unsigned hdr,
                             std::uint64_t data);
    void deliver(unsigned dir);
    void credit(unsigned dir);
    /// Apply every credit return that has arrived by now() to `side`'s
    /// transmit counters; true when any return was applied.
    bool harvest_credits(unsigned side);
    [[nodiscard]] bool can_send_from(unsigned side, const Tlp& tlp);

    LinkParams params_;
    // Serialization/propagation constants hoisted out of the per-TLP path
    // (FP divides are too expensive to re-derive per packet).
    double ser_ps_per_byte_ = 0.0;
    Tick prop_ticks_ = 0;
    PciePort ports_[2];
    Direction dirs_[2]; ///< dirs_[0]: a->b, dirs_[1]: b->a
    bool test_credit_leak_[2] = {false, false}; ///< see test_leak_credits()
    /// Null on clean links — the fault model costs one branch per
    /// transmit/deliver/probe and nothing else.
    std::unique_ptr<FaultState> fault_;

    stats::Scalar tlps_{stat_group(), "tlps", "TLPs transported"};
    stats::Scalar payload_bytes_{stat_group(), "payload_bytes",
                                 "payload bytes transported"};
    stats::Scalar wire_bytes_{stat_group(), "wire_bytes",
                              "total wire bytes incl. overhead"};
};

} // namespace accesys::pcie
