// Crossbar fabric: N upstream (requestor-facing) ports, M downstream
// (memory-facing) ports, address-range routing, bounded per-port queues with
// retry-based backpressure, per-port serialization, and optional snooping
// for coherence between caches attached upstream.
//
// Routing scans the downstream ranges in port order (startup() checks them
// disjoint); an address no range claims goes to the default port. A coherent
// bus calls every registered snooper except the initiator's on each
// cacheable request; the snooper itself decides cheaply whether it holds
// anything the snoop could touch.
//
// Used as the system MemBus (coherent) and as plain interconnect elsewhere.
#pragma once

#include <memory>
#include <vector>

#include "mem/addr_range.hh"
#include "mem/port.hh"
#include "sim/simulator.hh"

namespace accesys::mem {

/// Implemented by caches that participate in bus-level coherence.
///
/// The bus calls these synchronously when traffic from *other* ports is
/// observed. The protocol is invalidation-based MSI-lite: functional data is
/// always coherent by construction (single BackingStore), so snoops only
/// maintain the timing-relevant cache state.
class Snooper {
  public:
    virtual ~Snooper() = default;

    /// Another agent writes [addr, addr+size): drop any overlapping lines.
    virtual void snoop_invalidate(Addr addr, std::uint32_t size) = 0;

    /// Another agent reads [addr, addr+size): demote dirty lines to clean.
    virtual void snoop_clean(Addr addr, std::uint32_t size) = 0;
};

struct XbarParams {
    double request_latency_ns = 3.0;  ///< decode/arbitration, request path
    double response_latency_ns = 3.0; ///< response path
    double width_gbps = 128.0;        ///< per-port serialization bandwidth
    std::size_t queue_capacity = 16;  ///< per port-direction
    bool coherent = false;            ///< enable snoop distribution
};

class Xbar final : public SimObject {
  public:
    Xbar(Simulator& sim, std::string name, const XbarParams& params);
    ~Xbar() override;

    /// Add an upstream-facing port; bind a requestor's RequestPort to it.
    ResponsePort& add_upstream(const std::string& label);

    /// Add a downstream port routing `range`; bind to a responder.
    RequestPort& add_downstream(const std::string& label, AddrRange range);

    /// Downstream port receiving any address no other range claims.
    RequestPort& add_default_downstream(const std::string& label);

    /// Register a snooping cache attached via upstream port `via` (snoops
    /// are not reflected back to their initiating port).
    void register_snooper(Snooper& snooper, const ResponsePort& via);

    void startup() override;

    /// Checkpoint/restore per-port queues, serialization horizons and
    /// retry-waiter lists.
    void serialize(Ckpt& ar) override;
    void report_occupancy(std::string& out) const override;

  private:
    struct InSide;
    struct OutSide;

    bool handle_req(std::uint16_t in_idx, PacketPtr& pkt);
    bool handle_resp(std::uint16_t out_idx, PacketPtr& pkt);
    void distribute_snoops(std::uint16_t in_idx, const Packet& pkt);
    [[nodiscard]] OutSide* route(Addr addr, std::uint32_t size);

    XbarParams params_;
    // Per-hop timing constants, precomputed once (hot path avoids FP work).
    double ps_per_byte_ = 0.0;
    Tick req_lat_ticks_ = 0;
    Tick resp_lat_ticks_ = 0;
    std::vector<std::unique_ptr<InSide>> ins_;
    std::vector<std::unique_ptr<OutSide>> outs_;
    OutSide* default_out_ = nullptr;

    struct SnoopEntry {
        Snooper* snooper;
        std::uint16_t in_idx;
    };
    std::vector<SnoopEntry> snoopers_;

    stats::Scalar n_requests_{stat_group(), "requests",
                              "requests forwarded downstream"};
    stats::Scalar n_responses_{stat_group(), "responses",
                               "responses forwarded upstream"};
    stats::Scalar n_snoops_{stat_group(), "snoops", "snoop operations issued"};
    stats::Scalar bytes_{stat_group(), "bytes", "request payload bytes moved"};
    stats::Scalar retries_{stat_group(), "retries",
                           "requests refused due to full queues"};
};

} // namespace accesys::mem
