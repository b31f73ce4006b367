// System MMU: translates device-originated (inbound DMA) requests.
//
// Pipeline per request needing translation:
//   micro-TLB (small, per-stream) -> main TLB -> page-table walk.
// Walks are performed by an integrated walker with a bounded number of
// concurrent walk slots; each walk issues dependent 8-byte PTE reads through
// the ordinary fabric port, so walk latency reflects real memory-system
// load. A page-walk cache (PWC) short-circuits upper levels.
//
// Multi-device systems: every inbound request carries a stream id (stamped
// by the root complex from the PCIe requester id, optionally remapped via
// map_stream()). Each stream owns a private micro-TLB and a per-stream stat
// group ("<smmu>.stream<N>.*"), modelling the per-device translation
// contexts of a real SMMU; the main TLB, page-walk cache and walker slots
// are shared — which is exactly the contention the multi-accelerator
// scenarios measure. Stream contexts are created lazily on first use.
//
// Stats cover everything paper Table IV reports: translation count and mean
// latency, PTW count and mean latency, uTLB lookups/misses, and the
// aggregate translation stall time used to compute overhead percentages.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/port.hh"
#include "smmu/page_table.hh"
#include "smmu/tlb.hh"
#include "sim/fault_injector.hh"
#include "sim/random.hh"
#include "sim/ring_buffer.hh"
#include "sim/simulator.hh"

namespace accesys::smmu {

struct SmmuParams {
    bool enabled = true;
    std::size_t utlb_entries = 16;
    unsigned utlb_assoc = 16; ///< fully associative by default
    std::size_t tlb_entries = 1024;
    unsigned tlb_assoc = 4;
    double utlb_hit_latency_ns = 1.0;
    double tlb_hit_latency_ns = 3.0;
    std::size_t walk_slots = 4;
    std::size_t pwc_entries = 64;
    std::size_t max_pending = 64;
    /// Walker PTE reads bypass the cache hierarchy (DRAM-latency walks, as
    /// real SMMUs without a translation-walk cache behave).
    bool walker_uncacheable = true;

    void validate() const;
};

class Smmu final : public SimObject,
                   private mem::Responder,
                   private mem::Requestor {
  public:
    Smmu(Simulator& sim, std::string name, const SmmuParams& params,
         PageTable& table, mem::BackingStore& store);

    /// Device-facing port (root complex binds its mem_side here).
    [[nodiscard]] mem::ResponsePort& dev_side() noexcept { return dev_port_; }
    /// Fabric-facing port (toward IOCache / MemBus).
    [[nodiscard]] mem::RequestPort& mem_side() noexcept { return mem_port_; }

    /// Route packets stamped with stream id `from` (normally the PCIe
    /// requester id) to translation stream `to`. Unmapped ids map to
    /// themselves, so calling this is only needed to share or renumber
    /// contexts.
    void map_stream(std::uint32_t from, std::uint32_t to);

    /// Per-stream translation context: a private micro-TLB plus stream
    /// stats ("<smmu>.stream<N>.*" in the registry).
    struct StreamCtx {
        StreamCtx(stats::Registry& reg, const std::string& prefix,
                  const SmmuParams& p)
            : utlb(p.utlb_entries, p.utlb_assoc),
              group(reg, prefix),
              translations(group, "translations",
                           "requests translated on this stream"),
              ptws(group, "ptws", "page-table walks started by this stream"),
              utlb_lookups(group, "utlb_lookups", "stream micro-TLB lookups",
                           [this] { return double(utlb.lookups()); }),
              utlb_misses(group, "utlb_misses", "stream micro-TLB misses",
                          [this] { return double(utlb.misses()); })
        {
        }

        Tlb utlb;
        stats::Group group;
        stats::Scalar translations;
        stats::Scalar ptws;
        stats::ValueFn utlb_lookups;
        stats::ValueFn utlb_misses;
    };

    /// Context for `stream` (created on demand).
    [[nodiscard]] StreamCtx& stream_ctx(std::uint32_t stream);
    /// Number of stream contexts instantiated so far.
    [[nodiscard]] std::size_t stream_count() const noexcept
    {
        return streams_.size();
    }

    // --- Table IV probes ----------------------------------------------------
    [[nodiscard]] std::uint64_t translations() const noexcept
    {
        return translations_;
    }
    [[nodiscard]] double total_translation_ns() const noexcept
    {
        return total_translation_ns_;
    }
    [[nodiscard]] std::uint64_t ptw_count() const noexcept
    {
        return ptw_count_;
    }
    [[nodiscard]] double total_ptw_ns() const noexcept
    {
        return total_ptw_ns_;
    }
    /// Default stream's micro-TLB (untagged traffic only — RC-stamped
    /// device traffic lands on stream contexts >= 1; use utlb_lookups() /
    /// utlb_misses() for the all-stream totals Table IV reports). Stream 0
    /// is created eagerly, so this is always valid.
    [[nodiscard]] const Tlb& utlb() const { return streams_.at(0)->utlb; }
    /// Micro-TLB lookups summed over every stream context.
    [[nodiscard]] std::uint64_t utlb_lookups() const noexcept
    {
        std::uint64_t n = 0;
        for (const auto& [id, ctx] : streams_) {
            n += ctx->utlb.lookups();
        }
        return n;
    }
    /// Micro-TLB misses summed over every stream context.
    [[nodiscard]] std::uint64_t utlb_misses() const noexcept
    {
        std::uint64_t n = 0;
        for (const auto& [id, ctx] : streams_) {
            n += ctx->utlb.misses();
        }
        return n;
    }
    [[nodiscard]] const Tlb& main_tlb() const noexcept { return tlb_; }

    /// One recorded translation fault (seeded unmapped-page event). The log
    /// is bounded (kMaxFaultRecords); the count lives in the stats.
    struct FaultRecord {
        Tick tick = 0;
        std::uint32_t stream = 0;
        Addr va = 0;
        std::uint8_t is_write = 0;
    };
    static constexpr std::size_t kMaxFaultRecords = 64;

    /// Recorded translation faults (empty unless the plan seeds them).
    [[nodiscard]] const std::vector<FaultRecord>& fault_records() const
    {
        static const std::vector<FaultRecord> none;
        return fault_ != nullptr ? fault_->records : none;
    }

    /// Checkpoint/restore: TLBs, in-flight walks, pending waiter chains and
    /// the page-walk cache. Stream contexts are re-created on load (before
    /// the global stats section restores their counters).
    void serialize(Ckpt& ar) override;
    void report_occupancy(std::string& out) const override;

  private:
    // mem::Responder (dev side)
    bool recv_req(mem::PacketPtr& pkt) override;
    void retry_resp() override { dev_resp_q_.retry(); }

    // mem::Requestor (mem side)
    bool recv_resp(mem::PacketPtr& pkt) override;
    void retry_req() override { mem_q_.retry(); }

    /// One request waiting on a page-table walk. Nodes live in a
    /// fixed-size pool (`pending_pool_`, max_pending slots, allocated once)
    /// and chain into per-VPN FIFO lists through `next` — the walk-pending
    /// bookkeeping does zero heap work in steady state, where the old
    /// `unordered_map<vpn, vector>` allocated a node and a vector per
    /// coalesced walk.
    struct PendingPkt {
        mem::PacketPtr pkt;
        Tick arrived = 0;
        std::uint32_t stream = 0;
        std::int32_t next = -1; ///< pool index of the next waiter / free node
    };

    /// One in-flight VPN (walking or queued for a slot) plus its waiter
    /// list. Records live in a small flat array scanned linearly — bounded
    /// by max_pending, typically a handful — and are swap-removed on
    /// completion (lookup is by exact VPN, so order is irrelevant).
    struct WalkRecord {
        std::uint64_t vpn = 0;
        std::int32_t head = -1; ///< first waiter (issue order)
        std::int32_t tail = -1; ///< last waiter
    };

    struct Walk {
        std::uint64_t vpn = 0;
        unsigned level = 0;
        Addr table = 0;
        Tick started = 0;
        bool active = false;
    };

    [[nodiscard]] std::uint32_t effective_stream(const mem::Packet& pkt) const;
    void finish_translation(StreamCtx& ctx, mem::PacketPtr pkt,
                            std::uint64_t ppn, Tick arrived, Tick done_at);
    void start_walk_or_queue(std::uint64_t vpn);
    void start_walk(unsigned slot, std::uint64_t vpn);
    void issue_pte_read(unsigned slot);
    void walker_response(const mem::Packet& pkt);
    void complete_walk(unsigned slot, std::uint64_t ppn);
    void maybe_unblock();

    // Page-walk cache: (level, va-prefix) -> table base address.
    struct PwcKey {
        unsigned level;
        std::uint64_t prefix;
        bool operator==(const PwcKey&) const = default;
    };
    struct PwcKeyHash {
        std::size_t operator()(const PwcKey& k) const noexcept
        {
            return std::hash<std::uint64_t>()(k.prefix * 4 + k.level);
        }
    };
    [[nodiscard]] static std::uint64_t pwc_prefix(std::uint64_t vpn,
                                                  unsigned level)
    {
        // VPN bits that select tables down to (and including) `level`.
        return vpn >> (kBitsPerLevel * (kLevels - 1 - level));
    }
    void pwc_insert(unsigned level, std::uint64_t prefix, Addr table);
    [[nodiscard]] const Addr* pwc_find(unsigned level, std::uint64_t prefix);

    SmmuParams params_;
    // Hit latencies in ticks, precomputed off the lookup fast path.
    Tick utlb_hit_ticks_ = 0;
    Tick tlb_hit_ticks_ = 0;
    PageTable* table_;
    mem::BackingStore* store_;

    mem::ResponsePort dev_port_;
    mem::RequestPort mem_port_;
    mem::PacketQueue dev_resp_q_;
    mem::PacketQueue mem_q_;

    Tlb tlb_; ///< main TLB, shared across streams
    /// Per-stream contexts (stable addresses: stats self-register).
    std::map<std::uint32_t, std::unique_ptr<StreamCtx>> streams_;
    /// One-entry stream_ctx() memo (contexts are never destroyed).
    StreamCtx* last_ctx_ = nullptr;
    std::uint32_t last_stream_ = 0;
    std::unordered_map<std::uint32_t, std::uint32_t> stream_remap_;

    [[nodiscard]] WalkRecord* find_walk_record(std::uint64_t vpn);
    [[nodiscard]] std::int32_t alloc_pending_node();
    void free_pending_node(std::int32_t idx);

    std::vector<PendingPkt> pending_pool_; ///< max_pending fixed slots
    std::int32_t pending_free_ = -1;       ///< free-list head in the pool
    std::vector<WalkRecord> walk_records_; ///< in-flight VPNs + waiter lists
    RingBuffer<std::uint64_t> walk_queue_; ///< VPNs awaiting a walk slot
    std::vector<Walk> walks_;              ///< indexed by slot (== pkt tag)
    std::uint32_t walker_requestor_;
    mem::PacketPool* pkt_pool_ = nullptr; ///< resolved once (walker reads)
    std::size_t pending_count_ = 0;
    bool blocked_upstream_ = false;

    std::unordered_map<PwcKey, std::pair<Addr, std::uint64_t>, PwcKeyHash>
        pwc_;
    std::uint64_t pwc_clock_ = 0;

    /// Per-stream seeded translation-fault source: a private Bernoulli
    /// stream (device_stream_seed(site, stream), topology-keyed) plus the
    /// explicit one-shot events targeting this stream.
    struct StreamFault {
        Rng rng{0};
        std::vector<Tick> ticks; ///< one-shot explicit faults
        std::size_t idx = 0;
    };

    /// SMMU fault stats: registered only when the plan seeds translation
    /// faults, so link-only fault plans leave the dump unchanged.
    struct SmmuFaultStats {
        explicit SmmuFaultStats(stats::Group& g)
            : faults(g, "trans_faults",
                     "seeded translation faults (unmapped-page events)"),
              faulted_reads(g, "faulted_reads",
                            "reads answered with a poisoned response"),
              dropped_writes(g, "dropped_writes",
                             "posted writes dropped at a translation fault")
        {
        }
        stats::Scalar faults;
        stats::Scalar faulted_reads;
        stats::Scalar dropped_writes;
    };

    /// Allocated iff the fault plan actually seeds SMMU faults (rate or
    /// explicit events), not merely when any plan is active.
    struct SmmuFaultState {
        SmmuFaultState(stats::Group& g, FaultInjector& fi,
                       const std::string& site_name);
        FaultInjector* fi = nullptr;
        std::string site_name;
        unsigned site_id = 0;
        double rate = 0.0;
        std::map<std::uint32_t, StreamFault> streams; ///< lazily created
        std::vector<FaultRecord> records;
        SmmuFaultStats stats;
    };
    std::unique_ptr<SmmuFaultState> fault_;

    [[nodiscard]] StreamFault& stream_fault(std::uint32_t stream);
    /// Deterministic per-request fault decision for `stream` (explicit
    /// one-shot events first, then the Bernoulli stream — always consumed,
    /// so the draw count per request is fixed).
    bool fault_roll(std::uint32_t stream);

    // Counters mirrored as stats below.
    std::uint64_t translations_ = 0;
    double total_translation_ns_ = 0.0;
    std::uint64_t ptw_count_ = 0;
    double total_ptw_ns_ = 0.0;

    stats::Scalar st_translations_{stat_group(), "translations",
                                   "requests translated"};
    stats::Average st_trans_ns_{stat_group(), "trans_ns",
                                "per-request translation latency (ns)"};
    stats::Scalar st_ptw_{stat_group(), "ptw_count", "page-table walks"};
    stats::Average st_ptw_ns_{stat_group(), "ptw_ns",
                              "per-walk latency (ns)"};
    stats::Scalar st_pte_reads_{stat_group(), "pte_reads",
                                "PTE memory reads issued"};
    stats::ValueFn st_utlb_lookups_{stat_group(), "utlb_lookups",
                                    "micro-TLB lookups (all streams)",
                                    [this] {
                                        return double(utlb_lookups());
                                    }};
    stats::ValueFn st_utlb_misses_{stat_group(), "utlb_misses",
                                   "micro-TLB misses (all streams)",
                                   [this] {
                                       return double(utlb_misses());
                                   }};
    stats::ValueFn st_tlb_lookups_{stat_group(), "tlb_lookups",
                                   "main TLB lookups",
                                   [this] { return double(tlb_.lookups()); }};
    stats::ValueFn st_tlb_misses_{stat_group(), "tlb_misses",
                                  "main TLB misses",
                                  [this] { return double(tlb_.misses()); }};
    stats::Scalar st_bypassed_{stat_group(), "bypassed",
                               "requests forwarded without translation"};
};

} // namespace accesys::smmu
