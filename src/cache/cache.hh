// Set-associative write-back cache with MSHR-based miss handling.
//
// One instance serves as L1D, L1I, LLC, IOCache or device-side cache — only
// the parameters differ (paper Table II). Features:
//   * write-allocate with a whole-line write fast path (no fill read for
//     full-line writes, which matters for streaming DMA),
//   * bounded MSHRs with multiple targets per miss (hit-under-miss),
//   * uncacheable bypass (DM access mode forwards straight through),
//   * bus-snoop hooks implementing invalidation-based MSI-lite coherence
//     (see mem::Snooper — functional data is coherent by construction, the
//     snoops maintain timing-relevant line state).
//
// Requests must not straddle a cache line; fabric bridges (PCIe root
// complex, CPU) split accesses at line granularity.
#pragma once

#include <array>
#include <vector>

#include "mem/packet.hh"
#include "mem/port.hh"
#include "mem/xbar.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace accesys::cache {

struct CacheParams {
    std::uint64_t size_bytes = 64 * kKiB;
    unsigned assoc = 4;
    std::uint32_t line_bytes = 64;
    double lookup_latency_ns = 2.0; ///< tag+data access (hit path)
    double fill_latency_ns = 1.0;   ///< install-to-response on the miss path
    std::size_t mshrs = 8;          ///< outstanding distinct line misses
    std::size_t targets_per_mshr = 16;
    enum class Repl { lru, random };
    Repl repl = Repl::lru;

    void validate() const;

    [[nodiscard]] std::uint64_t num_sets() const
    {
        return size_bytes / line_bytes / assoc;
    }
};

class Cache final : public SimObject,
                    public mem::Snooper,
                    private mem::Responder,
                    private mem::Requestor {
  public:
    Cache(Simulator& sim, std::string name, const CacheParams& params);

    /// Upstream port (CPU / bridge side).
    [[nodiscard]] mem::ResponsePort& cpu_side() noexcept { return cpu_port_; }
    /// Downstream port (memory side).
    [[nodiscard]] mem::RequestPort& mem_side() noexcept { return mem_port_; }

    [[nodiscard]] const CacheParams& params() const noexcept
    {
        return params_;
    }

    // Probes for tests.
    [[nodiscard]] bool contains_line(Addr addr) const;
    [[nodiscard]] bool line_dirty(Addr addr) const;
    [[nodiscard]] std::uint64_t hits() const
    {
        return static_cast<std::uint64_t>(n_hits_.value());
    }
    [[nodiscard]] std::uint64_t misses() const
    {
        return static_cast<std::uint64_t>(n_misses_.value());
    }

    /// Checkpoint/restore tags, LRU clocks, MSHRs (with queued target
    /// packets), egress queues and the replacement RNG.
    void serialize(Ckpt& ar) override;
    void report_occupancy(std::string& out) const override;

    // mem::Snooper
    void snoop_invalidate(Addr addr, std::uint32_t size) override;
    void snoop_clean(Addr addr, std::uint32_t size) override;
    /// CONTRACT with the bus-side occupancy filter: when valid_lines_ is
    /// 0 an invalidate — and when dirty_lines_ is 0 a clean — must be a
    /// complete no-op including on every stat (the snoop_* bodies below
    /// keep the matching early-outs). If a snoop ever grows a
    /// side effect before those guards, remove this override.
    [[nodiscard]] mem::Snooper::Occupancy snoop_occupancy() const override
    {
        return {&valid_lines_, &dirty_lines_};
    }

  private:
    /// 8-byte line record: the tag is line-aligned, so its low bits hold
    /// the valid/dirty flags; LRU clocks live in a parallel array
    /// (`lru_of()`), so the tag scans that dominate the miss path touch
    /// one machine word per way.
    struct Line {
        static constexpr std::uint64_t kValid = 1;
        static constexpr std::uint64_t kDirty = 2;
        static constexpr std::uint64_t kFlagMask = kValid | kDirty;

        std::uint64_t tag_flags = 0;

        [[nodiscard]] Addr tag() const noexcept { return tag_flags & ~kFlagMask; }
        [[nodiscard]] bool valid() const noexcept
        {
            return (tag_flags & kValid) != 0;
        }
        [[nodiscard]] bool dirty() const noexcept
        {
            return (tag_flags & kDirty) != 0;
        }
        void set(Addr tag, bool valid, bool dirty) noexcept
        {
            tag_flags = tag | (valid ? kValid : 0) | (dirty ? kDirty : 0);
        }
        void set_dirty(bool d) noexcept
        {
            tag_flags = d ? (tag_flags | kDirty) : (tag_flags & ~kDirty);
        }
        void invalidate() noexcept { tag_flags = 0; }
    };

    /// One outstanding line miss. Slots are preallocated (params_.mshrs of
    /// them) and recycled — `targets` keeps its capacity across misses — so
    /// the steady-state miss path performs no heap allocation.
    struct Mshr {
        Addr laddr = 0;
        bool live = false;
        bool fill_sent = false;
        /// A whole-line write run covered this line while the fill was in
        /// flight: the fill installs dirty (see recv_req_multiline).
        bool dirty_on_fill = false;
        std::vector<mem::PacketPtr> targets;
    };

    // mem::Responder (cpu side)
    bool recv_req(mem::PacketPtr& pkt) override;
    void retry_resp() override { resp_q_.retry(); }

    // mem::Requestor (mem side)
    bool recv_resp(mem::PacketPtr& pkt) override;
    void retry_req() override { mem_q_.retry(); }

    [[nodiscard]] Addr line_addr(Addr a) const
    {
        return align_down(a, params_.line_bytes);
    }
    /// Set selection via precomputed shift/mask (pow2 set count) or a
    /// single modulo — never the re-derived divide chain of num_sets().
    [[nodiscard]] std::uint64_t set_index(Addr a) const
    {
        const std::uint64_t line = a >> line_shift_;
        return sets_pow2_ ? (line & set_mask_) : (line % num_sets_);
    }

    [[nodiscard]] Line* find_line(Addr addr);
    [[nodiscard]] const Line* find_line(Addr addr) const;
    /// find_line with the line address already computed (hot paths derive
    /// it once per request instead of once per probe).
    [[nodiscard]] Line* find_line_l(Addr laddr);
    /// Live MSHR tracking `laddr`, or nullptr: O(1) through the
    /// line-address buckets (`mshr_buckets_`).
    [[nodiscard]] Mshr* find_mshr(Addr laddr);
    [[nodiscard]] std::size_t mshr_bucket(Addr laddr) const
    {
        return (laddr >> line_shift_) & (kMshrBuckets - 1);
    }
    /// Claim the lowest free slot for `laddr`; nullptr when all are busy.
    /// The free set is a bitmap (caches have <= 64 MSHRs in every preset),
    /// so the claim is one ctz instead of a key scan; the lowest-index
    /// pick order matches the linear scan it replaces exactly.
    [[nodiscard]] Mshr* alloc_mshr(Addr laddr)
    {
        if (mshr_free_bits_ == 0) {
            return nullptr;
        }
        const auto i = static_cast<std::size_t>(
            __builtin_ctzll(mshr_free_bits_));
        mshr_free_bits_ &= mshr_free_bits_ - 1;
        Mshr& m = mshrs_[i];
        m.live = true;
        m.laddr = laddr;
        m.fill_sent = false;
        m.dirty_on_fill = false;
        mshr_buckets_[mshr_bucket(laddr)] |= std::uint64_t{1} << i;
        ++mshrs_live_;
        return &m;
    }
    void release_mshr(Mshr& m)
    {
        m.live = false;
        m.targets.clear(); // keeps capacity for the next miss
        const auto i = static_cast<std::size_t>(&m - mshrs_.data());
        mshr_buckets_[mshr_bucket(m.laddr)] &= ~(std::uint64_t{1} << i);
        mshr_free_bits_ |= std::uint64_t{1} << i;
        --mshrs_live_;
    }
    Line& pick_victim(Addr addr);
    /// install() body with the writeback (victim eviction folded in)
    /// deferred into `wb_batch_`; flush_writebacks() empties the batch
    /// downstream in staging order. Together these are the building
    /// blocks of the run form: recv_req_multiline() walks N consecutive
    /// sets with stage_install() and flushes the writebacks once
    /// (mirroring DramTiming::access_run), install() is the one-line
    /// degenerate case.
    void stage_install(Addr laddr, bool dirty);
    void flush_writebacks();
    /// Aligned whole-line write run (request wider than one line).
    bool recv_req_multiline(mem::PacketPtr& pkt, Addr laddr);
    void install(Addr laddr, bool dirty);
    [[nodiscard]] std::uint64_t& lru_of(const Line& line)
    {
        return lru_[static_cast<std::size_t>(&line - lines_.data())];
    }
    void touch(Line& line) { lru_of(line) = ++lru_clock_; }
    void handle_fill(std::uint64_t fill_tag);
    void maybe_unblock();

    CacheParams params_;
    Tick lookup_ticks_ = 0; ///< precomputed hit-path latency
    Tick fill_ticks_ = 0;   ///< precomputed fill-path latency
    unsigned line_shift_ = 0;     ///< log2(line_bytes)
    std::uint64_t num_sets_ = 1;  ///< cached num_sets()
    std::uint64_t set_mask_ = 0;  ///< num_sets-1 when pow2
    bool sets_pow2_ = false;
    mem::ResponsePort cpu_port_;
    mem::RequestPort mem_port_;
    mem::PacketQueue resp_q_; ///< responses upstream
    mem::PacketQueue mem_q_;  ///< fills / writebacks / bypasses downstream

    std::vector<Line> lines_; ///< sets * assoc, row-major by set (SoA: one
                              ///< machine word per way; LRU clocks parallel)
    std::vector<std::uint64_t> lru_; ///< parallel per-line LRU clocks
    std::vector<Mshr> mshrs_; ///< fixed slot pool (params_.mshrs entries)
    /// Live-slot bitmaps by line-address bucket: consecutive lines (a DMA
    /// stream's misses) land in distinct buckets.
    static constexpr std::size_t kMshrBuckets = 64;
    std::array<std::uint64_t, kMshrBuckets> mshr_buckets_{};
    std::uint64_t mshr_free_bits_ = 0; ///< free-slot bitmap (lowest first)
    std::size_t mshrs_live_ = 0;
    /// Fill responses find their MSHR in O(1): the fill read's tag carries
    /// the slot index in the line-offset bits (laddr | slot). Always valid:
    /// params_.validate() caps mshrs at min(64, line_bytes).
    std::vector<mem::PacketPtr> wb_batch_; ///< install_run writeback staging
    /// Occupancy counters kept exact at every line transition so bus
    /// snoops can reject in O(1) when this cache holds nothing relevant.
    std::uint64_t valid_lines_ = 0;
    std::uint64_t dirty_lines_ = 0;
    std::uint64_t lru_clock_ = 0;
    std::uint32_t fill_requestor_; ///< marks packets this cache created
    mem::PacketPool* pkt_pool_;    ///< global pool, resolved once (hot path)
    Rng rng_;
    bool blocked_upstream_ = false;

    stats::Scalar n_hits_{stat_group(), "hits", "demand hits"};
    stats::Scalar n_misses_{stat_group(), "misses", "demand misses"};
    stats::Scalar n_writebacks_{stat_group(), "writebacks",
                                "dirty lines written back"};
    stats::Scalar n_bypasses_{stat_group(), "bypasses",
                              "uncacheable requests forwarded"};
    stats::Scalar n_snoop_invalidations_{stat_group(), "snoop_invalidations",
                                         "lines dropped by bus snoops"};
    stats::Scalar n_snoop_cleans_{stat_group(), "snoop_cleans",
                                  "dirty lines demoted by bus snoops"};
    stats::Scalar n_mshr_rejects_{stat_group(), "mshr_rejects",
                                  "requests refused: MSHRs exhausted"};
    stats::ValueFn hit_rate_{stat_group(), "hit_rate",
                             "demand hit fraction", [this] {
                                 const double t =
                                     n_hits_.value() + n_misses_.value();
                                 return t == 0.0 ? 0.0
                                                 : n_hits_.value() / t;
                             }};
};

} // namespace accesys::cache
