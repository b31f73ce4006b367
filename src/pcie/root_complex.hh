// PCIe Root Complex: the host-side bridge between the PCIe hierarchy and the
// coherent memory fabric.
//
// Inbound (device -> host):
//   * MRd TLPs are accepted (up to `max_inbound_reads` concurrently),
//     split into `host_split_bytes` fabric reads (the RCB-style split that
//     keeps cache-line-sized requests on the coherent side), and answered
//     with in-order CplD TLPs of at most `max_payload_bytes` each.
//   * MWr TLPs are split into posted fabric writes.
//   * Inbound requests are marked `needs_translation` when the device
//     operates on virtual addresses; the SMMU on the fabric path translates.
//
// Outbound (CPU -> device):
//   * Fabric requests arriving on `mmio_side()` (routed there by the MemBus
//     BAR range) become MRd/MWr TLPs; MMIO writes are posted, reads wait
//     for the device completion (bounded tag pool).
//
// Every TLP is charged `latency_ns` (paper Table II: 150 ns) in the shared
// store-and-forward DelayStage (pcie/link.hh), whose head-of-line stalls —
// together with the ingress credits held until service — provide the
// back-pressure behaviour the packet-size study (Fig. 4) measures.
// Completions and MMIO requests leave through the shared TlpQueue.
#pragma once

#include <array>
#include <vector>

#include "mem/port.hh"
#include "pcie/link.hh"
#include "sim/simulator.hh"

namespace accesys::pcie {

struct RcParams {
    double latency_ns = 150.0;
    std::uint32_t host_split_bytes = 64;
    std::uint32_t max_payload_bytes = 256;
    std::size_t max_inbound_reads = 64;
    std::size_t mem_queue_capacity = 128;
    std::size_t mmio_tags = 32;
    /// Devices issue virtual addresses (SMMU present on the fabric path).
    bool device_addresses_virtual = true;
    /// DM access mode: all inbound DMA bypasses the cache hierarchy.
    bool inbound_uncacheable = false;

    void validate() const;
};

class RootComplex final : public SimObject,
                          public PcieNode,
                          private mem::Requestor,
                          private mem::Responder {
  public:
    RootComplex(Simulator& sim, std::string name, const RcParams& params);

    /// Connect the link end that faces the switch/device hierarchy.
    void connect_pcie(PciePort& port);

    /// Fabric-facing request port (DMA traffic into the memory system).
    [[nodiscard]] mem::RequestPort& mem_side() noexcept { return mem_port_; }

    /// Fabric-facing response port (CPU MMIO to device BARs).
    [[nodiscard]] mem::ResponsePort& mmio_side() noexcept
    {
        return mmio_port_;
    }

    // PcieNode
    void recv_tlp(unsigned port_idx, TlpPtr tlp) override;
    void credit_avail(unsigned port_idx) override;

    /// Checkpoint/restore inbound read slots, MMIO tag state, the delay
    /// stage and all staging queues.
    void serialize(Ckpt& ar) override;
    void report_occupancy(std::string& out) const override;

  private:
    // mem::Requestor (mem_side)
    bool recv_resp(mem::PacketPtr& pkt) override;
    void retry_req() override { mem_q_.retry(); }

    // mem::Responder (mmio_side)
    bool recv_req(mem::PacketPtr& pkt) override;
    void retry_resp() override { mmio_resp_q_.retry(); }

    /// One in-service inbound MRd. Lives in a fixed slot pool
    /// (max_inbound_reads entries) with a fixed chunk bitmap, so servicing
    /// reads allocates nothing. kMaxReadChunks bounds length/host_split.
    struct InboundRead {
        static constexpr std::uint32_t kMaxReadChunks = 256;

        std::uint32_t key = 0; ///< (requester, tag) pair, see read_key()
        bool live = false;
        Addr addr = 0;
        std::uint32_t size = 0;
        std::uint8_t tag = 0;
        std::uint16_t requester = 0;
        std::uint32_t chunks = 0;
        std::array<std::uint64_t, kMaxReadChunks / 64> chunk_done{};
        std::uint32_t emitted = 0; ///< bytes already completed, in order
        /// Chunks [0, done_prefix) are all done. Completion emission is
        /// strictly in order, so span completeness is one compare against
        /// the prefix instead of a per-arrival rescan of the span's bits;
        /// out-of-order arrivals park in the bitmap until the hole fills.
        std::uint32_t done_prefix = 0;
        /// Any fabric response for this read carried the poison flag (e.g.
        /// an SMMU translation fault); every remaining CplD is stamped
        /// poisoned so the requester contains instead of consuming.
        bool poisoned = false;

        [[nodiscard]] bool chunk_is_done(std::uint32_t i) const noexcept
        {
            return (chunk_done[i / 64] >> (i % 64)) & 1;
        }
        void mark_chunk_done(std::uint32_t i) noexcept
        {
            chunk_done[i / 64] |= std::uint64_t{1} << (i % 64);
            while (done_prefix < chunks && chunk_is_done(done_prefix)) {
                ++done_prefix;
            }
        }
    };

    /// Slot index of the live inbound read with `key`, or a negative value.
    /// O(1): keys are (requester << 8 | tag), a tiny dense space, so a
    /// direct-map key->slot table replaces the old linear scan over the
    /// fat InboundRead records (which cost a cache line per slot probed,
    /// once per response chunk).
    [[nodiscard]] std::ptrdiff_t find_inbound_slot(std::uint32_t key) const
    {
        return key < slot_of_key_.size() ? slot_of_key_[key] : -1;
    }

    /// Lowest free slot via the free bitmap (same pick order as the old
    /// first-not-live scan); negative when exhausted.
    [[nodiscard]] std::ptrdiff_t lowest_free_slot() const
    {
        for (std::size_t w = 0; w < slot_free_bits_.size(); ++w) {
            if (slot_free_bits_[w] != 0) {
                return static_cast<std::ptrdiff_t>(
                    w * 64 + static_cast<unsigned>(
                                 __builtin_ctzll(slot_free_bits_[w])));
            }
        }
        return -1;
    }

    [[nodiscard]] InboundRead* find_inbound_read(std::uint32_t key)
    {
        const std::ptrdiff_t slot = find_inbound_slot(key);
        return slot < 0 ? nullptr
                        : &inbound_reads_[static_cast<std::size_t>(slot)];
    }

    void process_delayed();
    void service_read(Tlp& tlp);
    void service_write(Tlp& tlp);
    void service_completion(TlpPtr tlp);
    void advance_completions(std::size_t slot);
    void check_mmio_timeouts();

    /// MMIO completion-timeout state + fault stats, allocated only when
    /// the watchdog is enabled so clean-run stat dumps are unchanged.
    struct MmioWatchdog {
        MmioWatchdog(stats::Group& g, std::size_t tags)
            : timeouts(g, "mmio_timeouts",
                       "MMIO read completion timeouts observed"),
              retries(g, "mmio_retries",
                      "MMIO MRd TLPs re-issued after a timeout"),
              aborts(g, "mmio_aborts",
                     "MMIO reads master-aborted (all-ones response)"),
              stray(g, "stray_completions",
                    "late CplDs for already-retired MMIO tags (dropped)"),
              dup_reads(g, "dup_inbound_reads",
                        "duplicate inbound MRds from requester completion-"
                        "timeout retries (dropped; original still live)"),
              deadline(tags, 0),
              tries(tags, 0)
        {
        }
        stats::Scalar timeouts;
        stats::Scalar retries;
        stats::Scalar aborts;
        stats::Scalar stray;
        stats::Scalar dup_reads;
        std::vector<Tick> deadline;    ///< per MMIO tag
        std::vector<unsigned> tries;   ///< re-issues per tag
    };

    // Inbound requests are split at host_split_bytes-aligned boundaries
    // (unaligned DMA may yield short head/tail chunks).
    [[nodiscard]] std::uint32_t split_span(Addr base, std::uint32_t len,
                                           std::uint32_t off) const
    {
        // host_split_bytes is pow2: modulo is a mask (split_mask_ cached).
        const std::uint32_t align = params_.host_split_bytes;
        const auto to_boundary = static_cast<std::uint32_t>(
            align - ((base + off) & split_mask_));
        return std::min(to_boundary, len - off);
    }
    [[nodiscard]] std::uint32_t split_count(Addr base,
                                            std::uint32_t len) const
    {
        const std::uint32_t align = params_.host_split_bytes;
        return static_cast<std::uint32_t>(
            (align_up(base + len, align) - align_down(base, align)) >>
            split_shift_);
    }
    [[nodiscard]] std::uint32_t chunk_index(Addr base,
                                            std::uint32_t off) const
    {
        const std::uint32_t align = params_.host_split_bytes;
        return static_cast<std::uint32_t>(
            (align_down(base + off, align) - align_down(base, align)) >>
            split_shift_);
    }
    [[nodiscard]] static std::uint32_t read_key(std::uint16_t requester,
                                                std::uint8_t tag)
    {
        return (static_cast<std::uint32_t>(requester) << 8) | tag;
    }

    RcParams params_;
    unsigned split_shift_ = 0;       ///< log2(host_split_bytes)
    std::uint64_t split_mask_ = 0;   ///< host_split_bytes - 1
    PciePort* pcie_port_ = nullptr;
    DelayStage delay_;
    TlpQueue egress_;

    mem::RequestPort mem_port_;
    mem::ResponsePort mmio_port_;
    mem::PacketQueue mem_q_;
    mem::PacketQueue mmio_resp_q_;

    std::vector<InboundRead> inbound_reads_; ///< fixed slot pool
    /// Direct-map read_key() -> slot index (-1 = no live read). Grown on
    /// first use of a key; the key space is (num_devices << 8) entries.
    std::vector<std::int32_t> slot_of_key_;
    /// Bitmap of free slots (bit set = free); lowest-set-bit allocation
    /// preserves the old first-free pick order.
    std::vector<std::uint64_t> slot_free_bits_;
    std::size_t inbound_live_ = 0;
    std::vector<mem::PacketPtr> mmio_pending_; ///< indexed by MMIO tag
    std::vector<std::uint8_t> mmio_tag_free_;
    std::uint32_t requestor_id_;
    mem::PacketPool* pkt_pool_ = nullptr; ///< resolved once (chunk loops)
    TlpPool* tlp_pool_ = nullptr;
    bool mmio_blocked_upstream_ = false;

    // MMIO completion watchdog, armed when the simulator's FaultPlan sets
    // a completion timeout. A timed-out MMIO read is re-issued with
    // exponential backoff up to cpl_max_retries_ times, then
    // master-aborted: the fabric gets an all-ones response so the CPU is
    // never wedged on a dead device.
    Tick cpl_timeout_ticks_ = 0; ///< nonzero = MMIO watchdog armed
    unsigned cpl_max_retries_ = 0;
    Event cpl_timeout_event_{"", nullptr};
    std::unique_ptr<MmioWatchdog> watchdog_;

    stats::Scalar inbound_read_tlps_{stat_group(), "inbound_read_tlps",
                                     "device MRd TLPs serviced"};
    stats::Scalar inbound_write_tlps_{stat_group(), "inbound_write_tlps",
                                      "device MWr TLPs serviced"};
    stats::Scalar completions_sent_{stat_group(), "completions_sent",
                                    "CplD TLPs generated"};
    stats::Scalar mmio_reads_{stat_group(), "mmio_reads",
                              "CPU reads forwarded to devices"};
    stats::Scalar mmio_writes_{stat_group(), "mmio_writes",
                               "CPU writes forwarded to devices"};
    stats::Scalar hol_stalls_{stat_group(), "hol_stalls",
                              "head-of-line stalls in the service stage"};
};

} // namespace accesys::pcie
