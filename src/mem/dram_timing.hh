// Bank-state DRAM timing engine.
//
// Models, per channel: an open-row bank state machine (ACT/PRE/CAS timing),
// a shared data bus that serialises bursts (the bandwidth bound), and
// periodic refresh windows. Requests larger than the access granularity are
// split into bursts by the caller (MemCtrl), either one at a time via
// access() or as a whole consecutive run via access_run().
//
// It stands in for a cycle-accurate DRAM simulator such as Ramulator 2,
// which the paper couples to gem5: it reproduces the first-order
// latency/bandwidth/row-locality differences between DRAM technologies
// without cycle-accurate command scheduling (no per-command bus conflicts,
// tFAW/tRRD windows or power-down states).
//
// Hot-path structure: all timing parameters are converted to ticks once at
// construction (no per-burst ns->tick FP math), address decode is shift/mask
// when every geometry field is a power of two (with a division fallback for
// exotic widths). The open row of every bank is mirrored in a flat
// packed-key table so the FR-FCFS scheduler can test row hits with one
// 64-bit compare per queued request — see packed_key() / open_keys().
#pragma once

#include <cstdint>
#include <vector>

#include "mem/dram_config.hh"
#include "sim/types.hh"

namespace accesys {
class Ckpt;
}

namespace accesys::mem {

class DramTiming {
  public:
    explicit DramTiming(const DramParams& params);

    struct Access {
        Tick data_ready;     ///< tick the last data beat arrives
        Tick bus_busy_until; ///< earliest tick the channel can start another burst
        bool row_hit;
        unsigned channel;
    };

    /// Timing for one burst-sized access starting no earlier than `t`.
    [[nodiscard]] Access access(Addr addr, bool is_write, Tick t)
    {
        return access_run(addr, 1, is_write, t);
    }

    /// Timing for `n_bursts` consecutive burst-sized accesses starting at
    /// `addr`, each issued no earlier than `t` — bit-equivalent to calling
    /// access() in a loop with `addr += burst_bytes()`, but walking the bank
    /// state machine with an incremental burst index instead of an address
    /// per burst. Returns the max data_ready across
    /// the run, the last touched channel's bus horizon, and the last burst's
    /// row-hit flag and channel.
    [[nodiscard]] Access access_run(Addr addr, std::uint64_t n_bursts,
                                    bool is_write, Tick t);

    /// Would `addr` hit the currently-open row? (FR-FCFS scheduling probe.)
    [[nodiscard]] bool peek_row_hit(Addr addr) const
    {
        const std::uint64_t key = packed_key(addr);
        return open_keys_[key & slot_mask_] == key;
    }

    // --- FR-FCFS packed-key interface --------------------------------------
    // A packed key encodes (channel,bank,row) as `row << slot_bits | slot`
    // with slot = channel*banks + bank. The scheduler stores one key per
    // queued read at admission; a read is a row hit iff its key equals the
    // open-row key of its bank slot, so the window scan needs no decode.

    /// Packed (channel,bank,row) key for `addr`.
    [[nodiscard]] std::uint64_t packed_key(Addr addr) const
    {
        const Coord c = decode(addr);
        return (c.row << slot_bits_) |
               (static_cast<std::uint64_t>(c.channel) * params_.banks +
                c.bank);
    }

    /// Per-bank open-row keys, indexed by `key & slot_mask()`; a closed
    /// bank holds kNoOpenKey, which matches no packed key.
    [[nodiscard]] const std::uint64_t* open_keys() const noexcept
    {
        return open_keys_.data();
    }
    [[nodiscard]] std::uint64_t slot_mask() const noexcept
    {
        return slot_mask_;
    }

    static constexpr std::uint64_t kNoOpenKey = ~0ULL;

    [[nodiscard]] const DramParams& params() const noexcept
    {
        return params_;
    }

    // Aggregate counters (read by MemCtrl stats).
    [[nodiscard]] std::uint64_t row_hits() const noexcept
    {
        return row_hits_;
    }
    [[nodiscard]] std::uint64_t row_misses() const noexcept
    {
        return row_misses_;
    }
    [[nodiscard]] std::uint64_t bursts() const noexcept { return bursts_; }
    [[nodiscard]] std::uint64_t refreshes() const noexcept
    {
        return refreshes_;
    }

    /// Address decomposition, exposed for tests.
    struct Coord {
        unsigned channel;
        unsigned bank;
        std::uint64_t row;
    };
    [[nodiscard]] Coord decode(Addr addr) const;

    /// Checkpoint/restore bank/bus/refresh state and the burst counters.
    void serialize(Ckpt& ar);

  private:
    static constexpr std::uint64_t kNoRow = ~0ULL;

    struct Bank {
        std::uint64_t open_row = kNoRow;
        Tick ready_at = 0;    ///< earliest next column command
        Tick act_done = 0;    ///< tRAS horizon of the current activation
    };

    struct Channel {
        std::vector<Bank> banks;
        Tick bus_free = 0;
        Tick next_refresh = 0;
    };

    /// Decode by burst index (addr / burst_bytes) — the access_run walk
    /// steps this by one per burst instead of re-deriving it from the
    /// address.
    [[nodiscard]] Coord decode_burst(std::uint64_t burst) const;

    /// Apply any refresh windows that open before `t` on channel `ch`.
    Tick apply_refresh(Channel& ch, unsigned ch_idx, Tick t);

    DramParams params_;
    std::vector<Channel> channels_;

    // Shift/mask decode constants (valid when fast_decode_): see ctor.
    bool fast_decode_ = false;
    unsigned burst_shift_ = 0; ///< log2(burst_bytes)
    unsigned ch_shift_ = 0;    ///< log2(channels)
    unsigned ch_mask_ = 0;
    unsigned rs_shift_ = 0;    ///< log2(row_bytes / burst_bytes)
    unsigned bank_shift_ = 0;  ///< log2(banks)
    unsigned bank_mask_ = 0;

    // Timing parameters in ticks, converted once (access() used to redo the
    // ns->tick FP conversion for every parameter on every burst).
    Tick tCL_t_ = 0;
    Tick tRCD_t_ = 0;
    Tick tRP_t_ = 0;
    Tick tRAS_t_ = 0;
    Tick tRFC_t_ = 0;
    Tick tREFI_t_ = 0;
    Tick burst_t_ = 0;
    Tick write_recovery_t_ = 0; ///< burst_t_ * 2

    // Packed-key mirror of every bank's open row (see packed_key()).
    unsigned slot_bits_ = 0;
    std::uint64_t slot_mask_ = 0;
    std::vector<std::uint64_t> open_keys_;

    std::uint64_t row_hits_ = 0;
    std::uint64_t row_misses_ = 0;
    std::uint64_t bursts_ = 0;
    std::uint64_t refreshes_ = 0;
};

} // namespace accesys::mem
