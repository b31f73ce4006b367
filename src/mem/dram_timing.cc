#include "mem/dram_timing.hh"

#include <algorithm>

#include "sim/serialize.hh"

namespace accesys::mem {

DramTiming::DramTiming(const DramParams& params) : params_(params)
{
    params_.validate();

    tCL_t_ = params_.tCL();
    tRCD_t_ = params_.tRCD();
    tRP_t_ = params_.tRP();
    tRAS_t_ = params_.tRAS();
    tRFC_t_ = params_.tRFC();
    tREFI_t_ = params_.tREFI();
    burst_t_ = params_.burst_ticks();
    write_recovery_t_ = burst_t_ * 2;

    // validate() guarantees banks and row_bytes are powers of two; the
    // burst size and channel count usually are too, enabling the pure
    // shift/mask decode. Exotic widths (e.g. 24-bit channels) fall back to
    // the division path in decode_burst.
    fast_decode_ =
        is_pow2(params_.burst_bytes()) && is_pow2(params_.channels);
    if (fast_decode_) {
        burst_shift_ = log2i(params_.burst_bytes());
        ch_shift_ = log2i(params_.channels);
        ch_mask_ = params_.channels - 1;
        rs_shift_ = log2i(params_.row_bytes) - burst_shift_;
        bank_shift_ = log2i(params_.banks);
        bank_mask_ = params_.banks - 1;
    }

    const std::uint64_t slots =
        std::uint64_t{params_.channels} * params_.banks;
    slot_bits_ = 1;
    while ((std::uint64_t{1} << slot_bits_) < slots) {
        ++slot_bits_;
    }
    slot_mask_ = (std::uint64_t{1} << slot_bits_) - 1;
    open_keys_.assign(std::size_t{1} << slot_bits_, kNoOpenKey);

    channels_.resize(params_.channels);
    for (auto& ch : channels_) {
        ch.banks.resize(params_.banks);
        ch.next_refresh = tREFI_t_;
    }
}

DramTiming::Coord DramTiming::decode_burst(std::uint64_t burst) const
{
    // Interleave channels at burst granularity, banks at row granularity:
    //   [ row | bank | channel | offset-in-burst ]
    // Streaming accesses then spread across channels and keep rows open.
    Coord c;
    if (fast_decode_) {
        c.channel = static_cast<unsigned>(burst) & ch_mask_;
        const std::uint64_t rows_space = (burst >> ch_shift_) >> rs_shift_;
        c.bank = static_cast<unsigned>(rows_space) & bank_mask_;
        c.row = rows_space >> bank_shift_;
    } else {
        c.channel = static_cast<unsigned>(burst % params_.channels);
        const std::uint64_t rows_space = burst / params_.channels *
                                         params_.burst_bytes() /
                                         params_.row_bytes;
        c.bank = static_cast<unsigned>(rows_space % params_.banks);
        c.row = rows_space / params_.banks;
    }
    return c;
}

DramTiming::Coord DramTiming::decode(Addr addr) const
{
    return decode_burst(fast_decode_ ? addr >> burst_shift_
                                     : addr / params_.burst_bytes());
}

Tick DramTiming::apply_refresh(Channel& ch, unsigned ch_idx, Tick t)
{
    while (t >= ch.next_refresh) {
        const Tick refresh_end = ch.next_refresh + tRFC_t_;
        for (auto& bank : ch.banks) {
            // Refresh closes all rows and stalls the banks.
            bank.open_row = kNoRow;
            bank.ready_at = std::max(bank.ready_at, refresh_end);
        }
        std::fill_n(open_keys_.begin() +
                        static_cast<std::ptrdiff_t>(
                            std::uint64_t{ch_idx} * params_.banks),
                    params_.banks, kNoOpenKey);
        ch.bus_free = std::max(ch.bus_free, refresh_end);
        ch.next_refresh += tREFI_t_;
        ++refreshes_;
        t = std::max(t, refresh_end);
    }
    return t;
}

DramTiming::Access DramTiming::access_run(Addr addr, std::uint64_t n_bursts,
                                          bool is_write, Tick t)
{
    const std::uint64_t burst0 = fast_decode_
                                     ? addr >> burst_shift_
                                     : addr / params_.burst_bytes();
    const Tick bank_recovery = is_write ? write_recovery_t_ : burst_t_;
    const bool refresh = params_.refresh_enabled;

    Access out{0, 0, false, 0};
    std::uint64_t hits = 0;

    for (std::uint64_t i = 0; i < n_bursts; ++i) {
        const Coord c = decode_burst(burst0 + i);
        Channel& ch = channels_[c.channel];
        Bank& bank = ch.banks[c.bank];

        // Each burst in the run starts no earlier than the caller's `t`
        // (matching the per-burst access() loop, which passed the same
        // start tick every iteration); a refresh window can push an
        // individual burst's command later.
        Tick bt = refresh ? apply_refresh(ch, c.channel, t) : t;
        Tick cmd = std::max(bt, bank.ready_at);

        bool row_hit = false;
        if (bank.open_row == c.row) {
            row_hit = true;
            ++hits;
        } else {
            ++row_misses_;
            // Precharge (if a row is open and tRAS allows) then activate.
            if (bank.open_row != kNoRow) {
                cmd = std::max(cmd, bank.act_done);
                cmd += tRP_t_;
            }
            cmd += tRCD_t_;
            bank.open_row = c.row;
            bank.act_done = cmd + tRAS_t_;
            open_keys_[std::uint64_t{c.channel} * params_.banks + c.bank] =
                (c.row << slot_bits_) |
                (std::uint64_t{c.channel} * params_.banks + c.bank);
        }

        // CAS latency applies once per access (latency); throughput is
        // bounded by column-command pacing (tCCD ~= one burst) and data-bus
        // occupancy, so back-to-back row hits stream at the full burst rate.
        const Tick cas_done = cmd + tCL_t_;
        const Tick burst_start = std::max(cas_done, ch.bus_free);
        const Tick data_ready = burst_start + burst_t_;
        ch.bus_free = data_ready;

        // Next column command to this bank; writes add a recovery window.
        bank.ready_at = cmd + bank_recovery;

        out.data_ready = std::max(out.data_ready, data_ready);
        out.bus_busy_until = ch.bus_free;
        out.row_hit = row_hit;
        out.channel = c.channel;
    }

    row_hits_ += hits;
    bursts_ += n_bursts;
    return out;
}

void DramTiming::serialize(Ckpt& ar)
{
    for (Channel& ch : channels_) {
        for (Bank& b : ch.banks) {
            ar.io(b.open_row, b.ready_at, b.act_done);
        }
        ar.io(ch.bus_free, ch.next_refresh);
    }
    ar.pod_vec(open_keys_);
    ar.io(row_hits_, row_misses_, bursts_, refreshes_);
}

} // namespace accesys::mem
