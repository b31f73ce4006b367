// MatrixFlow-style systolic array model (16x16 int8 multiply-accumulate).
//
// Timing: an output-stationary tile of R x C results streams K operand pairs
// through the array; one tile costs K + fill/drain cycles. The per-tile time
// can be overridden with a fixed value — that is the knob the roofline study
// (paper Fig. 2) sweeps.
//
// Function: exact int8 x int8 -> int32 GEMM on data staged in the global
// BackingStore, so tests can bit-compare accelerator output against a
// reference and thereby validate the whole DMA path.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/backing_store.hh"
#include "sim/error.hh"
#include "sim/types.hh"

namespace accesys::accel {

struct SystolicParams {
    unsigned rows = 16;
    unsigned cols = 16;
    double freq_ghz = 1.0;
    unsigned fill_drain_cycles = 32;
    /// Fig. 2 roofline knob: when >= 0, every tile takes exactly this long
    /// regardless of K.
    double compute_time_override_ns = -1.0;

    void validate() const;
};

class SystolicArray {
  public:
    explicit SystolicArray(const SystolicParams& params);

    [[nodiscard]] const SystolicParams& params() const noexcept
    {
        return params_;
    }

    /// Cycles to produce one RxC output tile with reduction depth `k`.
    [[nodiscard]] Cycles tile_cycles(std::uint32_t k) const
    {
        return k + params_.fill_drain_cycles;
    }

    /// Wall-clock ticks for one tile (honours the override knob).
    [[nodiscard]] Tick tile_ticks(std::uint32_t k) const;

    /// Ticks for a strip of `tiles` output tiles computed back-to-back.
    [[nodiscard]] Tick strip_ticks(std::uint32_t tiles,
                                   std::uint32_t k) const
    {
        return tiles * tile_ticks(k);
    }

    /// Peak MACs per second.
    [[nodiscard]] double peak_macs_per_sec() const
    {
        return params_.rows * params_.cols * params_.freq_ghz * 1e9;
    }

    /// Functional strip computation:
    ///   C[r][c] = sum_k A[r][k] * B_T[c][k]  (int8 inputs, int32 output)
    /// A strip: `rows` x k int8, row-major at `a_addr`.
    /// B panel: `cols` x k int8, row-major (i.e. B transposed) at `b_addr`.
    /// C strip: `rows` x `c_stride_elems` int32 at `c_addr`; only the first
    /// `cols` columns of each row are written. C must not overlap A or B.
    /// The kernel runs in place on the store's memory; an operand that
    /// straddles a chunk boundary goes through this array's staging
    /// buffers, which are reused across calls.
    void compute_strip(mem::BackingStore& store, Addr a_addr, Addr b_addr,
                       Addr c_addr, std::uint32_t rows, std::uint32_t cols,
                       std::uint32_t k, std::uint32_t c_stride_elems);

  private:
    SystolicParams params_;
    std::vector<std::int8_t> a_stage_;
    std::vector<std::int8_t> b_stage_;
    std::vector<std::int32_t> c_stage_;
};

} // namespace accesys::accel
