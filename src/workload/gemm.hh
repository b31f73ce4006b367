// GEMM workload specification, data initialisation and result check.
//
// Operand layout matches the accelerator's expectations:
//   A   : m x k int8, row-major
//   B_T : n x k int8, row-major (B stored transposed — MatrixFlow's
//         streaming-friendly layout)
//   C   : m x n int32, row-major
#pragma once

#include <cstdint>
#include <vector>

#include "mem/backing_store.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace accesys::workload {

struct GemmSpec {
    std::uint32_t m = 0;
    std::uint32_t n = 0;
    std::uint32_t k = 0;
    std::uint64_t seed = 1;

    [[nodiscard]] std::uint64_t a_bytes() const
    {
        return static_cast<std::uint64_t>(m) * k;
    }
    [[nodiscard]] std::uint64_t b_bytes() const
    {
        return static_cast<std::uint64_t>(n) * k;
    }
    [[nodiscard]] std::uint64_t c_bytes() const
    {
        return static_cast<std::uint64_t>(m) * n * 4;
    }
    [[nodiscard]] double macs() const
    {
        return static_cast<double>(m) * n * k;
    }
};

/// Fill A and B_T with seeded pseudo-random int8 values, eight bytes per
/// draw of one `Rng(spec.seed)` (Rng::fill_bytes): byte i of A is byte
/// (i mod 8), least-significant first, of draw ⌊i/8⌋; B_T starts at the
/// next whole draw after A's last and follows the same rule. The bytes go
/// straight into `store`, with no heap allocation once the chunks the
/// operands cover exist.
void init_gemm_data(mem::BackingStore& store, const GemmSpec& spec,
                    Addr a_addr, Addr bt_addr);

/// Checks a GEMM's C against a reference rebuilt from `spec.seed`. A and
/// B_T come from the stream init_gemm_data writes, not from the store, so
/// an operand overwritten after it was filled shows as mismatches. The
/// reference is computed kBlockRows rows at a time with the shared int8
/// kernel (the one the accelerator's strips use, so a match validates the
/// data path: DMA, tiling, placement) and compared with C where it lies;
/// no m x n reference exists at any time. The buffers are kept for the
/// next check: one no larger than an earlier one makes no heap allocation
/// when C is 4-byte aligned and every chunk it covers exists.
class GemmChecker {
  public:
    /// Rows of reference C per kernel call (a multiple of 8, so each
    /// block of A starts at a whole draw of the operand stream).
    static constexpr std::uint32_t kBlockRows = 256;

    /// Number of elements of the m x n int32 C at `c_addr` that differ
    /// from the reference.
    [[nodiscard]] std::uint64_t check(const mem::BackingStore& store,
                                      const GemmSpec& spec, Addr c_addr);

  private:
    std::vector<std::int8_t> a_;      ///< one block of A
    std::vector<std::int8_t> bt_;     ///< all of B_T
    std::vector<std::int32_t> ref_;   ///< one block of reference C
    std::vector<std::int32_t> staging_; ///< for BackingStore::view
};

/// One check through a fresh GemmChecker (its buffers are freed on return).
[[nodiscard]] std::uint64_t gemm_check(const mem::BackingStore& store,
                                       const GemmSpec& spec, Addr c_addr);

} // namespace accesys::workload
