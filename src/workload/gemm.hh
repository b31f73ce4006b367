// GEMM workload specification, data initialisation and golden model.
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

/// Reference result (row-major m x n int32) from one call of the shared
/// int8 GEMM kernel. The accelerator's strips use the same kernel, so a
/// match validates the data path (DMA, tiling, placement); the kernel's
/// arithmetic is checked against a naive oracle in its own tests.
[[nodiscard]] std::vector<std::int32_t> gemm_golden(
    const mem::BackingStore& store, const GemmSpec& spec, Addr a_addr,
    Addr bt_addr);

/// Compare the accelerator's C against `golden` (m·n elements, checked)
/// straight out of the store; returns the mismatch count. No heap
/// allocation when C is 4-byte aligned and every chunk it covers exists.
[[nodiscard]] std::uint64_t gemm_check(const mem::BackingStore& store,
                                       const GemmSpec& spec, Addr c_addr,
                                       const std::vector<std::int32_t>& golden);

} // namespace accesys::workload
