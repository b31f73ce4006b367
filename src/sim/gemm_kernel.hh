// Exact int8 GEMM kernel shared by the result check (workload::GemmChecker)
// and the accelerator's functional strips.
//
//   C[i][j] = sum_k A[i][k] * B_T[j][k]   (int8 inputs, int32 results)
//
// A is m x k and B_T is n x k, both row-major with rows packed k bytes
// apart; C rows are `ldc` elements apart and only the first n columns of
// each row are written. Sums wrap modulo 2^32, so every path returns the
// same bits for every k.
//
// Two implementations, picked once from the CPU's feature flags:
//   - AVX-512 VNNI: `vpdpbusd` of broadcast A bytes against a packed B_T
//     panel, 16 rows x 16 columns of C held in registers (x86-64 hosts
//     with avx512vnni + avx512bw);
//   - portable: one widen-then-accumulate dot product per output, built as
//     target_clones on x86-64 and plain C++ everywhere else.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ACCESYS_HAVE_VNNI_KERNEL 1
#endif

namespace accesys {

/// C = A * B_T on the fastest path this CPU supports.
void gemm_i8_nt(const std::int8_t* a, const std::int8_t* bt, std::int32_t* c,
                std::uint32_t m, std::uint32_t n, std::uint32_t k,
                std::size_t ldc);

namespace detail {

/// The portable path, callable on every host.
void gemm_i8_nt_portable(const std::int8_t* a, const std::int8_t* bt,
                         std::int32_t* c, std::uint32_t m, std::uint32_t n,
                         std::uint32_t k, std::size_t ldc);

/// True when this CPU can run gemm_i8_nt_vnni.
[[nodiscard]] bool cpu_has_vnni();

#if ACCESYS_HAVE_VNNI_KERNEL
/// The AVX-512 VNNI path; call only when cpu_has_vnni() is true.
void gemm_i8_nt_vnni(const std::int8_t* a, const std::int8_t* bt,
                     std::int32_t* c, std::uint32_t m, std::uint32_t n,
                     std::uint32_t k, std::size_t ldc);
#endif

} // namespace detail

} // namespace accesys
