#include "sim/gemm_kernel.hh"

#include <algorithm>
#include <cstring>

#if ACCESYS_HAVE_VNNI_KERNEL
#include <immintrin.h>
#endif

namespace accesys {

namespace {

#if defined(__x86_64__) && defined(__gnu_linux__) && \
    (defined(__GNUC__) || defined(__clang__)) && \
    __has_attribute(target_clones)
/// Per-function multiversioning: the build stays baseline-portable, but on
/// hosts with wider vector units the loader binds the AVX2/AVX-512 clone
/// of this kernel. Integer math is exact in every clone, so the dispatch
/// cannot affect results — only the MACs/s of the functional model.
#define ACCESYS_DOT_CLONES \
    __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define ACCESYS_DOT_CLONES
#endif

/// Int8 dot product of length `k`, modulo 2^32. Written as the canonical
/// widen-then-accumulate reduction, which GCC/Clang auto-vectorize into
/// the packed multiply-add idiom at -O3. Each product fits in int32; the
/// unsigned sum wraps where a signed one would overflow.
ACCESYS_DOT_CLONES
std::uint32_t dot_i8(const std::int8_t* a, const std::int8_t* b,
                     std::uint32_t k)
{
    std::uint32_t sum = 0;
    for (std::uint32_t i = 0; i < k; ++i) {
        sum += static_cast<std::uint32_t>(static_cast<std::int32_t>(a[i]) *
                                          static_cast<std::int32_t>(b[i]));
    }
    return sum;
}

#if ACCESYS_HAVE_VNNI_KERNEL
#define ACCESYS_VNNI_TARGET \
    __attribute__((target("avx512f,avx512bw,avx512vnni")))

/// Sums of four 16-lane vectors, one per output lane: {x0, x1, x2, x3}.
ACCESYS_VNNI_TARGET
inline __m128i reduce4(__m512i x0, __m512i x1, __m512i x2, __m512i x3)
{
    // Per 128-bit lane: {x0, x1, x0, x1} and {x2, x3, x2, x3} partials,
    // then {x0, x1, x2, x3}; finally fold the four 128-bit lanes. The
    // all-ones maskz forms compile to the plain instructions; the plain
    // intrinsics trip GCC 12's -Wmaybe-uninitialized on their undefined
    // pass-through operand.
    constexpr __mmask16 all16 = 0xffff;
    constexpr __mmask8 all8 = 0xff;
    const __m512i t01 =
        _mm512_add_epi32(_mm512_maskz_unpacklo_epi32(all16, x0, x1),
                         _mm512_maskz_unpackhi_epi32(all16, x0, x1));
    const __m512i t23 =
        _mm512_add_epi32(_mm512_maskz_unpacklo_epi32(all16, x2, x3),
                         _mm512_maskz_unpackhi_epi32(all16, x2, x3));
    const __m512i t =
        _mm512_add_epi32(_mm512_maskz_unpacklo_epi64(all8, t01, t23),
                         _mm512_maskz_unpackhi_epi64(all8, t01, t23));
    const __m256i u =
        _mm256_add_epi32(_mm512_maskz_extracti64x4_epi64(0xf, t, 0),
                         _mm512_maskz_extracti64x4_epi64(0xf, t, 1));
    return _mm_add_epi32(_mm256_castsi256_si128(u),
                         _mm256_extracti128_si256(u, 1));
}

/// Rows first .. first + 3 of a `count`-row matrix with k-byte rows; rows
/// past the end repeat the last row.
inline void four_rows(const std::int8_t* base, std::uint32_t first,
                      std::uint32_t count, std::uint32_t k,
                      const std::int8_t* (&rows)[4])
{
    for (std::uint32_t r = 0; r < 4; ++r) {
        rows[r] = base + static_cast<std::size_t>(
                             std::min(first + r, count - 1)) * k;
    }
}

/// One 64-wide k step of a 4x4 tile: acc[r][q] += (A row r + 128) . B_T
/// row q over the bytes selected by `mask` (unselected bytes load as 0).
ACCESYS_VNNI_TARGET
inline void tile_step(__m512i (&acc)[4][4], const std::int8_t* const (&ar)[4],
                      const std::int8_t* const (&b)[4], std::uint32_t kk,
                      __mmask64 mask, __m512i bias)
{
    __m512i bv[4];
    for (std::uint32_t q = 0; q < 4; ++q) {
        bv[q] = _mm512_maskz_loadu_epi8(mask, b[q] + kk);
    }
    for (std::uint32_t r = 0; r < 4; ++r) {
        const __m512i av =
            _mm512_xor_si512(_mm512_maskz_loadu_epi8(mask, ar[r] + kk), bias);
        for (std::uint32_t q = 0; q < 4; ++q) {
            acc[r][q] = _mm512_dpbusd_epi32(acc[r][q], av, bv[q]);
        }
    }
}
#endif

} // namespace

namespace detail {

void gemm_i8_nt_portable(const std::int8_t* a, const std::int8_t* bt,
                         std::int32_t* c, std::uint32_t m, std::uint32_t n,
                         std::uint32_t k, std::size_t ldc)
{
    // Column-outer: one B_T row stays hot while it meets every A row.
    for (std::uint32_t j = 0; j < n; ++j) {
        const std::int8_t* bj = bt + static_cast<std::size_t>(j) * k;
        for (std::uint32_t i = 0; i < m; ++i) {
            c[i * ldc + j] = static_cast<std::int32_t>(
                dot_i8(a + static_cast<std::size_t>(i) * k, bj, k));
        }
    }
}

#if ACCESYS_HAVE_VNNI_KERNEL

bool cpu_has_vnni()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512vnni") &&
           __builtin_cpu_supports("avx512bw");
}

/// `vpdpbusd` multiplies unsigned by signed bytes, so A is biased to
/// a + 128 (a ^ 0x80) and 128 * sum_k B_T[j][k] is subtracted per column:
/// (a + 128) * b - 128 * b = a * b, exact modulo 2^32. Each step covers 64
/// k values of a 4x4 output tile in 16 accumulators; the k tail uses
/// zero-masked loads (biased A lanes meet zero B lanes), and m/n edges
/// clamp the row pointers to the last row and drop the duplicate outputs.
/// Within each 1024-column block, tiles walk 16-row panels of A, column
/// group by column group, so the A panel and the current 4 B_T rows stay in
/// L1 while the block's B_T rows stream from L2.
ACCESYS_VNNI_TARGET
void gemm_i8_nt_vnni(const std::int8_t* a, const std::int8_t* bt,
                     std::int32_t* c, std::uint32_t m, std::uint32_t n,
                     std::uint32_t k, std::size_t ldc)
{
    constexpr std::uint32_t panel_rows = 16;
    const __m512i bias = _mm512_set1_epi8(static_cast<char>(0x80));
    const std::uint32_t k_body = k & ~63U;
    const __mmask64 tail = (__mmask64{1} << (k & 63U)) - 1;

    // Columns go in blocks of block_cols; the block's 128 * sum_k B_T[j][k]
    // per column sits on the stack, so a call never touches the heap.
    constexpr std::uint32_t block_cols = 1024;
    alignas(16) std::int32_t offset[block_cols] = {};
    for (std::uint32_t j0 = 0; j0 < n; j0 += block_cols) {
        const std::uint32_t j_end = std::min(j0 + block_cols, n);
        for (std::uint32_t j = j0; j < j_end; j += 4) {
            const std::int8_t* b[4];
            four_rows(bt, j, n, k, b);
            __m512i s[4];
            for (std::uint32_t q = 0; q < 4; ++q) {
                s[q] = _mm512_setzero_si512();
                for (std::uint32_t kk = 0; kk < k; kk += 64) {
                    const __mmask64 mask =
                        kk < k_body ? ~__mmask64{0} : tail;
                    s[q] = _mm512_dpbusd_epi32(
                        s[q], bias,
                        _mm512_maskz_loadu_epi8(mask, b[q] + kk));
                }
            }
            _mm_store_si128(reinterpret_cast<__m128i*>(&offset[j - j0]),
                            reduce4(s[0], s[1], s[2], s[3]));
        }

        for (std::uint32_t i0 = 0; i0 < m; i0 += panel_rows) {
            const std::uint32_t i_end = std::min(i0 + panel_rows, m);
            for (std::uint32_t j = j0; j < j_end; j += 4) {
                const std::int8_t* b[4];
                four_rows(bt, j, n, k, b);
                const __m128i off = _mm_load_si128(
                    reinterpret_cast<const __m128i*>(&offset[j - j0]));
                const std::uint32_t cols = std::min(4U, n - j);
                for (std::uint32_t i = i0; i < i_end; i += 4) {
                    const std::int8_t* ar[4];
                    four_rows(a, i, m, k, ar);
                    __m512i acc[4][4];
                    for (auto& row : acc) {
                        for (auto& v : row) {
                            v = _mm512_setzero_si512();
                        }
                    }
                    for (std::uint32_t kk = 0; kk < k; kk += 64) {
                        tile_step(acc, ar, b, kk,
                                  kk < k_body ? ~__mmask64{0} : tail, bias);
                    }
                    for (std::uint32_t r = 0; r < std::min(4U, m - i); ++r) {
                        alignas(16) std::int32_t out[4];
                        _mm_store_si128(
                            reinterpret_cast<__m128i*>(out),
                            _mm_sub_epi32(reduce4(acc[r][0], acc[r][1],
                                                  acc[r][2], acc[r][3]),
                                          off));
                        std::memcpy(c + (i + r) * ldc + j, out,
                                    cols * sizeof(out[0]));
                    }
                }
            }
        }
    }
}

#else

bool cpu_has_vnni()
{
    return false;
}

#endif

} // namespace detail

void gemm_i8_nt(const std::int8_t* a, const std::int8_t* bt, std::int32_t* c,
                std::uint32_t m, std::uint32_t n, std::uint32_t k,
                std::size_t ldc)
{
#if ACCESYS_HAVE_VNNI_KERNEL
    static const auto kernel = detail::cpu_has_vnni()
                                   ? &detail::gemm_i8_nt_vnni
                                   : &detail::gemm_i8_nt_portable;
    kernel(a, bt, c, m, n, k, ldc);
#else
    detail::gemm_i8_nt_portable(a, bt, c, m, n, k, ldc);
#endif
}

} // namespace accesys
