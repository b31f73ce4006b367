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

// Where an intrinsic has a maskz form, the code below calls that form with
// an all-ones mask, which compiles to the plain instruction: the plain
// intrinsics trip GCC 12's -Wmaybe-uninitialized on their undefined
// pass-through operand.

/// Sixteen int32 lanes. The accumulators use this type rather than __m512i:
/// GCC 12 does not coalesce the __m512i <-> vector-of-int casts inside
/// _mm512_dpbusd_epi32 and copies every __m512i accumulator twice per step.
using I32x16 = std::int32_t __attribute__((vector_size(64)));

/// k bytes per packed B_T panel: 16 columns x 1024 bytes is 16 KiB of
/// stack, and every k the workloads run fits in one block.
constexpr std::uint32_t kBlockK = 1024;
/// Rows whose A offsets sit on the stack while the panels of one k block
/// are packed, so each panel serves this many rows before it is repacked.
constexpr std::uint32_t kChunkRows = 1024;
/// Rows of C held in zmm accumulators at once (one zmm per 16-column row
/// segment); 16 independent vpdpbusd chains cover its latency.
constexpr std::uint32_t kBlockRows = 16;

/// The `n` bytes at `p`, zero-extended to 64 when n < 64; reads no byte
/// past them.
ACCESYS_VNNI_TARGET
inline __m512i load_bytes(const std::int8_t* p, std::uint32_t n)
{
    return n >= 64 ? _mm512_loadu_si512(p)
                   : _mm512_maskz_loadu_epi8((__mmask64{1} << n) - 1, p);
}

/// 128 * sum of the `len` int8 values at `p`, modulo 2^32.
ACCESYS_VNNI_TARGET
inline std::int32_t row_offset(const std::int8_t* p, std::uint32_t len,
                               __m512i bias)
{
    __m512i s = _mm512_setzero_si512();
    for (std::uint32_t kk = 0; kk < len; kk += 64) {
        s = _mm512_dpbusd_epi32(s, bias, load_bytes(p + kk, len - kk));
    }
    // Fold the 16 lanes to one.
    const __m256i h =
        _mm256_add_epi32(_mm512_maskz_extracti64x4_epi64(0xf, s, 0),
                         _mm512_maskz_extracti64x4_epi64(0xf, s, 1));
    __m128i q = _mm_add_epi32(_mm256_castsi256_si128(h),
                              _mm256_extracti128_si256(h, 1));
    q = _mm_add_epi32(q, _mm_shuffle_epi32(q, 0x4e));
    q = _mm_add_epi32(q, _mm_shuffle_epi32(q, 0xb1));
    return _mm_cvtsi128_si32(q);
}

/// In-register 16x16 transpose of 32-bit elements: on return v[x] holds
/// element x of the old v[0] .. v[15].
ACCESYS_VNNI_TARGET
inline void transpose16(__m512i (&v)[16])
{
    constexpr __mmask16 all16 = 0xffff;
    constexpr __mmask8 all8 = 0xff;
    __m512i t[16];
    // Per 128-bit lane L: t[2p] = {v2p[4L], v2p+1[4L], v2p[4L+1], ...},
    // t[2p+1] the same for elements 4L+2, 4L+3.
    for (std::uint32_t p = 0; p < 8; ++p) {
        t[2 * p] = _mm512_maskz_unpacklo_epi32(all16, v[2 * p], v[2 * p + 1]);
        t[2 * p + 1] =
            _mm512_maskz_unpackhi_epi32(all16, v[2 * p], v[2 * p + 1]);
    }
    // u[4q + e] lane L = element 4L + e of rows 4q .. 4q + 3.
    __m512i u[16];
    for (std::uint32_t q = 0; q < 4; ++q) {
        for (std::uint32_t h = 0; h < 2; ++h) {
            const __m512i lo = t[4 * q + h];
            const __m512i hi = t[4 * q + 2 + h];
            u[4 * q + 2 * h] = _mm512_maskz_unpacklo_epi64(all8, lo, hi);
            u[4 * q + 2 * h + 1] = _mm512_maskz_unpackhi_epi64(all8, lo, hi);
        }
    }
    // 4x4 transpose of 128-bit lanes across u[e], u[4 + e], u[8 + e],
    // u[12 + e]: lane q of the result for element 4L + e is lane L of
    // u[4q + e].
    for (std::uint32_t e = 0; e < 4; ++e) {
        const __m512i w0 =
            _mm512_maskz_shuffle_i32x4(all16, u[e], u[4 + e], 0x44);
        const __m512i w1 =
            _mm512_maskz_shuffle_i32x4(all16, u[e], u[4 + e], 0xee);
        const __m512i w2 =
            _mm512_maskz_shuffle_i32x4(all16, u[8 + e], u[12 + e], 0x44);
        const __m512i w3 =
            _mm512_maskz_shuffle_i32x4(all16, u[8 + e], u[12 + e], 0xee);
        v[e] = _mm512_maskz_shuffle_i32x4(all16, w0, w2, 0x88);
        v[4 + e] = _mm512_maskz_shuffle_i32x4(all16, w0, w2, 0xdd);
        v[8 + e] = _mm512_maskz_shuffle_i32x4(all16, w1, w3, 0x88);
        v[12 + e] = _mm512_maskz_shuffle_i32x4(all16, w1, w3, 0xdd);
    }
}

/// Packs bytes [0, len) of `cols` (<= 16) B_T rows, `ldb` bytes apart,
/// into `panel`: lane c of panel[g] holds bytes 4g .. 4g + 3 of row c plus
/// 128, the unsigned operand of vpdpbusd. Lanes past `cols` repeat the last
/// row and bytes past `len` hold 128; row_block masks the former out of C
/// and meets the latter only with zero A bytes.
ACCESYS_VNNI_TARGET
inline void pack_panel(const std::int8_t* b, std::size_t ldb,
                       std::uint32_t cols, std::uint32_t len, __m512i bias,
                       __m512i* panel)
{
    for (std::uint32_t kk = 0; kk < len; kk += 64) {
        __m512i v[16];
        for (std::uint32_t col = 0; col < 16; ++col) {
            const std::int8_t* row = b + std::min(col, cols - 1) * ldb + kk;
            v[col] = _mm512_xor_si512(load_bytes(row, len - kk), bias);
        }
        transpose16(v);
        for (std::uint32_t g = 0; g < 16; ++g) {
            _mm512_store_si512(panel + kk / 4 + g, v[g]);
        }
    }
}

/// C rows 0 .. R-1 (the lanes in `col_mask`) = A rows 0 .. R-1 (`lda` bytes
/// apart) times the packed panel over k bytes [0, len), minus the rows'
/// offsets, plus C's old values when `accumulate` is set. Each step
/// broadcasts 4 bytes of every A row against one panel vector, so the R
/// accumulators stay in zmm registers for the whole k block.
template <std::uint32_t R>
ACCESYS_VNNI_TARGET inline void
row_block(const std::int8_t* a, std::size_t lda, const std::int32_t* off,
          const __m512i* panel, std::uint32_t len, std::int32_t* c,
          std::size_t ldc, __mmask16 col_mask, bool accumulate)
{
    I32x16 acc[R];
    for (std::uint32_t r = 0; r < R; ++r) {
        const __m512i old =
            accumulate ? _mm512_maskz_loadu_epi32(col_mask, c + r * ldc)
                       : _mm512_setzero_si512();
        acc[r] = I32x16(_mm512_sub_epi32(old, _mm512_set1_epi32(off[r])));
    }
    const std::uint32_t groups = len / 4;
    for (std::uint32_t g = 0; g < groups; ++g) {
        const __m512i b = _mm512_load_si512(panel + g);
#pragma GCC unroll 16
        for (std::uint32_t r = 0; r < R; ++r) {
            std::int32_t a4 = 0;
            std::memcpy(&a4, a + r * lda + 4 * g, sizeof(a4));
            acc[r] = I32x16(_mm512_dpbusd_epi32(__m512i(acc[r]), b,
                                                _mm512_set1_epi32(a4)));
        }
    }
    if (len % 4 != 0) {
        // The last 1-3 bytes of each row; reading a full 4 could run past
        // the end of A.
        const __m512i b = _mm512_load_si512(panel + groups);
        for (std::uint32_t r = 0; r < R; ++r) {
            std::int32_t a4 = 0;
            std::memcpy(&a4, a + r * lda + 4 * groups, len % 4);
            acc[r] = I32x16(_mm512_dpbusd_epi32(__m512i(acc[r]), b,
                                                _mm512_set1_epi32(a4)));
        }
    }
    for (std::uint32_t r = 0; r < R; ++r) {
        _mm512_mask_storeu_epi32(c + r * ldc, col_mask, __m512i(acc[r]));
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

/// `vpdpbusd` multiplies unsigned by signed bytes, so B_T is packed biased
/// to b + 128 and 128 * sum_k A[i][k] is subtracted per row:
/// a * (b + 128) - 128 * a = a * b, exact modulo 2^32. k goes in blocks of
/// kBlockK; per block, each 16-column block of B_T is packed once into a
/// stack panel that then meets every A row of the chunk, 16 rows at a time
/// (one row at a time for the last m % 16). Later k blocks add into C.
ACCESYS_VNNI_TARGET
void gemm_i8_nt_vnni(const std::int8_t* a, const std::int8_t* bt,
                     std::int32_t* c, std::uint32_t m, std::uint32_t n,
                     std::uint32_t k, std::size_t ldc)
{
    const __m512i bias = _mm512_set1_epi8(static_cast<char>(0x80));
    // Each entry is written before it is read; zeroing these 20 KiB would
    // cost about as much as a whole 16^3 call.
    __m512i panel[kBlockK / 4];
    std::int32_t off[kChunkRows];
    // One pass even when k == 0, which writes C = 0.
    for (std::uint32_t kb = 0;; kb += kBlockK) {
        const std::uint32_t len = std::min(kBlockK, k - kb);
        for (std::uint32_t i0 = 0; i0 < m; i0 += kChunkRows) {
            const std::uint32_t rows = std::min(kChunkRows, m - i0);
            const std::int8_t* a0 = a + std::size_t{i0} * k + kb;
            for (std::uint32_t r = 0; r < rows; ++r) {
                off[r] = row_offset(a0 + std::size_t{r} * k, len, bias);
            }
            for (std::uint32_t j0 = 0; j0 < n; j0 += 16) {
                const std::uint32_t cols = std::min(16U, n - j0);
                pack_panel(bt + std::size_t{j0} * k + kb, k, cols, len, bias,
                           panel);
                const auto mask = static_cast<__mmask16>((1U << cols) - 1);
                std::int32_t* c0 = c + i0 * ldc + j0;
                std::uint32_t r = 0;
                for (; r + kBlockRows <= rows; r += kBlockRows) {
                    row_block<kBlockRows>(a0 + std::size_t{r} * k, k,
                                          off + r, panel, len, c0 + r * ldc,
                                          ldc, mask, kb > 0);
                }
                for (; r < rows; ++r) {
                    row_block<1>(a0 + std::size_t{r} * k, k, off + r, panel,
                                 len, c0 + r * ldc, ldc, mask, kb > 0);
                }
            }
        }
        if (k - kb <= kBlockK) {
            break;
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
