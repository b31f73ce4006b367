// Tests for the int8 GEMM kernel: both paths against a naive oracle.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "sim/gemm_kernel.hh"

namespace accesys {
namespace {

using Kernel = void (*)(const std::int8_t*, const std::int8_t*, std::int32_t*,
                        std::uint32_t, std::uint32_t, std::uint32_t,
                        std::size_t);

struct Shape {
    std::uint32_t m;
    std::uint32_t n;
    std::uint32_t k;
    std::size_t ldc; // 0 = n
};

enum class Fill { random, all_min, mixed };

constexpr std::int32_t kSentinel = 0x5a5a5a5a;

std::vector<std::int8_t> make_operand(std::size_t count, Fill fill,
                                      std::uint64_t seed)
{
    std::vector<std::int8_t> v(count);
    std::mt19937_64 rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
        switch (fill) {
        case Fill::random:
            v[i] = static_cast<std::int8_t>(rng());
            break;
        case Fill::all_min:
            v[i] = -128;
            break;
        case Fill::mixed:
            v[i] = (rng() & 1) != 0 ? 127 : -128;
            break;
        }
    }
    return v;
}

/// A copy of an operand that ends exactly where an inaccessible page
/// begins, so a kernel load past its last byte faults instead of quietly
/// reading neighbouring heap memory (masked vector loads are invisible to
/// AddressSanitizer).
class GuardedBytes {
  public:
    explicit GuardedBytes(const std::vector<std::int8_t>& src)
    {
        const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
        const std::size_t body = (src.size() + page - 1) / page * page;
        len_ = body + page;
        void* map = mmap(nullptr, len_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (map == MAP_FAILED) {
            throw std::runtime_error("mmap failed");
        }
        base_ = static_cast<std::int8_t*>(map);
        if (mprotect(base_ + body, page, PROT_NONE) != 0) {
            munmap(base_, len_);
            throw std::runtime_error("mprotect failed");
        }
        data_ = base_ + body - src.size();
        if (!src.empty()) { // an empty vector's data() may be null
            std::memcpy(data_, src.data(), src.size());
        }
    }
    ~GuardedBytes() { munmap(base_, len_); }
    GuardedBytes(const GuardedBytes&) = delete;
    GuardedBytes& operator=(const GuardedBytes&) = delete;

    [[nodiscard]] const std::int8_t* data() const { return data_; }

  private:
    std::int8_t* base_ = nullptr;
    std::int8_t* data_ = nullptr;
    std::size_t len_ = 0;
};

/// Row-by-row dot products, summed modulo 2^32 like the kernel.
void oracle(const std::int8_t* a, const std::int8_t* bt, std::int32_t* c,
            std::uint32_t m, std::uint32_t n, std::uint32_t k, std::size_t ldc)
{
    for (std::uint32_t i = 0; i < m; ++i) {
        for (std::uint32_t j = 0; j < n; ++j) {
            std::uint32_t sum = 0;
            for (std::uint32_t kk = 0; kk < k; ++kk) {
                sum += static_cast<std::uint32_t>(
                    a[static_cast<std::size_t>(i) * k + kk] *
                    bt[static_cast<std::size_t>(j) * k + kk]);
            }
            c[i * ldc + j] = static_cast<std::int32_t>(sum);
        }
    }
}

void expect_matches_oracle(Kernel kernel, const Shape& s, Fill fill)
{
    const std::size_t ldc = s.ldc != 0 ? s.ldc : s.n;
    const auto a = make_operand(std::size_t{s.m} * s.k, fill, 11 + s.k);
    const auto bt = make_operand(std::size_t{s.n} * s.k, fill, 29 + s.m);
    std::vector<std::int32_t> want(s.m * ldc, kSentinel);
    std::vector<std::int32_t> got(s.m * ldc, kSentinel);
    oracle(a.data(), bt.data(), want.data(), s.m, s.n, s.k, ldc);
    const GuardedBytes ga(a);
    const GuardedBytes gbt(bt);
    kernel(ga.data(), gbt.data(), got.data(), s.m, s.n, s.k, ldc);
    EXPECT_EQ(got, want) << s.m << "x" << s.n << "x" << s.k << " ldc "
                         << ldc << " fill " << static_cast<int>(fill);
}

/// Edge cases of the VNNI kernel's blocking: 16-column panels of 4-byte
/// k groups, 16-row register blocks, 1024-byte k blocks and 1024-row
/// chunks. Every shape runs through every path.
std::vector<Shape> test_shapes()
{
    std::vector<Shape> shapes = {
        {1, 1, 1, 0},     {3, 5, 7, 0},      {16, 16, 16, 0},
        {48, 48, 48, 0},  {77, 131, 200, 0}, {5, 6, 63, 0},
        {5, 6, 64, 0},    {5, 6, 65, 0},     {9, 7, 127, 0},
        {9, 7, 128, 0},   {7, 9, 33, 13},    {16, 10, 96, 24},
        {18, 1030, 70, 0}, {5, 2049, 9, 2051},
        // k = 0 writes zeros.
        {3, 5, 0, 0},
        // k = 1, 2, 3 (mod 4): a partial last k group in each row.
        {16, 16, 61, 0},  {16, 16, 62, 0},   {16, 16, 63, 0},
        // m % 16 != 0: full row blocks plus single leftover rows.
        {17, 16, 40, 0},  {31, 16, 40, 0},   {33, 32, 8, 0},
        // k on both sides of one and two k blocks: later blocks add into C.
        {20, 18, 1023, 0}, {20, 18, 1024, 0}, {20, 18, 1025, 0},
        {3, 5, 2047, 0},  {3, 5, 2048, 0},   {3, 5, 2049, 0},
        // More rows than one chunk of row offsets.
        {1030, 17, 5, 0},
        // The device strips of the benchmark workloads.
        {16, 16, 32, 0},  {16, 16, 48, 0},   {16, 16, 512, 0},
        {16, 16, 768, 0},
    };
    // n = 1 .. 15 (mod 16): a partial last column block. The padding of
    // ldc = n + 16 keeps its sentinels only if the store masks the block.
    for (std::uint32_t n = 17; n < 32; ++n) {
        shapes.push_back({9, n, 37, n + 16});
    }
    return shapes;
}

void expect_all_shapes_match(Kernel kernel)
{
    for (const Shape& s : test_shapes()) {
        for (const Fill fill : {Fill::random, Fill::all_min, Fill::mixed}) {
            expect_matches_oracle(kernel, s, fill);
        }
    }
}

/// 140000 products of (-128)^2 sum past 2^31: the int32 result wraps.
void expect_wraps(Kernel kernel)
{
    constexpr std::uint32_t k = 140000;
    const std::vector<std::int8_t> a(k, -128);
    const std::vector<std::int8_t> bt(k, -128);
    std::int32_t c = 0;
    kernel(a.data(), bt.data(), &c, 1, 1, k, 1);
    EXPECT_EQ(c, static_cast<std::int32_t>(k * 16384U));
    EXPECT_LT(c, 0);
}

TEST(GemmKernel, PortableMatchesOracle)
{
    expect_all_shapes_match(&detail::gemm_i8_nt_portable);
}

TEST(GemmKernel, PortableSumsWrapModulo2To32)
{
    expect_wraps(&detail::gemm_i8_nt_portable);
}

TEST(GemmKernel, VnniMatchesOracle)
{
#if ACCESYS_HAVE_VNNI_KERNEL
    if (!detail::cpu_has_vnni()) {
        GTEST_SKIP() << "CPU lacks avx512vnni/avx512bw";
    }
    expect_all_shapes_match(&detail::gemm_i8_nt_vnni);
#else
    GTEST_SKIP() << "VNNI kernel not built for this target";
#endif
}

TEST(GemmKernel, VnniSumsWrapModulo2To32)
{
#if ACCESYS_HAVE_VNNI_KERNEL
    if (!detail::cpu_has_vnni()) {
        GTEST_SKIP() << "CPU lacks avx512vnni/avx512bw";
    }
    expect_wraps(&detail::gemm_i8_nt_vnni);
#else
    GTEST_SKIP() << "VNNI kernel not built for this target";
#endif
}

TEST(GemmKernel, DispatchedPathMatchesOracle)
{
    expect_all_shapes_match(&gemm_i8_nt);
    expect_wraps(&gemm_i8_nt);
}

} // namespace
} // namespace accesys
