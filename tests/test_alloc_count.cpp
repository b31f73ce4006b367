// Heap allocations on the device-memory data path. Every DevMem transfer
// (mover job, response, strip) must run without touching the heap once its
// rings and pools have grown to the working set, so the allocation count
// of a whole GEMM must not grow with the matrix size. This binary replaces
// the global operator new with a counting one to check that.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/runner.hh"

namespace {
std::uint64_t g_allocs = 0; // the simulator is single-threaded
} // namespace

void* operator new(std::size_t n)
{
    ++g_allocs;
    if (void* p = std::malloc(n == 0 ? 1 : n)) {
        return p;
    }
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept
{
    std::free(p);
}

void operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace accesys {
namespace {

/// Allocations made inside run_dispatched() of one verified 1-device
/// HBM2 devmem GEMM of size n^3.
std::uint64_t run_allocs(std::uint32_t n)
{
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    cfg.set_devmem("HBM2");
    core::System sys(cfg);
    core::Runner runner(sys);
    runner.dispatch(0, workload::GemmSpec{n, n, n, 11}, core::Placement::devmem,
                    /*verify=*/true);
    const std::uint64_t before = g_allocs;
    const auto res = runner.run_dispatched();
    const std::uint64_t allocs = g_allocs - before;
    EXPECT_TRUE(res.all_verified()) << n << "^3";
    return allocs;
}

TEST(DevMemAllocations, DoNotGrowWithGemmSize)
{
    // 256^3 moves 8x the bytes of 128^3 through 4x the strips; a
    // per-transfer or per-strip allocation shows up as thousands here.
    const std::uint64_t small = run_allocs(128);
    const std::uint64_t large = run_allocs(256);
    RecordProperty("allocs_128", static_cast<int>(small));
    RecordProperty("allocs_256", static_cast<int>(large));
    EXPECT_LT(large, small + 64) << "128^3: " << small << ", 256^3: " << large;
}

} // namespace
} // namespace accesys
