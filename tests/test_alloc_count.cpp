// Heap allocations on the GEMM data paths. Every transfer — a DevMem mover
// job, response or strip, or a host-placement DMA job and its chunks — must
// run without touching the heap once its rings and pools have grown to the
// working set, so the allocation count of a whole GEMM must not grow with
// the matrix size; and filling a GEMM's operands into existing memory
// must not allocate at all. This binary replaces the global operator new
// with a counting one to check that.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/runner.hh"
#include "workload/gemm.hh"

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

/// Allocations made inside run_dispatched() of one verified 1-device GEMM
/// of size n^3: operands in HBM2 device memory or in host DRAM.
std::uint64_t run_allocs(std::uint32_t n, core::Placement place)
{
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    if (place == core::Placement::devmem) {
        cfg.set_devmem("HBM2");
    }
    core::System sys(cfg);
    core::Runner runner(sys);
    runner.dispatch(0, workload::GemmSpec{n, n, n, 11}, place,
                    /*verify=*/true);
    const std::uint64_t before = g_allocs;
    const auto res = runner.run_dispatched();
    const std::uint64_t allocs = g_allocs - before;
    EXPECT_TRUE(res.all_verified()) << n << "^3";
    return allocs;
}

/// 256^3 moves 8x the bytes of 128^3 through 4x the strips; a per-transfer
/// or per-strip allocation shows up as hundreds or thousands here.
void expect_flat(core::Placement place)
{
    const std::uint64_t small = run_allocs(128, place);
    const std::uint64_t large = run_allocs(256, place);
    ::testing::Test::RecordProperty("allocs_128", static_cast<int>(small));
    ::testing::Test::RecordProperty("allocs_256", static_cast<int>(large));
    EXPECT_LT(large, small + 64) << "128^3: " << small << ", 256^3: " << large;
}

TEST(GemmInit, NoHeapAllocationIntoExistingChunks)
{
    // 100 KB operands: many fill blocks, and A straddles a chunk boundary.
    // The first fill allocates the chunks; the second must allocate
    // nothing — no staging buffer, no per-block vector.
    const workload::GemmSpec spec{320, 320, 320, 7};
    const Addr a = mem::BackingStore::kChunkBytes - 4096;
    const Addr bt = 0x100000;
    mem::BackingStore store;
    workload::init_gemm_data(store, spec, a, bt);
    const std::uint64_t before = g_allocs;
    workload::init_gemm_data(store, spec, a, bt);
    EXPECT_EQ(g_allocs - before, 0u);
}

TEST(DevMemAllocations, DoNotGrowWithGemmSize)
{
    expect_flat(core::Placement::devmem);
}

TEST(HostAllocations, DoNotGrowWithGemmSize)
{
    expect_flat(core::Placement::host);
}

} // namespace
} // namespace accesys
