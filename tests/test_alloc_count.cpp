// Heap allocations on the GEMM data paths. Every transfer — a DevMem mover
// job, response or strip, or a host-placement DMA job and its chunks — must
// run without touching the heap once its rings and pools have grown to the
// working set, so the allocation count of a whole GEMM must not grow with
// the matrix size. Filling a GEMM's operands into existing memory, checking
// its C against the golden, and a steady-state batch submit to either data
// mover must not allocate at all. This binary replaces the global operator
// new with a counting one to check that.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "accel/data_mover.hh"
#include "core/runner.hh"
#include "mem/mem_ctrl.hh"
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

TEST(GemmCheck, NoHeapAllocationOverWrittenChunks)
{
    // C starts 4 B below a chunk seam and covers three chunks, all written.
    const workload::GemmSpec spec{96, 512, 8, 1};
    std::vector<std::int32_t> golden(std::size_t{spec.m} * spec.n);
    for (std::size_t i = 0; i < golden.size(); ++i) {
        golden[i] = static_cast<std::int32_t>(i * 40503U);
    }
    const Addr c = mem::BackingStore::kChunkBytes - 4;
    mem::BackingStore store;
    store.write(c, golden.data(), golden.size() * 4);
    const std::uint64_t before = g_allocs;
    const std::uint64_t mismatches =
        workload::gemm_check(store, spec, c, golden);
    EXPECT_EQ(g_allocs - before, 0u);
    EXPECT_EQ(mismatches, 0u);
}

/// One C strip: 16 rows of 64 B from staging at `src` to a 3 KiB stride at
/// `dst`.
std::array<accel::TransferJob, 16> strip_jobs(Addr src, Addr dst,
                                              dma::TransferListener* l)
{
    std::array<accel::TransferJob, 16> jobs;
    for (std::uint32_t row = 0; row < jobs.size(); ++row) {
        jobs[row] = accel::TransferJob{src + row * 64, dst + row * 3072, 64,
                                       dma::Continuation{l, 0, row}};
    }
    return jobs;
}

struct CountDone final : dma::TransferListener {
    std::uint32_t done = 0;
    void transfer_done(std::uint8_t, std::uint32_t) override { ++done; }
};

TEST(DevMemMoverBatch, SteadyStateSubmitDoesNotAllocate)
{
    constexpr Addr kDevBase = 0x200000000000ULL;
    constexpr Addr kStaging = 0x700000000000ULL;
    const mem::AddrRange range = mem::AddrRange::with_size(kDevBase, kGiB);
    Simulator sim;
    mem::BackingStore store;
    mem::SimpleMem devmem(sim, "devmem", mem::SimpleMemParams{}, range);
    accel::DevMemMover mover(sim, "mover", accel::DevMemMover::Params{},
                             range, store);
    mover.port().bind(devmem.port());
    CountDone listener;
    // The first strip grows the job ring, pools and chunks.
    mover.submit(strip_jobs(kStaging, kDevBase, &listener));
    sim.run();
    ASSERT_EQ(listener.done, 16u);

    const auto jobs = strip_jobs(kStaging, kDevBase + 64, &listener);
    const std::uint64_t before = g_allocs;
    mover.submit(jobs);
    sim.run();
    EXPECT_EQ(g_allocs - before, 0u);
    EXPECT_EQ(listener.done, 32u);
}

/// A PCIe port whose wire takes every TLP at once.
struct InstantWire final : dma::DmaPort {
    void dma_send(pcie::TlpPtr tlp, pcie::SentHook on_sent) override
    {
        tlp.reset();
        if (on_sent) {
            on_sent();
        }
    }
    std::size_t dma_egress_depth() const override { return 0; }
    std::uint16_t dma_device_id() const override { return 1; }
};

TEST(PcieMoverBatch, SteadyStateSubmitDoesNotAllocate)
{
    constexpr Addr kStaging = 0x700000;
    Simulator sim;
    mem::BackingStore store;
    InstantWire wire;
    dma::DmaEngine engine(sim, "dma", dma::DmaParams{}, wire, store);
    accel::PcieDmaMover mover(engine, mem::AddrRange::with_size(0, kMiB));
    CountDone listener;
    mover.submit(strip_jobs(kStaging, 0x10000, &listener));
    ASSERT_EQ(listener.done, 16u);

    const auto jobs = strip_jobs(kStaging, 0x10040, &listener);
    const std::uint64_t before = g_allocs;
    mover.submit(jobs);
    EXPECT_EQ(g_allocs - before, 0u);
    EXPECT_EQ(listener.done, 32u);
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
