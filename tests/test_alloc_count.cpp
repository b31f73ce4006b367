// Heap allocations on the GEMM data paths. Every transfer — a DevMem mover
// job, response or strip, or a host-placement DMA job and its chunks — must
// run without touching the heap once its rings and pools have grown to the
// working set, so the allocation count of a whole GEMM must not grow with
// the matrix size. Filling a GEMM's operands into existing memory, a check
// of its C through a checker that has already checked a shape as large,
// and a steady-state batch submit to either data mover must not allocate
// at all, and serve() must not allocate per verified job. A RequestGen
// holds no per-request state, so its construction does not grow with the
// horizon and draining it does not allocate, and serve() sizes its ledger
// once. This binary replaces the global operator new with a counting one
// to check that.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "accel/data_mover.hh"
#include "core/runner.hh"
#include "mem/mem_ctrl.hh"
#include "test_util.hh"
#include "workload/gemm.hh"
#include "workload/request_gen.hh"

namespace {
std::uint64_t g_allocs = 0; // the simulator is single-threaded
std::uint64_t g_alloc_bytes = 0;
std::size_t g_watch_size = 0;     ///< allocation size to count, if nonzero
std::uint64_t g_watch_hits = 0;   ///< allocations of exactly that size

void count_alloc(std::size_t n)
{
    ++g_allocs;
    g_alloc_bytes += n;
    g_watch_hits += g_watch_size != 0 && n == g_watch_size;
}
} // namespace

void* operator new(std::size_t n)
{
    count_alloc(n);
    if (void* p = std::malloc(n == 0 ? 1 : n)) {
        return p;
    }
    throw std::bad_alloc();
}

// The nothrow form too (std::stable_sort's temporary buffer uses it), so
// every form the library may pair with the deletes below is malloc-backed.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    count_alloc(n);
    return std::malloc(n == 0 ? 1 : n);
}

void operator delete(void* p) noexcept
{
    std::free(p);
}

void operator delete(void* p, const std::nothrow_t&) noexcept
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

TEST(GemmCheck, ReusedCheckerDoesNotAllocate)
{
    // C starts 4 B below a chunk seam and covers three chunks, all
    // written. The first check grows the checker's buffers; a second of
    // the same shape and one of a smaller shape must allocate nothing.
    const workload::GemmSpec spec{300, 512, 24, 1};
    const workload::GemmSpec small{40, 300, 16, 2};
    const Addr c = mem::BackingStore::kChunkBytes - 4;
    const Addr c_small = 16 * mem::BackingStore::kChunkBytes;
    mem::BackingStore store;
    const auto ref = test::reference_c(spec);
    const auto ref_small = test::reference_c(small);
    store.write(c, ref.data(), ref.size() * 4);
    store.write(c_small, ref_small.data(), ref_small.size() * 4);
    workload::GemmChecker checker;
    ASSERT_EQ(checker.check(store, spec, c), 0u);

    const std::uint64_t before = g_allocs;
    const std::uint64_t same = checker.check(store, spec, c);
    const std::uint64_t smaller = checker.check(store, small, c_small);
    EXPECT_EQ(g_allocs - before, 0u);
    EXPECT_EQ(same, 0u);
    EXPECT_EQ(smaller, 0u);
}

/// Two tenants at 6e5 jobs/s in total over `horizon_ns`: the arrivals of
/// the benchmark's serving_overload workload, about 1.5x what four
/// endpoints serve.
workload::RequestGenConfig overload_arrivals(double horizon_ns)
{
    workload::RequestGenConfig g;
    g.seed = 5;
    g.horizon_ns = horizon_ns;
    workload::TenantSpec interactive;
    interactive.name = "interactive";
    interactive.rate_jobs_per_s = 4e5;
    interactive.mix = {workload::GemmSpec{16, 16, 16},
                       workload::GemmSpec{32, 32, 32}};
    workload::TenantSpec batch;
    batch.name = "batch";
    batch.rate_jobs_per_s = 2e5;
    batch.mix = {workload::GemmSpec{48, 48, 48}};
    g.tenants.push_back(interactive);
    g.tenants.push_back(batch);
    return g;
}

/// Bytes allocated by constructing a RequestGen of overload_arrivals().
std::uint64_t request_gen_bytes(double horizon_ns)
{
    Simulator sim;
    const workload::RequestGenConfig g = overload_arrivals(horizon_ns);
    const std::uint64_t before = g_alloc_bytes;
    const workload::RequestGen gen(sim, g);
    const std::uint64_t bytes = g_alloc_bytes - before;
    EXPECT_GT(gen.total(), static_cast<std::uint64_t>(horizon_ns * 5e-4));
    return bytes;
}

TEST(RequestGenMemory, ConstructionDoesNotGrowWithHorizon)
{
    // 1e6 ns offers ~600 requests, 1e7 ns ~6,000: a per-request schedule
    // would show up as hundreds of kilobytes.
    const std::uint64_t short_run = request_gen_bytes(1e6);
    const std::uint64_t long_run = request_gen_bytes(1e7);
    ::testing::Test::RecordProperty("bytes", static_cast<int>(short_run));
    EXPECT_EQ(short_run, long_run);
}

TEST(RequestGenMemory, DrainingDoesNotAllocate)
{
    // Fire every arrival event and consume every request, one microsecond
    // at a time, into a buffer the caller sized once.
    Simulator sim;
    workload::RequestGen gen(sim, overload_arrivals(1e6));
    std::vector<workload::Request> arrivals;
    arrivals.reserve(gen.total());
    sim.startup();
    const std::uint64_t before = g_allocs;
    std::uint64_t taken = 0;
    for (Tick t = 0; !gen.exhausted(); t += kTicksPerUs) {
        (void)sim.run(t);
        gen.take_until(t, arrivals);
        taken += arrivals.size();
    }
    (void)sim.run();
    EXPECT_EQ(g_allocs - before, 0u);
    EXPECT_EQ(taken, gen.total());
    EXPECT_EQ(gen.fired(), gen.total());
}

/// Allocations inside one serve() of an overloaded two-tenant Poisson
/// schedule on a fresh 4-endpoint system; `completed` gets the jobs done.
std::uint64_t serve_allocs(bool verify, std::uint64_t& completed)
{
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    cfg.set_num_devices(4);
    core::System sys(cfg);
    workload::RequestGen gen(sys.sim(), overload_arrivals(1e6));
    core::ServingConfig scfg;
    scfg.policy = core::ShedPolicy::shed_oldest;
    scfg.queue_capacity = 8;
    scfg.verify = verify;
    core::Runner runner(sys);
    const std::uint64_t before = g_allocs;
    const core::ServingResult res = runner.serve(gen, scfg);
    const std::uint64_t allocs = g_allocs - before;
    completed = res.completed;
    if (verify) {
        for (const core::ServedJob& j : res.jobs) {
            EXPECT_TRUE(!j.ok() || j.verified) << "job " << j.id;
        }
    }
    return allocs;
}

TEST(ServeVerification, NoPerJobAllocation)
{
    // The same schedule served with and without verification runs the
    // same rounds, so the difference is what verifying costs: a checker
    // that grows to the largest shape once, not a buffer per job. A first
    // serve grows the process-wide pools, so neither measured run does.
    std::uint64_t completed = 0;
    std::uint64_t plain_completed = 0;
    (void)serve_allocs(true, completed);
    const std::uint64_t verified = serve_allocs(true, completed);
    const std::uint64_t plain = serve_allocs(false, plain_completed);
    ::testing::Test::RecordProperty("allocs_verified",
                                    static_cast<int>(verified));
    ::testing::Test::RecordProperty("allocs_plain", static_cast<int>(plain));
    ASSERT_EQ(completed, plain_completed);
    ASSERT_GT(completed, 150u);
    EXPECT_LT(verified, plain + 16) << completed << " jobs completed";
}

TEST(ServeLedger, AllocatedOnceAtItsFinalSize)
{
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    cfg.set_num_devices(4);
    core::System sys(cfg);
    workload::RequestGen gen(sys.sim(), overload_arrivals(1e6));
    core::ServingConfig scfg;
    scfg.policy = core::ShedPolicy::shed_oldest;
    scfg.queue_capacity = 8;
    core::Runner runner(sys);
    g_watch_size = gen.total() * sizeof(core::ServedJob);
    g_watch_hits = 0;
    const core::ServingResult res = runner.serve(gen, scfg);
    g_watch_size = 0;
    ASSERT_TRUE(res.accounted());
    EXPECT_EQ(res.offered, gen.total());
    EXPECT_EQ(res.jobs.capacity(), res.offered);
    EXPECT_EQ(g_watch_hits, 1u) << "the ledger must be allocated once";
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
