// Tests for the systolic array model and the DevMem data mover.
#include "test_util.hh"

#include "accel/data_mover.hh"
#include "accel/systolic_array.hh"
#include "mem/mem_ctrl.hh"
#include "mem/xbar.hh"
#include "workload/gemm.hh"

namespace accesys::accel {
namespace {

TEST(SystolicArray, TileCycleModel)
{
    SystolicParams p;
    p.fill_drain_cycles = 32;
    SystolicArray sa(p);
    EXPECT_EQ(sa.tile_cycles(256), 288u);
    // 1 GHz: ticks == cycles * 1000.
    EXPECT_EQ(sa.tile_ticks(256), 288u * 1000);
    EXPECT_EQ(sa.strip_ticks(4, 256), 4 * 288u * 1000);
}

TEST(SystolicArray, ComputeTimeOverride)
{
    SystolicParams p;
    p.compute_time_override_ns = 1500.0;
    SystolicArray sa(p);
    EXPECT_EQ(sa.tile_ticks(64), ticks_from_ns(1500.0));
    EXPECT_EQ(sa.tile_ticks(4096), ticks_from_ns(1500.0)); // K-independent
}

TEST(SystolicArray, PeakThroughput)
{
    SystolicParams p; // 16x16 at 1 GHz
    SystolicArray sa(p);
    EXPECT_DOUBLE_EQ(sa.peak_macs_per_sec(), 256e9);
}

TEST(SystolicArray, FunctionalStripMatchesGolden)
{
    mem::BackingStore store;
    const workload::GemmSpec spec{16, 16, 48, 99};
    const Addr a = 0x1000;
    const Addr bt = 0x10000;
    const Addr c = 0x20000;
    workload::init_gemm_data(store, spec, a, bt);
    const auto golden = workload::gemm_golden(store, spec, a, bt);

    SystolicArray::compute_strip(store, a, bt, c, 16, 16, 48, 16);
    EXPECT_EQ(workload::gemm_check(store, spec, c, golden), 0u);
}

TEST(SystolicArray, PartialStripRowsAndCols)
{
    mem::BackingStore store;
    const workload::GemmSpec spec{5, 7, 32, 7};
    const Addr a = 0x1000;
    const Addr bt = 0x10000;
    const Addr c = 0x20000;
    workload::init_gemm_data(store, spec, a, bt);
    const auto golden = workload::gemm_golden(store, spec, a, bt);

    SystolicArray::compute_strip(store, a, bt, c, 5, 7, 32, 7);
    EXPECT_EQ(workload::gemm_check(store, spec, c, golden), 0u);
}

TEST(SystolicArray, StripWithWideCStrideLeavesPaddingUntouched)
{
    mem::BackingStore store;
    const workload::GemmSpec spec{6, 10, 40, 3};
    const std::uint32_t stride = 16;
    const Addr a = 0x1000;
    const Addr bt = 0x10000;
    const Addr c = 0x20000;
    workload::init_gemm_data(store, spec, a, bt);
    const auto golden = workload::gemm_golden(store, spec, a, bt);
    const std::vector<std::int32_t> sentinel(spec.m * stride, -7);
    store.write(c, sentinel.data(), sentinel.size() * 4);

    SystolicArray::compute_strip(store, a, bt, c, spec.m, spec.n, spec.k,
                                 stride);
    std::vector<std::int32_t> out(spec.m * stride);
    store.read(c, out.data(), out.size() * 4);
    for (std::uint32_t r = 0; r < spec.m; ++r) {
        for (std::uint32_t col = 0; col < stride; ++col) {
            const std::int32_t want =
                col < spec.n ? golden[r * spec.n + col] : -7;
            EXPECT_EQ(out[r * stride + col], want) << r << "," << col;
        }
    }
}

TEST(SystolicParams, Validation)
{
    SystolicParams p;
    p.rows = 0;
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.freq_ghz = 0;
    EXPECT_THROW(p.validate(), ConfigError);
}

/// Records completion continuations by arg (the descriptor-based
/// replacement for the old capture-a-bool closures).
struct Recorder final : dma::TransferListener {
    std::vector<std::uint32_t> fired;
    void transfer_done(std::uint8_t, std::uint32_t arg) override
    {
        fired.push_back(arg);
    }
    dma::Continuation cont(std::uint32_t arg = 0) { return {this, 0, arg}; }
    [[nodiscard]] bool done() const { return !fired.empty(); }
};

struct MoverFixture : ::testing::Test {
    Simulator sim;
    mem::BackingStore store;
    DevMemMover::Params params;
    mem::SimpleMemParams mem_params;
    Recorder rec;
    static constexpr Addr kDevBase = 0x200000000000ULL;

    std::unique_ptr<DevMemMover> mover;
    std::unique_ptr<mem::SimpleMem> devmem;
    std::unique_ptr<mem::Xbar> xbar;

    void build()
    {
        const mem::AddrRange range =
            mem::AddrRange::with_size(kDevBase, kGiB);
        xbar = std::make_unique<mem::Xbar>(sim, "xbar", mem::XbarParams{});
        devmem = std::make_unique<mem::SimpleMem>(sim, "devmem", mem_params,
                                                  range);
        mover = std::make_unique<DevMemMover>(sim, "mover", params, range,
                                              store);
        mover->port().bind(xbar->add_upstream("mover"));
        xbar->add_downstream("mem", range).bind(devmem->port());
    }
};

TEST_F(MoverFixture, LoadsDeviceMemoryIntoScratchpad)
{
    build();
    const char msg[] = "devmem -> scratchpad";
    store.write(kDevBase + 0x100, msg, sizeof(msg));
    mover->submit(TransferJob{kDevBase + 0x100, 0x700000000000ULL, 4096,
                              rec.cont()});
    test::drain(sim);
    ASSERT_TRUE(rec.done());
    char out[sizeof(msg)] = {};
    store.read(0x700000000000ULL, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
    EXPECT_TRUE(mover->idle());
}

TEST_F(MoverFixture, StoresScratchpadToDeviceMemory)
{
    build();
    const char msg[] = "scratchpad -> devmem";
    store.write(0x700000000000ULL, msg, sizeof(msg));
    mover->submit(TransferJob{0x700000000000ULL, kDevBase + 0x4000, 4096,
                              rec.cont()});
    // Write path snapshots functionally at submit.
    char out[sizeof(msg)] = {};
    store.read(kDevBase + 0x4000, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
    test::drain(sim);
    EXPECT_TRUE(rec.done());
}

TEST_F(MoverFixture, JobsCompleteInSubmissionOrder)
{
    build();
    mover->submit(TransferJob{kDevBase, 0x700000000000ULL, 8192,
                              rec.cont(1)});
    mover->submit(TransferJob{kDevBase + 0x10000, 0x700000002000ULL, 256,
                              rec.cont(2)});
    test::drain(sim);
    EXPECT_EQ(rec.fired, (std::vector<std::uint32_t>{1, 2}));
}

TEST_F(MoverFixture, ThroughputScalesWithOutstanding)
{
    mem_params.latency_ns = 100.0;
    mem_params.bandwidth_gbps = 1000.0;

    params.max_outstanding = 1;
    build();
    mover->submit(TransferJob{kDevBase, 0x700000000000ULL, 16 * kKiB,
                              rec.cont()});
    test::drain(sim);
    const Tick serial_time = sim.now();
    ASSERT_TRUE(rec.done());

    Simulator sim2;
    DevMemMover::Params p2 = params;
    p2.max_outstanding = 16;
    const mem::AddrRange range = mem::AddrRange::with_size(kDevBase, kGiB);
    mem::SimpleMem devmem2(sim2, "devmem", mem_params, range);
    DevMemMover mover2(sim2, "mover", p2, range, store);
    mover2.port().bind(devmem2.port());
    Recorder rec2;
    mover2.submit(TransferJob{kDevBase, 0x700000000000ULL, 16 * kKiB,
                              rec2.cont()});
    sim2.run();
    ASSERT_TRUE(rec2.done());
    EXPECT_LT(sim2.now() * 4, serial_time); // at least 4x faster
}

TEST_F(MoverFixture, RejectsBadJobs)
{
    build();
    EXPECT_THROW(mover->submit(TransferJob{kDevBase, 0, 0, {}}), SimError);
    EXPECT_THROW(mover->submit(TransferJob{kDevBase, 0, 1ULL << 30, {}}),
                 SimError);
}

} // namespace
} // namespace accesys::accel
