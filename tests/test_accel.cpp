// Tests for the systolic array model and the DevMem data mover.
#include "test_util.hh"

#include <algorithm>
#include <array>
#include <sstream>

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

TEST(SystolicArray, FunctionalStripMatchesReference)
{
    mem::BackingStore store;
    const workload::GemmSpec spec{16, 16, 48, 99};
    const Addr a = 0x1000;
    const Addr bt = 0x10000;
    const Addr c = 0x20000;
    workload::init_gemm_data(store, spec, a, bt);

    SystolicArray sa{SystolicParams{}};
    sa.compute_strip(store, a, bt, c, 16, 16, 48, 16);
    EXPECT_EQ(workload::gemm_check(store, spec, c), 0u);
}

TEST(SystolicArray, PartialStripRowsAndCols)
{
    mem::BackingStore store;
    const workload::GemmSpec spec{5, 7, 32, 7};
    const Addr a = 0x1000;
    const Addr bt = 0x10000;
    const Addr c = 0x20000;
    workload::init_gemm_data(store, spec, a, bt);

    SystolicArray sa{SystolicParams{}};
    sa.compute_strip(store, a, bt, c, 5, 7, 32, 7);
    EXPECT_EQ(workload::gemm_check(store, spec, c), 0u);
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
    const auto ref = test::reference_c(store, spec, a, bt);
    const std::vector<std::int32_t> sentinel(spec.m * stride, -7);
    store.write(c, sentinel.data(), sentinel.size() * 4);

    SystolicArray sa{SystolicParams{}};
    sa.compute_strip(store, a, bt, c, spec.m, spec.n, spec.k, stride);
    std::vector<std::int32_t> out(spec.m * stride);
    store.read(c, out.data(), out.size() * 4);
    for (std::uint32_t r = 0; r < spec.m; ++r) {
        for (std::uint32_t col = 0; col < stride; ++col) {
            const std::int32_t want =
                col < spec.n ? ref[r * spec.n + col] : -7;
            EXPECT_EQ(out[r * stride + col], want) << r << "," << col;
        }
    }
}

TEST(SystolicArray, StripsStraddlingChunksMatchReference)
{
    // The same array computes one strip whose A, B and C all cross a
    // chunk boundary (staged) and then one that lies inside chunks (in
    // place); both must match the reference and keep C's padding.
    const workload::GemmSpec spec{16, 12, 200, 5};
    const std::uint32_t stride = 20;
    constexpr Addr kChunk = mem::BackingStore::kChunkBytes;
    SystolicArray sa{SystolicParams{}};
    for (const Addr base : {kChunk - 1000, 4 * kChunk}) {
        mem::BackingStore store;
        const Addr a = base;
        const Addr bt = base + kChunk;
        const Addr c = base + 2 * kChunk + 400;
        workload::init_gemm_data(store, spec, a, bt);
        const auto ref = test::reference_c(store, spec, a, bt);
        const std::vector<std::int32_t> sentinel(spec.m * stride, -7);
        store.write(c, sentinel.data(), sentinel.size() * 4);

        sa.compute_strip(store, a, bt, c, spec.m, spec.n, spec.k, stride);
        std::vector<std::int32_t> out(spec.m * stride);
        store.read(c, out.data(), out.size() * 4);
        for (std::uint32_t r = 0; r < spec.m; ++r) {
            for (std::uint32_t col = 0; col < stride; ++col) {
                const std::int32_t want =
                    col < spec.n ? ref[r * spec.n + col] : -7;
                ASSERT_EQ(out[r * stride + col], want)
                    << base << ": " << r << "," << col;
            }
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

/// Pass-through between the mover and memory that records the tags of
/// responses in arrival order.
class ResponseOrderProbe final : public mem::Requestor, public mem::Responder {
  public:
    mem::ResponsePort& up() { return up_; }
    mem::RequestPort& down() { return down_; }

    std::vector<std::uint64_t> tags;

  private:
    bool recv_req(mem::PacketPtr& pkt) override { return down_.send_req(pkt); }
    void retry_resp() override { down_.send_retry_resp(); }
    bool recv_resp(mem::PacketPtr& pkt) override
    {
        const std::uint64_t tag = pkt->tag();
        if (!up_.send_resp(pkt)) {
            return false;
        }
        tags.push_back(tag);
        return true;
    }
    void retry_req() override { up_.send_retry_req(); }

    mem::ResponsePort up_{"probe.up", *this};
    mem::RequestPort down_{"probe.down", *this};
};

/// The mover in front of an HBM2 controller, whose FR-FCFS scheduler
/// answers row hits ahead of older row misses, so responses come back out
/// of issue order.
struct HbmMoverFixture : MoverFixture {
    std::unique_ptr<mem::MemCtrl> ctrl;
    ResponseOrderProbe probe;

    void build_hbm()
    {
        const mem::AddrRange range =
            mem::AddrRange::with_size(kDevBase, kGiB);
        mem::MemCtrlParams mp;
        mp.dram = mem::dram_params_by_name("HBM2");
        ctrl = std::make_unique<mem::MemCtrl>(sim, "devmem", mp, range);
        mover = std::make_unique<DevMemMover>(sim, "mover", params, range,
                                              store);
        mover->port().bind(probe.up());
        probe.down().bind(ctrl->port());
    }

    /// Fill [addr, addr + n) with bytes drawn from `seed`.
    std::vector<std::uint8_t> fill(Addr addr, std::size_t n,
                                   std::uint32_t seed)
    {
        std::vector<std::uint8_t> v(n);
        for (auto& b : v) {
            seed = seed * 1664525U + 1013904223U;
            b = static_cast<std::uint8_t>(seed >> 24);
        }
        store.write(addr, v.data(), v.size());
        return v;
    }

    std::vector<std::uint8_t> read(Addr addr, std::size_t n) const
    {
        std::vector<std::uint8_t> v(n);
        store.read(addr, v.data(), v.size());
        return v;
    }

    std::string occupancy() const
    {
        std::string out;
        mover->report_occupancy(out);
        return out;
    }
};

constexpr Addr kScratch = 0x700000000000ULL;

TEST_F(HbmMoverFixture, InterleavedJobsCompleteInOrderByteExact)
{
    build_hbm();
    // Reads from rows scattered over the device memory, a scratchpad ->
    // device write between them, and sizes that are not request multiples.
    struct Read {
        Addr src;
        Addr dst;
        std::size_t bytes;
    };
    const std::vector<Read> reads = {
        {kDevBase + 0x000000, kScratch + 0x00000, 6000},
        {kDevBase + 0x412340, kScratch + 0x10000, 4096},
        {kDevBase + 0x0801c0, kScratch + 0x20000, 300},
        {kDevBase + 0x7ff000, kScratch + 0x30000, 9000},
        {kDevBase + 0x100000, kScratch + 0x40000, 2048},
    };
    std::vector<std::vector<std::uint8_t>> want;
    for (std::size_t i = 0; i < reads.size(); ++i) {
        want.push_back(fill(reads[i].src, reads[i].bytes,
                            static_cast<std::uint32_t>(i + 1)));
    }
    const Addr wr_src = kScratch + 0x50000;
    const Addr wr_dst = kDevBase + 0x200100;
    const auto wr_want = fill(wr_src, 5000, 99);

    std::uint32_t arg = 1;
    for (std::size_t i = 0; i < reads.size(); ++i) {
        mover->submit(TransferJob{reads[i].src, reads[i].dst,
                                  reads[i].bytes, rec.cont(arg++)});
        if (i == 1) {
            mover->submit(TransferJob{wr_src, wr_dst, 5000, rec.cont(arg++)});
        }
    }
    test::drain(sim);

    EXPECT_EQ(rec.fired, (std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6}));
    for (std::size_t i = 0; i < reads.size(); ++i) {
        EXPECT_EQ(read(reads[i].dst, reads[i].bytes), want[i]) << "job " << i;
    }
    EXPECT_EQ(read(wr_dst, 5000), wr_want);
    EXPECT_TRUE(mover->idle());
    EXPECT_TRUE(occupancy().empty());
    // Requests go out in (job, offset) order, which is tag order; the
    // controller must have answered some out of it for this test to
    // exercise reassembly.
    ASSERT_FALSE(probe.tags.empty());
    EXPECT_FALSE(std::is_sorted(probe.tags.begin(), probe.tags.end()));
}

TEST_F(HbmMoverFixture, FlrSwallowsLateOrphansThenServesNewJobs)
{
    build_hbm();
    for (std::uint32_t i = 0; i < 4; ++i) {
        fill(kDevBase + i * 0x100000, 16 * kKiB, i + 1);
        mover->submit(TransferJob{kDevBase + i * 0x100000,
                                  kScratch + i * 0x10000, 16 * kKiB,
                                  rec.cont(10 + i)});
    }
    // Stop while requests are in flight toward the controller.
    sim.run(sim.now() + ticks_from_ns(200.0));
    ASSERT_NE(occupancy().find("outstanding_reqs="), std::string::npos)
        << occupancy();
    mover->flr_reset();
    EXPECT_TRUE(occupancy().empty());
    const std::size_t fired_before = rec.fired.size();

    const auto want = fill(kDevBase + 0x900000, 3000, 77);
    mover->submit(
        TransferJob{kDevBase + 0x900000, kScratch + 0x80000, 3000,
                    rec.cont(42)});
    test::drain(sim); // orphans arrive and are swallowed, not thrown on

    ASSERT_EQ(rec.fired.size(), fired_before + 1);
    EXPECT_EQ(rec.fired.back(), 42u);
    EXPECT_EQ(read(kScratch + 0x80000, 3000), want);
    EXPECT_TRUE(mover->idle());
    EXPECT_TRUE(occupancy().empty());
}

TEST_F(MoverFixture, ResponseForUnknownJobThrows)
{
    test::MockResponder mem_side("mem");
    const mem::AddrRange range = mem::AddrRange::with_size(kDevBase, kGiB);
    mover = std::make_unique<DevMemMover>(sim, "mover", params, range, store);
    mover->port().bind(mem_side.port());
    mover->submit(TransferJob{kDevBase, kScratch, 512, rec.cont(1)});
    ASSERT_EQ(mem_side.requests.size(), 2u);

    // Answering out of order is fine ...
    std::swap(mem_side.requests.front(), mem_side.requests.back());
    EXPECT_TRUE(mem_side.answer_one());
    EXPECT_FALSE(rec.done());
    // ... but a response tagged with a job id never handed out is not.
    mem_side.requests.front()->set_tag(std::uint64_t{7} << 24);
    EXPECT_THROW(mem_side.answer_one(), SimError);
}

/// One C strip's write-back: 16 rows of 64 B, packed in a scratchpad
/// staging buffer at `src`, each landing a 3 KiB row stride apart at `dst`.
std::array<TransferJob, 16> strip_jobs(Addr src, Addr dst, Recorder& rec)
{
    std::array<TransferJob, 16> jobs;
    for (std::uint32_t row = 0; row < jobs.size(); ++row) {
        jobs[row] = TransferJob{src + row * 64, dst + row * 3072, 64,
                                rec.cont(row)};
    }
    return jobs;
}

TEST_F(HbmMoverFixture, BatchLandsEveryRowAfterTheSourceIsReused)
{
    build_hbm();
    const Addr dst = kDevBase + 0x10000;
    const auto want = fill(kScratch, 16 * 64, 5);
    mover->submit(strip_jobs(kScratch, dst, rec));
    // The producer reuses its staging buffer at once (the next strip).
    fill(kScratch, 16 * 64, 6);
    test::drain(sim);

    ASSERT_EQ(rec.fired.size(), 16u);
    for (std::uint32_t row = 0; row < 16; ++row) {
        EXPECT_EQ(rec.fired[row], row);
        const std::vector<std::uint8_t> row_want(
            want.begin() + row * 64, want.begin() + (row + 1) * 64);
        EXPECT_EQ(read(dst + row * 3072, 64), row_want) << "row " << row;
    }
    EXPECT_TRUE(mover->idle());
}

/// A mover in front of an HBM2 controller, with its own simulator and
/// store, for comparing two ways of submitting the same jobs.
struct SmallHbmSystem {
    Simulator sim;
    mem::BackingStore store;
    Recorder rec;
    mem::MemCtrl ctrl;
    DevMemMover mover;

    explicit SmallHbmSystem(const DevMemMover::Params& p)
        : ctrl(sim, "devmem", hbm_params(), range()),
          mover(sim, "mover", p, range(), store)
    {
        mover.port().bind(ctrl.port());
        std::vector<std::uint8_t> src(16 * 64);
        for (std::size_t i = 0; i < src.size(); ++i) {
            src[i] = static_cast<std::uint8_t>(i * 7 + 1);
        }
        store.write(kScratch, src.data(), src.size());
    }

    static mem::AddrRange range()
    {
        return mem::AddrRange::with_size(MoverFixture::kDevBase, kGiB);
    }
    static mem::MemCtrlParams hbm_params()
    {
        mem::MemCtrlParams mp;
        mp.dram = mem::dram_params_by_name("HBM2");
        return mp;
    }

    std::string stats_dump()
    {
        std::ostringstream os;
        sim.stats().write_text(os);
        return os.str();
    }
};

TEST(DevMemMoverBatch, StatsMatchSixteenSingleSubmits)
{
    // A narrow request window makes later rows wait for earlier responses.
    DevMemMover::Params p;
    p.max_outstanding = 4;
    SmallHbmSystem batched(p);
    SmallHbmSystem single(p);
    const Addr dst = MoverFixture::kDevBase + 0x40000;

    batched.mover.submit(strip_jobs(kScratch, dst, batched.rec));
    for (const TransferJob& job : strip_jobs(kScratch, dst, single.rec)) {
        single.mover.submit(job);
    }
    test::drain(batched.sim);
    test::drain(single.sim);

    EXPECT_EQ(batched.sim.now(), single.sim.now());
    EXPECT_EQ(batched.rec.fired, single.rec.fired);
    const std::string dump = batched.stats_dump();
    EXPECT_NE(dump.find("mover.writes"), std::string::npos) << dump;
    EXPECT_EQ(dump, single.stats_dump());
}

TEST_F(MoverFixture, RejectsAnOversizedBatch)
{
    build();
    std::array<TransferJob, DataMover::kMaxBatch + 1> jobs;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i] = TransferJob{kDevBase + i * 64, kScratch + i * 64, 64, {}};
    }
    EXPECT_THROW(mover->submit(jobs), SimError);
    EXPECT_TRUE(mover->idle());
}

} // namespace
} // namespace accesys::accel
