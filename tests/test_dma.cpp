// Tests for the multi-channel DMA engine against a mock PCIe port.
#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <sstream>
#include <string>

#include "accel/data_mover.hh"
#include "dma/dma_engine.hh"
#include "sim/simulator.hh"

namespace accesys::dma {
namespace {

/// Captures outgoing TLPs; the test plays root-complex and answers reads.
struct MockPort : DmaPort {
    struct Sent {
        pcie::TlpPtr tlp;
        pcie::SentHook on_sent;
    };

    void dma_send(pcie::TlpPtr tlp, pcie::SentHook on_sent) override
    {
        sent.push_back(Sent{std::move(tlp), on_sent});
    }
    std::size_t dma_egress_depth() const override { return egress_depth; }
    std::uint16_t dma_device_id() const override { return 1; }

    /// Fire the wire-departure callback for every staged TLP.
    void flush_sent_callbacks()
    {
        for (auto& s : sent) {
            if (s.on_sent) {
                const auto cb = s.on_sent;
                s.on_sent = {};
                cb();
            }
        }
    }

    /// Put staged TLPs on the wire one at a time, oldest first, until none
    /// is left; a callback's pump may stage more, which go out in turn.
    /// Returns each TLP's "addr/length" in wire order.
    std::vector<std::string> drain_wire()
    {
        std::vector<std::string> wire;
        while (!sent.empty()) {
            Sent s = std::move(sent.front());
            sent.pop_front();
            wire.push_back(std::to_string(s.tlp->addr) + "/" +
                           std::to_string(s.tlp->length));
            if (s.on_sent) {
                s.on_sent();
            }
        }
        return wire;
    }

    std::deque<Sent> sent;
    std::size_t egress_depth = 0;
};

/// Records completion continuations by arg (the descriptor-based
/// replacement for the old capture-a-bool closures).
struct Recorder final : TransferListener {
    std::vector<std::uint32_t> fired;
    void transfer_done(std::uint8_t, std::uint32_t arg) override
    {
        fired.push_back(arg);
    }
    Continuation cont(std::uint32_t arg = 0) { return {this, 0, arg}; }
    [[nodiscard]] bool done() const { return !fired.empty(); }
};

struct DmaFixture : ::testing::Test {
    Simulator sim;
    mem::BackingStore store;
    DmaParams params;
    MockPort port;
    Recorder rec;

    std::unique_ptr<DmaEngine> make()
    {
        return std::make_unique<DmaEngine>(sim, "dma", params, port, store);
    }

    /// Complete the oldest outstanding MRd with a single full completion.
    void complete_one(DmaEngine& dma)
    {
        ASSERT_FALSE(port.sent.empty());
        auto tlp = std::move(port.sent.front().tlp);
        port.sent.pop_front();
        ASSERT_EQ(tlp->type, pcie::TlpType::mem_read);
        auto cpl = pcie::make_completion(tlp->length, tlp->tag, 1, 0, true);
        dma.on_completion(*cpl);
    }
};

TEST_F(DmaFixture, ReadJobChunksAtRequestSize)
{
    params.request_bytes = 256;
    params.window_bytes = 64 * kKiB;
    auto dma = make();
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0x1000, 0x700000, 1024,
                       rec.cont()});
    ASSERT_EQ(port.sent.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(port.sent[i].tlp->addr, 0x1000u + i * 256);
        EXPECT_EQ(port.sent[i].tlp->length, 256u);
    }
    while (!port.sent.empty()) {
        complete_one(*dma);
    }
    EXPECT_TRUE(rec.done());
    EXPECT_TRUE(dma->idle());
}

TEST_F(DmaFixture, WindowLimitsOutstandingReads)
{
    params.request_bytes = 256;
    params.window_bytes = 512; // 2 requests
    auto dma = make();
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0, 0x700000, 2048, {}});
    EXPECT_EQ(port.sent.size(), 2u);
    complete_one(*dma);
    EXPECT_EQ(port.sent.size(), 2u); // window freed -> next issued
}

TEST_F(DmaFixture, TagLimitBounds)
{
    params.request_bytes = 64;
    params.window_bytes = 64 * kKiB;
    params.max_tags = 4;
    auto dma = make();
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0, 0x700000, 4096, {}});
    EXPECT_EQ(port.sent.size(), 4u);
    // Tags must be distinct.
    std::set<int> tags;
    for (auto& s : port.sent) {
        tags.insert(s.tlp->tag);
    }
    EXPECT_EQ(tags.size(), 4u);
}

TEST_F(DmaFixture, ReadCopiesDataOnCompletion)
{
    params.request_bytes = 128;
    auto dma = make();
    const char msg[] = "dma payload check";
    store.write(0x2000, msg, sizeof(msg));
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0x2000, 0x700000, 128,
                       rec.cont()});
    complete_one(*dma);
    ASSERT_TRUE(rec.done());
    char out[sizeof(msg)] = {};
    store.read(0x700000, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST_F(DmaFixture, PartialCompletionsWaitForLast)
{
    params.request_bytes = 256;
    auto dma = make();
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0, 0x700000, 256,
                       rec.cont()});
    ASSERT_EQ(port.sent.size(), 1u);
    const auto tag = port.sent[0].tlp->tag;
    port.sent.pop_front();

    auto c1 = pcie::make_completion(128, tag, 1, 0, false);
    dma->on_completion(*c1);
    EXPECT_FALSE(rec.done());
    auto c2 = pcie::make_completion(128, tag, 1, 128, true);
    dma->on_completion(*c2);
    EXPECT_TRUE(rec.done());
}

TEST_F(DmaFixture, WriteJobSnapshotsAndPostsChunks)
{
    params.write_bytes = 256;
    auto dma = make();
    const char msg[] = "write me to host";
    store.write(0x700000, msg, sizeof(msg));
    dma->submit(DmaJob{DmaJob::Dir::dev_to_host, 0x5000, 0x700000, 512,
                       rec.cont()});
    // Functional data lands at submit (drain-FIFO semantics).
    char out[sizeof(msg)] = {};
    store.read(0x5000, out, sizeof(msg));
    EXPECT_STREQ(out, msg);

    ASSERT_EQ(port.sent.size(), 2u);
    EXPECT_EQ(port.sent[0].tlp->type, pcie::TlpType::mem_write);
    EXPECT_FALSE(rec.done());
    port.flush_sent_callbacks(); // both hit the wire
    EXPECT_TRUE(rec.done());
}

TEST_F(DmaFixture, WriteGatedByEgressDepth)
{
    params.write_bytes = 64;
    params.max_egress = 2;
    auto dma = make();
    port.egress_depth = 2; // endpoint backlog
    dma->submit(DmaJob{DmaJob::Dir::dev_to_host, 0x5000, 0x700000, 512, {}});
    EXPECT_EQ(port.sent.size(), 0u);
    port.egress_depth = 0;
    dma->on_tx_ready();
    EXPECT_EQ(port.sent.size(), 8u);
}

TEST_F(DmaFixture, ChannelsRunJobsConcurrently)
{
    params.channels = 2;
    params.request_bytes = 256;
    params.window_bytes = 64 * kKiB;
    auto dma = make();
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0x0, 0x700000, 256, {}});
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0x10000, 0x710000, 256, {}});
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0x20000, 0x720000, 256, {}});
    // Two channels: first two jobs issue, third queues.
    EXPECT_EQ(port.sent.size(), 2u);
    EXPECT_EQ(dma->jobs_in_flight(), 3u);
    complete_one(*dma);
    EXPECT_EQ(port.sent.size(), 2u); // third job admitted
}

TEST_F(DmaFixture, CompletionOrderCallbacksInOrder)
{
    params.channels = 1;
    auto dma = make();
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0, 0x700000, 256,
                       rec.cont(1)});
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0x1000, 0x710000, 256,
                       rec.cont(2)});
    complete_one(*dma);
    complete_one(*dma);
    EXPECT_EQ(rec.fired, (std::vector<std::uint32_t>{1, 2}));
}

TEST_F(DmaFixture, SetRequestBytesOnlyWhenIdle)
{
    auto dma = make();
    dma->set_request_bytes(512);
    EXPECT_EQ(dma->params().request_bytes, 512u);
    dma->submit(DmaJob{DmaJob::Dir::host_to_dev, 0, 0x700000, 512, {}});
    EXPECT_THROW(dma->set_request_bytes(128), SimError);
}

TEST_F(DmaFixture, ZeroLengthJobRejected)
{
    auto dma = make();
    EXPECT_THROW(dma->submit(DmaJob{}), SimError);
}

/// One C strip's write-back through the PCIe mover: 16 rows of 64 B,
/// packed in device staging at `src`, each landing a 3 KiB row stride apart
/// in host memory at `dst`.
std::array<accel::TransferJob, 16> strip_jobs(Addr src, Addr dst,
                                              Recorder& rec)
{
    std::array<accel::TransferJob, 16> jobs;
    for (std::uint32_t row = 0; row < jobs.size(); ++row) {
        jobs[row] = accel::TransferJob{src + row * 64, dst + row * 3072, 64,
                                       rec.cont(row)};
    }
    return jobs;
}

constexpr Addr kStaging = 0x700000;
const mem::AddrRange kHostRange = mem::AddrRange::with_size(0, kMiB);

TEST_F(DmaFixture, BatchLandsEveryRowAfterTheSourceIsReused)
{
    params.write_bytes = 64;
    auto dma = make();
    accel::PcieDmaMover mover(*dma, kHostRange);
    std::array<std::uint8_t, 16 * 64> want{};
    for (std::size_t i = 0; i < want.size(); ++i) {
        want[i] = static_cast<std::uint8_t>(i * 13 + 7);
    }
    store.write(kStaging, want.data(), want.size());
    mover.submit(strip_jobs(kStaging, 0x10000, rec));
    // The producer reuses its staging buffer at once (the next strip).
    const std::array<std::uint8_t, 16 * 64> next{};
    store.write(kStaging, next.data(), next.size());
    (void)port.drain_wire();

    ASSERT_EQ(rec.fired.size(), 16u);
    for (std::uint32_t row = 0; row < 16; ++row) {
        EXPECT_EQ(rec.fired[row], row);
        std::array<std::uint8_t, 64> got{};
        store.read(0x10000 + row * 3072, got.data(), got.size());
        EXPECT_TRUE(std::equal(got.begin(), got.end(),
                               want.begin() + row * 64))
            << "row " << row;
    }
    EXPECT_TRUE(dma->idle());
}

/// A DMA engine behind a mock port, with its own simulator and store, for
/// comparing two ways of submitting the same jobs.
struct SmallDmaSystem {
    Simulator sim;
    mem::BackingStore store;
    MockPort port;
    Recorder rec;
    DmaEngine dma;

    explicit SmallDmaSystem(const DmaParams& p)
        : dma(sim, "dma", p, port, store)
    {
    }

    std::string stats_dump()
    {
        std::ostringstream os;
        sim.stats().write_text(os);
        return os.str();
    }
};

TEST(DmaEngineBatch, StatsMatchSixteenSingleSubmits)
{
    // Two channels and two write TLPs per row: later rows queue behind
    // earlier ones and the round-robin interleaves the active pair.
    DmaParams p;
    p.channels = 2;
    p.write_bytes = 32;
    SmallDmaSystem batched(p);
    SmallDmaSystem single(p);
    accel::PcieDmaMover batched_mover(batched.dma, kHostRange);
    accel::PcieDmaMover single_mover(single.dma, kHostRange);

    batched_mover.submit(strip_jobs(kStaging, 0x40000, batched.rec));
    for (const auto& job : strip_jobs(kStaging, 0x40000, single.rec)) {
        single_mover.submit(job);
    }
    const auto batched_wire = batched.port.drain_wire();
    EXPECT_EQ(batched_wire.size(), 32u);
    EXPECT_EQ(batched_wire, single.port.drain_wire());
    EXPECT_EQ(batched.rec.fired, single.rec.fired);
    const std::string dump = batched.stats_dump();
    EXPECT_NE(dump.find("dma.jobs_done"), std::string::npos) << dump;
    EXPECT_EQ(dump, single.stats_dump());
}

TEST_F(DmaFixture, PcieMoverRejectsAnOversizedBatch)
{
    auto dma = make();
    accel::PcieDmaMover mover(*dma, kHostRange);
    std::array<accel::TransferJob, accel::DataMover::kMaxBatch + 1> jobs;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i] = accel::TransferJob{kStaging + i * 64, i * 64, 64, {}};
    }
    EXPECT_THROW(mover.submit(jobs), SimError);
    EXPECT_TRUE(dma->idle());
}

TEST(DmaParams, Validation)
{
    DmaParams p;
    p.request_bytes = 100; // not a power of two
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.window_bytes = 64;
    p.request_bytes = 256;
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.max_tags = 300;
    EXPECT_THROW(p.validate(), ConfigError);
}

} // namespace
} // namespace accesys::dma
