// Tests for workload generation: GEMM operands, the result check and ViT
// lowering.
#include "test_util.hh"

#include <algorithm>

#include "workload/gemm.hh"
#include "workload/vit.hh"

namespace accesys::workload {
namespace {

TEST(GemmSpec, ByteAndMacCounts)
{
    const GemmSpec s{128, 64, 32, 1};
    EXPECT_EQ(s.a_bytes(), 128u * 32);
    EXPECT_EQ(s.b_bytes(), 64u * 32);
    EXPECT_EQ(s.c_bytes(), 128u * 64 * 4);
    EXPECT_DOUBLE_EQ(s.macs(), 128.0 * 64 * 32);
}

/// The operand stream init_gemm_data promises, built from Rng::next():
/// byte i is byte (i mod 8) of the i/8-th draw, least-significant first;
/// a partial last draw is consumed whole.
std::vector<std::uint8_t> expected_stream(Rng& rng, std::uint64_t n)
{
    std::vector<std::uint8_t> out(n);
    std::uint64_t draw = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (i % 8 == 0) {
            draw = rng.next();
        }
        out[i] = static_cast<std::uint8_t>(draw >> (8 * (i % 8)));
    }
    return out;
}

/// Fill A at `a_addr` and B_T at `bt_addr`, then check both against the
/// stream: A from draw 0, B_T from the next whole draw after A's last.
void expect_operand_stream(const GemmSpec& spec, Addr a_addr, Addr bt_addr)
{
    mem::BackingStore store;
    init_gemm_data(store, spec, a_addr, bt_addr);
    Rng rng(spec.seed);
    const auto want_a = expected_stream(rng, spec.a_bytes());
    const auto want_bt = expected_stream(rng, spec.b_bytes());
    std::vector<std::uint8_t> got_a(spec.a_bytes());
    std::vector<std::uint8_t> got_bt(spec.b_bytes());
    store.read(a_addr, got_a.data(), got_a.size());
    store.read(bt_addr, got_bt.data(), got_bt.size());
    EXPECT_EQ(got_a, want_a) << "A of " << spec.m << "x" << spec.k;
    EXPECT_EQ(got_bt, want_bt) << "B_T of " << spec.n << "x" << spec.k;
}

TEST(GemmData, DeterministicInit)
{
    mem::BackingStore s1;
    mem::BackingStore s2;
    const GemmSpec spec{8, 8, 8, 42};
    init_gemm_data(s1, spec, 0x100, 0x1000);
    init_gemm_data(s2, spec, 0x100, 0x1000);
    std::vector<std::uint8_t> b1(spec.a_bytes() + spec.b_bytes());
    std::vector<std::uint8_t> b2(b1.size());
    s1.read(0x100, b1.data(), spec.a_bytes());
    s1.read(0x1000, b1.data() + spec.a_bytes(), spec.b_bytes());
    s2.read(0x100, b2.data(), spec.a_bytes());
    s2.read(0x1000, b2.data() + spec.a_bytes(), spec.b_bytes());
    EXPECT_EQ(b1, b2);
}

TEST(GemmData, OperandStreamWithPartialLastDraw)
{
    // |A| = 21 and |B_T| = 35: neither is a multiple of 8, so A's last
    // draw is used for 5 bytes and B_T must still start at a fresh draw.
    expect_operand_stream(GemmSpec{3, 5, 7, 42}, 0x100, 0x1000);
}

TEST(GemmData, OperandStreamAcrossChunkBoundary)
{
    // A starts 100 bytes before a 64 KiB chunk boundary; B_T starts at an
    // odd address just below the next one.
    constexpr Addr chunk = mem::BackingStore::kChunkBytes;
    expect_operand_stream(GemmSpec{40, 40, 40, 9}, chunk - 100,
                          2 * chunk - 7);
}

TEST(GemmData, OperandStreamLargerThanFillBlock)
{
    // 14,400 and 8,000 bytes: several 4 KiB fill blocks each, with a
    // partial last block and a partial last draw in A.
    expect_operand_stream(GemmSpec{72, 40, 200, 3}, 0x2000, 0x40000);
    expect_operand_stream(GemmSpec{61, 67, 131, 5}, 0x3003, 0x50005);
}

TEST(GemmData, CheckCountsMismatches)
{
    mem::BackingStore store;
    const GemmSpec spec{2, 2, 2, 3};
    const auto ref = test::reference_c(spec);
    // Write the reference result, then corrupt one element.
    store.write(0x300, ref.data(), ref.size() * 4);
    EXPECT_EQ(gemm_check(store, spec, 0x300), 0u);
    store.write_obj(0x300 + 3 * 4, ref[3] + 1);
    EXPECT_EQ(gemm_check(store, spec, 0x300), 1u);
}

TEST(GemmData, CheckRebuildsTheOperandsFromTheSeed)
{
    // The check reads only C: operands filled elsewhere, or not at all,
    // change nothing, and C from another seed fails.
    mem::BackingStore store;
    const GemmSpec spec{24, 40, 56, 17};
    const auto ref = test::reference_c(spec);
    store.write(0x40000, ref.data(), ref.size() * 4);
    EXPECT_EQ(gemm_check(store, spec, 0x40000), 0u);
    GemmSpec other = spec;
    other.seed = 18;
    EXPECT_GT(gemm_check(store, other, 0x40000), ref.size() / 2);
}

TEST(GemmData, CheckReadsAcrossAChunkSeam)
{
    // C starts 4 B below a 64 KiB seam: its first element lies in one
    // chunk, the rest in the next.
    mem::BackingStore store;
    const GemmSpec spec{64, 48, 8, 1};
    const auto ref = test::reference_c(spec);
    const Addr c = mem::BackingStore::kChunkBytes - 4;
    store.write(c, ref.data(), ref.size() * 4);
    EXPECT_EQ(gemm_check(store, spec, c), 0u);

    // One corrupt element on each side of the seam.
    store.write_obj(c, ref[0] + 1);
    store.write_obj(c + 4, ref[1] - 1);
    EXPECT_EQ(gemm_check(store, spec, c), 2u);
}

TEST(GemmData, CheckReadsANeverWrittenChunkAsZero)
{
    // C covers three chunks; only the first and the last are written, so
    // the middle one does not exist and every element in it reads as 0:
    // exactly the nonzero reference elements there mismatch.
    mem::BackingStore store;
    const GemmSpec spec{3, 16 * kKiB, 1, 1};
    const auto ref = test::reference_c(spec);
    const Addr c = 4 * mem::BackingStore::kChunkBytes;
    const std::size_t row = 16 * kKiB;
    store.write(c, ref.data(), row * 4);
    store.write(c + 2 * row * 4, ref.data() + 2 * row, row * 4);
    ASSERT_EQ(store.chunks_allocated(), 2u);
    const auto mid = ref.begin() + static_cast<std::ptrdiff_t>(row);
    const auto nonzero = static_cast<std::uint64_t>(
        std::count_if(mid, mid + static_cast<std::ptrdiff_t>(row),
                      [](std::int32_t v) { return v != 0; }));
    // k = 1: a zero B_T byte makes a zero in every row, so some of the
    // middle row matches the zeros and most of it does not.
    ASSERT_GT(nonzero, row / 2);
    ASSERT_LT(nonzero, row);
    EXPECT_EQ(gemm_check(store, spec, c), nonzero);
    EXPECT_EQ(store.chunks_allocated(), 2u); // checking allocates none
}

TEST(GemmData, CheckCountsPlantedErrorsExactly)
{
    mem::BackingStore store;
    const GemmSpec spec{96, 200, 8, 1};
    const auto ref = test::reference_c(spec);
    const Addr c = 0x3000; // C spans a chunk seam
    store.write(c, ref.data(), ref.size() * 4);
    std::uint64_t planted = 0;
    for (std::size_t i = 5; i < ref.size(); i += 997) {
        store.write_obj(c + i * 4, ref[i] ^ 0x40);
        ++planted;
    }
    ASSERT_GT(planted, 10u);
    EXPECT_EQ(gemm_check(store, spec, c), planted);
}

TEST(GemmData, CheckCoversEveryRowBlock)
{
    // 1x1x1, one row past a whole block, and two blocks plus a partial
    // one with an odd k (A's last draw is partly used). An error in the
    // first and in the last row is found in each, through one checker
    // reused across shapes, larger and smaller.
    constexpr std::uint32_t kBlock = GemmChecker::kBlockRows;
    GemmChecker checker;
    for (const GemmSpec spec :
         {GemmSpec{kBlock + 1, 24, 40, 2}, GemmSpec{1, 1, 1, 5},
          GemmSpec{2 * kBlock + 3, 17, 13, 9}, GemmSpec{kBlock + 1, 24, 40, 2}}) {
        mem::BackingStore store;
        const auto ref = test::reference_c(spec);
        const Addr c = 0x10000 - 64;
        store.write(c, ref.data(), ref.size() * 4);
        EXPECT_EQ(checker.check(store, spec, c), 0u) << spec.m;
        store.write_obj(c, ref.front() + 1);
        store.write_obj(c + (ref.size() - 1) * 4, ref.back() - 1);
        EXPECT_EQ(checker.check(store, spec, c), ref.size() > 1 ? 2u : 1u)
            << spec.m;
    }
}

TEST(VitConfig, PaperModels)
{
    const auto base = VitConfig::base();
    EXPECT_EQ(base.hidden, 768u);
    EXPECT_EQ(base.heads, 12u);
    EXPECT_EQ(base.layers, 12u);
    const auto large = VitConfig::large();
    EXPECT_EQ(large.hidden, 1024u);
    const auto huge = VitConfig::huge();
    EXPECT_EQ(huge.hidden, 1280u);
    EXPECT_EQ(huge.heads, 16u);
    EXPECT_EQ(base.seq, 197u);
    EXPECT_EQ(base.head_dim(), 64u);
}

TEST(VitConfig, ByNameAndUnknown)
{
    EXPECT_EQ(VitConfig::by_name("base").hidden, 768u);
    EXPECT_EQ(VitConfig::by_name("ViT-Huge").layers, 32u);
    EXPECT_THROW(VitConfig::by_name("giant"), ConfigError);
}

TEST(VitLowering, OpCountFormula)
{
    const auto cfg = VitConfig::base();
    const auto ops = lower_vit(cfg);
    // Per layer: 3 QKV + 2*heads attention + out_proj + fc1 + fc2 = 6+2h
    // GEMMs, and 10 vector ops.
    const auto sum = summarize(ops);
    EXPECT_EQ(sum.gemm_count, cfg.layers * (6 + 2 * cfg.heads));
    EXPECT_EQ(sum.vector_count, cfg.layers * 10u);
    EXPECT_EQ(ops.size(), sum.gemm_count + sum.vector_count);
}

TEST(VitLowering, MacsMatchClosedForm)
{
    const auto cfg = VitConfig::base();
    const auto sum = summarize(lower_vit(cfg));
    const double s = cfg.seq;
    const double h = cfg.hidden;
    const double d = cfg.head_dim();
    const double mlp = 4.0 * h;
    const double per_layer = 3 * s * h * h      // qkv
                             + cfg.heads * s * s * d * 2 // scores+context
                             + s * h * h        // out proj
                             + s * mlp * h * 2; // fc1 + fc2
    EXPECT_NEAR(sum.gemm_macs, cfg.layers * per_layer, 1.0);
}

TEST(VitLowering, GemmDimensionsPositive)
{
    for (const auto& op : lower_vit(VitConfig::huge())) {
        if (op.kind == VitOp::Kind::gemm) {
            EXPECT_GT(op.m, 0u);
            EXPECT_GT(op.n, 0u);
            EXPECT_GT(op.k, 0u);
        } else {
            EXPECT_GT(op.bytes_in + op.bytes_out, 0u);
        }
    }
}

TEST(VitLowering, RequantReadsInt32WritesInt8)
{
    const auto ops = lower_vit(VitConfig::base());
    for (const auto& op : ops) {
        if (op.kind == VitOp::Kind::vector &&
            op.label.find("requant") != std::string::npos) {
            EXPECT_EQ(op.bytes_in, op.bytes_out * 4);
        }
    }
}

// Property across all models: bigger models mean strictly more work.
class VitScale : public ::testing::TestWithParam<std::pair<const char*,
                                                           const char*>> {};

TEST_P(VitScale, LargerModelMoreWork)
{
    const auto small = summarize(lower_vit(VitConfig::by_name(
        GetParam().first)));
    const auto big = summarize(lower_vit(VitConfig::by_name(
        GetParam().second)));
    EXPECT_GT(big.gemm_macs, small.gemm_macs);
    EXPECT_GT(big.vector_bytes, small.vector_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, VitScale,
    ::testing::Values(std::make_pair("base", "large"),
                      std::make_pair("large", "huge"),
                      std::make_pair("base", "huge")));

} // namespace
} // namespace accesys::workload
