// Tests for workload generation: GEMM golden model and ViT lowering.
#include <gtest/gtest.h>

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

TEST(GemmData, GoldenIdentityProperty)
{
    // A x I = A (with B transposed = I as well).
    mem::BackingStore store;
    const GemmSpec spec{4, 4, 4, 1};
    std::int8_t a[16];
    std::int8_t eye[16] = {};
    for (int i = 0; i < 16; ++i) {
        a[i] = static_cast<std::int8_t>(i + 1);
    }
    for (int i = 0; i < 4; ++i) {
        eye[i * 4 + i] = 1;
    }
    store.write(0x100, a, sizeof(a));
    store.write(0x200, eye, sizeof(eye));
    const auto golden = gemm_golden(store, spec, 0x100, 0x200);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(golden[i], a[i]);
    }
}

TEST(GemmData, CheckCountsMismatches)
{
    mem::BackingStore store;
    const GemmSpec spec{2, 2, 2, 3};
    init_gemm_data(store, spec, 0x100, 0x200);
    auto golden = gemm_golden(store, spec, 0x100, 0x200);
    // Write the golden result, then corrupt one element.
    store.write(0x300, golden.data(), golden.size() * 4);
    EXPECT_EQ(gemm_check(store, spec, 0x300, golden), 0u);
    const std::int32_t bad = golden[3] + 1;
    store.write_obj(0x300 + 3 * 4, bad);
    EXPECT_EQ(gemm_check(store, spec, 0x300, golden), 1u);
}

/// Golden C for an m x n GEMM whose values are all nonzero, so a run read
/// from a chunk that was never written (zeros) shows as mismatches.
std::vector<std::int32_t> nonzero_golden(const GemmSpec& spec)
{
    std::vector<std::int32_t> g(static_cast<std::size_t>(spec.m) * spec.n);
    for (std::size_t i = 0; i < g.size(); ++i) {
        g[i] = static_cast<std::int32_t>(i * 2654435761U) | 1;
    }
    return g;
}

TEST(GemmData, CheckReadsAcrossAChunkSeam)
{
    // C starts 4 B below a 64 KiB seam: its first element lies in one
    // chunk, the rest in the next.
    mem::BackingStore store;
    const GemmSpec spec{64, 48, 8, 1};
    const auto golden = nonzero_golden(spec);
    const Addr c = mem::BackingStore::kChunkBytes - 4;
    store.write(c, golden.data(), golden.size() * 4);
    EXPECT_EQ(gemm_check(store, spec, c, golden), 0u);

    // One corrupt element on each side of the seam.
    store.write_obj(c, golden[0] + 1);
    store.write_obj(c + 4, golden[1] - 1);
    EXPECT_EQ(gemm_check(store, spec, c, golden), 2u);
}

TEST(GemmData, CheckReadsANeverWrittenChunkAsZero)
{
    // C covers three chunks; only the first and the last are written, so
    // the middle one does not exist and every element in it reads as 0.
    mem::BackingStore store;
    const GemmSpec spec{3, 16 * kKiB, 1, 1};
    const auto golden = nonzero_golden(spec);
    const Addr c = 4 * mem::BackingStore::kChunkBytes;
    const std::size_t row = 16 * kKiB;
    store.write(c, golden.data(), row * 4);
    store.write(c + 2 * row * 4, golden.data() + 2 * row, row * 4);
    ASSERT_EQ(store.chunks_allocated(), 2u);
    EXPECT_EQ(gemm_check(store, spec, c, golden), row);
    EXPECT_EQ(store.chunks_allocated(), 2u); // checking allocates none

    // A golden that is zero over the missing chunk matches it.
    auto zero_mid = golden;
    std::fill(zero_mid.begin() + row, zero_mid.begin() + 2 * row, 0);
    EXPECT_EQ(gemm_check(store, spec, c, zero_mid), 0u);
}

TEST(GemmData, CheckCountsPlantedErrorsExactly)
{
    mem::BackingStore store;
    const GemmSpec spec{96, 200, 8, 1};
    const auto golden = nonzero_golden(spec);
    const Addr c = 0x3000; // C spans a chunk seam
    store.write(c, golden.data(), golden.size() * 4);
    std::uint64_t planted = 0;
    for (std::size_t i = 5; i < golden.size(); i += 997) {
        store.write_obj(c + i * 4, golden[i] ^ 0x40);
        ++planted;
    }
    ASSERT_GT(planted, 10u);
    EXPECT_EQ(gemm_check(store, spec, c, golden), planted);
}

TEST(GemmData, CheckRejectsAGoldenOfTheWrongSize)
{
    mem::BackingStore store;
    const GemmSpec spec{4, 4, 4, 1};
    const std::vector<std::int32_t> c(16, 0);
    store.write(0x100, c.data(), c.size() * 4);
    std::vector<std::int32_t> golden(15, 0);
    EXPECT_THROW((void)gemm_check(store, spec, 0x100, golden), SimError);
    golden.resize(17);
    EXPECT_THROW((void)gemm_check(store, spec, 0x100, golden), SimError);
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
