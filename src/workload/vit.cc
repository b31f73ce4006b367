#include "workload/vit.hh"

#include <algorithm>

#include "sim/error.hh"

namespace accesys::workload {

VitConfig VitConfig::base()
{
    return VitConfig{"ViT-Base", 12, 768, 12, 4, 197};
}

VitConfig VitConfig::large()
{
    return VitConfig{"ViT-Large", 24, 1024, 16, 4, 197};
}

VitConfig VitConfig::huge()
{
    return VitConfig{"ViT-Huge", 32, 1280, 16, 4, 197};
}

VitConfig VitConfig::by_name(const std::string& name)
{
    if (name == "base" || name == "ViT-Base") {
        return base();
    }
    if (name == "large" || name == "ViT-Large") {
        return large();
    }
    if (name == "huge" || name == "ViT-Huge") {
        return huge();
    }
    throw ConfigError("unknown ViT model: " + name);
}

namespace {

VitOp gemm(std::string label, std::uint32_t m, std::uint32_t n,
           std::uint32_t k)
{
    VitOp op;
    op.kind = VitOp::Kind::gemm;
    op.label = std::move(label);
    op.m = m;
    op.n = n;
    op.k = k;
    return op;
}

VitOp vec(std::string label, std::uint64_t bytes_in, std::uint64_t bytes_out,
          std::uint64_t alu_ops)
{
    VitOp op;
    op.kind = VitOp::Kind::vector;
    op.label = std::move(label);
    op.bytes_in = bytes_in;
    op.bytes_out = bytes_out;
    op.alu_ops = alu_ops;
    return op;
}

} // namespace

std::vector<VitOp> lower_vit(const VitConfig& cfg)
{
    std::vector<VitOp> ops;
    const std::uint64_t s = cfg.seq;
    const std::uint64_t h = cfg.hidden;
    const std::uint64_t d = cfg.head_dim();
    const std::uint64_t mlp = static_cast<std::uint64_t>(cfg.mlp_ratio) * h;
    const std::uint64_t sh = s * h;

    for (unsigned layer = 0; layer < cfg.layers; ++layer) {
        std::string p = "L";
        p += std::to_string(layer);
        p += '.';

        // LayerNorm 1: int8 in/out, ~8 ops/element in fp32 internally.
        ops.push_back(vec(p + "ln1", sh, sh, 8 * sh));

        // QKV projections.
        for (const char* which : {"q", "k", "v"}) {
            ops.push_back(gemm(p + which + "_proj", cfg.seq, cfg.hidden,
                               cfg.hidden));
        }
        // Requantise QKV (int32 -> int8).
        ops.push_back(vec(p + "qkv_requant", 3 * sh * 4, 3 * sh, 2 * 3 * sh));

        // Attention scores per head: (S x D) x (D x S).
        for (unsigned head = 0; head < cfg.heads; ++head) {
            ops.push_back(gemm(p + "scores.h" + std::to_string(head),
                               cfg.seq, cfg.seq,
                               static_cast<std::uint32_t>(d)));
        }
        // Softmax over all heads (int32 in, int8 out).
        const std::uint64_t att = s * s * cfg.heads;
        ops.push_back(vec(p + "softmax", att * 4, att, 6 * att));

        // Context per head: (S x S) x (S x D).
        for (unsigned head = 0; head < cfg.heads; ++head) {
            ops.push_back(gemm(p + "context.h" + std::to_string(head),
                               cfg.seq, static_cast<std::uint32_t>(d),
                               cfg.seq));
        }
        // Concatenate heads and requantise.
        ops.push_back(vec(p + "ctx_requant", sh * 4, sh, 2 * sh));

        // Output projection + requant + residual.
        ops.push_back(gemm(p + "out_proj", cfg.seq, cfg.hidden, cfg.hidden));
        ops.push_back(vec(p + "out_requant", sh * 4, sh, 2 * sh));
        ops.push_back(vec(p + "residual1", 2 * sh, sh, sh));

        // LayerNorm 2.
        ops.push_back(vec(p + "ln2", sh, sh, 8 * sh));

        // MLP: FC1 -> GELU -> FC2 -> requant -> residual.
        ops.push_back(gemm(p + "fc1", cfg.seq,
                           static_cast<std::uint32_t>(mlp), cfg.hidden));
        ops.push_back(vec(p + "gelu", s * mlp * 4, s * mlp, 8 * s * mlp));
        ops.push_back(gemm(p + "fc2", cfg.seq, cfg.hidden,
                           static_cast<std::uint32_t>(mlp)));
        ops.push_back(vec(p + "fc2_requant", sh * 4, sh, 2 * sh));
        ops.push_back(vec(p + "residual2", 2 * sh, sh, sh));
    }
    return ops;
}

VitSummary summarize(const std::vector<VitOp>& ops)
{
    VitSummary sum;
    for (const auto& op : ops) {
        if (op.kind == VitOp::Kind::gemm) {
            ++sum.gemm_count;
            sum.gemm_macs += static_cast<double>(op.m) * op.n * op.k;
            sum.max_gemm_operand_bytes =
                std::max({sum.max_gemm_operand_bytes, op.a_bytes(),
                          op.b_bytes(), op.c_bytes()});
        } else {
            ++sum.vector_count;
            sum.vector_bytes += op.bytes_in + op.bytes_out;
            sum.vector_alu_ops += op.alu_ops;
        }
    }
    return sum;
}

} // namespace accesys::workload
