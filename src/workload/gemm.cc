#include "workload/gemm.hh"

#include <algorithm>
#include <array>

#include "sim/gemm_kernel.hh"

namespace accesys::workload {

namespace {

/// The operand stream, defined once for init_gemm_data and GemmChecker:
/// one Rng(spec.seed) yields A's bytes, eight per draw (Rng::fill_bytes),
/// then B_T's from the next whole draw after A's last. Each operand is
/// read front to back in pieces whose sizes are multiples of eight bytes,
/// except for its last piece.
class OperandStream {
  public:
    explicit OperandStream(const GemmSpec& spec)
        : rng_(spec.seed), a_left_(spec.a_bytes())
    {
    }

    /// The next `n` bytes of A.
    void a(void* dst, std::uint64_t n)
    {
        rng_.fill_bytes(dst, n);
        a_left_ -= n;
    }

    /// The next `n` bytes of B_T, after skipping the draws of A not read.
    void bt(void* dst, std::uint64_t n)
    {
        for (; a_left_ > 0; a_left_ -= std::min<std::uint64_t>(a_left_, 8)) {
            rng_.next();
        }
        rng_.fill_bytes(dst, n);
    }

  private:
    Rng rng_;
    std::uint64_t a_left_;
};

/// Stream `n` bytes of one operand (`draw` picks which) into the store at
/// `addr` through a stack block. The block is a multiple of eight bytes,
/// so its seams fall between draws and only the operand's last draw can
/// be partly used.
void fill_operand(mem::BackingStore& store, OperandStream& stream,
                  void (OperandStream::*draw)(void*, std::uint64_t),
                  Addr addr, std::uint64_t n)
{
    // Left uninitialised on purpose: each pass writes the `run` bytes it
    // then copies, and zeroing 4 KiB per call made a 16³ fill ~50% slower
    // in bm_init_gemm_data.
    std::array<std::uint8_t, 4 * kKiB> block;
    while (n > 0) {
        const std::uint64_t run = std::min<std::uint64_t>(n, block.size());
        (stream.*draw)(block.data(), run);
        store.write(addr, block.data(), run);
        addr += run;
        n -= run;
    }
}

/// Elements of the `count` int32 at `c_addr` that differ from `ref`,
/// compared where C lies, one in-chunk run at a time. view() stages only
/// a run whose chunk was never written (it reads as zero) or an element
/// that straddles a chunk seam.
std::uint64_t count_mismatches(const mem::BackingStore& store, Addr c_addr,
                               const std::int32_t* ref, std::size_t count,
                               std::vector<std::int32_t>& staging)
{
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < count;) {
        const Addr addr = c_addr + static_cast<Addr>(i) * 4;
        const std::uint64_t room =
            (mem::BackingStore::kChunkBytes -
             (addr & mem::BackingStore::kChunkMask)) /
            4;
        const std::size_t run = static_cast<std::size_t>(
            std::clamp<std::uint64_t>(room, 1, count - i));
        const std::int32_t* c = store.view(addr, run, staging);
        const std::int32_t* r = ref + i;
        for (std::size_t j = 0; j < run; ++j) {
            mismatches += c[j] != r[j] ? 1 : 0;
        }
        i += run;
    }
    return mismatches;
}

} // namespace

void init_gemm_data(mem::BackingStore& store, const GemmSpec& spec,
                    Addr a_addr, Addr bt_addr)
{
    OperandStream stream(spec);
    fill_operand(store, stream, &OperandStream::a, a_addr, spec.a_bytes());
    fill_operand(store, stream, &OperandStream::bt, bt_addr, spec.b_bytes());
}

std::uint64_t GemmChecker::check(const mem::BackingStore& store,
                                 const GemmSpec& spec, Addr c_addr)
{
    static_assert(kBlockRows % 8 == 0);
    const std::uint32_t block = std::min(spec.m, kBlockRows);
    a_.resize(std::size_t{block} * spec.k);
    bt_.resize(spec.b_bytes());
    ref_.resize(std::size_t{block} * spec.n);
    OperandStream stream(spec);
    OperandStream bt_stream = stream;
    bt_stream.bt(bt_.data(), bt_.size());

    std::uint64_t mismatches = 0;
    for (std::uint32_t r0 = 0; r0 < spec.m;) {
        const std::uint32_t rows = std::min(spec.m - r0, kBlockRows);
        stream.a(a_.data(), std::uint64_t{rows} * spec.k);
        gemm_i8_nt(a_.data(), bt_.data(), ref_.data(), rows, spec.n, spec.k,
                   spec.n);
        mismatches += count_mismatches(
            store, c_addr + static_cast<Addr>(r0) * spec.n * 4, ref_.data(),
            std::size_t{rows} * spec.n, staging_);
        r0 += rows;
    }
    return mismatches;
}

std::uint64_t gemm_check(const mem::BackingStore& store, const GemmSpec& spec,
                         Addr c_addr)
{
    return GemmChecker{}.check(store, spec, c_addr);
}

} // namespace accesys::workload
