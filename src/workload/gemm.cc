#include "workload/gemm.hh"

#include <algorithm>
#include <array>

#include "sim/gemm_kernel.hh"

namespace accesys::workload {

namespace {

/// Stream `n` operand bytes from `rng` into the store at `addr` through a
/// stack block. The block is a multiple of eight bytes, so its seams fall
/// between draws and only the operand's last draw can be partly used.
void fill_operand(mem::BackingStore& store, Rng& rng, Addr addr,
                  std::uint64_t n)
{
    // Left uninitialised on purpose: each pass writes the `run` bytes it
    // then copies, and zeroing 4 KiB per call made a 16³ fill ~50% slower
    // in bm_init_gemm_data.
    std::array<std::uint8_t, 4 * kKiB> block;
    while (n > 0) {
        const std::uint64_t run = std::min<std::uint64_t>(n, block.size());
        rng.fill_bytes(block.data(), run);
        store.write(addr, block.data(), run);
        addr += run;
        n -= run;
    }
}

} // namespace

void init_gemm_data(mem::BackingStore& store, const GemmSpec& spec,
                    Addr a_addr, Addr bt_addr)
{
    Rng rng(spec.seed);
    fill_operand(store, rng, a_addr, spec.a_bytes());
    fill_operand(store, rng, bt_addr, spec.b_bytes());
}

std::vector<std::int32_t> gemm_golden(const mem::BackingStore& store,
                                      const GemmSpec& spec, Addr a_addr,
                                      Addr bt_addr)
{
    std::vector<std::int8_t> a(spec.a_bytes());
    std::vector<std::int8_t> bt(spec.b_bytes());
    store.read(a_addr, a.data(), a.size());
    store.read(bt_addr, bt.data(), bt.size());

    std::vector<std::int32_t> c(static_cast<std::size_t>(spec.m) * spec.n);
    gemm_i8_nt(a.data(), bt.data(), c.data(), spec.m, spec.n, spec.k, spec.n);
    return c;
}

std::uint64_t gemm_check(const mem::BackingStore& store, const GemmSpec& spec,
                         Addr c_addr,
                         const std::vector<std::int32_t>& golden)
{
    const std::size_t count = static_cast<std::size_t>(spec.m) * spec.n;
    ensure(golden.size() == count, "gemm_check: golden holds ",
           golden.size(), " elements, C has ", count);
    // Compare C where it lies, one in-chunk run at a time. view() stages
    // only a run whose chunk was never written (it reads as zero) or an
    // element that straddles a chunk seam.
    std::vector<std::int32_t> staging;
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
        const std::int32_t* g = golden.data() + i;
        for (std::size_t j = 0; j < run; ++j) {
            mismatches += c[j] != g[j] ? 1 : 0;
        }
        i += run;
    }
    return mismatches;
}

} // namespace accesys::workload
