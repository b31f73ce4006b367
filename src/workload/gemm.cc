#include "workload/gemm.hh"

#include "sim/gemm_kernel.hh"

namespace accesys::workload {

void init_gemm_data(mem::BackingStore& store, const GemmSpec& spec,
                    Addr a_addr, Addr bt_addr)
{
    Rng rng(spec.seed);
    std::vector<std::int8_t> buf;

    buf.resize(spec.a_bytes());
    for (auto& v : buf) {
        v = static_cast<std::int8_t>(rng.between(0, 255)) ;
    }
    store.write(a_addr, buf.data(), buf.size());

    buf.resize(spec.b_bytes());
    for (auto& v : buf) {
        v = static_cast<std::int8_t>(rng.between(0, 255));
    }
    store.write(bt_addr, buf.data(), buf.size());
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
    std::vector<std::int32_t> c(static_cast<std::size_t>(spec.m) * spec.n);
    store.read(c_addr, c.data(), c.size() * 4);
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
        if (c[i] != golden[i]) {
            ++mismatches;
        }
    }
    return mismatches;
}

} // namespace accesys::workload
