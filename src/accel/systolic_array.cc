#include "accel/systolic_array.hh"

#include "sim/gemm_kernel.hh"

namespace accesys::accel {

void SystolicParams::validate() const
{
    require_cfg(rows >= 1 && cols >= 1, "systolic array must be non-empty");
    require_cfg(freq_ghz > 0, "systolic array frequency must be positive");
}

SystolicArray::SystolicArray(const SystolicParams& params) : params_(params)
{
    params_.validate();
}

Tick SystolicArray::tile_ticks(std::uint32_t k) const
{
    if (params_.compute_time_override_ns >= 0.0) {
        return ticks_from_ns(params_.compute_time_override_ns);
    }
    const Tick period = period_from_ghz(params_.freq_ghz);
    return tile_cycles(k) * period;
}

void SystolicArray::compute_strip(mem::BackingStore& store, Addr a_addr,
                                  Addr b_addr, Addr c_addr,
                                  std::uint32_t rows, std::uint32_t cols,
                                  std::uint32_t k,
                                  std::uint32_t c_stride_elems)
{
    std::vector<std::int8_t> a(static_cast<std::size_t>(rows) * k);
    std::vector<std::int8_t> b(static_cast<std::size_t>(cols) * k);
    store.read(a_addr, a.data(), a.size());
    store.read(b_addr, b.data(), b.size());

    std::vector<std::int32_t> c(static_cast<std::size_t>(rows) * cols);
    gemm_i8_nt(a.data(), b.data(), c.data(), rows, cols, k, cols);
    for (std::uint32_t r = 0; r < rows; ++r) {
        store.write(c_addr + static_cast<Addr>(r) * c_stride_elems * 4,
                    &c[static_cast<std::size_t>(r) * cols], cols * 4);
    }
}

} // namespace accesys::accel
