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
    if (rows == 0 || cols == 0) {
        return;
    }
    const std::int8_t* a =
        store.view(a_addr, std::size_t{rows} * k, a_stage_);
    const std::int8_t* b =
        store.view(b_addr, std::size_t{cols} * k, b_stage_);
    const std::size_t c_span =
        std::size_t{rows - 1} * c_stride_elems + cols;
    std::int32_t* c = store.mut_view(c_addr, c_span, c_stage_);
    gemm_i8_nt(a, b, c, rows, cols, k, c_stride_elems);
    store.commit_view(c_addr, c, c_stage_);
}

} // namespace accesys::accel
