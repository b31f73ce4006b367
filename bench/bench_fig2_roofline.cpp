// Fig. 2 — Roofline model of the accelerator system.
//
// PCIe bandwidth fixed at 8 GB/s; the systolic array's per-tile compute
// time is swept via the override knob. Below the knee the system is
// transfer-bound (normalized execution time plateaus); above it, execution
// time grows linearly with compute time. The analytic roofline
// (src/analytic) is printed alongside the simulation.
#include "analytic/roofline.hh"
#include "bench_util.hh"

using namespace accesys;

int main(int argc, char** argv)
{
    benchutil::install_wall_watchdog(argc, argv);
    const bool quick = benchutil::quick_mode(argc, argv);
    benchutil::header("bench_fig2_roofline", "paper Fig. 2",
                      "GEMM 1024^3, PCIe 8 GB/s, sweep per-tile compute time");

    const std::uint32_t size = quick ? 512 : 1024;
    const workload::GemmSpec spec{size, size, size, 7};

    std::vector<double> compute_ns = {100,  200,  400,  800,  1200, 1600,
                                      2000, 2400, 3200, 4800, 6400, 9600};
    if (quick) {
        compute_ns = {200, 800, 1600, 2400, 4800, 9600};
    }

    // Analytic overlay: one tile moves one A strip (16*K) plus its C slice.
    analytic::RooflineParams roof;
    roof.bytes_per_tile = 16.0 * spec.k + 16 * 16 * 4;
    roof.bandwidth_gbps = 8.0;

    std::printf("%12s %16s %16s %18s\n", "compute_ns", "exec_ms",
                "norm_exec", "analytic_norm");

    double base_ms = -1.0;
    double base_pred = -1.0;
    for (const double cns : compute_ns) {
        core::SystemConfig cfg = core::SystemConfig::paper_default();
        cfg.set_pcie_target_gbps(8.0);
        cfg.devices[0].accel.sa.compute_time_override_ns = cns;
        const double ms = benchutil::gemm_ms(cfg, spec,
                                             core::Placement::host);
        const double pred = analytic::tile_time_ns(roof, cns);
        if (base_ms < 0) {
            base_ms = ms;
            base_pred = pred;
        }
        std::printf("%12.0f %16.3f %16.3f %18.3f\n", cns, ms, ms / base_ms,
                    pred / base_pred);
    }

    std::printf("\nanalytic knee (transfer-bound -> compute-bound): %.0f ns\n",
                analytic::knee_compute_ns(roof));
    std::printf("paper marks the transition near 1500 ns.\n");
    return 0;
}
