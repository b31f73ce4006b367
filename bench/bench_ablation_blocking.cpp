// Ablation: MatrixFlow dataflow blocking width (max_block_cols).
//
// The paper's memory-sensitivity results imply a streaming dataflow with
// ~16 B/cycle arithmetic intensity (one 16-column B panel at a time). This
// ablation widens the panel until the scratchpad is full, which multiplies
// operand reuse and collapses the PCIe sensitivity — showing why the
// narrow-panel default is the right model of the paper's accelerator, and
// quantifying what a reuse-optimised controller would buy.
#include "bench_util.hh"

using namespace accesys;

int main(int argc, char** argv)
{
    benchutil::install_wall_watchdog(argc, argv);
    const bool quick = benchutil::quick_mode(argc, argv);
    benchutil::header("bench_ablation_blocking",
                      "no paper artefact: an accelerator-model ablation",
                      "B-panel width (reuse) x PCIe bandwidth");

    const std::uint32_t size = quick ? 256 : 1024;
    const workload::GemmSpec spec{size, size, size, 7};

    const std::vector<std::uint32_t> widths = {16, 64, 0}; // 0 = auto-fit
    const std::vector<double> bandwidths = {2, 8, 64};

    std::printf("%16s", "panel\\PCIe");
    for (const double bw : bandwidths) {
        std::printf(" %8.0fGB", bw);
    }
    std::printf("   (execution time, ms)\n");

    for (const std::uint32_t w : widths) {
        std::printf("%16s",
                    w == 0 ? "auto(widest)" :
                             (std::to_string(w) + " cols").c_str());
        for (const double bw : bandwidths) {
            core::SystemConfig cfg = core::SystemConfig::paper_default();
            cfg.set_pcie_target_gbps(bw);
            cfg.devices[0].accel.max_block_cols = w;
            std::printf(" %10.3f",
                        benchutil::gemm_ms(cfg, spec,
                                           core::Placement::host));
        }
        std::printf("\n");
    }

    std::printf("\nExpected: wider panels divide operand traffic (roughly\n"
                "by panels/16) and flatten the bandwidth sensitivity; the\n"
                "16-column default keeps the paper's memory-bound regime.\n");
    return 0;
}
