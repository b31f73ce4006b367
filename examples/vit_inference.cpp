// ViT inference end-to-end: offloads every GEMM of a Vision Transformer to
// the MatrixFlow accelerator and runs the Non-GEMM operators on the host
// CPU, printing the phase split the paper's §V-D analyses.
//
//   $ ./vit_inference [base|large|huge] [host|devmem] [pcie-GB/s]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/runner.hh"

using namespace accesys;

int main(int argc, char** argv)
{
    const std::string model_name = argc > 1 ? argv[1] : "base";
    const std::string place_name = argc > 2 ? argv[2] : "host";
    const double pcie_gbps = argc > 3 ? std::atof(argv[3]) : 8.0;

    const auto model = workload::VitConfig::by_name(model_name);
    const auto place = place_name == "devmem" ? core::Placement::devmem
                                              : core::Placement::host;

    core::SystemConfig cfg = core::SystemConfig::paper_default();
    if (place == core::Placement::devmem) {
        // Fig. 7 "DevMem", the last design point.
        cfg = core::transformer_design_points().back().cfg;
    } else {
        cfg.set_host_dram("DDR4");
        cfg.set_pcie_target_gbps(pcie_gbps);
    }

    const auto sum = workload::summarize(workload::lower_vit(model));
    std::printf("%s on %s memory (%.0f GB/s PCIe)\n", model.name.c_str(),
                place_name.c_str(), cfg.pcie.effective_gbps());
    std::printf("  %llu GEMM offloads (%.2f GMAC), %llu Non-GEMM ops "
                "(%.1f MiB streamed)\n",
                static_cast<unsigned long long>(sum.gemm_count),
                sum.gemm_macs / 1e9,
                static_cast<unsigned long long>(sum.vector_count),
                static_cast<double>(sum.vector_bytes) / (1 << 20));

    core::System sys(cfg);
    core::Runner runner(sys);
    const auto res = runner.run_vit(model, place);

    std::printf("\ninference time : %8.2f ms\n", res.ms());
    std::printf("  GEMM phase   : %8.2f ms (%.1f%%)\n",
                ticks_to_ms(res.gemm_ticks),
                100.0 * res.gemm_ticks / res.elapsed());
    std::printf("  NonGEMM phase: %8.2f ms (%.1f%%)\n",
                ticks_to_ms(res.nongemm_ticks),
                100.0 * res.nongemm_ticks / res.elapsed());
    std::printf("  other        : %8.2f ms\n", ticks_to_ms(res.other_ticks()));
    std::printf("PCIe payload   : %.1f MiB\n",
                (sys.stat("link_up.payload_bytes") +
                 sys.stat("link_dn.payload_bytes")) /
                    (1 << 20));
    std::printf("SA utilization : %.1f%%\n",
                100.0 * sys.accelerator().compute_busy_ticks() /
                    res.elapsed());
    return 0;
}
