// Figs. 7, 8 and 9 — Transformer (ViT) inference on the paper's four
// systems (§V-C/D), from one simulation per (model, system) pair.
//
// The systems are core::transformer_design_points(): PCIe-2GB and
// PCIe-8GB (host DDR4), PCIe-64GB (host HBM2), all with 256 B packets,
// and DevMem (device-side HBM2, 64 B packets).
//
// Fig. 7: speedup over PCIe-2GB. Expected: PCIe-64GB reaches ~2.5-3.4x;
// DevMem lands slightly *below* PCIe-64GB because Non-GEMM work suffers
// the NUMA penalty of device memory.
//
// Fig. 8: runtime split into the GEMM (offload) and Non-GEMM (CPU vector
// op) phases. Expected: DevMem has the best GEMM phase (highest local
// bandwidth) but by far the worst Non-GEMM phase — the CPU reaches device
// memory across PCIe (NUMA), costing up to several hundred percent versus
// host-memory configurations.
//
// Fig. 9: the ViT-Base phase throughputs (P_GEMM, P_NonGEMM) feed the
// composition model
//   T(w) = T_other + (1-w)/P_GEMM + w/P_NonGEMM
// which sweeps the Non-GEMM fraction; the closed-form solver reports the
// GEMM-fraction threshold above which DevMem wins. Paper thresholds:
// 34.31% (2 GB/s), 10.16% (8 GB/s), 4.27% (64 GB/s).
//
// --quick runs ViT-Base only (4 simulations); the full run adds ViT-Large
// and ViT-Huge to Figs. 7 and 8 (12 simulations).
#include "analytic/composition.hh"
#include "bench_util.hh"

using namespace accesys;

namespace {

using Results = std::vector<core::VitRunResult>; // one per design point

/// Fig. 7: simulate every point of `model`, printing its speedup row as
/// the results come in.
Results run_fig7_row(const workload::VitConfig& model,
                     const std::vector<core::DesignPoint>& points)
{
    Results results;
    std::printf("%-10s", model.name.c_str());
    for (const auto& p : points) {
        core::System sys(p.cfg);
        benchutil::WatchScope watch(sys);
        core::Runner runner(sys);
        results.push_back(runner.run_vit(model, p.place));
        const double base_ms = results.front().ms();
        std::printf(" %7.2fx(%0.0f)", base_ms / results.back().ms(),
                    results.back().ms());
    }
    std::printf("\n");
    return results;
}

void print_fig8(const workload::VitConfig& model,
                const std::vector<core::DesignPoint>& points,
                const Results& results)
{
    std::printf("\n%s (times in ms)\n", model.name.c_str());
    std::printf("%-10s %10s %10s %10s %10s\n", "config", "total", "gemm",
                "nongemm", "other");
    double host_nongemm = -1.0;
    double devmem_nongemm = -1.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto& res = results[i];
        const double ng = ticks_to_ms(res.nongemm_ticks);
        if (points[i].place == core::Placement::host && host_nongemm < 0) {
            host_nongemm = ng;
        }
        if (points[i].place == core::Placement::devmem) {
            devmem_nongemm = ng;
        }
        std::printf("%-10s %10.1f %10.1f %10.1f %10.1f\n", points[i].label,
                    res.ms(), ticks_to_ms(res.gemm_ticks), ng,
                    ticks_to_ms(res.other_ticks()));
    }
    std::printf("DevMem Non-GEMM overhead vs PCIe configs: +%.0f%% "
                "(paper: up to +500%%)\n",
                (devmem_nongemm / host_nongemm - 1.0) * 100.0);
}

struct Measured {
    const char* label;
    analytic::SystemPerf perf;
};

void print_fig9(const std::vector<core::DesignPoint>& points,
                const Results& base_results)
{
    // Unit work = one ViT inference's GEMM (resp. Non-GEMM) phase.
    Measured devmem{};
    std::vector<Measured> pcie;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto& res = base_results[i];
        const Measured m{points[i].label,
                         {.t_other = ticks_to_ms(res.other_ticks()),
                          .p_gemm = 1.0 / ticks_to_ms(res.gemm_ticks),
                          .p_nongemm = 1.0 / ticks_to_ms(res.nongemm_ticks)}};
        if (points[i].place == core::Placement::devmem) {
            devmem = m;
        } else {
            pcie.push_back(m);
        }
    }

    std::printf("%-10s %14s %14s   (measured phase throughputs, 1/ms)\n",
                "config", "P_GEMM", "P_NonGEMM");
    std::printf("%-10s %14.4f %14.4f\n", devmem.label, devmem.perf.p_gemm,
                devmem.perf.p_nongemm);
    for (const auto& m : pcie) {
        std::printf("%-10s %14.4f %14.4f\n", m.label, m.perf.p_gemm,
                    m.perf.p_nongemm);
    }

    std::printf("\n%8s", "w_nonG");
    std::printf(" %12s", devmem.label);
    for (const auto& m : pcie) {
        std::printf(" %12s", m.label);
    }
    std::printf("   (T_overall, ms)\n");
    for (double w = 0.0; w <= 1.0001; w += 0.1) {
        std::printf("%8.1f %12.2f", w, analytic::exec_time(devmem.perf, w));
        for (const auto& m : pcie) {
            std::printf(" %12.2f", analytic::exec_time(m.perf, w));
        }
        std::printf("\n");
    }

    std::printf("\nDevMem-vs-PCIe crossovers (DevMem wins below the "
                "Non-GEMM threshold):\n");
    // Note: the paper quotes "DevMem preferable when W_GEMM exceeds
    // 34.31/10.16/4.27%" but its own prose ("...unless the workload is
    // overwhelmingly dominated by GEMM") matches those numbers only if
    // they are read as *Non-GEMM* thresholds; both views are printed.
    const std::vector<double> paper_thresholds = {34.31, 10.16, 4.27};
    for (std::size_t i = 0; i < pcie.size(); ++i) {
        const auto w = analytic::crossover_nongemm_frac(devmem.perf,
                                                        pcie[i].perf);
        if (w.has_value()) {
            std::printf("  vs %-10s Non-GEMM < %6.2f%% (= GEMM > %6.2f%%)  "
                        "paper quotes %5.2f%%\n",
                        pcie[i].label, *w * 100.0,
                        analytic::as_gemm_threshold(*w) * 100.0,
                        paper_thresholds[i]);
        } else {
            std::printf("  vs %-10s no crossover in (0,1)\n", pcie[i].label);
        }
    }
}

} // namespace

int main(int argc, char** argv)
{
    benchutil::install_wall_watchdog(argc, argv);
    const bool quick = benchutil::quick_mode(argc, argv);

    // ViT-Base comes first: Fig. 9 reads its results.
    std::vector<workload::VitConfig> models = {workload::VitConfig::base(),
                                               workload::VitConfig::large(),
                                               workload::VitConfig::huge()};
    if (quick) {
        models = {workload::VitConfig::base()};
    }
    const auto points = core::transformer_design_points();

    benchutil::header("bench_fig7_9_transformer", "paper Fig. 7",
                      "ViT inference across PCIe-2GB / 8GB / 64GB / DevMem");
    std::printf("%-10s", "model");
    for (const auto& p : points) {
        std::printf(" %12s", p.label);
    }
    std::printf("   (speedup vs PCIe-2GB; exec ms in parens)\n");
    std::vector<Results> results;
    for (const auto& model : models) {
        results.push_back(run_fig7_row(model, points));
    }
    std::printf("\npaper: PCIe-64GB 2.5-3.4x over PCIe-2GB; DevMem slightly "
                "below PCIe-64GB.\n");

    benchutil::header("bench_fig7_9_transformer", "paper Fig. 8",
                      "ViT phase split: GEMM vs Non-GEMM per configuration");
    for (std::size_t m = 0; m < models.size(); ++m) {
        print_fig8(models[m], points, results[m]);
    }

    benchutil::header("bench_fig7_9_transformer", "paper Fig. 9",
                      "composition model sweep of the Non-GEMM fraction; "
                      "DevMem-vs-PCIe crossovers");
    print_fig9(points, results.front());
    return 0;
}
