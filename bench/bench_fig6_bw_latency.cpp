// Fig. 6 — Impact of memory bandwidth (a) and memory latency (b).
//
// As in the paper, the memory under test uses a simple bandwidth/latency
// model (gem5's "simple" DRAM equivalent) so one parameter can be swept
// while the other stays fixed. Data is device-side so PCIe cannot mask the
// memory. Expected: strong bandwidth sensitivity that saturates (~60%
// improvement, then plateau with only ~1.7% more from 50 to 256 GB/s);
// latency 1 -> 36 ns costs only a few percent (~4.9%).
#include "bench_util.hh"

using namespace accesys;

namespace {

double run_point(const workload::GemmSpec& spec, double gbps,
                 double latency_ns)
{
    core::SystemConfig cfg = core::SystemConfig::paper_default();
    core::DeviceConfig& dev = cfg.devices[0];
    dev.enable_devmem = true;
    dev.devmem_simple = true;
    dev.devmem_simple_mem.bandwidth_gbps = gbps;
    dev.devmem_simple_mem.latency_ns = latency_ns;
    return benchutil::gemm_ms(cfg, spec, core::Placement::devmem);
}

} // namespace

int main(int argc, char** argv)
{
    benchutil::install_wall_watchdog(argc, argv);
    const bool quick = benchutil::quick_mode(argc, argv);
    benchutil::header("bench_fig6_bw_latency", "paper Fig. 6",
                      "GEMM on device-side simple memory; sweep bandwidth "
                      "at fixed latency, then latency at fixed bandwidth");

    const std::uint32_t size = quick ? 256 : 1024;
    const workload::GemmSpec spec{size, size, size, 7};

    std::vector<double> bws = {8, 12, 16, 24, 32, 50, 64, 100, 128, 256};
    std::vector<double> lats = {1, 2, 4, 8, 12, 16, 24, 36};
    if (quick) {
        bws = {8, 32, 256};
        lats = {1, 12, 36};
    }

    std::printf("(a) bandwidth sweep at 12 ns latency\n");
    std::printf("%12s %12s %12s\n", "GB/s", "exec_ms", "norm");
    double first = -1;
    double at50 = -1;
    double last = -1;
    for (const double bw : bws) {
        const double ms = run_point(spec, bw, 12.0);
        if (first < 0) {
            first = ms;
        }
        if (bw >= 50 && at50 < 0) {
            at50 = ms;
        }
        last = ms;
        std::printf("%12.0f %12.3f %12.3f\n", bw, ms, ms / first);
    }
    std::printf("improvement to 50 GB/s: %.1f%% (paper ~60%%); "
                "50 -> %.0f GB/s: %.1f%% (paper ~1.7%%)\n\n",
                (1.0 - at50 / first) * 100.0, bws.back(),
                (1.0 - last / at50) * 100.0);

    std::printf("(b) latency sweep at 64 GB/s bandwidth\n");
    std::printf("%12s %12s %12s\n", "ns", "exec_ms", "norm");
    double lat_first = -1;
    double lat_last = -1;
    for (const double lat : lats) {
        const double ms = run_point(spec, 64.0, lat);
        if (lat_first < 0) {
            lat_first = ms;
        }
        lat_last = ms;
        std::printf("%12.0f %12.3f %12.3f\n", lat, ms, ms / lat_first);
    }
    std::printf("latency 1 -> %.0f ns overhead: %.1f%% (paper ~4.9%%)\n",
                lats.back(), (lat_last / lat_first - 1.0) * 100.0);
    return 0;
}
