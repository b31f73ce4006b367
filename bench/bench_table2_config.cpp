// Table II — System configuration.
//
// Prints the default configuration and asserts that it matches the paper's
// Table II values, so drift in defaults is caught mechanically.
#include <cstdio>

#include "core/system.hh"
#include "sim/error.hh"

#include "bench_util.hh"

using namespace accesys;

int main(int argc, char** argv)
{
    benchutil::install_wall_watchdog(argc, argv);
    const core::SystemConfig cfg = core::SystemConfig::paper_default();

    std::printf("Table II — system configuration (paper defaults)\n\n");
    std::printf("%-22s %s\n", "Component", "Specification");
    std::printf("%-22s ARM-class, %.0f GHz\n", "CPU", cfg.cpu.freq_ghz);
    std::printf("%-22s %llu kB\n", "Data Cache",
                static_cast<unsigned long long>(cfg.l1d.size_bytes / kKiB));
    std::printf("%-22s %llu kB (modelled as config only)\n",
                "Instruction Cache", 32ULL);
    std::printf("%-22s %llu MB\n", "Last Level Cache",
                static_cast<unsigned long long>(cfg.llc.size_bytes / kMiB));
    std::printf("%-22s %llu kB\n", "IOCache",
                static_cast<unsigned long long>(cfg.iocache.size_bytes /
                                                kKiB));
    std::printf("%-22s %s, %llu GB\n", "Memory",
                cfg.host_mem.dram.name.c_str(),
                static_cast<unsigned long long>(cfg.host_dram_bytes / kGiB));
    std::printf("%-22s %s, %.0f Gb/s per lane, %u lanes (%.2f GB/s eff.)\n",
                "PCIe Link", to_string(cfg.pcie.gen), cfg.pcie.lane_gbps,
                cfg.pcie.lanes, cfg.pcie.effective_gbps());
    std::printf("%-22s %.0f ns latency\n", "PCIe RootComplex",
                cfg.rc.latency_ns);
    std::printf("%-22s %.0f ns latency\n", "PCIe Switch",
                cfg.switch_tree[0].params.latency_ns);

    // Mechanical checks against the paper's numbers.
    ensure(cfg.cpu.freq_ghz == 1.0, "CPU must be 1 GHz");
    ensure(cfg.l1d.size_bytes == 64 * kKiB, "D$ must be 64 kB");
    ensure(cfg.llc.size_bytes == 2 * kMiB, "LLC must be 2 MB");
    ensure(cfg.iocache.size_bytes == 32 * kKiB, "IOCache must be 32 kB");
    ensure(cfg.host_mem.dram.name == "DDR3-1600", "memory must be DDR3-1600");
    ensure(cfg.pcie.lanes == 4 && cfg.pcie.lane_gbps == 4.0,
           "PCIe must be 4 lanes at 4 Gb/s");
    ensure(cfg.rc.latency_ns == 150.0, "RC latency must be 150 ns");
    ensure(cfg.switch_tree[0].params.latency_ns == 50.0,
           "switch latency must be 50 ns");

    std::printf("\nall Table II values verified against "
                "SystemConfig::paper_default().\n");
    return 0;
}
