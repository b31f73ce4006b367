// One benchmark leg: build a System, prepare one workload, run it, check
// it, and report host timings plus the simulated per-layer values. Every
// leg runs in a fresh child process (see accesys_bench.cc), so no allocator,
// pool or page-cache state carries over between legs.
//
// All layers are measured from outside the simulator: the benchmark times
// its own calls into public functions (System constructor, Runner::dispatch
// or the RequestGen constructor, then run_dispatched / run_vit / serve) and
// reads the stats registry afterwards. No simulator source is instrumented.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json.hh"

namespace bench {

/// Host-time attribution layers of a traced leg, named by src/ module.
/// `device` is the endpoint subtree (accelerator, DMA, endpoint and its
/// device memory); `workload` is the drivers: RequestGen's arrival events
/// plus the Runner's host work around the event loop; `other` collects
/// events the prefix table does not know.
enum Layer : std::size_t {
    kCpu,
    kCache,
    kMem,
    kSmmu,
    kPcie,
    kDevice,
    kWorkload,
    kOther,
    kLayerCount
};
inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "cpu", "cache", "mem", "smmu", "pcie", "device", "workload", "other"};

struct WorkloadInfo {
    const char* name;
    /// Runs with threads=4 (the parallel event core) unless forced serial.
    bool parallel;
};

/// The benchmark's workloads, in round-robin order.
[[nodiscard]] const std::vector<WorkloadInfo>& workloads();
[[nodiscard]] const WorkloadInfo* find_workload(std::string_view name);

struct LegOptions {
    std::string workload;
    std::uint64_t seed = 1;
    bool quick = false;  ///< shrunk sizes for the smoke test
    bool traced = false; ///< install the layer tracer (runs serial)
    bool serial = false; ///< run a parallel workload with threads=1
};

/// A timed interval of the leg, relative to the leg's start.
struct Span {
    std::string name;
    double start_s = 0.0;
    double dur_s = 0.0;
};

struct LegResult {
    /// Message of an exception that escaped the leg; empty when none did.
    std::string error;
    /// Jobs submitted and jobs that failed their check (GEMMs, ViT ops,
    /// or served requests, depending on the workload).
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// FNV-1a over the stats registry's JSON dump after the run.
    std::uint64_t fingerprint = 0;
    double build_s = 0.0;   ///< System constructor
    double prepare_s = 0.0; ///< dispatch / RequestGen / ViT lowering
    double run_s = 0.0;     ///< the run call, wall time
    double cpu_s = 0.0;     ///< process CPU time during the run call
    /// Wall time of the faster of two calibration passes, run before and
    /// after the measured phases: this leg's sample of host speed.
    double cal_s = 0.0;
    double rss_mb = 0.0;    ///< peak resident set of the leg process
    std::uint64_t events = 0; ///< events dispatched, all queues
    std::uint64_t barrier_waits = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t fence_waits = 0;
    /// Simulated values read after the run; identical on every leg of one
    /// workload and seed.
    std::vector<std::pair<std::string, double>> sim;
    /// Traced legs only: host seconds attributed to each layer.
    std::array<double, kLayerCount> self_s{};
    /// Traced legs only: leg, build, prepare and run spans.
    std::vector<Span> spans;

    [[nodiscard]] double sim_value(std::string_view name) const;
    [[nodiscard]] std::string to_json() const;
    [[nodiscard]] static LegResult from_json(const json::Value& v);
};

/// Run one leg in this process. Never throws: failures land in `error` and
/// `failed`.
[[nodiscard]] LegResult run_leg(const LegOptions& opt);

} // namespace bench
