// Experiment runner: drives workloads through a System exactly the way the
// paper's software stack does — the CPU writes a command descriptor into
// host memory, rings the accelerator's doorbell over MMIO, and polls a
// completion flag the device DMA-writes back; Non-GEMM operators run on the
// CPU between offloads.
//
// Multi-accelerator scenarios: dispatch() stages one GEMM per call against
// any endpoint; run_dispatched() then rings every staged doorbell
// back-to-back and polls the completion flags, so all endpoints execute
// concurrently and contend on the shared PCIe uplink. run_gemm() is the
// single-device shorthand built on the same path.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "accel/command.hh"
#include "core/system.hh"
#include "workload/gemm.hh"
#include "workload/vit.hh"

namespace accesys::workload {
class RequestGen;
}

namespace accesys::core {

struct GemmRunResult {
    Tick start = 0;
    Tick end = 0;
    bool verified = false;
    std::uint64_t mismatches = 0;

    [[nodiscard]] Tick elapsed() const { return end - start; }
    [[nodiscard]] double ms() const { return ticks_to_ms(elapsed()); }

    /// Achieved GEMM throughput in GMAC/s.
    [[nodiscard]] double gmacs(const workload::GemmSpec& spec) const
    {
        return spec.macs() / ticks_to_sec(elapsed()) / 1e9;
    }
};

struct VitRunResult {
    Tick start = 0;
    Tick end = 0;
    Tick gemm_ticks = 0;    ///< time in offload phases (doorbell -> flag)
    Tick nongemm_ticks = 0; ///< time in CPU vector ops
    std::uint64_t gemm_cmds = 0;
    std::uint64_t vector_ops = 0;

    [[nodiscard]] Tick elapsed() const { return end - start; }
    [[nodiscard]] double ms() const { return ticks_to_ms(elapsed()); }
    [[nodiscard]] Tick other_ticks() const
    {
        return elapsed() - gemm_ticks - nongemm_ticks;
    }
};

/// How one device's job ended in a concurrent multi-device run.
enum class JobStatus {
    ok,        ///< completion flag observed
    timed_out, ///< flag never arrived within FaultPlan::job_timeout_ns
    failed,    ///< every allowed attempt timed out (failover exhausted)
    rejected,  ///< serving admission refused it (full queue / tenant quota)
    shed,      ///< admitted but dropped (shed_oldest / deadline shedding)
    pending,   ///< serving bookkeeping: not finally accounted yet
};

/// Endpoint health as tracked by the runner's failover machinery.
enum class EndpointHealth {
    healthy,     ///< full member of the dispatch pool
    degraded,    ///< recent failure; retries avoid it when possible
    quarantined, ///< consecutive-failure threshold hit; never dispatched
};

/// One attempt at running a job on some endpoint (failover runs record the
/// full history; single-shot runs record exactly one).
struct JobAttempt {
    std::size_t device = 0;
    JobStatus status = JobStatus::ok;
    Tick start = 0; ///< round start (doorbell ring)
    Tick end = 0;   ///< round end (flag seen or poll given up)
};

/// Outcome of one device's share of a concurrent multi-device run.
struct DeviceGemmResult {
    std::size_t device = 0;
    workload::GemmSpec spec{};
    /// Per-job outcome. Only fault runs with a job timeout can report
    /// anything but `ok`: a clean run that loses a flag deadlocks loudly
    /// instead (the old behaviour, preserved).
    JobStatus status = JobStatus::ok;
    /// Attempt history (failover runs only; empty on the classic
    /// single-round path, where `status` is the whole story).
    std::vector<JobAttempt> attempts;
    /// Tick the device finished posting its completion flag (device-side,
    /// so dispatch/poll order cannot bias completion-skew measurements).
    Tick done = 0;
    bool verified = false;
    std::uint64_t mismatches = 0;

    [[nodiscard]] bool ok() const noexcept { return status == JobStatus::ok; }

    /// Bytes this device's DMA engine moved (payload, both directions).
    std::uint64_t dma_bytes = 0;
    /// Achieved DMA bandwidth over the whole run, in GB/s.
    [[nodiscard]] double gbps(Tick elapsed) const
    {
        return elapsed == 0
                   ? 0.0
                   : static_cast<double>(dma_bytes) / ticks_to_sec(elapsed) /
                         1e9;
    }
};

/// Outcome of a concurrent multi-device GEMM scenario.
struct MultiGemmResult {
    Tick start = 0;
    Tick end = 0;
    /// True when the run stopped early because a requested/armed
    /// checkpoint was written (see Runner::set_restore_path and
    /// arm_signal_checkpoint): per-device outcomes below are meaningless
    /// and verification was skipped.
    bool checkpointed = false;
    std::vector<DeviceGemmResult> devices;
    /// Per-endpoint health after the run (failover runs; empty otherwise).
    std::vector<EndpointHealth> health;
    /// Jobs re-dispatched to another endpoint after a failed attempt.
    std::uint64_t redispatches = 0;
    /// Function-level resets issued to recover failed endpoints.
    std::uint64_t flrs = 0;

    [[nodiscard]] Tick elapsed() const { return end - start; }
    [[nodiscard]] double ms() const { return ticks_to_ms(elapsed()); }
    [[nodiscard]] bool all_verified() const
    {
        for (const auto& d : devices) {
            if (!d.verified) {
                return false;
            }
        }
        return !devices.empty();
    }
    /// Aggregate throughput across all devices, in GMAC/s.
    [[nodiscard]] double aggregate_gmacs() const
    {
        if (elapsed() == 0) {
            return 0.0;
        }
        double macs = 0.0;
        for (const auto& d : devices) {
            macs += static_cast<double>(d.spec.macs());
        }
        return macs / ticks_to_sec(elapsed()) / 1e9;
    }
    /// Aggregate DMA bandwidth across all devices, in GB/s.
    [[nodiscard]] double aggregate_gbps() const
    {
        double gbps = 0.0;
        for (const auto& d : devices) {
            gbps += d.gbps(elapsed());
        }
        return gbps;
    }
};

/// Backpressure signal derived from the admission-queue depth against the
/// ServingConfig watermarks. Purely observational: it is surfaced in the
/// `runner.serving.state` stat (and transition counters) so external
/// clients could throttle, but admission itself keys on capacity/policy.
enum class ServingState {
    normal = 0,
    throttled = 1, ///< depth >= ServingConfig::throttle_mark()
    shedding = 2,  ///< depth >= ServingConfig::shed_mark()
};

/// Full per-request ledger entry for one served (or refused) request.
/// Nothing is silently dropped: every offered request ends as exactly one
/// of ok / failed / rejected / shed, with its attempt history attached.
struct ServedJob {
    std::uint64_t id = 0;
    std::uint32_t tenant = 0;
    workload::GemmSpec spec{};
    Tick arrival = 0;
    Tick first_dispatch = 0; ///< first doorbell (0 = never dispatched)
    Tick last_dispatch = 0;  ///< doorbell of the final attempt
    Tick done = 0;           ///< device-side completion tick (ok only)
    JobStatus status = JobStatus::pending;
    std::vector<JobAttempt> attempts;
    bool verified = false;
    std::uint64_t mismatches = 0;

    [[nodiscard]] bool ok() const noexcept { return status == JobStatus::ok; }
};

/// Per-tenant SLO accounting over one serve() run, split into queueing
/// time (arrival -> first doorbell) and service time (last doorbell ->
/// device completion). Percentiles are over completed jobs.
struct TenantSlo {
    std::string name;
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    double p50_queue_ns = 0.0;
    double p99_queue_ns = 0.0;
    double p50_service_ns = 0.0;
    double p99_service_ns = 0.0;
    double p50_e2e_ns = 0.0;
    double p99_e2e_ns = 0.0;
    double goodput_jobs_per_s = 0.0; ///< completed / wall-clock horizon
};

/// Outcome of one open-loop serving run (Runner::serve).
struct ServingResult {
    Tick start = 0;
    Tick end = 0;
    /// True when the run stopped early because a requested/armed
    /// checkpoint was written; counters below cover the rounds executed
    /// so far and the ledger/tenant breakdown is left empty.
    bool checkpointed = false;
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t rounds = 0;      ///< dispatch rounds executed
    std::uint64_t idle_rounds = 0; ///< empty-queue waits for an arrival
    std::uint64_t redispatches = 0;
    std::uint64_t flrs = 0;
    ServingState final_state = ServingState::normal;
    std::vector<ServedJob> jobs; ///< ledger, indexed by request id
    std::vector<TenantSlo> tenants;
    std::vector<EndpointHealth> health;

    [[nodiscard]] Tick elapsed() const { return end - start; }
    [[nodiscard]] double ms() const { return ticks_to_ms(elapsed()); }
    [[nodiscard]] double goodput_jobs_per_s() const
    {
        return elapsed() == 0
                   ? 0.0
                   : static_cast<double>(completed) / ticks_to_sec(elapsed());
    }
    /// The accounting identity serve() enforces: admitted + rejected ==
    /// offered and completed + shed + failed == admitted.
    [[nodiscard]] bool accounted() const
    {
        return admitted + rejected == offered &&
               completed + shed + failed == admitted;
    }
};

class Runner {
  public:
    explicit Runner(System& sys) : sys_(&sys) {}

    /// Offload one GEMM. With `verify`, operands are randomised and the
    /// result is bit-compared against a golden model (exercising the full
    /// functional DMA path).
    GemmRunResult run_gemm(const workload::GemmSpec& spec, Placement place,
                           bool verify = false);

    /// Stage one GEMM on endpoint `device_idx`: allocates and maps the
    /// operands (against that device's memories for Placement::devmem) and
    /// prepares the command descriptor. Nothing executes until
    /// run_dispatched().
    void dispatch(std::size_t device_idx, const workload::GemmSpec& spec,
                  Placement place, bool verify = false);

    /// Execute every dispatched GEMM concurrently: the CPU rings all
    /// doorbells back-to-back, then polls each completion flag. Clears the
    /// dispatch list.
    MultiGemmResult run_dispatched();

    /// Run one full ViT inference; returns the phase-split timing that
    /// Figs. 7 and 8 report.
    VitRunResult run_vit(const workload::VitConfig& cfg, Placement place);

    /// Open-loop serving: drain `gen`'s arrival schedule through a bounded
    /// admission queue and dispatch round-by-round across every endpoint
    /// until the schedule is exhausted and the queue is empty. Overload
    /// behaviour (reject / shed / deadline-shed), watermark backpressure
    /// and per-tenant SLO accounting follow `scfg`; endpoint faults
    /// compose with the active FaultPlan exactly like run_dispatched()
    /// failover (timeouts, health hysteresis, FLR, bounded retries).
    /// Operands live in host memory in per-endpoint slots sized for the
    /// largest shape in the schedule, so queue + operand memory stay
    /// bounded no matter how long the overload lasts.
    ///
    /// Checkpointing: all serving state (queue, in-flight round, ledger,
    /// endpoint health) is covered by a "runner.serving" checkpoint hook;
    /// a mid-overload snapshot restored via set_restore_path() + serve()
    /// with the identical System/RequestGen/ServingConfig resumes
    /// bit-identically. One serving Runner per System (the hook section
    /// name is fixed).
    ServingResult serve(workload::RequestGen& gen, const ServingConfig& scfg);

    /// Restore checkpoint `path` before the next run enters the event
    /// loop. Protocol: the caller re-runs the *identical* dispatch in a
    /// fresh process (same SystemConfig, same alloc/map/dispatch calls —
    /// all deterministic), which re-stages the CPU program and its
    /// closures; restore() then overwrites every component's dynamic
    /// state on top, and run() resumes bit-identically. Host-side result
    /// fields sampled by Call ops that executed before the checkpoint
    /// (start ticks, DMA baselines) stay unset in the restored process;
    /// the stats registry — the bit-identity contract — is restored.
    void set_restore_path(std::string path) { restore_ = std::move(path); }

    /// Restore checkpoint `path` into the fresh System *without* running
    /// it: re-stages a program with the same op shape as run_dispatched()
    /// (the CPU's restored pc must land inside an identical program) and
    /// then loads the snapshot. For tooling that measures or inspects
    /// restored state only — the host-side sampling Calls are stubs, so
    /// resume a run through set_restore_path() + run_dispatched() instead.
    /// Clears the dispatch list.
    void restore_dispatched(const std::string& path);

  private:
    struct PendingGemm {
        std::size_t device = 0;
        workload::GemmSpec spec{};
        Placement place = Placement::host;
        bool verify = false;
        Addr c = 0;
        Addr flag = 0;
        Addr desc = 0;
        accel::GemmCommand cmd{};
        std::vector<std::int32_t> golden;
    };

    /// Per-endpoint health record (hysteresis counters; persists across
    /// run_dispatched() batches, like real fleet health would).
    struct EpHealth {
        EndpointHealth state = EndpointHealth::healthy;
        unsigned consecutive_failures = 0;
        unsigned consecutive_successes = 0;
        std::uint64_t failures_total = 0;
        std::uint64_t successes_total = 0;
    };

    /// Fleet-level failover stats, registered only when failover is armed
    /// (active plan with job_max_attempts > 1) so clean dumps are
    /// unchanged.
    struct FleetStats {
        explicit FleetStats(stats::Registry& reg)
            : group(reg, "runner.fleet"),
              rounds(group, "rounds", "dispatch rounds executed"),
              redispatches(group, "redispatches",
                           "jobs re-dispatched after a failed attempt"),
              flrs(group, "flrs",
                   "function-level resets issued to failed endpoints"),
              degrades(group, "degrades",
                       "healthy -> degraded health transitions"),
              quarantines(group, "quarantines",
                          "degraded -> quarantined health transitions"),
              rehabs(group, "rehabs",
                     "degraded -> healthy health transitions"),
              failures(group, "job_failures",
                       "jobs abandoned after attempts/budget ran out")
        {
        }
        stats::Group group;
        stats::Scalar rounds;
        stats::Scalar redispatches;
        stats::Scalar flrs;
        stats::Scalar degrades;
        stats::Scalar quarantines;
        stats::Scalar rehabs;
        stats::Scalar failures;
    };

    /// Serving-path stats ("runner.serving" + one group per tenant),
    /// registered on first serve() so non-serving dumps are unchanged.
    struct ServingStats {
        explicit ServingStats(stats::Registry& reg)
            : group(reg, "runner.serving"),
              offered(group, "offered", "requests presented for admission"),
              admitted(group, "admitted", "requests accepted into the queue"),
              rejected(group, "rejected",
                       "requests refused at admission (full queue / quota)"),
              shed(group, "shed",
                   "admitted jobs dropped (shed_oldest / deadline)"),
              completed(group, "completed", "jobs finished successfully"),
              failed(group, "failed",
                     "admitted jobs abandoned after attempts/budget ran out"),
              retries(group, "retries",
                      "jobs re-queued after a failed attempt"),
              rounds(group, "rounds", "dispatch rounds executed"),
              idle_rounds(group, "idle_rounds",
                          "empty-queue rounds spent waiting for an arrival"),
              state(group, "state",
                    "current ServingState (0 normal, 1 throttled, 2 shed)"),
              throttle_enters(group, "throttle_enters",
                              "transitions into ServingState::throttled"),
              shed_enters(group, "shed_enters",
                          "transitions into ServingState::shedding"),
              verify_failures(group, "verify_failures",
                              "completed jobs whose result mismatched"),
              goodput(group, "goodput_jobs_per_s",
                      "completed jobs per second over the serve horizon"),
              queue_depth(group, "queue_depth",
                          "admission-queue depth sampled per round"),
              queue_ns(group, "queue_ns",
                       "arrival -> first doorbell wait (completed jobs)"),
              service_ns(group, "service_ns",
                         "final doorbell -> device completion"),
              e2e_ns(group, "e2e_ns", "arrival -> device completion")
        {
        }
        stats::Group group;
        stats::Scalar offered;
        stats::Scalar admitted;
        stats::Scalar rejected;
        stats::Scalar shed;
        stats::Scalar completed;
        stats::Scalar failed;
        stats::Scalar retries;
        stats::Scalar rounds;
        stats::Scalar idle_rounds;
        stats::Scalar state;
        stats::Scalar throttle_enters;
        stats::Scalar shed_enters;
        stats::Scalar verify_failures;
        stats::Scalar goodput;
        stats::Distribution queue_depth;
        stats::Distribution queue_ns;
        stats::Distribution service_ns;
        stats::Distribution e2e_ns;

        /// Per-tenant SLO stat block ("runner.serving.<tenant>").
        struct Tenant {
            Tenant(stats::Registry& reg, const std::string& name)
                : group(reg, "runner.serving." + name),
                  offered(group, "offered", "requests offered"),
                  admitted(group, "admitted", "requests admitted"),
                  rejected(group, "rejected", "requests rejected"),
                  shed(group, "shed", "admitted jobs shed"),
                  completed(group, "completed", "jobs completed"),
                  failed(group, "failed", "jobs failed"),
                  p50_queue_ns(group, "p50_queue_ns", "median queueing time"),
                  p99_queue_ns(group, "p99_queue_ns", "p99 queueing time"),
                  p50_service_ns(group, "p50_service_ns",
                                 "median service time"),
                  p99_service_ns(group, "p99_service_ns", "p99 service time"),
                  p50_e2e_ns(group, "p50_e2e_ns", "median end-to-end latency"),
                  p99_e2e_ns(group, "p99_e2e_ns", "p99 end-to-end latency"),
                  goodput(group, "goodput_jobs_per_s",
                          "completed jobs per second"),
                  queue_ns(group, "queue_ns", "arrival -> first doorbell"),
                  service_ns(group, "service_ns",
                             "final doorbell -> completion"),
                  e2e_ns(group, "e2e_ns", "arrival -> completion")
            {
            }
            stats::Group group;
            stats::Scalar offered;
            stats::Scalar admitted;
            stats::Scalar rejected;
            stats::Scalar shed;
            stats::Scalar completed;
            stats::Scalar failed;
            stats::Scalar p50_queue_ns;
            stats::Scalar p99_queue_ns;
            stats::Scalar p50_service_ns;
            stats::Scalar p99_service_ns;
            stats::Scalar p50_e2e_ns;
            stats::Scalar p99_e2e_ns;
            stats::Scalar goodput;
            stats::Distribution queue_ns;
            stats::Distribution service_ns;
            stats::Distribution e2e_ns;
        };
        std::vector<std::unique_ptr<Tenant>> tenants;
    };

    /// One in-flight serving dispatch (trivially copyable -> pod_vec).
    struct ServeSlot {
        std::uint64_t job = 0;        ///< ledger index (request id)
        std::uint64_t ep = 0;         ///< endpoint index
        std::uint64_t flag_value = 0; ///< completion value this round waits on
    };

    /// All serve() state that must survive a mid-run checkpoint; saved and
    /// restored by the "runner.serving" hook (serialize_serving).
    struct ServeState {
        bool active = false;
        std::uint8_t round_kind = 0; ///< 0 none, 1 dispatch, 2 idle
        std::uint64_t idle_cycles = 0;
        std::uint64_t est_service_ticks = 0; ///< EMA, deadline shedding
        std::uint32_t retry_budget = 0;
        std::uint8_t state = 0; ///< ServingState
        Tick start = 0;
        std::uint64_t rounds = 0;
        std::uint64_t idle_rounds = 0;
        std::uint64_t redispatches = 0;
        std::uint64_t flrs = 0;
        std::vector<std::uint64_t> ep_flag_value; ///< per-ep flag sequence
        std::vector<ServeSlot> slots;             ///< in-flight round
        std::vector<std::uint64_t> queue;         ///< job ids, head first
        std::vector<ServedJob> jobs;              ///< ledger by request id
    };

    /// Round-based failover path of run_dispatched() (armed by an active
    /// fault plan with job_max_attempts > 1).
    MultiGemmResult run_failover(const FaultPlan& plan);
    /// One line per endpoint: health state and hysteresis counters.
    [[nodiscard]] std::string health_summary() const;

    /// Least-loaded endpoint in health state `want` that is not already
    /// claimed this round; -1 when none qualifies. Load is total jobs ever
    /// run (failures + successes). Determinism contract: ties break by the
    /// lowest endpoint index — the scan is an ascending-index pass with a
    /// strict `<`, so selection is a pure function of the health table and
    /// never of any host-side iteration order. Shared by run_failover()
    /// re-dispatch and serve() so both paths inherit the same guarantee.
    static std::ptrdiff_t least_loaded(const std::vector<EpHealth>& health,
                                       const std::vector<bool>& claimed,
                                       EndpointHealth want);

    /// Success/failure sides of the endpoint-health hysteresis shared by
    /// run_failover() and serve(). health_failure() also issues the FLR.
    void health_success(std::size_t ep, const FaultPlan& plan);
    void health_failure(std::size_t ep, const FaultPlan& plan);

    /// Save/load every field of `serve_` plus the health table (the
    /// "runner.serving" checkpoint-hook body).
    void serialize_serving(Ckpt& ar);

    System* sys_;
    std::vector<PendingGemm> pending_;
    std::string restore_;
    std::vector<EpHealth> health_;
    std::unique_ptr<FleetStats> fleet_;
    std::unique_ptr<ServingStats> serving_;
    std::unique_ptr<ServeState> serve_;
    bool serving_hook_armed_ = false;
};

/// Arm SIGINT/SIGTERM as checkpoint-then-exit: the handler posts an
/// interrupt on the simulator (flag writes only — async-signal-safe), the
/// run loop writes `path` at the next quiescent point and returns
/// ExitCause::checkpointed. Call sites observe MultiGemmResult::
/// checkpointed (or the RunResult cause) and exit; a later invocation
/// resumes via Runner::set_restore_path. No-op when ACCESYS_CKPT=0.
void arm_signal_checkpoint(System& sys, std::string path);

} // namespace accesys::core
