// Open-loop request generator: the arrival source that drives the serving
// layer past saturation (ROADMAP "Serving under overload").
//
// A RequestGen precomputes its entire arrival schedule at construction —
// per-tenant seeded Poisson processes (or a trace file) merged into one
// globally ordered request list — and then replays it: a single
// self-rescheduling arrival event fires at each arrival tick so the open
// loop is visible in the event stream and the `reqgen.arrivals` stat, while
// the *consumer* (core::Runner::serve) drains requests by arrival tick via
// take_until().
//
// Determinism contract: the schedule is a pure function of the config (no
// libm — see det_neg_log), and consumption keys on ticks sampled inside the
// CPU program — never on how many arrival events have fired when run()
// returns — so every run sees the identical request stream.
#pragma once

#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "workload/gemm.hh"

namespace accesys::workload {

/// One tenant's share of the offered load.
struct TenantSpec {
    /// Stat-group suffix ("runner.serving.<name>"); must be unique and
    /// non-empty.
    std::string name;
    /// Poisson arrival rate (jobs/s). Ignored in trace mode.
    double rate_jobs_per_s = 0.0;
    /// Job shapes cycled round-robin over this tenant's arrivals
    /// (Poisson mode; trace lines carry their own shape).
    std::vector<GemmSpec> mix;
    /// End-to-end SLO used by ShedPolicy::deadline_aware: a queued job
    /// whose deadline can no longer be met is shed at dispatch time.
    /// 0 = no deadline (never deadline-shed).
    double deadline_ns = 0.0;
    /// Admission quota: max jobs this tenant may hold in the admission
    /// queue (0 = unlimited). Caps one tenant's burst so it cannot
    /// starve the fleet.
    std::size_t queue_quota = 0;
};

struct RequestGenConfig {
    enum class Mode {
        poisson, ///< seeded per-tenant exponential interarrival times
        trace,   ///< arrivals read from `trace_path`
    };
    Mode mode = Mode::poisson;
    std::uint64_t seed = 1;
    /// Poisson mode: arrivals are generated in [0, horizon_ns).
    double horizon_ns = 0.0;
    /// Cap on the merged schedule length (0 = unlimited).
    std::uint64_t max_requests = 0;
    /// Trace mode: text file, one arrival per line:
    ///   <arrival_ns> <tenant_idx> <m> <n> <k>
    /// '#' starts a comment; tenant_idx indexes `tenants`.
    std::string trace_path;
    std::vector<TenantSpec> tenants;

    void validate() const;
};

/// One scheduled arrival. `id` is the index into the merged schedule, so
/// ids are dense and arrival-ordered.
struct Request {
    std::uint64_t id = 0;
    std::uint32_t tenant = 0;
    Tick arrival = 0;
    GemmSpec spec{};
};

/// -ln(x) for x in (0, 1], deterministic across machines and toolchains:
/// committed serving goldens are byte-compared on CI, and libm's log()
/// varies by implementation in the last ULPs. Uses only exactly-rounded
/// +,-,*,/ (plus the exact frexp exponent split) with fixed literal
/// constants, so every conforming IEEE-754 double implementation produces
/// the same bits.
[[nodiscard]] double det_neg_log(double x);

class RequestGen : public SimObject {
  public:
    RequestGen(Simulator& sim, RequestGenConfig cfg);

    [[nodiscard]] const RequestGenConfig& config() const noexcept
    {
        return cfg_;
    }
    /// The full merged arrival schedule, ordered by (arrival, tenant).
    [[nodiscard]] const std::vector<Request>& schedule() const noexcept
    {
        return sched_;
    }
    [[nodiscard]] std::uint64_t total() const noexcept
    {
        return sched_.size();
    }
    /// Requests consumed by take_until() so far.
    [[nodiscard]] std::uint64_t drained() const noexcept { return drained_; }
    [[nodiscard]] bool exhausted() const noexcept
    {
        return drained_ >= sched_.size();
    }
    /// Arrival tick of the next unconsumed request (kMaxTick when
    /// exhausted) — the idle-round advance target.
    [[nodiscard]] Tick next_arrival_tick() const noexcept
    {
        return exhausted() ? kMaxTick : sched_[drained_].arrival;
    }

    /// Consume every unconsumed request with arrival <= `t`, in schedule
    /// order. `t` must be a tick sampled inside the CPU program; see the
    /// determinism note above.
    std::vector<const Request*> take_until(Tick t);

    void startup() override;
    void serialize(Ckpt& ar) override;

  private:
    void build_poisson();
    void build_trace();
    void finalize_schedule();
    void on_arrival();

    RequestGenConfig cfg_;
    std::vector<Request> sched_;
    std::uint64_t fired_ = 0;   ///< arrival events dispatched
    std::uint64_t drained_ = 0; ///< host-side consumption cursor
    Event arrival_ev_;

    stats::Scalar arrivals_{stat_group(), "arrivals",
                            "open-loop arrival events fired"};
    stats::Scalar scheduled_{stat_group(), "scheduled",
                             "requests in the precomputed schedule"};
};

} // namespace accesys::workload
