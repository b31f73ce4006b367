// Open-loop request generator: the arrival source that drives the serving
// layer past saturation (ROADMAP "Serving under overload").
//
// A RequestGen draws its arrivals on demand. In Poisson mode each tenant
// keeps only its seeded process state (RNG, time, mix position, next
// tick), and the merged order is a k-way minimum over (next tick, tenant
// index); in trace mode the parsed lines, which are input data, are kept
// and sorted once. Two cursors walk the same deterministic stream: a
// single self-rescheduling arrival event fires at each arrival tick, so
// the open loop is visible in the event stream and the `reqgen.arrivals`
// stat, while the *consumer* (core::Runner::serve) drains requests by
// arrival tick via take_until(). Construction draws every arrival once to
// learn the stream's length and largest operands; nothing is stored per
// request.
//
// Determinism contract: the stream is a pure function of the config (no
// libm — see det_neg_log), and consumption keys on ticks sampled inside the
// CPU program — never on how many arrival events have fired when run()
// returns — so every run sees the identical request stream. A cursor is a
// pure function of its position, so a restore replays both cursors to
// their saved positions.
#pragma once

#include <string>
#include <vector>

#include "sim/random.hh"
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
    /// Cap on the merged stream length (0 = unlimited).
    std::uint64_t max_requests = 0;
    /// Trace mode: text file, one arrival per line:
    ///   <arrival_ns> <tenant_idx> <m> <n> <k>
    /// '#' starts a comment; tenant_idx indexes `tenants`. Only blank and
    /// comment lines are skipped: any other line must hold exactly these
    /// five fields, a finite non-negative arrival that fits the tick
    /// counter and positive unsigned shapes, or construction throws.
    std::string trace_path;
    std::vector<TenantSpec> tenants;

    void validate() const;
};

/// One arrival. `id` is its position in the merged stream, so ids are
/// dense and arrival-ordered.
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

/// Largest operand footprint of any request in a stream, in bytes.
struct OperandBytes {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
};

class RequestGen : public SimObject {
  public:
    RequestGen(Simulator& sim, RequestGenConfig cfg);

    [[nodiscard]] const RequestGenConfig& config() const noexcept
    {
        return cfg_;
    }
    /// Length of the merged stream.
    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
    /// Largest A/B/C bytes over the whole stream: what one operand slot
    /// must hold to serve any request.
    [[nodiscard]] const OperandBytes& largest() const noexcept
    {
        return largest_;
    }
    /// Arrival events fired so far.
    [[nodiscard]] std::uint64_t fired() const noexcept { return fire_.pos; }
    /// Requests consumed by take_until() so far.
    [[nodiscard]] std::uint64_t drained() const noexcept
    {
        return drain_.pos;
    }
    [[nodiscard]] bool exhausted() const noexcept
    {
        return drain_.pos >= total_;
    }
    /// Arrival tick of the next unconsumed request (kMaxTick when
    /// exhausted) — the idle-round advance target.
    [[nodiscard]] Tick next_arrival_tick() const noexcept
    {
        return drain_.head;
    }

    /// Replace `out`'s contents with every unconsumed request with arrival
    /// <= `t`, in stream order, and consume them. `out` belongs to the
    /// caller, so a reused buffer makes this allocation-free. `t` must be
    /// a tick sampled inside the CPU program; see the determinism note
    /// above.
    void take_until(Tick t, std::vector<Request>& out);

    void startup() override;
    void serialize(Ckpt& ar) override;

  private:
    /// One tenant's Poisson process, positioned at its next arrival.
    struct Stream {
        Rng rng;
        double t_ns = 0.0;      ///< time of the drawn arrival
        std::size_t mix_at = 0; ///< its shape: index into the mix
        Tick next = kMaxTick;   ///< its tick; kMaxTick past the horizon
    };
    /// A position in the merged stream: `pos` requests taken, and in
    /// Poisson mode every tenant's process right after them.
    struct Cursor {
        std::uint64_t pos = 0;
        Tick head = kMaxTick; ///< arrival of request `pos`; kMaxTick at the
                              ///< end of the stream
        std::size_t head_tenant = 0; ///< Poisson: the stream holding it
        std::vector<Stream> streams;
    };
    struct TraceLine {
        Tick arrival = 0;
        std::uint32_t tenant = 0;
        std::uint32_t m = 0;
        std::uint32_t n = 0;
        std::uint32_t k = 0;
    };

    void load_trace();
    /// The cursor at position `pos` (0: the start of the stream).
    [[nodiscard]] Cursor seek(std::uint64_t pos) const;
    /// Draw tenant `t`'s next arrival into `s`.
    void draw(Stream& s, std::size_t t) const;
    /// Move `s` past its drawn arrival: the next mix shape and arrival.
    void step(Stream& s, std::size_t t) const;
    /// Point `c.head` at the next request: the earliest drawn arrival, ties
    /// to the lowest tenant index, so the merged order is (tick, tenant)
    /// with each tenant's arrivals in draw order.
    void settle(Cursor& c) const;
    /// `c`'s next request; advances `c`. Requires c.head != kMaxTick.
    Request take(Cursor& c) const;
    void on_arrival();

    RequestGenConfig cfg_;
    std::vector<double> gap_ns_;   ///< Poisson: mean interarrival per tenant
    std::vector<TraceLine> trace_; ///< trace mode: the stream, in order
    std::uint64_t total_ = 0;
    OperandBytes largest_;
    Cursor fire_;  ///< arrival events
    Cursor drain_; ///< consumption by take_until()
    Event arrival_ev_;

    stats::Scalar arrivals_{stat_group(), "arrivals",
                            "open-loop arrival events fired"};
    stats::Scalar scheduled_{stat_group(), "scheduled",
                             "requests in the arrival stream"};
};

} // namespace accesys::workload
