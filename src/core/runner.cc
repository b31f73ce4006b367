#include "core/runner.hh"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <iostream>
#include <utility>

#include "accel/command.hh"
#include "sim/env_flags.hh"
#include "sim/fault_injector.hh"
#include "sim/serialize.hh"
#include "workload/request_gen.hh"

namespace accesys::core {

namespace {

/// Simulator targeted by the signal-checkpoint handler. post_interrupt()
/// is flag writes only, so the handler is async-signal-safe.
std::atomic<Simulator*> g_signal_sim{nullptr};

void on_checkpoint_signal(int)
{
    Simulator* sim = g_signal_sim.load(std::memory_order_relaxed);
    if (sim != nullptr) {
        sim->post_interrupt();
    }
}

} // namespace

void arm_signal_checkpoint(System& sys, std::string path)
{
    if (!env_flags().ckpt) {
        return;
    }
    sys.sim().arm_interrupt_checkpoint(std::move(path));
    g_signal_sim.store(&sys.sim(), std::memory_order_relaxed);
    std::signal(SIGINT, on_checkpoint_signal);
    std::signal(SIGTERM, on_checkpoint_signal);
}

namespace {

/// Run the simulation; if a SimError escapes mid-run, flush a partial
/// stats dump to stderr first so the failure state is diagnosable, then
/// rethrow.
RunResult run_with_stats_flush(System& sys, const char* what)
{
    try {
        return sys.sim().run();
    } catch (const SimError&) {
        std::cerr << "accesys: SimError during " << what << " at tick "
                  << sys.sim().now() << "; partial stats dump follows\n";
        sys.stats().write_text(std::cerr);
        throw;
    }
}

/// The doorbell register's system address for endpoint `idx`.
Addr doorbell_addr(System& sys, std::size_t idx = 0)
{
    return sys.accelerator(idx).params().bar0_base + accel::kRegDoorbell;
}

/// DMA payload bytes endpoint `idx` has moved so far (both directions).
std::uint64_t dma_bytes(System& sys, std::size_t idx)
{
    const std::string& prefix = sys.accelerator(idx).name();
    return static_cast<std::uint64_t>(
        sys.stat(prefix + ".dma.bytes_read") +
        sys.stat(prefix + ".dma.bytes_written"));
}

} // namespace

GemmRunResult Runner::run_gemm(const workload::GemmSpec& spec,
                               Placement place, bool verify)
{
    ensure(pending_.empty(), "run_gemm with ", pending_.size(),
           " GEMMs already dispatched; use run_dispatched()");
    dispatch(0, spec, place, verify);
    const MultiGemmResult multi = run_dispatched();

    GemmRunResult res;
    res.start = multi.start;
    res.end = multi.end;
    res.verified = multi.devices[0].verified;
    res.mismatches = multi.devices[0].mismatches;
    return res;
}

void Runner::dispatch(std::size_t device_idx, const workload::GemmSpec& spec,
                      Placement place, bool verify)
{
    System& sys = *sys_;
    ensure(spec.m > 0 && spec.n > 0 && spec.k > 0, "degenerate GEMM spec");
    ensure(device_idx < sys.device_count(), "dispatch to device ",
           device_idx, " but the system has ", sys.device_count(),
           " endpoints");
    // One GEMM per endpoint per run: per-device DMA accounting reads the
    // device-wide stat delta, which two commands on one device would share.
    for (const PendingGemm& p : pending_) {
        ensure(p.device != device_idx, "device ", device_idx,
               " already has a dispatched GEMM in this batch");
    }

    const Addr a = sys.alloc_on(device_idx, place, spec.a_bytes());
    const Addr bt = sys.alloc_on(device_idx, place, spec.b_bytes());
    const Addr c = sys.alloc_on(device_idx, place, spec.c_bytes());
    const Addr flag = sys.alloc_host(64);
    const Addr desc = sys.alloc_host(64);

    sys.map_host_pages(flag, 8);
    sys.map_host_pages(desc, sizeof(accel::GemmCommand));
    if (place == Placement::host) {
        sys.map_host_pages(a, spec.a_bytes());
        sys.map_host_pages(bt, spec.b_bytes());
        sys.map_host_pages(c, spec.c_bytes());
    }

    PendingGemm p;
    p.device = device_idx;
    p.spec = spec;
    p.place = place;
    p.verify = verify;
    p.c = c;
    p.flag = flag;
    p.desc = desc;

    if (verify) {
        workload::init_gemm_data(sys.store(), spec, a, bt);
        p.golden = workload::gemm_golden(sys.store(), spec, a, bt);
    }

    p.cmd.flags =
        (verify ? accel::kCmdVerify : 0U) |
        (place == Placement::devmem ? accel::kCmdDataInDevMem : 0U);
    p.cmd.m = spec.m;
    p.cmd.n = spec.n;
    p.cmd.k = spec.k;
    p.cmd.addr_a = a;
    p.cmd.addr_b = bt;
    p.cmd.addr_c = c;
    p.cmd.flag_addr = flag;
    p.cmd.flag_value = 1;
    pending_.push_back(std::move(p));
}

MultiGemmResult Runner::run_dispatched()
{
    System& sys = *sys_;
    ensure(!pending_.empty(), "run_dispatched with nothing dispatched");

    // Failover armed: an active fault plan that allows more than one
    // attempt per job routes through the round-based health-tracked path.
    // Everything else (clean runs, single-attempt fault runs) takes the
    // classic single-round path below, unchanged.
    if (const FaultInjector* fi0 = sys.sim().fault_injector();
        fi0 != nullptr && fi0->plan().job_max_attempts > 1) {
        return run_failover(fi0->plan());
    }

    MultiGemmResult res;
    res.devices.resize(pending_.size());
    std::vector<std::uint64_t> dma_before(pending_.size());
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        res.devices[i].device = pending_[i].device;
        res.devices[i].spec = pending_[i].spec;
        dma_before[i] = dma_bytes(sys, pending_[i].device);
    }

    // The driver fills every descriptor, rings all doorbells back-to-back
    // (the devices start pulling operands immediately and contend on the
    // fabric), then polls each completion flag in dispatch order.
    std::vector<cpu::CpuOp> prog;
    prog.push_back(cpu::Call{[this, &sys, &res] {
        res.start = sys.sim().now();
        for (const PendingGemm& p : pending_) {
            sys.store().write_obj(p.desc, p.cmd);
        }
    }});
    for (const PendingGemm& p : pending_) {
        prog.push_back(cpu::MmioWrite{doorbell_addr(sys, p.device), p.desc});
    }
    // Fault runs bound each completion poll by the plan's job timeout so
    // one dead endpoint cannot wedge the whole batch.
    double job_timeout_ns = 0.0;
    const FaultInjector* fi = sys.sim().fault_injector();
    if (fi != nullptr) {
        job_timeout_ns = fi->plan().job_timeout_ns;
    }
    for (const PendingGemm& p : pending_) {
        prog.push_back(cpu::PollFlag{p.flag, p.cmd.flag_value,
                                     job_timeout_ns});
    }
    prog.push_back(cpu::Call{[&sys, &res] { res.end = sys.sim().now(); }});

    sys.host_cpu().run_program(std::move(prog), [&sys] {
        sys.sim().request_exit("dispatched gemms complete");
    });
    if (!restore_.empty()) {
        sys.sim().restore(std::exchange(restore_, {}));
    }
    const RunResult rr = run_with_stats_flush(sys, "run_dispatched");
    if (rr.cause == ExitCause::checkpointed) {
        res.checkpointed = true;
        res.end = rr.end_tick;
        pending_.clear();
        return res;
    }
    if (fi == nullptr) {
        // Liveness: a clean run that drains with the program unfinished is
        // a deadlock — report who still holds work instead of hanging.
        ensure(rr.cause == ExitCause::exit_requested,
               "GEMM run deadlocked: simulation drained at tick ",
               rr.end_tick, " with jobs outstanding; component occupancy:\n",
               sys.sim().occupancy_report());
    } else if (rr.cause != ExitCause::exit_requested) {
        // Graceful degradation: a fault run that drains mid-program still
        // reports per-job outcomes below (the flags tell timeouts apart).
        res.end = rr.end_tick;
    }

    for (std::size_t i = 0; i < pending_.size(); ++i) {
        const PendingGemm& p = pending_[i];
        // The flag itself is the ground truth for per-job success: a
        // timed-out poll leaves it unset while completed devices posted
        // theirs.
        const auto flag = sys.store().read_obj<std::uint64_t>(p.flag);
        if (flag != p.cmd.flag_value) {
            res.devices[i].status = JobStatus::timed_out;
            continue; // no done tick, no verify: the job never finished
        }
        res.devices[i].done =
            sys.accelerator(p.device).last_complete_tick();
        res.devices[i].dma_bytes =
            dma_bytes(sys, p.device) - dma_before[i];
        if (p.verify) {
            res.devices[i].mismatches =
                workload::gemm_check(sys.store(), p.spec, p.c, p.golden);
            res.devices[i].verified = res.devices[i].mismatches == 0;
        }
    }
    pending_.clear();
    return res;
}

std::string Runner::health_summary() const
{
    auto state_name = [](EndpointHealth h) {
        switch (h) {
        case EndpointHealth::healthy:
            return "healthy";
        case EndpointHealth::degraded:
            return "degraded";
        case EndpointHealth::quarantined:
            return "quarantined";
        }
        return "?";
    };
    std::string out = "endpoint health:\n";
    for (std::size_t ep = 0; ep < health_.size(); ++ep) {
        const EpHealth& h = health_[ep];
        out += "  ep" + std::to_string(ep) + ": " + state_name(h.state) +
               ", failures=" + std::to_string(h.failures_total) +
               " (consecutive " + std::to_string(h.consecutive_failures) +
               "), successes=" + std::to_string(h.successes_total) +
               " (consecutive " + std::to_string(h.consecutive_successes) +
               ")\n";
    }
    return out;
}

MultiGemmResult Runner::run_failover(const FaultPlan& plan)
{
    System& sys = *sys_;
    const std::size_t n_eps = sys.device_count();
    if (fleet_ == nullptr) {
        fleet_ = std::make_unique<FleetStats>(sys.stats());
    }
    if (health_.size() < n_eps) {
        health_.resize(n_eps);
    }

    MultiGemmResult res;
    res.devices.resize(pending_.size());
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        res.devices[i].device = pending_[i].device;
        res.devices[i].spec = pending_[i].spec;
    }

    // Jobs awaiting dispatch, in job order (deterministic round shapes).
    std::vector<std::size_t> backlog(pending_.size());
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        backlog[i] = i;
    }
    unsigned redispatch_budget = plan.fleet_retry_budget;
    bool first_round = true;

    auto fail_job = [&](std::size_t job) {
        res.devices[job].status = JobStatus::failed;
        ++fleet_->failures;
    };

    // Pick an endpoint for `job` this round. Returns the endpoint index,
    // -1 when the job must wait for a later round (its candidates are
    // claimed), or -2 when no endpoint can ever take it (pinned to a
    // quarantined device).
    auto pick_endpoint = [&](std::size_t job,
                             const std::vector<bool>& claimed)
        -> std::ptrdiff_t {
        const PendingGemm& p = pending_[job];
        if (p.place == Placement::devmem) {
            // Operands live in the original device's memory: pinned.
            if (health_[p.device].state == EndpointHealth::quarantined) {
                return -2;
            }
            return claimed[p.device]
                       ? -1
                       : static_cast<std::ptrdiff_t>(p.device);
        }
        const bool first_attempt = res.devices[job].attempts.empty();
        if (first_attempt &&
            health_[p.device].state != EndpointHealth::quarantined &&
            !claimed[p.device]) {
            return static_cast<std::ptrdiff_t>(p.device);
        }
        // Re-dispatch (or displaced first attempt): least-loaded healthy
        // endpoint, falling back to degraded (least_loaded ties break by
        // lowest index — see its contract note).
        for (const EndpointHealth want :
             {EndpointHealth::healthy, EndpointHealth::degraded}) {
            const std::ptrdiff_t best = least_loaded(health_, claimed, want);
            if (best >= 0) {
                return best;
            }
        }
        return -1; // usable endpoints exist but are claimed this round
    };

    while (!backlog.empty()) {
        bool any_usable = false;
        for (std::size_t ep = 0; ep < n_eps; ++ep) {
            any_usable |=
                health_[ep].state != EndpointHealth::quarantined;
        }
        ensure(any_usable, "fleet stalled: every endpoint is quarantined "
                           "with ",
               backlog.size(), " job(s) outstanding\n", health_summary(),
               "component occupancy:\n", sys.sim().occupancy_report());

        // Claim endpoints for this round: at most one job per endpoint, so
        // per-device DMA stat deltas attribute cleanly.
        struct Slot {
            std::size_t job;
            std::size_t ep;
        };
        std::vector<Slot> round;
        std::vector<bool> claimed(n_eps, false);
        std::vector<std::size_t> waiting;
        for (std::size_t job : backlog) {
            const std::ptrdiff_t ep = pick_endpoint(job, claimed);
            if (ep >= 0) {
                claimed[static_cast<std::size_t>(ep)] = true;
                round.push_back(Slot{job, static_cast<std::size_t>(ep)});
            } else if (ep == -1) {
                waiting.push_back(job);
            } else {
                fail_job(job); // pinned to a quarantined endpoint
            }
        }
        if (round.empty()) {
            // Nothing can run now or ever (the -1 case needs a claim, and
            // nothing claimed): abandon what's left.
            for (std::size_t job : waiting) {
                fail_job(job);
            }
            break;
        }
        ++fleet_->rounds;

        std::vector<std::uint64_t> dma_before(round.size());
        for (std::size_t s = 0; s < round.size(); ++s) {
            dma_before[s] = dma_bytes(sys, round[s].ep);
        }

        Tick round_start = 0;
        Tick round_end = 0;
        std::vector<cpu::CpuOp> prog;
        prog.push_back(cpu::Call{[this, &sys, &res, &round_start,
                                  first_round] {
            round_start = sys.sim().now();
            if (first_round) {
                res.start = round_start;
                for (const PendingGemm& p : pending_) {
                    sys.store().write_obj(p.desc, p.cmd);
                }
            }
        }});
        for (const Slot& s : round) {
            prog.push_back(cpu::MmioWrite{doorbell_addr(sys, s.ep),
                                          pending_[s.job].desc});
        }
        for (const Slot& s : round) {
            prog.push_back(cpu::PollFlag{pending_[s.job].flag,
                                         pending_[s.job].cmd.flag_value,
                                         plan.job_timeout_ns});
        }
        prog.push_back(cpu::Call{
            [&sys, &round_end] { round_end = sys.sim().now(); }});

        sys.host_cpu().run_program(std::move(prog), [&sys] {
            sys.sim().request_exit("dispatch round complete");
        });
        if (first_round && !restore_.empty()) {
            sys.sim().restore(std::exchange(restore_, {}));
        }
        first_round = false;

        RunResult rr;
        try {
            rr = run_with_stats_flush(sys, "run_dispatched(failover)");
        } catch (const SimError&) {
            std::cerr << health_summary();
            throw;
        }
        if (rr.cause == ExitCause::checkpointed) {
            res.checkpointed = true;
            res.end = rr.end_tick;
            pending_.clear();
            return res;
        }
        if (round_end == 0) {
            round_end = rr.end_tick; // drained mid-program (graceful path)
        }
        res.end = round_end;

        // Evaluate the round: the functional flag is ground truth (it is
        // only ever written at device run_complete()).
        std::vector<std::size_t> next_backlog;
        for (std::size_t s = 0; s < round.size(); ++s) {
            const Slot& slot = round[s];
            const PendingGemm& p = pending_[slot.job];
            DeviceGemmResult& d = res.devices[slot.job];
            const auto flag = sys.store().read_obj<std::uint64_t>(p.flag);
            const bool done = flag == p.cmd.flag_value;

            d.dma_bytes += dma_bytes(sys, slot.ep) - dma_before[s];
            d.attempts.push_back(JobAttempt{
                slot.ep, done ? JobStatus::ok : JobStatus::timed_out,
                round_start, round_end});

            if (done) {
                d.status = JobStatus::ok;
                d.done = sys.accelerator(slot.ep).last_complete_tick();
                health_success(slot.ep, plan);
                continue;
            }

            // Failure: update health with hysteresis, then reset the
            // endpoint (health_failure issues the FLR that drains whatever
            // wedged it and re-arms the link credits).
            health_failure(slot.ep, plan);
            ++res.flrs;

            if (d.attempts.size() >=
                static_cast<std::size_t>(plan.job_max_attempts)) {
                d.status = JobStatus::failed;
                ++fleet_->failures;
            } else if (redispatch_budget == 0) {
                d.status = JobStatus::failed;
                ++fleet_->failures;
            } else {
                --redispatch_budget;
                ++fleet_->redispatches;
                ++res.redispatches;
                next_backlog.push_back(slot.job);
            }
        }
        // Preserve job order: waiting jobs first (they were dispatched
        // earlier), then this round's retries.
        waiting.insert(waiting.end(), next_backlog.begin(),
                       next_backlog.end());
        std::sort(waiting.begin(), waiting.end());
        backlog = std::move(waiting);
    }

    res.health.resize(n_eps);
    for (std::size_t ep = 0; ep < n_eps; ++ep) {
        res.health[ep] = health_[ep].state;
    }
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        const PendingGemm& p = pending_[i];
        DeviceGemmResult& d = res.devices[i];
        if (d.status != JobStatus::ok) {
            continue;
        }
        if (p.verify) {
            d.mismatches =
                workload::gemm_check(sys.store(), p.spec, p.c, p.golden);
            d.verified = d.mismatches == 0;
        }
    }
    pending_.clear();
    return res;
}

std::ptrdiff_t Runner::least_loaded(const std::vector<EpHealth>& health,
                                    const std::vector<bool>& claimed,
                                    EndpointHealth want)
{
    // Ascending-index scan with a strict `<`: ties on load resolve to the
    // lowest endpoint index (topology order), so the pick is a pure
    // function of the health table.
    std::ptrdiff_t best = -1;
    std::uint64_t best_load = 0;
    for (std::size_t ep = 0; ep < health.size(); ++ep) {
        if (health[ep].state != want || claimed[ep]) {
            continue;
        }
        const std::uint64_t load =
            health[ep].failures_total + health[ep].successes_total;
        if (best < 0 || load < best_load) {
            best = static_cast<std::ptrdiff_t>(ep);
            best_load = load;
        }
    }
    return best;
}

void Runner::health_success(std::size_t ep, const FaultPlan& plan)
{
    EpHealth& h = health_[ep];
    h.consecutive_failures = 0;
    ++h.consecutive_successes;
    ++h.successes_total;
    if (h.state == EndpointHealth::degraded &&
        h.consecutive_successes >= plan.rehab_successes) {
        h.state = EndpointHealth::healthy;
        ++fleet_->rehabs;
    }
}

void Runner::health_failure(std::size_t ep, const FaultPlan& plan)
{
    EpHealth& h = health_[ep];
    h.consecutive_successes = 0;
    ++h.consecutive_failures;
    ++h.failures_total;
    if (h.state == EndpointHealth::healthy) {
        h.state = EndpointHealth::degraded;
        ++fleet_->degrades;
    }
    if (h.state == EndpointHealth::degraded &&
        h.consecutive_failures >= plan.quarantine_failures) {
        h.state = EndpointHealth::quarantined;
        ++fleet_->quarantines;
    }
    sys_->accelerator(ep).begin_flr(ticks_from_ns(plan.flr_ns));
    ++fleet_->flrs;
}

void Runner::serialize_serving(Ckpt& ar)
{
    std::uint8_t active = (serve_ != nullptr && serve_->active) ? 1 : 0;
    ar.pod(active);
    if (active == 0) {
        if (ar.loading() && serve_ != nullptr) {
            serve_->active = false;
        }
        return;
    }
    if (ar.loading() && serve_ == nullptr) {
        serve_ = std::make_unique<ServeState>();
    }
    ServeState& st = *serve_;
    st.active = true;
    ar.io(st.round_kind, st.idle_cycles, st.est_service_ticks,
          st.retry_budget, st.state, st.start, st.rounds, st.idle_rounds,
          st.redispatches, st.flrs);
    ar.pod_vec(st.ep_flag_value);
    ar.pod_vec(st.slots);
    ar.pod_vec(st.queue);
    ar.pod_vec(health_);
    std::uint64_t n = st.jobs.size();
    ar.pod(n);
    if (ar.loading()) {
        st.jobs.assign(static_cast<std::size_t>(n), ServedJob{});
    }
    for (ServedJob& j : st.jobs) {
        ar.io(j.id, j.tenant, j.spec, j.arrival, j.first_dispatch,
              j.last_dispatch, j.done, j.status, j.verified, j.mismatches);
        ar.pod_vec(j.attempts);
    }
}

namespace {

/// p-th percentile of `v` (sorted in place); the same index formula the
/// benches use, so reported numbers line up.
double percentile(std::vector<double>& v, std::size_t p)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t idx = v.size() * p / 100;
    return v[std::min(idx, v.size() - 1)];
}

} // namespace

ServingResult Runner::serve(workload::RequestGen& gen,
                            const ServingConfig& scfg)
{
    System& sys = *sys_;
    scfg.validate();
    ensure(pending_.empty(), "serve with ", pending_.size(),
           " GEMMs already dispatched; run them first");
    ensure(&gen.sim() == &sys.sim(),
           "RequestGen belongs to a different simulator");

    const std::size_t n_eps = sys.device_count();
    const auto& tenants = gen.config().tenants;
    const std::size_t n_tenants = tenants.size();

    // Compose with the active fault model exactly like run_dispatched():
    // the plan supplies timeouts, attempt counts and health thresholds. A
    // missing injector means the defaults (no timeout, one attempt).
    FaultPlan plan;
    const FaultInjector* fi = sys.sim().fault_injector();
    if (fi != nullptr) {
        plan = fi->plan();
    }

    if (health_.size() < n_eps) {
        health_.resize(n_eps);
    }
    if (fleet_ == nullptr) {
        fleet_ = std::make_unique<FleetStats>(sys.stats());
    }
    if (serving_ == nullptr) {
        serving_ = std::make_unique<ServingStats>(sys.stats());
    }
    for (std::size_t t = 0; t < n_tenants; ++t) {
        if (t < serving_->tenants.size()) {
            ensure(serving_->tenants[t]->group.prefix() ==
                       "runner.serving." + tenants[t].name,
                   "serve() tenant list changed between runs on one Runner");
        } else {
            serving_->tenants.push_back(
                std::make_unique<ServingStats::Tenant>(sys.stats(),
                                                       tenants[t].name));
        }
    }

    ServingResult res;
    if (gen.total() == 0) {
        res.start = res.end = sys.sim().now();
        res.tenants.resize(n_tenants);
        for (std::size_t t = 0; t < n_tenants; ++t) {
            res.tenants[t].name = tenants[t].name;
        }
        return res;
    }

    // Per-endpoint operand slots sized for the largest shape anywhere in
    // the schedule: operand memory is bounded no matter how long the
    // overload lasts (the admission queue holds ids, not buffers).
    std::uint64_t max_a = 0;
    std::uint64_t max_b = 0;
    std::uint64_t max_c = 0;
    for (const workload::Request& r : gen.schedule()) {
        max_a = std::max(max_a, r.spec.a_bytes());
        max_b = std::max(max_b, r.spec.b_bytes());
        max_c = std::max(max_c, r.spec.c_bytes());
    }
    struct EpSlot {
        Addr a = 0;
        Addr b = 0;
        Addr c = 0;
        Addr flag = 0;
        Addr desc = 0;
    };
    std::vector<EpSlot> slot_mem(n_eps);
    for (std::size_t ep = 0; ep < n_eps; ++ep) {
        EpSlot& s = slot_mem[ep];
        s.a = sys.alloc_host(max_a);
        s.b = sys.alloc_host(max_b);
        s.c = sys.alloc_host(max_c);
        s.flag = sys.alloc_host(64);
        s.desc = sys.alloc_host(64);
        sys.map_host_pages(s.a, max_a);
        sys.map_host_pages(s.b, max_b);
        sys.map_host_pages(s.c, max_c);
        sys.map_host_pages(s.flag, 8);
        sys.map_host_pages(s.desc, sizeof(accel::GemmCommand));
    }

    if (!serving_hook_armed_) {
        serving_hook_armed_ = true;
        sys.sim().add_ckpt_hook("runner.serving",
                                [this](Ckpt& ar) { serialize_serving(ar); });
    }

    const bool restoring = !restore_.empty();
    serve_ = std::make_unique<ServeState>();
    if (restoring) {
        // Peek the serving section out of the checkpoint before anything
        // runs: the saved in-flight round must be re-staged (identical
        // program shape, identical operand bytes) before Simulator::
        // restore() overwrites the CPU's pc and every component on top.
        Ckpt ar = Ckpt::load_file(restore_, sys.sim().config_hash());
        ar.begin_section("runner.serving");
        serialize_serving(ar);
        ar.end_section();
        ensure(serve_->active && serve_->round_kind != 0,
               "restored checkpoint holds no in-flight serving round");
    } else {
        serve_->active = true;
        serve_->retry_budget = plan.fleet_retry_budget;
        serve_->ep_flag_value.assign(n_eps, 0);
        serve_->start = sys.sim().now();
    }
    ServeState& st = *serve_;

    std::vector<std::size_t> queued_by_tenant(n_tenants, 0);
    for (const std::uint64_t id : st.queue) {
        ++queued_by_tenant[st.jobs[id].tenant];
    }

    // In-flight goldens, one per endpoint (slots are reused every round so
    // completed jobs verify immediately at round evaluation).
    std::vector<std::vector<std::int32_t>> golden(n_eps);
    auto round_end_tick = std::make_shared<Tick>(0);

    auto note_shed = [&](std::uint64_t id) {
        ServedJob& j = st.jobs[id];
        j.status = JobStatus::shed;
        ++serving_->shed;
        ++serving_->tenants[j.tenant]->shed;
        --queued_by_tenant[j.tenant];
    };

    auto exit_cb = [&sys] { sys.sim().request_exit("serving round done"); };

    // Materialize the round described by st.slots: operands, descriptors
    // and the driver program (descriptor-fill Call, doorbells, bounded
    // polls, end-sample Call). With `restaging` the dispatch-tick ledger
    // fields are left alone — the checkpoint already holds them, and this
    // fresh process' pre-restore now() would corrupt the SLO split.
    auto stage_dispatch = [&](bool restaging) {
        const Tick dispatched_at = sys.sim().now();
        std::vector<std::pair<Addr, accel::GemmCommand>> descs;
        for (const ServeSlot& s : st.slots) {
            ServedJob& j = st.jobs[s.job];
            const EpSlot& mem = slot_mem[s.ep];
            workload::init_gemm_data(sys.store(), j.spec, mem.a, mem.b);
            if (scfg.verify) {
                golden[s.ep] =
                    workload::gemm_golden(sys.store(), j.spec, mem.a, mem.b);
            }
            accel::GemmCommand cmd;
            cmd.flags = scfg.verify ? accel::kCmdVerify : 0U;
            cmd.m = j.spec.m;
            cmd.n = j.spec.n;
            cmd.k = j.spec.k;
            cmd.addr_a = mem.a;
            cmd.addr_b = mem.b;
            cmd.addr_c = mem.c;
            cmd.flag_addr = mem.flag;
            cmd.flag_value = s.flag_value;
            descs.emplace_back(mem.desc, cmd);
            if (!restaging) {
                if (j.attempts.empty()) {
                    j.first_dispatch = dispatched_at;
                }
                j.last_dispatch = dispatched_at;
            }
        }
        *round_end_tick = 0;
        std::vector<cpu::CpuOp> prog;
        prog.push_back(cpu::Call{[&sys, descs] {
            for (const auto& [addr, cmd] : descs) {
                sys.store().write_obj(addr, cmd);
            }
        }});
        for (const ServeSlot& s : st.slots) {
            prog.push_back(
                cpu::MmioWrite{doorbell_addr(sys, s.ep), slot_mem[s.ep].desc});
        }
        for (const ServeSlot& s : st.slots) {
            prog.push_back(cpu::PollFlag{slot_mem[s.ep].flag, s.flag_value,
                                         plan.job_timeout_ns});
        }
        prog.push_back(cpu::Call{[&sys, round_end_tick] {
            *round_end_tick = sys.sim().now();
        }});
        sys.host_cpu().run_program(std::move(prog), exit_cb);
    };

    // Empty-queue round: burn CPU cycles until just past the next arrival
    // so take_until() picks it up at the round boundary. The round-end
    // sample happens inside the program for the same reason as above.
    auto stage_idle = [&](bool restaging) {
        if (!restaging) {
            const Tick target = gen.next_arrival_tick();
            ensure(target != kMaxTick, "idle serving round with no arrival");
            const Tick now = sys.sim().now();
            const Tick period =
                period_from_ghz(sys.config().cpu.freq_ghz);
            st.idle_cycles =
                (target > now ? (target - now) / period : 0) + 2;
        }
        *round_end_tick = 0;
        std::vector<cpu::CpuOp> prog;
        prog.push_back(cpu::Delay{st.idle_cycles});
        prog.push_back(cpu::Call{[&sys, round_end_tick] {
            *round_end_tick = sys.sim().now();
        }});
        sys.host_cpu().run_program(std::move(prog), exit_cb);
    };

    // Fill st.slots from the queue head: deadline shedding first (policy
    // deadline_aware only), then least-loaded healthy endpoints, falling
    // back to degraded — the same selection (and the same lowest-index
    // tie-break) as run_failover re-dispatch. Returns false with an empty
    // queue (idle) and diagnoses a fully-quarantined fleet loudly.
    auto choose_slots = [&]() -> bool {
        st.slots.clear();
        std::vector<bool> claimed(n_eps, false);
        const Tick now = sys.sim().now();
        while (!st.queue.empty() && st.slots.size() < n_eps) {
            if (scfg.policy == ShedPolicy::deadline_aware &&
                st.est_service_ticks > 0) {
                while (!st.queue.empty()) {
                    const std::uint64_t id = st.queue.front();
                    const double dl = tenants[st.jobs[id].tenant].deadline_ns;
                    if (dl <= 0.0) {
                        break;
                    }
                    const Tick deadline =
                        st.jobs[id].arrival + ticks_from_ns(dl);
                    if (now + st.est_service_ticks <= deadline) {
                        break;
                    }
                    st.queue.erase(st.queue.begin());
                    note_shed(id);
                }
                if (st.queue.empty()) {
                    break;
                }
            }
            std::ptrdiff_t ep = -1;
            for (const EndpointHealth want :
                 {EndpointHealth::healthy, EndpointHealth::degraded}) {
                ep = least_loaded(health_, claimed, want);
                if (ep >= 0) {
                    break;
                }
            }
            if (ep < 0) {
                break; // every usable endpoint is claimed (or none usable)
            }
            const std::uint64_t id = st.queue.front();
            st.queue.erase(st.queue.begin());
            --queued_by_tenant[st.jobs[id].tenant];
            claimed[static_cast<std::size_t>(ep)] = true;
            st.slots.push_back(ServeSlot{
                id, static_cast<std::uint64_t>(ep),
                ++st.ep_flag_value[static_cast<std::size_t>(ep)]});
        }
        if (st.slots.empty() && !st.queue.empty()) {
            bool any_usable = false;
            for (std::size_t ep = 0; ep < n_eps; ++ep) {
                any_usable |=
                    health_[ep].state != EndpointHealth::quarantined;
            }
            ensure(any_usable,
                   "serving stalled: every endpoint is quarantined with ",
                   st.queue.size(), " job(s) queued\n", health_summary(),
                   "component occupancy:\n", sys.sim().occupancy_report());
        }
        return !st.slots.empty();
    };

    // Admission: every offered request enters the ledger and leaves it as
    // exactly one of admitted / rejected; a later shed or failure keeps
    // the entry — nothing is ever silently dropped.
    auto admit = [&](const workload::Request* r) {
        ensure(st.jobs.size() == r->id, "request ids must be dense");
        ServedJob j;
        j.id = r->id;
        j.tenant = r->tenant;
        j.spec = r->spec;
        j.arrival = r->arrival;
        st.jobs.push_back(std::move(j));
        ServingStats::Tenant& ts = *serving_->tenants[r->tenant];
        ++serving_->offered;
        ++ts.offered;
        const workload::TenantSpec& tn = tenants[r->tenant];
        if (tn.queue_quota > 0 &&
            queued_by_tenant[r->tenant] >= tn.queue_quota) {
            st.jobs.back().status = JobStatus::rejected;
            ++serving_->rejected;
            ++ts.rejected;
            return;
        }
        if (st.queue.size() >= scfg.queue_capacity) {
            if (scfg.policy == ShedPolicy::shed_oldest) {
                const std::uint64_t victim = st.queue.front();
                st.queue.erase(st.queue.begin());
                note_shed(victim);
            } else {
                st.jobs.back().status = JobStatus::rejected;
                ++serving_->rejected;
                ++ts.rejected;
                return;
            }
        }
        ++serving_->admitted;
        ++ts.admitted;
        st.queue.push_back(r->id);
        ++queued_by_tenant[r->tenant];
    };

    auto update_state = [&]() {
        const std::size_t depth = st.queue.size();
        ServingState next = ServingState::normal;
        if (depth >= scfg.shed_mark()) {
            next = ServingState::shedding;
        } else if (depth >= scfg.throttle_mark()) {
            next = ServingState::throttled;
        }
        if (next != static_cast<ServingState>(st.state)) {
            if (next == ServingState::throttled) {
                ++serving_->throttle_enters;
            }
            if (next == ServingState::shedding) {
                ++serving_->shed_enters;
            }
            st.state = static_cast<std::uint8_t>(next);
            serving_->state.set(static_cast<double>(st.state));
        }
        serving_->queue_depth.sample(static_cast<double>(depth));
    };

    bool staged = false;
    if (restoring) {
        if (st.round_kind == 1) {
            stage_dispatch(true);
        } else {
            stage_idle(true);
        }
        sys.sim().restore(std::exchange(restore_, {}));
        staged = true;
    }

    res.end = st.start;
    for (;;) {
        if (!staged) {
            if (choose_slots()) {
                st.round_kind = 1;
                stage_dispatch(false);
            } else if (!gen.exhausted()) {
                st.round_kind = 2;
                stage_idle(false);
            } else {
                break; // queue drained (or fully shed), schedule exhausted
            }
        }
        staged = false;

        RunResult rr;
        try {
            rr = run_with_stats_flush(sys, "serve");
        } catch (const SimError&) {
            std::cerr << health_summary();
            throw;
        }
        if (rr.cause == ExitCause::checkpointed) {
            res.checkpointed = true;
            res.start = st.start;
            res.end = rr.end_tick;
            res.offered = st.jobs.size();
            for (const ServedJob& j : st.jobs) {
                res.rejected += j.status == JobStatus::rejected;
                res.shed += j.status == JobStatus::shed;
                res.completed += j.status == JobStatus::ok;
                res.failed += j.status == JobStatus::failed;
            }
            res.admitted = res.offered - res.rejected;
            res.rounds = st.rounds;
            res.idle_rounds = st.idle_rounds;
            res.redispatches = st.redispatches;
            res.flrs = st.flrs;
            return res;
        }
        if (fi == nullptr) {
            ensure(rr.cause == ExitCause::exit_requested,
                   "serving round deadlocked: simulation drained at tick ",
                   rr.end_tick,
                   " with jobs outstanding; component occupancy:\n",
                   sys.sim().occupancy_report());
        }
        Tick round_end = *round_end_tick;
        if (round_end == 0) {
            round_end = rr.end_tick; // drained mid-program (fault path)
        }
        res.end = round_end;

        if (st.round_kind == 1) {
            ++st.rounds;
            ++serving_->rounds;
            ++fleet_->rounds;
        } else {
            ++st.idle_rounds;
            ++serving_->idle_rounds;
        }

        std::vector<std::uint64_t> retries;
        if (st.round_kind == 1) {
            for (const ServeSlot& s : st.slots) {
                ServedJob& j = st.jobs[s.job];
                ServingStats::Tenant& ts = *serving_->tenants[j.tenant];
                const std::size_t ep = static_cast<std::size_t>(s.ep);
                const auto flag =
                    sys.store().read_obj<std::uint64_t>(slot_mem[ep].flag);
                const bool done = flag == s.flag_value;
                j.attempts.push_back(JobAttempt{
                    ep, done ? JobStatus::ok : JobStatus::timed_out,
                    j.last_dispatch, round_end});
                if (done) {
                    j.status = JobStatus::ok;
                    j.done = sys.accelerator(ep).last_complete_tick();
                    health_success(ep, plan);
                    if (scfg.verify) {
                        j.mismatches = workload::gemm_check(
                            sys.store(), j.spec, slot_mem[ep].c, golden[ep]);
                        j.verified = j.mismatches == 0;
                        if (!j.verified) {
                            ++serving_->verify_failures;
                        }
                    }
                    const Tick service = j.done - j.last_dispatch;
                    const double queue_ns =
                        ticks_to_ns(j.first_dispatch - j.arrival);
                    const double service_ns = ticks_to_ns(service);
                    const double e2e_ns = ticks_to_ns(j.done - j.arrival);
                    ++serving_->completed;
                    ++ts.completed;
                    serving_->queue_ns.sample(queue_ns);
                    serving_->service_ns.sample(service_ns);
                    serving_->e2e_ns.sample(e2e_ns);
                    ts.queue_ns.sample(queue_ns);
                    ts.service_ns.sample(service_ns);
                    ts.e2e_ns.sample(e2e_ns);
                    // EMA of observed service time feeds deadline shedding.
                    st.est_service_ticks =
                        st.est_service_ticks == 0
                            ? service
                            : (st.est_service_ticks * 7 + service) / 8;
                } else {
                    health_failure(ep, plan);
                    ++st.flrs;
                    if (j.attempts.size() <
                            static_cast<std::size_t>(plan.job_max_attempts) &&
                        st.retry_budget > 0) {
                        --st.retry_budget;
                        ++st.redispatches;
                        ++serving_->retries;
                        ++fleet_->redispatches;
                        retries.push_back(s.job);
                    } else {
                        j.status = JobStatus::failed;
                        ++serving_->failed;
                        ++ts.failed;
                        ++fleet_->failures;
                    }
                }
            }
            st.slots.clear();
        }

        // Drain arrivals up to the round boundary (a tick sampled inside
        // the program — see the RequestGen determinism note), then put
        // retries back at the front: they are older than anything that
        // arrived this round.
        for (const workload::Request* r : gen.take_until(round_end)) {
            admit(r);
        }
        for (auto it = retries.rbegin(); it != retries.rend(); ++it) {
            st.queue.insert(st.queue.begin(), *it);
            ++queued_by_tenant[st.jobs[*it].tenant];
        }
        update_state();
        st.round_kind = 0;
    }

    // Finalize: the run is over, the ledger is total (no pending entries),
    // and the accounting identity must hold exactly.
    st.active = false;
    res.start = st.start;
    res.rounds = st.rounds;
    res.idle_rounds = st.idle_rounds;
    res.redispatches = st.redispatches;
    res.flrs = st.flrs;
    res.final_state = static_cast<ServingState>(st.state);
    res.health.resize(n_eps);
    for (std::size_t ep = 0; ep < n_eps; ++ep) {
        res.health[ep] = health_[ep].state;
    }
    res.jobs = std::move(st.jobs);

    res.tenants.resize(n_tenants);
    std::vector<std::vector<double>> qv(n_tenants);
    std::vector<std::vector<double>> sv(n_tenants);
    std::vector<std::vector<double>> ev(n_tenants);
    for (const ServedJob& j : res.jobs) {
        ensure(j.status != JobStatus::pending && j.status != JobStatus::timed_out,
               "serving ledger entry ", j.id, " left unaccounted");
        TenantSlo& slo = res.tenants[j.tenant];
        ++slo.offered;
        switch (j.status) {
        case JobStatus::ok:
            ++slo.admitted;
            ++slo.completed;
            qv[j.tenant].push_back(ticks_to_ns(j.first_dispatch - j.arrival));
            sv[j.tenant].push_back(ticks_to_ns(j.done - j.last_dispatch));
            ev[j.tenant].push_back(ticks_to_ns(j.done - j.arrival));
            break;
        case JobStatus::failed:
            ++slo.admitted;
            ++slo.failed;
            break;
        case JobStatus::shed:
            ++slo.admitted;
            ++slo.shed;
            break;
        case JobStatus::rejected:
            ++slo.rejected;
            break;
        default:
            break;
        }
    }
    const double horizon_s = ticks_to_sec(res.elapsed());
    for (std::size_t t = 0; t < n_tenants; ++t) {
        TenantSlo& slo = res.tenants[t];
        slo.name = tenants[t].name;
        slo.p50_queue_ns = percentile(qv[t], 50);
        slo.p99_queue_ns = percentile(qv[t], 99);
        slo.p50_service_ns = percentile(sv[t], 50);
        slo.p99_service_ns = percentile(sv[t], 99);
        slo.p50_e2e_ns = percentile(ev[t], 50);
        slo.p99_e2e_ns = percentile(ev[t], 99);
        slo.goodput_jobs_per_s =
            horizon_s > 0.0
                ? static_cast<double>(slo.completed) / horizon_s
                : 0.0;
        res.offered += slo.offered;
        res.admitted += slo.admitted;
        res.rejected += slo.rejected;
        res.shed += slo.shed;
        res.completed += slo.completed;
        res.failed += slo.failed;
        ServingStats::Tenant& ts = *serving_->tenants[t];
        ts.p50_queue_ns.set(slo.p50_queue_ns);
        ts.p99_queue_ns.set(slo.p99_queue_ns);
        ts.p50_service_ns.set(slo.p50_service_ns);
        ts.p99_service_ns.set(slo.p99_service_ns);
        ts.p50_e2e_ns.set(slo.p50_e2e_ns);
        ts.p99_e2e_ns.set(slo.p99_e2e_ns);
        ts.goodput.set(slo.goodput_jobs_per_s);
    }
    serving_->goodput.set(res.goodput_jobs_per_s());
    ensure(res.accounted(), "serving accounting broken: offered ",
           res.offered, " != admitted ", res.admitted, " + rejected ",
           res.rejected, " (or completed ", res.completed, " + shed ",
           res.shed, " + failed ", res.failed, " != admitted)");
    return res;
}

void Runner::restore_dispatched(const std::string& path)
{
    System& sys = *sys_;
    ensure(!pending_.empty(), "restore_dispatched with nothing dispatched");

    // Same op shape as run_dispatched(): one descriptor-fill Call, one
    // doorbell per job, one poll per job, one end-sample Call. The Calls
    // are stubs — the snapshot's restored store already holds the
    // descriptors, and nothing here will read the result fields.
    std::vector<cpu::CpuOp> prog;
    prog.push_back(cpu::Call{[] {}});
    for (const PendingGemm& p : pending_) {
        prog.push_back(cpu::MmioWrite{doorbell_addr(sys, p.device), p.desc});
    }
    double job_timeout_ns = 0.0;
    const FaultInjector* fi = sys.sim().fault_injector();
    if (fi != nullptr) {
        job_timeout_ns = fi->plan().job_timeout_ns;
    }
    for (const PendingGemm& p : pending_) {
        prog.push_back(cpu::PollFlag{p.flag, p.cmd.flag_value,
                                     job_timeout_ns});
    }
    prog.push_back(cpu::Call{[] {}});

    sys.host_cpu().run_program(std::move(prog), [&sys] {
        sys.sim().request_exit("dispatched gemms complete");
    });
    sys.sim().restore(path);
    pending_.clear();
}

VitRunResult Runner::run_vit(const workload::VitConfig& cfg, Placement place)
{
    System& sys = *sys_;
    const auto ops = workload::lower_vit(cfg);

    // Activation ping-pong buffers sized for the largest operand of any op.
    std::uint64_t act_a_bytes = 0;
    std::uint64_t act_c_bytes = 0;
    for (const auto& op : ops) {
        if (op.kind == workload::VitOp::Kind::gemm) {
            act_a_bytes = std::max(act_a_bytes, op.a_bytes());
            act_c_bytes = std::max(act_c_bytes, op.c_bytes());
        } else {
            act_c_bytes = std::max(act_c_bytes, op.bytes_in);
            act_a_bytes = std::max(act_a_bytes, op.bytes_out);
        }
    }

    const Addr act_a = sys.alloc(place, act_a_bytes);
    const Addr act_c = sys.alloc(place, act_c_bytes);
    const Addr flag = sys.alloc_host(64);
    const Addr desc = sys.alloc_host(64);
    sys.map_host_pages(flag, 8);
    sys.map_host_pages(desc, sizeof(accel::GemmCommand));
    if (place == Placement::host) {
        sys.map_host_pages(act_a, act_a_bytes);
        sys.map_host_pages(act_c, act_c_bytes);
    }

    // Distinct weights per GEMM (real models never reuse them).
    std::vector<Addr> weights;
    weights.reserve(ops.size());
    for (const auto& op : ops) {
        if (op.kind == workload::VitOp::Kind::gemm) {
            const Addr w = sys.alloc(place, op.b_bytes());
            if (place == Placement::host) {
                sys.map_host_pages(w, op.b_bytes());
            }
            weights.push_back(w);
        } else {
            weights.push_back(0);
        }
    }

    VitRunResult res;
    // `mark` lives on the heap: the program outlives this stack frame only
    // within run(), but shared_ptr keeps the lambdas self-contained.
    auto mark = std::make_shared<Tick>(0);

    std::vector<cpu::CpuOp> prog;
    prog.push_back(
        cpu::Call{[&sys, &res] { res.start = sys.sim().now(); }});

    std::uint64_t flag_value = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto& op = ops[i];
        if (op.kind == workload::VitOp::Kind::gemm) {
            ++flag_value;
            accel::GemmCommand cmd;
            cmd.flags =
                place == Placement::devmem ? accel::kCmdDataInDevMem : 0U;
            cmd.m = op.m;
            cmd.n = op.n;
            cmd.k = op.k;
            cmd.addr_a = act_a;
            cmd.addr_b = weights[i];
            cmd.addr_c = act_c;
            cmd.flag_addr = flag;
            cmd.flag_value = flag_value;

            prog.push_back(cpu::Call{[&sys, mark, desc, cmd] {
                *mark = sys.sim().now();
                sys.store().write_obj(desc, cmd);
            }});
            prog.push_back(cpu::MmioWrite{doorbell_addr(sys), desc});
            prog.push_back(cpu::PollFlag{flag, flag_value});
            prog.push_back(cpu::Call{[&sys, &res, mark] {
                res.gemm_ticks += sys.sim().now() - *mark;
                ++res.gemm_cmds;
            }});
        } else {
            cpu::VectorOp vop;
            vop.label = op.label;
            vop.in_addr = act_c;
            vop.bytes_in = op.bytes_in;
            vop.out_addr = act_a;
            vop.bytes_out = op.bytes_out;
            vop.alu_ops = op.alu_ops;

            prog.push_back(cpu::Call{
                [&sys, mark] { *mark = sys.sim().now(); }});
            prog.push_back(std::move(vop));
            prog.push_back(cpu::Call{[&sys, &res, mark] {
                res.nongemm_ticks += sys.sim().now() - *mark;
                ++res.vector_ops;
            }});
        }
    }
    prog.push_back(cpu::Call{[&sys, &res] { res.end = sys.sim().now(); }});

    sys.host_cpu().run_program(std::move(prog), [&sys] {
        sys.sim().request_exit("vit complete");
    });
    if (!restore_.empty()) {
        sys.sim().restore(std::exchange(restore_, {}));
    }
    const RunResult rr = run_with_stats_flush(sys, "run_vit");
    if (rr.cause == ExitCause::checkpointed) {
        res.end = rr.end_tick;
        return res;
    }
    ensure(rr.cause == ExitCause::exit_requested,
           "ViT run deadlocked: simulation drained at tick ", rr.end_tick,
           " with jobs outstanding; component occupancy:\n",
           sys.sim().occupancy_report());
    return res;
}

} // namespace accesys::core
