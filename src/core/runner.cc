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

/// pick_endpoint() outcomes besides an endpoint index.
constexpr std::ptrdiff_t kWait = -1;  ///< usable endpoints claimed this round
constexpr std::ptrdiff_t kNever = -2; ///< pinned to a quarantined endpoint

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

/// The command descriptor for `spec` over operands at a / bt (B
/// transposed) / c, posting `flag_value` to `flag` when done.
accel::GemmCommand gemm_command(const workload::GemmSpec& spec,
                                std::uint32_t flags, Addr a, Addr bt,
                                Addr c, Addr flag, std::uint64_t flag_value)
{
    accel::GemmCommand cmd;
    cmd.flags = flags;
    cmd.m = spec.m;
    cmd.n = spec.n;
    cmd.k = spec.k;
    cmd.addr_a = a;
    cmd.addr_b = bt;
    cmd.addr_c = c;
    cmd.flag_addr = flag;
    cmd.flag_value = flag_value;
    return cmd;
}

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

/// serve()'s layer over the round engine: per-endpoint operand slots,
/// admission with quotas and overload policy, deadline shedding,
/// watermarks and per-tenant SLO accounting. One per serve() call; all
/// of its state that must survive a checkpoint lives in Runner::rounds_.
struct Runner::Serve {
    /// One endpoint's operand slot: every round reuses it, so operand
    /// memory stays bounded however long the overload lasts.
    struct Mem {
        Addr a = 0;
        Addr b = 0;
        Addr c = 0;
        Addr flag = 0;
        Addr desc = 0;
    };

    Runner& rn;
    workload::RequestGen& gen;
    const ServingConfig& scfg;
    const std::vector<workload::TenantSpec>& tenants;
    std::vector<Mem> mem;
    /// Reused by every admission: this round's arrivals and the queued
    /// jobs per tenant, so admission allocates nothing per round.
    std::vector<workload::Request> arrivals;
    std::vector<std::size_t> queued;

    /// Deadline shedding (policy deadline_aware): `id`'s SLO is already
    /// blown given the observed service time.
    [[nodiscard]] bool past_deadline(std::uint64_t id) const
    {
        const Rounds& r = rn.rounds_;
        const double dl = tenants[r.jobs[id].tenant].deadline_ns;
        return scfg.policy == ShedPolicy::deadline_aware &&
               r.est_service_ticks > 0 && dl > 0.0 &&
               rn.sys_->sim().now() + r.est_service_ticks >
                   r.jobs[id].arrival + ticks_from_ns(dl);
    }

    void shed(std::uint64_t id)
    {
        ServedJob& j = rn.rounds_.jobs[id];
        j.status = JobStatus::shed;
        ++rn.serving_->shed;
        ++rn.serving_->tenants[j.tenant]->shed;
    }

    /// Point slot `s` at its endpoint's operand slot and next flag value;
    /// stamp the ledger's dispatch ticks.
    void bind(Slot& s)
    {
        Rounds& r = rn.rounds_;
        const Mem& m = mem[s.ep];
        s.flag = m.flag;
        s.desc = m.desc;
        s.flag_value = ++r.ep_flag_value[s.ep];
        ServedJob& j = r.jobs[s.job];
        const Tick now = rn.sys_->sim().now();
        if (j.attempts.empty()) {
            j.first_dispatch = now;
        }
        j.last_dispatch = now;
    }

    /// Write `s`'s operands into its endpoint slot; returns the command
    /// descriptor.
    accel::GemmCommand stage(const Slot& s)
    {
        const ServedJob& j = rn.rounds_.jobs[s.job];
        const Mem& m = mem[s.ep];
        workload::init_gemm_data(rn.sys_->store(), j.spec, m.a, m.b);
        return gemm_command(j.spec, scfg.verify ? accel::kCmdVerify : 0U,
                            m.a, m.b, m.c, m.flag, s.flag_value);
    }

    /// A job finished: account its SLO split.
    void completed(const ServedJob& j)
    {
        ServingStats& st = *rn.serving_;
        ServingStats::Tenant& ts = *st.tenants[j.tenant];
        const Tick service = j.done - j.last_dispatch;
        const double queue_ns = ticks_to_ns(j.first_dispatch - j.arrival);
        const double service_ns = ticks_to_ns(service);
        const double e2e_ns = ticks_to_ns(j.done - j.arrival);
        ++st.completed;
        ++ts.completed;
        st.queue_ns.sample(queue_ns);
        st.service_ns.sample(service_ns);
        st.e2e_ns.sample(e2e_ns);
        ts.queue_ns.sample(queue_ns);
        ts.service_ns.sample(service_ns);
        ts.e2e_ns.sample(e2e_ns);
        // EMA of observed service time feeds deadline shedding.
        std::uint64_t& est = rn.rounds_.est_service_ticks;
        est = est == 0 ? service : (est * 7 + service) / 8;
    }

    /// Empty queue: set up an idle round that burns CPU cycles until just
    /// past the next arrival, so admit_until() picks it up at the round
    /// boundary. False when the schedule is exhausted.
    bool idle()
    {
        if (gen.exhausted()) {
            return false;
        }
        const Tick target = gen.next_arrival_tick();
        ensure(target != kMaxTick, "idle serving round with no arrival");
        const Tick now = rn.sys_->sim().now();
        const Tick period = period_from_ghz(rn.sys_->config().cpu.freq_ghz);
        rn.rounds_.idle_cycles =
            (target > now ? (target - now) / period : 0) + 2;
        return true;
    }

    /// Admission of every arrival up to the round boundary `t` (a tick
    /// sampled inside the program — see the RequestGen determinism
    /// note). Every offered request enters the ledger and leaves it as
    /// exactly one of admitted / rejected; a later shed or failure keeps
    /// the entry — nothing is ever silently dropped.
    void admit_until(Tick t)
    {
        Rounds& r = rn.rounds_;
        ServingStats& st = *rn.serving_;
        queued.assign(tenants.size(), 0);
        for (const std::uint64_t id : r.queue) {
            ++queued[r.jobs[id].tenant];
        }
        gen.take_until(t, arrivals);
        for (const workload::Request& q : arrivals) {
            ensure(r.jobs.size() == q.id, "request ids must be dense");
            ServedJob j;
            j.id = q.id;
            j.tenant = q.tenant;
            j.spec = q.spec;
            j.arrival = q.arrival;
            r.jobs.push_back(std::move(j));
            ServingStats::Tenant& ts = *st.tenants[q.tenant];
            ++st.offered;
            ++ts.offered;
            const workload::TenantSpec& tn = tenants[q.tenant];
            const bool over_quota =
                tn.queue_quota > 0 && queued[q.tenant] >= tn.queue_quota;
            const bool full = r.queue.size() >= scfg.queue_capacity;
            if (over_quota ||
                (full && scfg.policy != ShedPolicy::shed_oldest)) {
                r.jobs.back().status = JobStatus::rejected;
                ++st.rejected;
                ++ts.rejected;
                continue;
            }
            if (full) {
                const std::uint64_t victim = r.queue.front();
                r.queue.erase(r.queue.begin());
                --queued[r.jobs[victim].tenant];
                shed(victim);
            }
            ++st.admitted;
            ++ts.admitted;
            r.queue.push_back(q.id);
            ++queued[q.tenant];
        }
    }

    /// Watermark state machine on the queue depth, sampled per round.
    void update_state()
    {
        Rounds& r = rn.rounds_;
        ServingStats& st = *rn.serving_;
        const std::size_t depth = r.queue.size();
        ServingState next = ServingState::normal;
        if (depth >= scfg.shed_mark()) {
            next = ServingState::shedding;
        } else if (depth >= scfg.throttle_mark()) {
            next = ServingState::throttled;
        }
        if (next != static_cast<ServingState>(r.state)) {
            if (next == ServingState::throttled) {
                ++st.throttle_enters;
            }
            if (next == ServingState::shedding) {
                ++st.shed_enters;
            }
            r.state = static_cast<std::uint8_t>(next);
            st.state.set(static_cast<double>(r.state));
        }
        st.queue_depth.sample(static_cast<double>(depth));
    }
};

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
    }

    p.cmd = gemm_command(
        spec,
        (verify ? accel::kCmdVerify : 0U) |
            (place == Placement::devmem ? accel::kCmdDataInDevMem : 0U),
        a, bt, c, flag, 1);
    pending_.push_back(std::move(p));
}

MultiGemmResult Runner::run_dispatched()
{
    ensure(!pending_.empty(), "run_dispatched with nothing dispatched");
    const FaultPlan plan = begin_rounds(false);
    MultiGemmResult res;
    res.checkpointed = !run_rounds(plan, nullptr);
    checker_ = {};

    const Rounds& r = rounds_;
    res.start = std::min(r.start, r.round_end);
    res.end = r.round_end;
    res.devices.resize(pending_.size());
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        const ServedJob& j = r.jobs[i];
        DeviceGemmResult& d = res.devices[i];
        d.device = pending_[i].device;
        d.spec = j.spec;
        d.status = j.status;
        d.attempts = j.attempts;
        d.done = j.done;
        d.verified = j.verified;
        d.mismatches = j.mismatches;
        d.dma_bytes = r.dma[i];
    }
    if (r.armed) {
        for (const EpHealth& h : health_) {
            res.health.push_back(h.state);
        }
        res.redispatches = r.redispatches;
        res.flrs = r.flrs;
    }
    pending_.clear();
    return res;
}

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
    const FaultPlan plan = begin_rounds(true);
    Rounds& r = rounds_;
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
        r.active = false;
        res.start = res.end = sys.sim().now();
        res.tenants.resize(n_tenants);
        for (std::size_t t = 0; t < n_tenants; ++t) {
            res.tenants[t].name = tenants[t].name;
        }
        return res;
    }

    // The ledger gets one entry per offered request: size it once.
    r.jobs.reserve(gen.total());
    // Per-endpoint operand slots sized for the largest shape anywhere in
    // the stream: operand memory is bounded no matter how long the
    // overload lasts (the admission queue holds ids, not buffers).
    const workload::OperandBytes& max = gen.largest();
    Serve srv{*this, gen, scfg, tenants, {}, {}, {}};
    srv.mem.resize(n_eps);
    for (Serve::Mem& m : srv.mem) {
        m.a = sys.alloc_host(max.a);
        m.b = sys.alloc_host(max.b);
        m.c = sys.alloc_host(max.c);
        m.flag = sys.alloc_host(64);
        m.desc = sys.alloc_host(64);
        sys.map_host_pages(m.a, max.a);
        sys.map_host_pages(m.b, max.b);
        sys.map_host_pages(m.c, max.c);
        sys.map_host_pages(m.flag, 8);
        sys.map_host_pages(m.desc, sizeof(accel::GemmCommand));
    }
    if (restore_.empty()) {
        r.start = r.round_end = sys.sim().now();
        r.ep_flag_value.assign(n_eps, 0);
    }

    res.checkpointed = !run_rounds(plan, &srv);
    checker_ = {};
    res.start = r.start;
    res.end = r.round_end;
    res.rounds = r.rounds;
    res.idle_rounds = r.idle_rounds;
    res.redispatches = r.redispatches;
    res.flrs = r.flrs;

    // Account the ledger per tenant. A finished run's ledger is total (no
    // pending entries) and the accounting identity must hold exactly; a
    // checkpointed one reports only the totals so far.
    res.tenants.resize(n_tenants);
    std::vector<std::vector<double>> qv(n_tenants);
    std::vector<std::vector<double>> sv(n_tenants);
    std::vector<std::vector<double>> ev(n_tenants);
    for (const ServedJob& j : r.jobs) {
        ensure(res.checkpointed || (j.status != JobStatus::pending &&
                                    j.status != JobStatus::timed_out),
               "serving ledger entry ", j.id, " left unaccounted");
        TenantSlo& slo = res.tenants[j.tenant];
        ++slo.offered;
        slo.admitted += j.status != JobStatus::rejected;
        slo.rejected += j.status == JobStatus::rejected;
        slo.shed += j.status == JobStatus::shed;
        slo.failed += j.status == JobStatus::failed;
        if (j.ok()) {
            ++slo.completed;
            qv[j.tenant].push_back(ticks_to_ns(j.first_dispatch - j.arrival));
            sv[j.tenant].push_back(ticks_to_ns(j.done - j.last_dispatch));
            ev[j.tenant].push_back(ticks_to_ns(j.done - j.arrival));
        }
    }
    for (const TenantSlo& slo : res.tenants) {
        res.offered += slo.offered;
        res.admitted += slo.admitted;
        res.rejected += slo.rejected;
        res.shed += slo.shed;
        res.completed += slo.completed;
        res.failed += slo.failed;
    }
    if (res.checkpointed) {
        res.tenants.clear();
        return res;
    }
    res.final_state = static_cast<ServingState>(r.state);
    res.jobs = std::move(r.jobs);
    res.health.resize(n_eps);
    for (std::size_t ep = 0; ep < n_eps; ++ep) {
        res.health[ep] = health_[ep].state;
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

FaultPlan Runner::begin_rounds(bool serving)
{
    System& sys = *sys_;
    const FaultInjector* fi = sys.sim().fault_injector();
    const FaultPlan plan = fi != nullptr ? fi->plan() : FaultPlan{};
    // Failover is armed by an active plan that allows more than one
    // attempt per job. A single-attempt run reports its timeouts as they
    // are: no health tracking, no FLR, no fleet stats.
    const bool armed =
        serving || (fi != nullptr && plan.job_max_attempts > 1);
    if (armed && fleet_ == nullptr) {
        fleet_ = std::make_unique<FleetStats>(sys.stats());
    }
    if (health_.size() < sys.device_count()) {
        health_.resize(sys.device_count());
    }
    if (!hook_armed_) {
        hook_armed_ = true;
        sys.sim().add_ckpt_hook("runner.rounds",
                                [this](Ckpt& ar) { serialize_rounds(ar); });
    }
    if (!restore_.empty()) {
        // Peek the round state out of the checkpoint before anything runs:
        // the saved in-flight round must be re-staged (identical program
        // shape, identical operand bytes) before Simulator::restore()
        // overwrites the CPU's pc and every component on top.
        Ckpt ar = Ckpt::load_file(restore_, sys.sim().config_hash());
        ar.begin_section("runner.rounds");
        serialize_rounds(ar);
        ar.end_section();
        ensure(rounds_.active && rounds_.kind != 0 &&
                   rounds_.serving == serving &&
                   (serving || rounds_.jobs.size() == pending_.size()),
               "restored checkpoint holds no in-flight round of this ",
               serving ? "serve()" : "run_dispatched()");
        return plan;
    }
    Rounds& r = rounds_ = Rounds{};
    r.active = true;
    r.armed = armed;
    r.serving = serving;
    r.retry_budget = plan.fleet_retry_budget;
    // A batch is every dispatched job arriving at t0, in dispatch order.
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        ServedJob j;
        j.id = i;
        j.spec = pending_[i].spec;
        r.jobs.push_back(std::move(j));
        r.queue.push_back(i);
    }
    r.dma.assign(pending_.size(), 0);
    return plan;
}

bool Runner::run_rounds(const FaultPlan& plan, Serve* srv)
{
    Rounds& r = rounds_;
    const bool may_drain = sys_->sim().fault_injector() != nullptr;
    bool staged = false;
    if (!restore_.empty()) {
        stage_round(plan.job_timeout_ns, srv);
        sys_->sim().restore(std::exchange(restore_, {}));
        staged = true;
    }
    for (;;) {
        if (!staged) {
            if (choose_slots(srv)) {
                r.kind = 1;
            } else {
                // An empty round with jobs queued means every endpoint is
                // quarantined: diagnose instead of spinning.
                if (!r.queue.empty()) {
                    throw SimError(strcat_msg(
                        "fleet stalled: every endpoint is quarantined with ",
                        r.queue.size(), " job(s) queued\n", health_summary(),
                        "component occupancy:\n",
                        sys_->sim().occupancy_report()));
                }
                if (srv == nullptr || !srv->idle()) {
                    break; // queue drained and no arrival left
                }
                r.kind = 2;
            }
            stage_round(plan.job_timeout_ns, srv);
        }
        staged = false;

        if (!run_staged(srv != nullptr ? "serve" : "run_dispatched",
                        may_drain, r.round_end)) {
            return false;
        }
        std::vector<std::uint64_t> retries;
        if (r.kind == 1) {
            retries = evaluate_round(plan, srv);
        } else {
            ++r.idle_rounds;
            ++serving_->idle_rounds;
        }
        if (srv != nullptr) {
            srv->admit_until(r.round_end);
        }
        // Retries rejoin the queue in job order, ahead of anything that
        // arrived this round (the queue is ascending by job id).
        r.queue.insert(r.queue.end(), retries.begin(), retries.end());
        std::inplace_merge(r.queue.begin(),
                           r.queue.end() -
                               static_cast<std::ptrdiff_t>(retries.size()),
                           r.queue.end());
        if (srv != nullptr) {
            srv->update_state();
        }
        r.kind = 0;
    }
    r.active = false;
    return true;
}

bool Runner::choose_slots(Serve* srv)
{
    Rounds& r = rounds_;
    const std::size_t n_eps = health_.size();
    std::vector<bool> claimed(n_eps, false);
    r.slots.clear();
    // At most one job per endpoint per round, so per-device DMA stat
    // deltas attribute cleanly and flag sequences stay per endpoint.
    for (std::size_t i = 0; i < r.queue.size() && r.slots.size() < n_eps;) {
        const std::uint64_t job = r.queue[i];
        const auto at = r.queue.begin() + static_cast<std::ptrdiff_t>(i);
        if (srv != nullptr && srv->past_deadline(job)) {
            r.queue.erase(at);
            srv->shed(job);
            continue;
        }
        const std::ptrdiff_t ep = pick_endpoint(job, claimed);
        if (ep == kWait) {
            if (srv != nullptr) {
                break; // serving jobs are unpinned: nothing else fits
            }
            ++i;
            continue;
        }
        r.queue.erase(at);
        if (ep == kNever) {
            r.jobs[job].status = JobStatus::failed;
            ++fleet_->failures;
            continue;
        }
        const auto e = static_cast<std::size_t>(ep);
        claimed[e] = true;
        Slot s;
        s.job = job;
        s.ep = e;
        if (srv != nullptr) {
            srv->bind(s);
        } else {
            const PendingGemm& p = pending_[job];
            s.flag = p.flag;
            s.flag_value = p.cmd.flag_value;
            s.desc = p.desc;
            s.dma_before = dma_bytes(*sys_, e);
        }
        r.slots.push_back(s);
    }
    return !r.slots.empty();
}

std::ptrdiff_t Runner::pick_endpoint(std::uint64_t job,
                                     const std::vector<bool>& claimed) const
{
    if (!rounds_.serving) {
        // A batch job starts on the endpoint it was dispatched to, and
        // device-memory operands pin it there for every attempt.
        const PendingGemm& p = pending_[job];
        const bool usable =
            !rounds_.armed ||
            health_[p.device].state != EndpointHealth::quarantined;
        const bool free = usable && !claimed[p.device];
        const auto home = static_cast<std::ptrdiff_t>(p.device);
        if (p.place == Placement::devmem) {
            return !usable ? kNever : free ? home : kWait;
        }
        if (free && rounds_.jobs[job].attempts.empty()) {
            return home;
        }
    }
    // Serving jobs, re-dispatches and displaced first attempts: the
    // least-loaded healthy endpoint, falling back to degraded (ties break
    // by lowest index — see least_loaded's contract note).
    for (const EndpointHealth want :
         {EndpointHealth::healthy, EndpointHealth::degraded}) {
        const std::ptrdiff_t best = least_loaded(health_, claimed, want);
        if (best >= 0) {
            return best;
        }
    }
    return kWait;
}

void Runner::stage_round(double timeout_ns, Serve* srv)
{
    System& sys = *sys_;
    const Rounds& r = rounds_;
    std::vector<std::pair<Addr, accel::GemmCommand>> descs;
    for (const Slot& s : r.slots) {
        descs.emplace_back(s.desc, srv != nullptr ? srv->stage(s)
                                                  : pending_[s.job].cmd);
    }
    // The driver fills the round's descriptors, rings every doorbell
    // back-to-back (the devices start pulling operands immediately and
    // contend on the fabric), then polls each completion flag in slot
    // order, each poll bounded by the plan's job timeout so one dead
    // endpoint cannot wedge the round. An idle round only waits. Both
    // round ticks are sampled inside the program: a checkpoint restores
    // them with the rest of the round state.
    std::vector<cpu::CpuOp> prog;
    prog.push_back(cpu::Call{[this, descs = std::move(descs)] {
        Rounds& rr = rounds_;
        rr.round_start = sys_->sim().now();
        rr.start = std::min(rr.start, rr.round_start);
        for (const auto& [addr, cmd] : descs) {
            sys_->store().write_obj(addr, cmd);
        }
    }});
    if (r.kind == 2) {
        prog.push_back(cpu::Delay{r.idle_cycles});
    }
    for (const Slot& s : r.slots) {
        prog.push_back(cpu::MmioWrite{doorbell_addr(sys, s.ep), s.desc});
    }
    for (const Slot& s : r.slots) {
        prog.push_back(cpu::PollFlag{s.flag, s.flag_value, timeout_ns});
    }
    prog.push_back(
        cpu::Call{[this] { rounds_.round_end = sys_->sim().now(); }});
    sys.host_cpu().run_program(std::move(prog), [&sys] {
        sys.sim().request_exit("round complete");
    });
}

std::vector<std::uint64_t> Runner::evaluate_round(const FaultPlan& plan,
                                                  Serve* srv)
{
    System& sys = *sys_;
    Rounds& r = rounds_;
    ++r.rounds;
    if (r.armed) {
        ++fleet_->rounds;
    }
    if (srv != nullptr) {
        ++serving_->rounds;
    }
    std::vector<std::uint64_t> retries;
    for (const Slot& s : r.slots) {
        ServedJob& j = r.jobs[s.job];
        const auto ep = static_cast<std::size_t>(s.ep);
        // The functional flag is ground truth: the device only writes it
        // at run_complete(), and a timed-out poll leaves it unset.
        const bool done =
            sys.store().read_obj<std::uint64_t>(s.flag) == s.flag_value;
        j.attempts.push_back(
            JobAttempt{ep, done ? JobStatus::ok : JobStatus::timed_out,
                       r.round_start, r.round_end});
        if (srv == nullptr) {
            r.dma[s.job] += dma_bytes(sys, ep) - s.dma_before;
        }
        if (done) {
            j.status = JobStatus::ok;
            j.done = sys.accelerator(ep).last_complete_tick();
            if (r.armed) {
                health_success(ep, plan);
            }
            if (srv != nullptr) {
                srv->completed(j);
            }
            continue;
        }
        if (!r.armed) {
            j.status = JobStatus::timed_out; // single attempt, no recovery
            continue;
        }
        // Failure: update health with hysteresis, then reset the endpoint
        // (health_failure issues the FLR that drains whatever wedged it
        // and re-arms the link credits), then retry within the per-job
        // attempt cap and the fleet-wide budget.
        health_failure(ep, plan);
        ++r.flrs;
        if (j.attempts.size() < plan.job_max_attempts &&
            r.retry_budget > 0) {
            --r.retry_budget;
            ++r.redispatches;
            ++fleet_->redispatches;
            if (srv != nullptr) {
                ++serving_->retries;
            }
            retries.push_back(s.job);
        } else {
            j.status = JobStatus::failed;
            ++fleet_->failures;
            if (srv != nullptr) {
                ++serving_->failed;
                ++serving_->tenants[j.tenant]->failed;
            }
        }
    }
    // Verify this round's completions once every slot is judged: a check
    // reads only C and moves no simulated state. The checker's buffers are
    // then the round's newest allocation, so releasing them when the run
    // ends frees memory that nothing live sits above (measured: without
    // this order, gemm_host_4ep's peak RSS grew by about their size).
    for (const Slot& s : r.slots) {
        ServedJob& j = r.jobs[s.job];
        const bool verify =
            srv != nullptr ? srv->scfg.verify : pending_[s.job].verify;
        if (j.status != JobStatus::ok || !verify) {
            continue;
        }
        const Addr c = srv != nullptr ? srv->mem[s.ep].c : pending_[s.job].c;
        j.mismatches = checker_.check(sys.store(), j.spec, c);
        j.verified = j.mismatches == 0;
        if (srv != nullptr && !j.verified) {
            ++serving_->verify_failures;
        }
    }
    r.slots.clear();
    return retries;
}

bool Runner::run_staged(const char* what, bool may_drain, Tick& end)
{
    System& sys = *sys_;
    RunResult rr;
    try {
        rr = sys.sim().run();
    } catch (const SimError&) {
        std::cerr << "accesys: SimError during " << what << " at tick "
                  << sys.sim().now() << "; partial stats dump follows\n";
        sys.stats().write_text(std::cerr);
        if (fleet_ != nullptr) {
            std::cerr << health_summary();
        }
        throw;
    }
    if (rr.cause != ExitCause::exit_requested) {
        end = rr.end_tick;
    }
    if (rr.cause == ExitCause::checkpointed) {
        return false;
    }
    // Liveness: a run that drains with the program unfinished is a
    // deadlock — report who still holds work instead of hanging. Fault
    // runs may drain mid-program; their flags tell timeouts apart.
    if (!may_drain && rr.cause != ExitCause::exit_requested) {
        throw SimError(strcat_msg(
            what, " deadlocked: simulation drained at tick ", rr.end_tick,
            " with jobs outstanding; component occupancy:\n",
            sys.sim().occupancy_report()));
    }
    return true;
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

void Runner::serialize_rounds(Ckpt& ar)
{
    Rounds& r = rounds_;
    ar.io(r.active);
    if (!r.active) {
        return;
    }
    ar.io(r.armed, r.serving, r.kind, r.start, r.round_start, r.round_end,
          r.idle_cycles, r.est_service_ticks, r.retry_budget, r.state,
          r.rounds, r.idle_rounds, r.redispatches, r.flrs);
    ar.pod_vec(r.ep_flag_value);
    ar.pod_vec(r.dma);
    ar.pod_vec(r.slots);
    ar.pod_vec(r.queue);
    ar.pod_vec(health_);
    std::uint64_t n = r.jobs.size();
    ar.pod(n);
    if (ar.loading()) {
        r.jobs.assign(static_cast<std::size_t>(n), ServedJob{});
    }
    for (ServedJob& j : r.jobs) {
        ar.io(j.id, j.tenant, j.spec, j.arrival, j.first_dispatch,
              j.last_dispatch, j.done, j.status, j.verified, j.mismatches);
        ar.pod_vec(j.attempts);
    }
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
            const accel::GemmCommand cmd = gemm_command(
                workload::GemmSpec{op.m, op.n, op.k},
                place == Placement::devmem ? accel::kCmdDataInDevMem : 0U,
                act_a, weights[i], act_c, flag, flag_value);

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
    run_staged("run_vit", /*may_drain=*/false, res.end);
    return res;
}

} // namespace accesys::core
