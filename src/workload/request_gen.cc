#include "workload/request_gen.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <string_view>

#include "sim/serialize.hh"

namespace accesys::workload {

namespace {

/// True when `ns` converts to a Tick without overflow: ticks_from_ns is a
/// plain cast, undefined (in practice tick 0) past 2^64 ticks.
bool fits_ticks(double ns)
{
    constexpr double kTickLimit = 18446744073709551616.0; // 2^64
    return ns >= 0.0 && ns * static_cast<double>(kTicksPerNs) + 0.5 <
                            kTickLimit;
}

/// Parse all of `f` as a number; false on any malformed or out-of-range
/// text (from_chars takes no sign for unsigned types, so "-16" fails).
template <typename T>
bool parse_field(std::string_view f, T& out)
{
    const auto [end, ec] = std::from_chars(f.data(), f.data() + f.size(), out);
    return ec == std::errc{} && end == f.data() + f.size();
}

/// Distinct operand data per job: splitmix-style spread of the id over the
/// configured seed.
std::uint64_t job_seed(std::uint64_t seed, std::uint64_t id)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (id + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    return z ^ (z >> 31);
}

} // namespace

void RequestGenConfig::validate() const
{
    ensure(!tenants.empty(), "RequestGen with no tenants");
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const TenantSpec& t = tenants[i];
        ensure(!t.name.empty(), "tenant ", i, " has an empty name");
        for (std::size_t j = 0; j < i; ++j) {
            ensure(tenants[j].name != t.name, "duplicate tenant name '",
                   t.name, "'");
        }
        ensure(t.deadline_ns >= 0.0, "tenant '", t.name,
               "' has a negative deadline");
        if (mode == Mode::poisson) {
            ensure(t.rate_jobs_per_s > 0.0, "tenant '", t.name,
                   "' has no arrival rate in poisson mode");
            ensure(std::isfinite(t.rate_jobs_per_s), "tenant '", t.name,
                   "' has an infinite arrival rate");
            ensure(!t.mix.empty(), "tenant '", t.name,
                   "' has an empty job mix in poisson mode");
            for (const GemmSpec& s : t.mix) {
                ensure(s.m > 0 && s.n > 0 && s.k > 0,
                       "degenerate GEMM spec in tenant '", t.name,
                       "' mix");
            }
        }
    }
    if (mode == Mode::poisson) {
        ensure(horizon_ns > 0.0, "poisson mode needs a horizon");
        ensure(fits_ticks(horizon_ns), "poisson horizon_ns ", horizon_ns,
               " overflows the tick counter");
    } else {
        ensure(!trace_path.empty(), "trace mode needs a trace_path");
    }
}

double det_neg_log(double x)
{
    ensure(x > 0.0 && x <= 1.0, "det_neg_log domain is (0, 1]");
    if (x == 1.0) {
        return 0.0;
    }
    // x = f * 2^e with f in [0.5, 1): frexp is an exact bit manipulation.
    // ln x = e*ln2 + 2*atanh(z) with z = (f-1)/(f+1) in [-1/3, 0); the
    // atanh series' terms shrink by >= 9x each, so 9 terms leave a
    // relative error around 1e-9 — far below anything the tick-quantized
    // arrival times can resolve, and bit-stable because every operation
    // here is an exactly-rounded IEEE-754 primitive.
    int e = 0;
    const double f = std::frexp(x, &e);
    const double z = (f - 1.0) / (f + 1.0);
    const double z2 = z * z;
    double term = z;
    double sum = z;
    for (int k = 1; k <= 8; ++k) {
        term *= z2;
        sum += term / (2.0 * static_cast<double>(k) + 1.0);
    }
    constexpr double kLn2 = 0.6931471805599453; // 0x1.62e42fefa39efp-1
    const double ln = static_cast<double>(e) * kLn2 + 2.0 * sum;
    return ln >= 0.0 ? 0.0 : -ln;
}

RequestGen::RequestGen(Simulator& sim, RequestGenConfig cfg)
    : SimObject(sim, "reqgen"),
      cfg_(std::move(cfg)),
      arrival_ev_("reqgen.arrival", [this] { on_arrival(); })
{
    cfg_.validate();
    if (cfg_.mode == RequestGenConfig::Mode::trace) {
        load_trace();
    } else {
        for (const TenantSpec& t : cfg_.tenants) {
            gap_ns_.push_back(1e9 / t.rate_jobs_per_s);
        }
    }
    // Learn the stream's length and the largest operands serve() must make
    // room for.
    const auto note = [this](const GemmSpec& g) {
        largest_.a = std::max(largest_.a, g.a_bytes());
        largest_.b = std::max(largest_.b, g.b_bytes());
        largest_.c = std::max(largest_.c, g.c_bytes());
    };
    const std::uint64_t cap = cfg_.max_requests > 0
                                  ? cfg_.max_requests
                                  : std::numeric_limits<std::uint64_t>::max();
    if (cfg_.mode == RequestGenConfig::Mode::trace) {
        total_ = std::min<std::uint64_t>(trace_.size(), cap);
        trace_.resize(total_);
        for (const TraceLine& l : trace_) {
            note(GemmSpec{l.m, l.n, l.k});
        }
    } else {
        // Uncapped, the stream is every tenant's arrivals before the
        // horizon, so each process is walked alone: with no merge decision
        // between two draws they overlap in the pipeline, and the walk
        // takes a third of a merged one.
        Cursor c = seek(0);
        for (std::size_t t = 0; t < c.streams.size(); ++t) {
            Stream& st = c.streams[t];
            for (; st.next != kMaxTick; step(st, t)) {
                ++total_;
                note(cfg_.tenants[t].mix[st.mix_at]);
            }
        }
        if (total_ > cap) {
            // Capped: only the merged prefix counts.
            total_ = cap;
            largest_ = {};
            for (c = seek(0); c.head != kMaxTick;) {
                note(take(c).spec);
            }
        }
    }
    fire_ = seek(0);
    drain_ = fire_;
    scheduled_.set(static_cast<double>(total_));
}

void RequestGen::load_trace()
{
    std::ifstream in(cfg_.trace_path);
    ensure(in.good(), "cannot open request trace '", cfg_.trace_path, "'");
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::string_view text =
            std::string_view(line).substr(0, line.find('#'));
        // Split on whitespace, counting every field but keeping five.
        std::array<std::string_view, 5> f;
        std::size_t nf = 0;
        for (std::size_t i = 0;;) {
            i = text.find_first_not_of(" \t\r\v\f", i);
            if (i == std::string_view::npos) {
                break;
            }
            const std::size_t end =
                std::min(text.find_first_of(" \t\r\v\f", i), text.size());
            if (nf < f.size()) {
                f[nf] = text.substr(i, end - i);
            }
            ++nf;
            i = end;
        }
        if (nf == 0) {
            continue; // blank or comment-only line
        }
        const auto fail = [&](const auto&... what) {
            throw SimError(strcat_msg("trace line ", lineno, " in '",
                                      cfg_.trace_path, "': ", what...));
        };
        if (nf != 5) {
            fail("has ", nf, " fields (want: arrival_ns tenant m n k)");
        }
        double arrival_ns = 0.0;
        std::uint64_t tenant = 0;
        TraceLine l;
        if (!parse_field(f[0], arrival_ns) || !std::isfinite(arrival_ns)) {
            fail("arrival '", f[0], "' is not a finite number");
        }
        if (!fits_ticks(arrival_ns)) {
            fail("arrival ", arrival_ns, " ns is negative or overflows the "
                 "tick counter");
        }
        if (!parse_field(f[1], tenant) || tenant >= cfg_.tenants.size()) {
            fail("tenant '", f[1], "' is not one of the ",
                 cfg_.tenants.size(), " configured");
        }
        if (!parse_field(f[2], l.m) || !parse_field(f[3], l.n) ||
            !parse_field(f[4], l.k) || l.m == 0 || l.n == 0 || l.k == 0) {
            fail("shape '", f[2], " ", f[3], " ", f[4],
                 "' is not three positive unsigned integers");
        }
        l.arrival = ticks_from_ns(arrival_ns);
        l.tenant = static_cast<std::uint32_t>(tenant);
        trace_.push_back(l);
    }
    // One global order: stable_sort keeps same-(tick, tenant) lines in file
    // order.
    std::stable_sort(trace_.begin(), trace_.end(),
                     [](const TraceLine& a, const TraceLine& b) {
                         return a.arrival != b.arrival
                                    ? a.arrival < b.arrival
                                    : a.tenant < b.tenant;
                     });
}

RequestGen::Cursor RequestGen::seek(std::uint64_t pos) const
{
    ensure(pos <= total_, "request stream position ", pos, " past its end ",
           total_);
    Cursor c;
    if (cfg_.mode == RequestGenConfig::Mode::trace) {
        c.pos = pos;
        settle(c);
        return c;
    }
    c.streams.reserve(cfg_.tenants.size());
    for (std::size_t t = 0; t < cfg_.tenants.size(); ++t) {
        // Disjoint per-tenant streams: reseed() spreads via splitmix64, so
        // a simple odd-multiplier offset is enough to decorrelate them.
        Stream& s = c.streams.emplace_back(
            Stream{Rng(cfg_.seed + 0x9E3779B97F4A7C15ULL * (t + 1))});
        draw(s, t);
    }
    settle(c);
    while (c.pos < pos) {
        (void)take(c);
    }
    return c;
}

void RequestGen::step(Stream& s, std::size_t t) const
{
    s.mix_at = s.mix_at + 1 == cfg_.tenants[t].mix.size() ? 0 : s.mix_at + 1;
    draw(s, t);
}

void RequestGen::draw(Stream& s, std::size_t t) const
{
    // uniform() is in [0, 1); 1-u is in (0, 1] — det_neg_log's domain —
    // and -ln(1-u)*mean is the exponential interarrival.
    s.t_ns += det_neg_log(1.0 - s.rng.uniform()) * gap_ns_[t];
    s.next = s.t_ns < cfg_.horizon_ns ? ticks_from_ns(s.t_ns) : kMaxTick;
}

void RequestGen::settle(Cursor& c) const
{
    c.head = kMaxTick;
    if (c.pos >= total_) {
        return;
    }
    if (cfg_.mode == RequestGenConfig::Mode::trace) {
        c.head = trace_[c.pos].arrival;
        return;
    }
    for (std::size_t t = 0; t < c.streams.size(); ++t) {
        if (c.streams[t].next < c.head) {
            c.head = c.streams[t].next;
            c.head_tenant = t;
        }
    }
}

Request RequestGen::take(Cursor& c) const
{
    Request r;
    r.id = c.pos++;
    r.arrival = c.head;
    if (cfg_.mode == RequestGenConfig::Mode::trace) {
        const TraceLine& l = trace_[r.id];
        r.tenant = l.tenant;
        r.spec = GemmSpec{l.m, l.n, l.k};
    } else {
        const std::size_t t = c.head_tenant;
        Stream& s = c.streams[t];
        r.tenant = static_cast<std::uint32_t>(t);
        r.spec = cfg_.tenants[t].mix[s.mix_at];
        step(s, t);
    }
    r.spec.seed = job_seed(cfg_.seed, r.id);
    settle(c);
    return r;
}

void RequestGen::startup()
{
    if (fire_.head != kMaxTick && !arrival_ev_.scheduled()) {
        SimObject::schedule(arrival_ev_, fire_.head);
    }
}

void RequestGen::on_arrival()
{
    ++arrivals_;
    (void)take(fire_);
    if (fire_.head != kMaxTick) {
        SimObject::schedule(arrival_ev_, fire_.head);
    }
}

void RequestGen::take_until(Tick t, std::vector<Request>& out)
{
    out.clear();
    while (drain_.head <= t && drain_.head != kMaxTick) {
        out.push_back(take(drain_));
    }
}

void RequestGen::serialize(Ckpt& ar)
{
    std::uint64_t fired = fire_.pos;
    std::uint64_t drained = drain_.pos;
    ar.io(fired, drained);
    if (ar.loading()) {
        fire_ = seek(fired);
        drain_ = seek(drained);
    }
    arrival_ev_.serialize(ar, eq());
}

} // namespace accesys::workload
