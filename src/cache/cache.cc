#include "cache/cache.hh"

#include <algorithm>

#include "sim/serialize.hh"

namespace accesys::cache {

void CacheParams::validate() const
{
    require_cfg(is_pow2(line_bytes) && line_bytes >= 16,
                "cache line size must be a power of two >= 16");
    require_cfg(assoc >= 1, "cache associativity must be >= 1");
    require_cfg(size_bytes % (static_cast<std::uint64_t>(line_bytes) * assoc) ==
                    0,
                "cache size must be a multiple of line*assoc");
    require_cfg(num_sets() >= 1, "cache must have at least one set");
    require_cfg(mshrs >= 1 && targets_per_mshr >= 1,
                "cache needs at least one MSHR and one target");
    // The free set is a 64-bit bitmap and fill tags carry the slot index
    // in the line-offset bits (cache.cc: alloc_mshr / handle_fill).
    require_cfg(mshrs <= 64 && mshrs <= line_bytes,
                "cache MSHR count must be <= min(64, line_bytes)");
}

Cache::Cache(Simulator& sim, std::string name, const CacheParams& params)
    : SimObject(sim, std::move(name)),
      params_(params),
      cpu_port_(this->name() + ".cpu_side", *this),
      mem_port_(this->name() + ".mem_side", *this),
      resp_q_(sim, this->name() + ".resp_q",
              [](void* s, mem::PacketPtr& pkt) {
                  return static_cast<Cache*>(s)->cpu_port_.send_resp(pkt);
              },
              this),
      mem_q_(sim, this->name() + ".mem_q",
             [](void* s, mem::PacketPtr& pkt) {
                 return static_cast<Cache*>(s)->mem_port_.send_req(pkt);
             },
             this),
      fill_requestor_(mem::alloc_requestor_id()),
      pkt_pool_(&mem::packet_pool())
{
    params_.validate();
    lines_.resize(params_.num_sets() * params_.assoc);
    lru_.resize(lines_.size());
    mshrs_.resize(params_.mshrs);
    mshr_free_bits_ = params_.mshrs == 64
                          ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << params_.mshrs) - 1;
    // Writeback staging: a multi-line write run can stage one dirty
    // victim per installed line, so size for a realistic run (a 4 KiB
    // bridge split), not just one set's ways. Growth past this retains
    // capacity, so steady-state allocations stay at zero either way.
    wb_batch_.reserve(std::max<std::size_t>(params_.assoc, 64));
    lookup_ticks_ = ticks_from_ns(params_.lookup_latency_ns);
    fill_ticks_ = ticks_from_ns(params_.fill_latency_ns);
    line_shift_ = log2i(params_.line_bytes);
    num_sets_ = params_.num_sets();
    sets_pow2_ = is_pow2(num_sets_);
    set_mask_ = num_sets_ - 1;
    resp_q_.set_drain_hook(
        [](void* s) { static_cast<Cache*>(s)->maybe_unblock(); }, this);
    cpu_port_.set_fast_path(
        [](void* s, mem::PacketPtr& pkt) {
            return static_cast<Cache*>(s)->recv_req(pkt);
        },
        [](void* s) { static_cast<Cache*>(s)->retry_resp(); }, this);
    mem_port_.set_fast_path(
        [](void* s, mem::PacketPtr& pkt) {
            return static_cast<Cache*>(s)->recv_resp(pkt);
        },
        [](void* s) { static_cast<Cache*>(s)->retry_req(); }, this);
}

Cache::Line* Cache::find_line(Addr addr)
{
    return find_line_l(line_addr(addr));
}

Cache::Line* Cache::find_line_l(Addr laddr)
{
    // One compare per way: a valid line's tag_flags is tag|kValid, with
    // the dirty bit masked out of the comparison. Lines are one packed
    // machine word each, so a set is a contiguous tag array.
    const std::uint64_t want = laddr | Line::kValid;
    Line* base = &lines_[set_index(laddr) * params_.assoc];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if ((base[w].tag_flags & ~Line::kDirty) == want) {
            return &base[w];
        }
    }
    return nullptr;
}

Cache::Mshr* Cache::find_mshr(Addr laddr)
{
    // Usually zero or one candidate: only slots whose line hashes to the
    // same bucket share its bit.
    for (std::uint64_t bits = mshr_buckets_[mshr_bucket(laddr)]; bits != 0;
         bits &= bits - 1) {
        Mshr& m = mshrs_[static_cast<std::size_t>(__builtin_ctzll(bits))];
        if (m.laddr == laddr) {
            return &m;
        }
    }
    return nullptr;
}

const Cache::Line* Cache::find_line(Addr addr) const
{
    return const_cast<Cache*>(this)->find_line(addr);
}

bool Cache::contains_line(Addr addr) const
{
    return find_line(addr) != nullptr;
}

bool Cache::line_dirty(Addr addr) const
{
    const Line* l = find_line(addr);
    return l != nullptr && l->dirty();
}

Cache::Line& Cache::pick_victim(Addr addr)
{
    const std::uint64_t set = set_index(addr);
    Line* base = &lines_[set * params_.assoc];
    const std::uint64_t* lru_base = &lru_[set * params_.assoc];
    // Single pass: an invalid way wins immediately, else track the LRU
    // minimum.
    unsigned victim = 0;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (!base[w].valid()) {
            return base[w];
        }
        if (lru_base[w] < lru_base[victim]) {
            victim = w;
        }
    }
    if (params_.repl == CacheParams::Repl::random) {
        return base[rng_.below(params_.assoc)];
    }
    return base[victim];
}

void Cache::stage_install(Addr laddr, bool dirty)
{
    Line& victim = pick_victim(laddr);
    if (victim.valid()) {
        --valid_lines_;
        if (victim.dirty()) {
            --dirty_lines_;
            ++n_writebacks_;
            auto wb = pkt_pool_->make_write(victim.tag(),
                                            params_.line_bytes);
            wb->set_requestor(fill_requestor_);
            wb->flags.posted = true;
            wb_batch_.push_back(std::move(wb));
        }
        victim.invalidate();
    }
    victim.set(laddr, true, dirty);
    ++valid_lines_;
    dirty_lines_ += dirty ? 1 : 0;
    touch(victim);
}

void Cache::flush_writebacks()
{
    // Batched writeback flush: every dirty victim staged by the preceding
    // walk leaves in one back-to-back burst — identical packet order and
    // ready ticks to the per-line interleave (installs never touch the
    // egress queue, so deferring the pushes past the walk is invisible),
    // one egress probe per packet but a single walk/flush boundary.
    if (!wb_batch_.empty()) [[unlikely]] {
        const Tick ready = now();
        for (auto& wb : wb_batch_) {
            mem_q_.push(std::move(wb), ready);
        }
        wb_batch_.clear();
    }
}

void Cache::install(Addr laddr, bool dirty)
{
    stage_install(laddr, dirty);
    flush_writebacks();
}

bool Cache::recv_req(mem::PacketPtr& pkt)
{
    const Addr laddr = line_addr(pkt->addr());

    if (((pkt->addr() ^ (pkt->end_addr() - 1)) >> line_shift_) != 0)
        [[unlikely]] {
        return recv_req_multiline(pkt, laddr);
    }

    // Uncacheable traffic bypasses the lookup (DM mode / MMIO). An
    // uncacheable write must still kill any cached copy of the line, or a
    // later cacheable read would hit stale timing state.
    if (pkt->flags.uncacheable) {
        ++n_bypasses_;
        if (pkt->is_write()) {
            if (Line* line = find_line_l(laddr); line != nullptr) {
                --valid_lines_;
                dirty_lines_ -= line->dirty() ? 1 : 0;
                line->invalidate();
            }
        }
        mem_q_.push(std::move(pkt), now());
        return true;
    }

    const Tick lookup_done = now() + lookup_ticks_;

    if (Line* line = find_line_l(laddr); line != nullptr) {
        ++n_hits_;
        touch(*line);
        if (pkt->is_write()) {
            dirty_lines_ += line->dirty() ? 0 : 1;
            line->set_dirty(true);
        }
        if (pkt->flags.posted && pkt->is_write()) {
            return true; // posted write absorbed by the cache
        }
        pkt->make_response();
        resp_q_.push(std::move(pkt), lookup_done);
        return true;
    }

    ++n_misses_;

    Mshr* pending = find_mshr(laddr);

    // Whole-line write: install without a fill read. Only when no fill
    // for this line is already in flight — installing under a live MSHR
    // would let the later fill re-install the line as a duplicate tag;
    // with a fill pending the write joins the miss as a target instead.
    if (pending == nullptr && pkt->is_write() &&
        pkt->size() == params_.line_bytes) {
        install(laddr, true);
        if (!(pkt->flags.posted)) {
            pkt->make_response();
            resp_q_.push(std::move(pkt), lookup_done);
        }
        return true;
    }

    if (Mshr* hit = pending) {
        if (hit->targets.size() >= params_.targets_per_mshr) {
            ++n_mshr_rejects_;
            blocked_upstream_ = true;
            return false;
        }
        hit->targets.push_back(std::move(pkt));
        return true;
    }

    Mshr* mshr = alloc_mshr(laddr);
    if (mshr == nullptr) {
        ++n_mshr_rejects_;
        blocked_upstream_ = true;
        return false;
    }

    mshr->targets.push_back(std::move(pkt));
    mshr->fill_sent = true;

    auto fill = pkt_pool_->make_read(laddr, params_.line_bytes);
    fill->set_requestor(fill_requestor_);
    // The slot index rides in the line-offset bits of the tag, so the fill
    // response finds its MSHR with one mask instead of a key scan
    // (params_.validate() guarantees it fits).
    fill->set_tag(laddr |
                  static_cast<std::uint64_t>(mshr - mshrs_.data()));
    mem_q_.push(std::move(fill), lookup_done);
    return true;
}

bool Cache::recv_req_multiline(mem::PacketPtr& pkt, Addr laddr)
{
    // A request wider than one line is accepted only as an aligned
    // *posted* whole-line write run (a fabric bridge with a split size
    // above our line size streaming full lines — the DMA write-train
    // shape): the run installs N consecutive lines in one tag-array walk
    // with a single batched writeback flush, per-line hit/miss accounting
    // identical to the line-split train the bridge would otherwise send.
    // Non-posted runs are rejected: their completion would have to wait
    // on any in-flight fill the run overlaps (split-train semantics), and
    // no bridge emits them. Anything else still straddles.
    if (!pkt->is_write() || !pkt->flags.posted || pkt->flags.uncacheable ||
        pkt->addr() != laddr || pkt->size() % params_.line_bytes != 0) {
        panic(name(), ": request straddles a line: ", pkt->describe());
    }
    const auto n_lines =
        static_cast<std::uint32_t>(pkt->size() >> line_shift_);
    Addr a = laddr;
    for (std::uint32_t i = 0; i < n_lines; ++i, a += params_.line_bytes) {
        if (Line* line = find_line_l(a); line != nullptr) {
            ++n_hits_;
            touch(*line);
            dirty_lines_ += line->dirty() ? 0 : 1;
            line->set_dirty(true);
        } else {
            ++n_misses_;
            if (Mshr* pending = find_mshr(a); pending != nullptr) {
                // A fill for this line is in flight: installing now would
                // leave a duplicate tag when it lands. The write's effect
                // is what a split-train target join would produce — the
                // line arrives dirty. (Unlike the split train, the posted
                // run consumes no target slot here: strictly less
                // backpressure, same installed state.)
                pending->dirty_on_fill = true;
            } else {
                stage_install(a, true);
            }
        }
    }
    flush_writebacks();
    return true; // posted: absorbed, no response
}

bool Cache::recv_resp(mem::PacketPtr& pkt)
{
    if (pkt->requestor() != fill_requestor_) {
        // Response to a bypassed (uncacheable) request: forward upstream.
        resp_q_.push(std::move(pkt), now());
        return true;
    }
    // One of our fills came back.
    handle_fill(pkt->tag());
    return true;
}

void Cache::handle_fill(std::uint64_t fill_tag)
{
    // O(1) MSHR lookup: the fill read's tag is laddr | slot (the slot
    // index fits in the line-offset bits, enforced by validate()).
    const Addr mask = params_.line_bytes - 1;
    const auto slot = static_cast<std::size_t>(fill_tag & mask);
    const Addr laddr = fill_tag & ~mask;
    ensure(slot < mshrs_.size(), name(), ": fill with bad slot tag");
    Mshr* mshr = &mshrs_[slot];
    ensure(mshr->live && mshr->laddr == laddr, name(),
           ": fill without MSHR @0x", std::hex, laddr);

    bool dirty = mshr->dirty_on_fill;
    for (const auto& t : mshr->targets) {
        dirty |= t->is_write();
    }
    install(laddr, dirty);

    const Tick done = now() + fill_ticks_;
    for (auto& t : mshr->targets) {
        if (t->flags.posted && t->is_write()) {
            continue;
        }
        t->make_response();
        resp_q_.push(std::move(t), done);
    }
    release_mshr(*mshr);
    maybe_unblock();
}

void Cache::maybe_unblock()
{
    if (blocked_upstream_ && mshrs_live_ < params_.mshrs) {
        blocked_upstream_ = false;
        cpu_port_.send_retry_req();
    }
}

void Cache::snoop_invalidate(Addr addr, std::uint32_t size)
{
    if (valid_lines_ == 0) {
        return; // nothing cached: the walk below cannot find a line
    }
    for (Addr a = line_addr(addr); a < addr + size;
         a += params_.line_bytes) {
        if (Line* line = find_line_l(a); line != nullptr) {
            --valid_lines_;
            dirty_lines_ -= line->dirty() ? 1 : 0;
            line->invalidate();
            ++n_snoop_invalidations_;
        }
    }
}

void Cache::snoop_clean(Addr addr, std::uint32_t size)
{
    if (dirty_lines_ == 0) {
        return; // no dirty line exists: the walk cannot demote anything
    }
    for (Addr a = line_addr(addr); a < addr + size;
         a += params_.line_bytes) {
        if (Line* line = find_line_l(a); line != nullptr && line->dirty()) {
            --dirty_lines_;
            line->set_dirty(false);
            ++n_snoop_cleans_;
        }
    }
}

namespace {

void ckpt_packet_vec(Ckpt& ar, std::vector<mem::PacketPtr>& v)
{
    std::uint64_t n = v.size();
    ar.io(n);
    if (ar.loading()) {
        v.clear();
        v.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            mem::PacketPtr pkt;
            mem::ckpt_packet(ar, pkt);
            v.push_back(std::move(pkt));
        }
    } else {
        for (auto& pkt : v) {
            mem::ckpt_packet(ar, pkt);
        }
    }
}

} // namespace

void Cache::serialize(Ckpt& ar)
{
    // Tag array + replacement state (fixed geometry; lines_ is one machine
    // word per way, so the raw image is the natural representation).
    ensure(wb_batch_.empty(), name(),
           ": checkpoint inside an install run (writebacks staged)");
    ar.raw(lines_.data(), lines_.size() * sizeof(Line));
    ar.pod_vec(lru_);
    ar.io(lru_clock_, valid_lines_, dirty_lines_, blocked_upstream_,
          mshr_free_bits_);
    std::uint64_t live = mshrs_live_;
    ar.io(live);
    mshrs_live_ = static_cast<std::size_t>(live);
    // Per-slot keys (laddr|1 live, 0 free): kept in the format, but the
    // lookup index is derived from the slots below, so loads ignore them.
    std::vector<std::uint64_t> keys;
    for (const Mshr& m : mshrs_) {
        keys.push_back(ar.saving() && m.live ? m.laddr | 1 : 0);
    }
    ar.pod_vec(keys);
    for (Mshr& m : mshrs_) {
        ar.io(m.laddr, m.live, m.fill_sent, m.dirty_on_fill);
        ckpt_packet_vec(ar, m.targets);
    }
    if (ar.loading()) {
        mshr_buckets_.fill(0);
        for (std::size_t i = 0; i < mshrs_.size(); ++i) {
            if (mshrs_[i].live) {
                mshr_buckets_[mshr_bucket(mshrs_[i].laddr)] |=
                    std::uint64_t{1} << i;
            }
        }
    }
    rng_.serialize(ar);
    cpu_port_.serialize(ar);
    mem_port_.serialize(ar);
    resp_q_.serialize(ar);
    mem_q_.serialize(ar);
}

void Cache::report_occupancy(std::string& out) const
{
    if (mshrs_live_ == 0 && resp_q_.empty() && mem_q_.empty() &&
        !blocked_upstream_) {
        return;
    }
    out += "  " + name() + ": mshrs_live=" + std::to_string(mshrs_live_) +
           ", resp_q=" + std::to_string(resp_q_.size()) +
           (resp_q_.blocked() ? " (blocked)" : "") +
           ", mem_q=" + std::to_string(mem_q_.size()) +
           (mem_q_.blocked() ? " (blocked)" : "") +
           (blocked_upstream_ ? ", upstream refused" : "") + "\n";
}

} // namespace accesys::cache
