#include "smmu/smmu.hh"

#include <algorithm>

#include "sim/serialize.hh"

namespace accesys::smmu {

void Tlb::serialize(Ckpt& ar)
{
    const std::size_t n_slots = slots_.size();
    ar.io(clock_, lookups_, hits_, misses_, evictions_);
    ar.pod_vec(slots_);
    ensure(slots_.size() == n_slots,
           "TLB geometry changed across checkpoint");
    if (ar.loading()) {
        mru_ = nullptr;
    }
}

void SmmuParams::validate() const
{
    require_cfg(walk_slots >= 1 && walk_slots <= 64,
                "SMMU walk slots must be in 1..64");
    require_cfg(max_pending >= walk_slots,
                "SMMU max_pending must cover the walk slots");
}

Smmu::Smmu(Simulator& sim, std::string name, const SmmuParams& params,
           PageTable& table, mem::BackingStore& store)
    : SimObject(sim, std::move(name)),
      params_(params),
      table_(&table),
      store_(&store),
      dev_port_(this->name() + ".dev_side", *this),
      mem_port_(this->name() + ".mem_side", *this),
      dev_resp_q_(sim, this->name() + ".dev_resp_q",
                  [](void* s, mem::PacketPtr& pkt) {
                      return static_cast<Smmu*>(s)->dev_port_.send_resp(pkt);
                  },
                  this),
      mem_q_(sim, this->name() + ".mem_q",
             [](void* s, mem::PacketPtr& pkt) {
                 return static_cast<Smmu*>(s)->mem_port_.send_req(pkt);
             },
             this),
      tlb_(params.tlb_entries, params.tlb_assoc),
      walks_(params.walk_slots),
      walker_requestor_(mem::alloc_requestor_id())
{
    params_.validate();
    pkt_pool_ = &mem::packet_pool();
    // Walk-pending pool: max_pending bounds the waiters that can exist at
    // once, so the node pool and record array never grow after this.
    pending_pool_.resize(params_.max_pending);
    for (std::size_t i = 0; i < pending_pool_.size(); ++i) {
        pending_pool_[i].next =
            i + 1 < pending_pool_.size() ? static_cast<std::int32_t>(i + 1)
                                         : -1;
    }
    pending_free_ = 0;
    walk_records_.reserve(params_.max_pending);
    dev_port_.set_fast_path(
        [](void* s, mem::PacketPtr& pkt) {
            return static_cast<Smmu*>(s)->recv_req(pkt);
        },
        [](void* s) { static_cast<Smmu*>(s)->retry_resp(); }, this);
    mem_port_.set_fast_path(
        [](void* s, mem::PacketPtr& pkt) {
            return static_cast<Smmu*>(s)->recv_resp(pkt);
        },
        [](void* s) { static_cast<Smmu*>(s)->retry_req(); }, this);
    utlb_hit_ticks_ = ticks_from_ns(params_.utlb_hit_latency_ns);
    tlb_hit_ticks_ = ticks_from_ns(params_.tlb_hit_latency_ns);
    (void)stream_ctx(0); // default stream exists from the start
    if (FaultInjector* fi = sim.fault_injector();
        fi != nullptr && (fi->plan().smmu_fault_rate > 0.0 ||
                          fi->has_smmu_events())) {
        fault_ = std::make_unique<SmmuFaultState>(stat_group(), *fi,
                                                  this->name());
    }
}

Smmu::SmmuFaultState::SmmuFaultState(stats::Group& g, FaultInjector& fi_,
                                     const std::string& name)
    : fi(&fi_), site_name(name), stats(g)
{
    site_id = fi->register_site(site_name);
    rate = fi->plan().smmu_fault_rate;
}

Smmu::StreamFault& Smmu::stream_fault(std::uint32_t stream)
{
    auto it = fault_->streams.find(stream);
    if (it == fault_->streams.end()) {
        it = fault_->streams.emplace(stream, StreamFault{}).first;
        StreamFault& sf = it->second;
        sf.rng.reseed(fault_->fi->device_stream_seed(fault_->site_id,
                                                     stream));
        fault_->fi->collect_smmu(fault_->site_name, stream, sf.ticks);
    }
    return it->second;
}

bool Smmu::fault_roll(std::uint32_t stream)
{
    StreamFault& sf = stream_fault(stream);
    bool hit = false;
    if (sf.idx < sf.ticks.size() && now() >= sf.ticks[sf.idx]) {
        ++sf.idx;
        hit = true;
    }
    if (fault_->rate > 0.0) {
        // Always consume the stream: one draw per translated request, so
        // explicit events never shift the Bernoulli sequence.
        const bool rolled = sf.rng.chance(fault_->rate);
        hit = hit || rolled;
    }
    return hit;
}

void Smmu::map_stream(std::uint32_t from, std::uint32_t to)
{
    stream_remap_[from] = to;
    last_ctx_ = nullptr; // the memo may hold `from`'s old resolution
}

Smmu::StreamCtx& Smmu::stream_ctx(std::uint32_t stream)
{
    auto it = streams_.find(stream);
    if (it == streams_.end()) {
        it = streams_
                 .emplace(stream,
                          std::make_unique<StreamCtx>(
                              sim().stats(),
                              name() + ".stream" + std::to_string(stream),
                              params_))
                 .first;
    }
    return *it->second;
}

Smmu::StreamCtx& Smmu::packet_ctx(std::uint32_t raw)
{
    // Memoise the last raw id: device traffic arrives in long same-stream
    // bursts, and contexts are never destroyed, so the pointer stays valid
    // until a remap changes (map_stream, restore).
    if (last_ctx_ == nullptr || last_raw_ != raw) {
        const auto it = stream_remap_.find(raw);
        last_raw_ = raw;
        last_stream_ = it == stream_remap_.end() ? raw : it->second;
        last_ctx_ = &stream_ctx(last_stream_);
    }
    return *last_ctx_;
}

bool Smmu::recv_req(mem::PacketPtr& pkt)
{
    if (!params_.enabled || !pkt->flags.needs_translation) {
        ++st_bypassed_;
        mem_q_.push(std::move(pkt), now());
        return true;
    }

    if (pending_count_ >= params_.max_pending) {
        blocked_upstream_ = true;
        return false;
    }

    const Addr va = pkt->addr();
    if (va / kPageBytes != (pkt->end_addr() - 1) / kPageBytes) {
        panic(name(), ": request crosses a page: ", pkt->describe());
    }
    const std::uint64_t vpn = vpn_of(va);
    const Tick arrived = now();
    StreamCtx& ctx = packet_ctx(pkt->stream());
    const std::uint32_t stream = last_stream_;

    if (fault_ != nullptr && fault_roll(stream)) {
        // Seeded translation fault (unmapped page): no walk happens. A
        // fault record is logged; reads complete poisoned (contained by
        // the requester's DMA engine), posted writes are dropped.
        ++fault_->stats.faults;
        if (fault_->records.size() < kMaxFaultRecords) {
            fault_->records.push_back(FaultRecord{
                now(), stream, va,
                static_cast<std::uint8_t>(pkt->is_write() ? 1 : 0)});
        }
        if (pkt->is_read() || !pkt->flags.posted) {
            ++fault_->stats.faulted_reads;
            pkt->make_response();
            pkt->flags.poisoned = true;
            dev_resp_q_.push(std::move(pkt), now() + tlb_hit_ticks_);
        } else {
            ++fault_->stats.dropped_writes;
            pkt.reset();
        }
        return true;
    }

    if (auto ppn = ctx.utlb.lookup(vpn); ppn.has_value()) {
        finish_translation(ctx, std::move(pkt), *ppn, arrived,
                           now() + utlb_hit_ticks_);
        return true;
    }

    if (auto ppn = tlb_.lookup(vpn); ppn.has_value()) {
        ctx.utlb.insert(vpn, *ppn);
        finish_translation(ctx, std::move(pkt), *ppn, arrived,
                           now() + tlb_hit_ticks_);
        return true;
    }

    // TLB miss: join (or start) a walk for this VPN.
    ++pending_count_;
    const std::int32_t node = alloc_pending_node();
    PendingPkt& p = pending_pool_[static_cast<std::size_t>(node)];
    p.pkt = std::move(pkt);
    p.arrived = arrived;
    p.stream = stream;
    p.next = -1;
    if (WalkRecord* rec = find_walk_record(vpn); rec != nullptr) {
        pending_pool_[static_cast<std::size_t>(rec->tail)].next = node;
        rec->tail = node;
    } else {
        walk_records_.push_back(WalkRecord{vpn, node, node});
        ++ctx.ptws;
        start_walk_or_queue(vpn);
    }
    return true;
}

Smmu::WalkRecord* Smmu::find_walk_record(std::uint64_t vpn)
{
    for (WalkRecord& rec : walk_records_) {
        if (rec.vpn == vpn) {
            return &rec;
        }
    }
    return nullptr;
}

std::int32_t Smmu::alloc_pending_node()
{
    ensure(pending_free_ >= 0, name(), ": pending pool exhausted");
    const std::int32_t idx = pending_free_;
    pending_free_ = pending_pool_[static_cast<std::size_t>(idx)].next;
    return idx;
}

void Smmu::free_pending_node(std::int32_t idx)
{
    PendingPkt& p = pending_pool_[static_cast<std::size_t>(idx)];
    p.pkt.reset();
    p.next = pending_free_;
    pending_free_ = idx;
}

void Smmu::finish_translation(StreamCtx& ctx, mem::PacketPtr pkt,
                              std::uint64_t ppn, Tick arrived, Tick done_at)
{
    const Addr pa = (ppn << kPageShift) | (pkt->addr() & (kPageBytes - 1));
    ++ctx.translations;
    pkt->record_translation(pa);

    ++st_translations_;
    st_trans_ns_.sample(ticks_to_ns(done_at - arrived));

    mem_q_.push(std::move(pkt), done_at);
}

void Smmu::start_walk_or_queue(std::uint64_t vpn)
{
    for (unsigned slot = 0; slot < walks_.size(); ++slot) {
        if (!walks_[slot].active) {
            start_walk(slot, vpn);
            return;
        }
    }
    walk_queue_.push_back(vpn);
}

void Smmu::start_walk(unsigned slot, std::uint64_t vpn)
{
    Walk& w = walks_[slot];
    w.active = true;
    w.vpn = vpn;
    w.started = now();
    w.level = 0;
    w.table = table_->root();

    // Page-walk cache: resume from the deepest cached level.
    for (unsigned lvl = kLevels - 2; lvl + 1 > 0; --lvl) {
        if (const Addr* t = pwc_find(lvl, pwc_prefix(vpn, lvl));
            t != nullptr) {
            w.level = lvl + 1;
            w.table = *t;
            break;
        }
    }

    ++st_ptw_;
    issue_pte_read(slot);
}

void Smmu::issue_pte_read(unsigned slot)
{
    Walk& w = walks_[slot];
    const Addr va = w.vpn << kPageShift;
    const Addr pte_addr =
        w.table + static_cast<Addr>(level_index(va, w.level)) * 8;
    auto pkt = pkt_pool_->make_read(pte_addr, 8);
    pkt->set_requestor(walker_requestor_);
    pkt->set_tag(slot);
    pkt->flags.uncacheable = params_.walker_uncacheable;
    ++st_pte_reads_;
    mem_q_.push(std::move(pkt), now());
}

bool Smmu::recv_resp(mem::PacketPtr& pkt)
{
    if (pkt->requestor() == walker_requestor_) {
        walker_response(*pkt);
        return true;
    }
    dev_resp_q_.push(std::move(pkt), now());
    return true;
}

void Smmu::walker_response(const mem::Packet& pkt)
{
    const auto slot = static_cast<unsigned>(pkt.tag());
    ensure(slot < walks_.size() && walks_[slot].active, name(),
           ": stray walker response");
    Walk& w = walks_[slot];

    const auto pte = store_->read_obj<std::uint64_t>(pkt.addr());
    ensure((pte & kPteValid) != 0, name(), ": translation fault for VPN 0x",
           std::hex, w.vpn, " at level ", std::dec, w.level);
    const Addr next = pte & kPteAddrMask;

    if (w.level < kLevels - 1) {
        pwc_insert(w.level, pwc_prefix(w.vpn, w.level), next);
        w.table = next;
        ++w.level;
        issue_pte_read(slot);
        return;
    }
    complete_walk(slot, next >> kPageShift);
}

void Smmu::complete_walk(unsigned slot, std::uint64_t ppn)
{
    Walk& w = walks_[slot];
    st_ptw_ns_.sample(ticks_to_ns(now() - w.started));

    tlb_.insert(w.vpn, ppn);

    WalkRecord* rec = find_walk_record(w.vpn);
    ensure(rec != nullptr, name(), ": walk with no waiters");
    for (std::int32_t idx = rec->head; idx >= 0;) {
        PendingPkt& waiting = pending_pool_[static_cast<std::size_t>(idx)];
        ensure(pending_count_ > 0, name(), ": pending underflow");
        --pending_count_;
        // Fill every waiting stream's micro-TLB, not just the initiator's —
        // but only once per stream, or coalesced same-page waiters would
        // stack duplicate lines and evict hot entries.
        StreamCtx& wctx = stream_ctx(waiting.stream);
        if (!wctx.utlb.contains(w.vpn)) {
            wctx.utlb.insert(w.vpn, ppn);
        }
        finish_translation(wctx, std::move(waiting.pkt), ppn,
                           waiting.arrived, now());
        const std::int32_t next = waiting.next;
        free_pending_node(idx);
        idx = next;
    }
    // Swap-remove the record: lookup is by exact VPN, order is irrelevant.
    *rec = walk_records_.back();
    walk_records_.pop_back();
    w.active = false;

    if (!walk_queue_.empty()) {
        const std::uint64_t next_vpn = walk_queue_.front();
        walk_queue_.pop_front();
        start_walk(slot, next_vpn);
    }
    maybe_unblock();
}

void Smmu::maybe_unblock()
{
    if (blocked_upstream_ && pending_count_ < params_.max_pending) {
        blocked_upstream_ = false;
        dev_port_.send_retry_req();
    }
}

void Smmu::pwc_insert(unsigned level, std::uint64_t prefix, Addr table)
{
    if (params_.pwc_entries == 0) {
        return;
    }
    const PwcKey key{level, prefix};
    pwc_[key] = {table, ++pwc_clock_};
    if (pwc_.size() > params_.pwc_entries) {
        // Evict the least recently used entry.
        auto lru = pwc_.begin();
        for (auto it = pwc_.begin(); it != pwc_.end(); ++it) {
            if (it->second.second < lru->second.second) {
                lru = it;
            }
        }
        pwc_.erase(lru);
    }
}

const Addr* Smmu::pwc_find(unsigned level, std::uint64_t prefix)
{
    const auto it = pwc_.find(PwcKey{level, prefix});
    if (it == pwc_.end()) {
        return nullptr;
    }
    it->second.second = ++pwc_clock_;
    return &it->second.first;
}

void Smmu::serialize(Ckpt& ar)
{
    // Stream contexts: create-on-load must happen before the global stats
    // section restores (it runs last), so their counters land in place.
    std::uint64_t n_streams = streams_.size();
    ar.io(n_streams);
    if (ar.saving()) {
        for (auto& [id, ctx] : streams_) {
            std::uint32_t sid = id;
            ar.io(sid);
            ctx->utlb.serialize(ar);
        }
    } else {
        // Restore lands either in a fresh process (only the default
        // stream exists; contexts are created here in snapshot order) or
        // in one that replayed earlier rounds of the identical dispatch
        // (the same streams already live, in the same creation order the
        // saving process registered them). Either way the live set must
        // converge on the snapshot's — a stream the snapshot never saw
        // means the replay diverged.
        for (std::uint64_t i = 0; i < n_streams; ++i) {
            std::uint32_t sid = 0;
            ar.io(sid);
            stream_ctx(sid).utlb.serialize(ar);
        }
        ensure(streams_.size() == n_streams, name(),
               ": restore into an SMMU whose live streams diverge from "
               "the snapshot");
    }

    // Stream remaps (config-driven, but cheap to carry and verify).
    std::uint64_t n_remap = stream_remap_.size();
    ar.io(n_remap);
    if (ar.saving()) {
        std::vector<std::uint32_t> keys;
        keys.reserve(stream_remap_.size());
        for (const auto& [k, v] : stream_remap_) {
            keys.push_back(k);
        }
        std::sort(keys.begin(), keys.end());
        for (std::uint32_t k : keys) {
            std::uint32_t v = stream_remap_.at(k);
            ar.io(k, v);
        }
    } else {
        for (std::uint64_t i = 0; i < n_remap; ++i) {
            std::uint32_t k = 0;
            std::uint32_t v = 0;
            ar.io(k, v);
            stream_remap_[k] = v;
        }
        last_ctx_ = nullptr;
    }

    tlb_.serialize(ar);

    // Walk-pending pool: preserve the exact slot layout (indices live in
    // records and chains).
    ar.io(pending_free_, pending_count_, blocked_upstream_);
    const std::size_t pool_slots = pending_pool_.size();
    std::uint64_t n_pool = pool_slots;
    ar.io(n_pool);
    ensure(n_pool == pool_slots, name(),
           ": pending-pool size changed across checkpoint");
    for (auto& p : pending_pool_) {
        std::uint8_t has_pkt = p.pkt != nullptr ? 1 : 0;
        ar.io(has_pkt, p.arrived, p.stream, p.next);
        if (has_pkt != 0) {
            mem::ckpt_packet(ar, p.pkt);
        } else if (ar.loading()) {
            p.pkt.reset();
        }
    }
    ar.pod_vec(walk_records_);

    std::uint64_t n_wq = walk_queue_.size();
    ar.io(n_wq);
    if (ar.loading()) {
        walk_queue_.clear();
    }
    for (std::uint64_t i = 0; i < n_wq; ++i) {
        std::uint64_t vpn = ar.saving() ? walk_queue_[i] : 0;
        ar.io(vpn);
        if (ar.loading()) {
            walk_queue_.push_back(vpn);
        }
    }

    for (Walk& w : walks_) {
        ar.io(w.vpn, w.level, w.table, w.started, w.active);
    }

    // Page-walk cache (sorted for byte-stable checkpoints).
    ar.io(pwc_clock_);
    std::uint64_t n_pwc = pwc_.size();
    ar.io(n_pwc);
    if (ar.saving()) {
        std::vector<PwcKey> keys;
        keys.reserve(pwc_.size());
        for (const auto& [k, v] : pwc_) {
            keys.push_back(k);
        }
        std::sort(keys.begin(), keys.end(),
                  [](const PwcKey& a, const PwcKey& b) {
                      return a.level != b.level ? a.level < b.level
                                                : a.prefix < b.prefix;
                  });
        for (const PwcKey& k : keys) {
            auto& v = pwc_.at(k);
            std::uint32_t level = k.level;
            std::uint64_t prefix = k.prefix;
            ar.io(level, prefix, v.first, v.second);
        }
    } else {
        pwc_.clear();
        for (std::uint64_t i = 0; i < n_pwc; ++i) {
            std::uint32_t level = 0;
            std::uint64_t prefix = 0;
            Addr table = 0;
            std::uint64_t stamp = 0;
            ar.io(level, prefix, table, stamp);
            pwc_[PwcKey{level, prefix}] = {table, stamp};
        }
    }

    dev_port_.serialize(ar);
    mem_port_.serialize(ar);
    dev_resp_q_.serialize(ar);
    mem_q_.serialize(ar);

    if (fault_ != nullptr) {
        // Config-keyed presence (plan seeds SMMU faults). std::map keeps
        // the stream order sorted, so checkpoint bytes are stable.
        std::uint64_t n_sf = fault_->streams.size();
        ar.io(n_sf);
        if (ar.saving()) {
            for (auto& [sid, sf] : fault_->streams) {
                std::uint32_t id = sid;
                ar.io(id, sf.idx);
                sf.rng.serialize(ar);
            }
        } else {
            fault_->streams.clear();
            for (std::uint64_t i = 0; i < n_sf; ++i) {
                std::uint32_t id = 0;
                ar.io(id);
                StreamFault& sf = stream_fault(id);
                ar.io(sf.idx);
                sf.rng.serialize(ar);
            }
        }
        ar.pod_vec(fault_->records);
    }
}

void Smmu::report_occupancy(std::string& out) const
{
    std::size_t active_walks = 0;
    for (const Walk& w : walks_) {
        active_walks += w.active ? 1 : 0;
    }
    if (pending_count_ == 0 && active_walks == 0 && walk_queue_.empty() &&
        dev_resp_q_.empty() && mem_q_.empty()) {
        return;
    }
    out += "  " + name() + ": pending=" + std::to_string(pending_count_) +
           ", walks=" + std::to_string(active_walks) +
           ", walk_queue=" + std::to_string(walk_queue_.size()) +
           ", dev_resp_q=" + std::to_string(dev_resp_q_.size()) +
           ", mem_q=" + std::to_string(mem_q_.size()) +
           (blocked_upstream_ ? ", blocking upstream" : "") + "\n";
}

} // namespace accesys::smmu
