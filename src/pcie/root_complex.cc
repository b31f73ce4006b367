#include "pcie/root_complex.hh"

#include <algorithm>

#include "sim/serialize.hh"

namespace accesys::pcie {

void RcParams::validate() const
{
    require_cfg(is_pow2(host_split_bytes) && host_split_bytes >= 16,
                "RC host split must be a power of two >= 16");
    require_cfg(is_pow2(max_payload_bytes) && max_payload_bytes >= 32,
                "RC max payload must be a power of two >= 32");
    require_cfg(max_inbound_reads > 0, "RC needs at least one inbound slot");
    require_cfg(mmio_tags > 0 && mmio_tags <= 256,
                "RC MMIO tags must be in 1..256");
}

RootComplex::RootComplex(Simulator& sim, std::string name,
                         const RcParams& params)
    : SimObject(sim, std::move(name)),
      params_(params),
      delay_(sim, this->name() + ".process",
             ticks_from_ns(params.latency_ns),
             [](void* self) {
                 static_cast<RootComplex*>(self)->process_delayed();
             },
             this),
      mem_port_(this->name() + ".mem_side", *this),
      mmio_port_(this->name() + ".mmio_side", *this),
      mem_q_(sim, this->name() + ".mem_q",
             [](void* s, mem::PacketPtr& pkt) {
                 return static_cast<RootComplex*>(s)->mem_port_.send_req(
                     pkt);
             },
             this),
      mmio_resp_q_(sim, this->name() + ".mmio_resp_q",
                   [](void* s, mem::PacketPtr& pkt) {
                       return static_cast<RootComplex*>(s)
                           ->mmio_port_.send_resp(pkt);
                   },
                   this),
      inbound_reads_(params.max_inbound_reads),
      slot_free_bits_((params.max_inbound_reads + 63) / 64, 0),
      mmio_pending_(params.mmio_tags),
      mmio_tag_free_(params.mmio_tags, 1),
      requestor_id_(mem::alloc_requestor_id())
{
    params_.validate();
    pkt_pool_ = &mem::packet_pool();
    tlp_pool_ = &tlp_pool();
    for (std::size_t s = 0; s < params_.max_inbound_reads; ++s) {
        slot_free_bits_[s / 64] |= std::uint64_t{1} << (s % 64);
    }
    split_shift_ = log2i(params_.host_split_bytes);
    split_mask_ = params_.host_split_bytes - 1;
    if (params_.completion_timeout_ns > 0) {
        cpl_timeout_ticks_ = ticks_from_ns(params_.completion_timeout_ns);
        watchdog_ = std::make_unique<MmioWatchdog>(stat_group(),
                                                   params_.mmio_tags);
        cpl_timeout_event_.set_name(this->name() + ".cpl_timeout");
        cpl_timeout_event_.set_raw_callback(
            [](void* self) {
                static_cast<RootComplex*>(self)->check_mmio_timeouts();
            },
            this);
    }
    // When the fabric queue drains, head-of-line stalls may clear.
    mem_q_.set_drain_hook(
        [](void* s) { static_cast<RootComplex*>(s)->delay_.rearm(); }, this);
    mem_port_.set_fast_path(
        [](void* s, mem::PacketPtr& pkt) {
            return static_cast<RootComplex*>(s)->recv_resp(pkt);
        },
        [](void* s) { static_cast<RootComplex*>(s)->retry_req(); }, this);
    mmio_port_.set_fast_path(
        [](void* s, mem::PacketPtr& pkt) {
            return static_cast<RootComplex*>(s)->recv_req(pkt);
        },
        [](void* s) { static_cast<RootComplex*>(s)->retry_resp(); }, this);
}

void RootComplex::connect_pcie(PciePort& port)
{
    ensure(pcie_port_ == nullptr, name(), ": PCIe port already connected");
    pcie_port_ = &port;
    port.attach(*this, 0);
    egress_ = TlpQueue(port);
}

void RootComplex::recv_tlp(unsigned port_idx, TlpPtr tlp)
{
    delay_.push(std::move(tlp), port_idx);
}

void RootComplex::credit_avail(unsigned /*port_idx*/)
{
    // Only fires when a staged completion/MMIO TLP was refused for want of
    // credits (lazy link accounting elides the idle-link kicks); the
    // TlpQueue holds everything that could be waiting.
    egress_.kick();
}

void RootComplex::process_delayed()
{
    while (DelayStage::Entry* entry = delay_.ready_head()) {
        Tlp& head = *entry->tlp;

        if (head.type == TlpType::mem_read) {
            const std::size_t chunks =
                split_count(head.addr, head.length);
            if (inbound_live_ >= params_.max_inbound_reads ||
                mem_q_.size() + chunks > params_.mem_queue_capacity) {
                ++hol_stalls_;
                return; // keep ingress credits held: upstream back-pressure
            }
            service_read(head);
        } else if (head.type == TlpType::mem_write) {
            const std::size_t chunks =
                split_count(head.addr, head.length);
            if (mem_q_.size() + chunks > params_.mem_queue_capacity) {
                ++hol_stalls_;
                return;
            }
            service_write(head);
        } else {
            service_completion(std::move(entry->tlp));
            delay_.pop();
            continue;
        }

        pcie_port_->release_ingress(head.payload_bytes());
        delay_.pop();
    }
    delay_.rearm();
}

void RootComplex::service_read(Tlp& tlp)
{
    const std::uint32_t key = read_key(tlp.requester, tlp.tag);
    if (key >= slot_of_key_.size()) {
        // First use of this (requester, tag) pair: grow the direct map
        // (bounded by num_devices << 8 entries, hit once per new key).
        slot_of_key_.resize(key + 1, -1);
    }
    if (watchdog_ != nullptr && slot_of_key_[key] >= 0) {
        // A completion-timeout retry raced the still-in-service original
        // read (the requester gave up too early). The original's
        // completions will serve the tag; drop the duplicate request.
        ++watchdog_->dup_reads;
        return;
    }
    ++inbound_read_tlps_;
    ensure(slot_of_key_[key] < 0, name(), ": duplicate inbound read tag ",
           key);

    const std::ptrdiff_t slot = lowest_free_slot();
    ensure(slot >= 0, name(), ": inbound read slots exhausted");
    InboundRead* state = &inbound_reads_[static_cast<std::size_t>(slot)];
    const auto chunks =
        static_cast<std::uint32_t>(split_count(tlp.addr, tlp.length));
    ensure(chunks <= InboundRead::kMaxReadChunks, name(),
           ": inbound read splits into too many chunks");
    *state = InboundRead{};
    state->key = key;
    state->live = true;
    slot_of_key_[key] = static_cast<std::int32_t>(slot);
    slot_free_bits_[static_cast<std::size_t>(slot) / 64] &=
        ~(std::uint64_t{1} << (static_cast<std::size_t>(slot) % 64));
    state->addr = tlp.addr;
    state->size = tlp.length;
    state->tag = tlp.tag;
    state->requester = tlp.requester;
    state->chunks = chunks;
    ++inbound_live_;

    for (std::uint32_t off = 0, chunk = 0; off < tlp.length; ++chunk) {
        const std::uint32_t n = split_span(tlp.addr, tlp.length, off);
        auto pkt = pkt_pool_->make_read(tlp.addr + off, n);
        pkt->set_requestor(requestor_id_);
        pkt->set_tag((static_cast<std::uint64_t>(key) << 16) | chunk);
        pkt->set_stream(tlp.requester);
        pkt->flags.from_device = true;
        pkt->flags.needs_translation = params_.device_addresses_virtual;
        pkt->flags.uncacheable = params_.inbound_uncacheable;
        mem_q_.push(std::move(pkt), now());
        off += n;
    }
}

void RootComplex::service_write(Tlp& tlp)
{
    ++inbound_write_tlps_;
    for (std::uint32_t off = 0; off < tlp.length;) {
        const std::uint32_t n = split_span(tlp.addr, tlp.length, off);
        auto pkt = pkt_pool_->make_write(tlp.addr + off, n);
        pkt->set_requestor(requestor_id_);
        pkt->set_stream(tlp.requester);
        pkt->flags.from_device = true;
        pkt->flags.posted = true;
        pkt->flags.needs_translation = params_.device_addresses_virtual;
        // Sub-line writes (completion flags, MSI-style signals) go
        // uncacheable so they reach the bus and snoop-invalidate pollers.
        pkt->flags.uncacheable =
            params_.inbound_uncacheable || n < params_.host_split_bytes;
        mem_q_.push(std::move(pkt), now());
        off += n;
    }
}

void RootComplex::service_completion(TlpPtr tlp)
{
    // Completion for an outbound (CPU MMIO) read.
    const std::uint8_t tag = tlp->tag;
    if (watchdog_ != nullptr &&
        (tag >= mmio_pending_.size() || mmio_pending_[tag] == nullptr)) {
        // Late completion for a tag already master-aborted (or a duplicate
        // from a retry racing the original): drop it, keep the credits
        // flowing.
        ++watchdog_->stray;
        pcie_port_->release_ingress(tlp->payload_bytes());
        return;
    }
    ensure(tag < mmio_pending_.size() && mmio_pending_[tag] != nullptr,
           name(), ": stray MMIO completion tag ", static_cast<int>(tag));
    mem::PacketPtr pkt = std::move(mmio_pending_[tag]);
    mmio_tag_free_[tag] = 1;

    pkt->make_response();
    if (tlp->has_data()) {
        pkt->set_payload(tlp->data(), tlp->data_size());
    }
    mmio_resp_q_.push(std::move(pkt), now());
    pcie_port_->release_ingress(tlp->payload_bytes());

    if (mmio_blocked_upstream_) {
        mmio_blocked_upstream_ = false;
        mmio_port_.send_retry_req();
    }
}

bool RootComplex::recv_resp(mem::PacketPtr& pkt)
{
    // Only inbound-read chunks generate responses (writes are posted).
    if (pkt->cmd() != mem::MemCmd::read_resp) {
        panic(name(), ": unexpected fabric response: ", pkt->describe());
    }
    const auto key = static_cast<std::uint32_t>(pkt->tag() >> 16);
    const auto chunk = static_cast<std::uint32_t>(pkt->tag() & 0xFFFF);

    const std::ptrdiff_t slot = find_inbound_slot(key);
    ensure(slot >= 0, name(), ": response for unknown read key=", key,
           " chunk=", chunk, " addr=0x", std::hex, pkt->addr());
    InboundRead* rd = &inbound_reads_[static_cast<std::size_t>(slot)];
    ensure(chunk < rd->chunks, name(), ": bad chunk index");
    rd->poisoned |= pkt->flags.poisoned;
    rd->mark_chunk_done(chunk);

    advance_completions(static_cast<std::size_t>(slot));
    return true;
}

void RootComplex::advance_completions(std::size_t slot)
{
    InboundRead& rd = inbound_reads_[slot];

    for (;;) {
        if (rd.emitted >= rd.size) {
            break;
        }
        const std::uint32_t span =
            std::min(params_.max_payload_bytes, rd.size - rd.emitted);
        const std::uint32_t last =
            chunk_index(rd.addr, rd.emitted + span - 1);
        // Chunks below done_prefix are all complete and earlier spans have
        // already been emitted, so the span is ready iff the prefix covers
        // its last chunk — one compare instead of a bit rescan.
        if (rd.done_prefix <= last) {
            return;
        }
        const bool is_last = rd.emitted + span >= rd.size;
        TlpPtr cpl = tlp_pool_->make_completion(span, rd.tag, rd.requester,
                                                rd.emitted, is_last);
        cpl->poisoned = rd.poisoned;
        egress_.push(std::move(cpl));
        ++completions_sent_;
        rd.emitted += span;
        if (is_last) {
            rd.live = false;
            slot_of_key_[rd.key] = -1;
            slot_free_bits_[slot / 64] |= std::uint64_t{1} << (slot % 64);
            --inbound_live_;
            // A service slot freed: head-of-line stall may clear.
            delay_.rearm();
            return;
        }
    }
}

bool RootComplex::recv_req(mem::PacketPtr& pkt)
{
    if (pkt->is_write()) {
        ++mmio_writes_;
        auto tlp = tlp_pool_->make_mem_write(pkt->addr(), pkt->size(), 0);
        if (pkt->has_payload()) {
            tlp->set_data(pkt->payload_data(), pkt->payload_size());
        }
        egress_.push(std::move(tlp));
        if (!pkt->flags.posted) {
            // MMIO writes are posted on the wire; ack the fabric now.
            pkt->make_response();
            mmio_resp_q_.push(std::move(pkt), now());
        }
        return true;
    }

    // MMIO read: needs a completion tag.
    const auto free_it =
        std::find(mmio_tag_free_.begin(), mmio_tag_free_.end(), 1);
    if (free_it == mmio_tag_free_.end()) {
        mmio_blocked_upstream_ = true;
        return false;
    }
    const auto tag =
        static_cast<std::uint8_t>(free_it - mmio_tag_free_.begin());
    *free_it = 0;
    ++mmio_reads_;

    auto tlp = tlp_pool_->make_mem_read(pkt->addr(), pkt->size(), tag, 0);
    mmio_pending_[tag] = std::move(pkt);
    egress_.push(std::move(tlp));
    if (watchdog_ != nullptr) {
        watchdog_->deadline[tag] = now() + cpl_timeout_ticks_;
        watchdog_->tries[tag] = 0;
        if (!cpl_timeout_event_.scheduled()) {
            schedule(cpl_timeout_event_, watchdog_->deadline[tag]);
        }
    }
    return true;
}

void RootComplex::check_mmio_timeouts()
{
    Tick next = kMaxTick;
    for (std::size_t tag = 0; tag < mmio_pending_.size(); ++tag) {
        if (mmio_pending_[tag] == nullptr) {
            continue;
        }
        if (watchdog_->deadline[tag] <= now()) {
            ++watchdog_->timeouts;
            if (watchdog_->tries[tag] >= params_.completion_max_retries) {
                // Master abort: answer the fabric with all-ones so the CPU
                // observes the classic dead-device read value instead of
                // hanging forever.
                ++watchdog_->aborts;
                mem::PacketPtr pkt = std::move(mmio_pending_[tag]);
                mmio_tag_free_[tag] = 1;
                const std::vector<std::uint8_t> ones(pkt->size(), 0xFF);
                pkt->make_response();
                pkt->set_payload(ones.data(), ones.size());
                mmio_resp_q_.push(std::move(pkt), now());
                if (mmio_blocked_upstream_) {
                    mmio_blocked_upstream_ = false;
                    mmio_port_.send_retry_req();
                }
                continue;
            }
            // Re-issue the MRd under the same tag with exponential
            // backoff; a late completion of the original attempt wins the
            // race and the duplicate is dropped as stray.
            ++watchdog_->tries[tag];
            watchdog_->deadline[tag] =
                now() + (cpl_timeout_ticks_
                         << std::min(watchdog_->tries[tag], 16U));
            ++watchdog_->retries;
            const mem::PacketPtr& pkt = mmio_pending_[tag];
            egress_.push(tlp_pool_->make_mem_read(
                pkt->addr(), pkt->size(), static_cast<std::uint8_t>(tag),
                0));
        }
        if (mmio_pending_[tag] != nullptr) {
            next = std::min(next, watchdog_->deadline[tag]);
        }
    }
    if (next != kMaxTick) {
        schedule(cpl_timeout_event_, next);
    }
}

void RootComplex::serialize(Ckpt& ar)
{
    delay_.serialize(ar);
    egress_.serialize(ar, *this);

    // Inbound read slots: POD, fixed pool.
    const std::size_t n_slots = inbound_reads_.size();
    ar.pod_vec(inbound_reads_);
    ensure(inbound_reads_.size() == n_slots, name(),
           ": inbound slot count changed across checkpoint");
    ar.pod_vec(slot_of_key_);
    ar.pod_vec(slot_free_bits_);
    std::uint64_t live = inbound_live_;
    ar.io(live, mmio_blocked_upstream_);
    inbound_live_ = static_cast<std::size_t>(live);

    // MMIO tag state.
    ar.pod_vec(mmio_tag_free_);
    for (auto& slot : mmio_pending_) {
        std::uint8_t has_pkt = slot != nullptr ? 1 : 0;
        ar.io(has_pkt);
        if (has_pkt != 0) {
            mem::ckpt_packet(ar, slot);
        } else if (ar.loading()) {
            slot.reset();
        }
    }
    if (watchdog_ != nullptr) {
        ar.pod_vec(watchdog_->deadline);
        ar.pod_vec(watchdog_->tries);
        cpl_timeout_event_.serialize(ar, eq());
    }

    mem_port_.serialize(ar);
    mmio_port_.serialize(ar);
    mem_q_.serialize(ar);
    mmio_resp_q_.serialize(ar);
}

void RootComplex::report_occupancy(std::string& out) const
{
    std::size_t mmio_live = 0;
    for (const auto& slot : mmio_pending_) {
        mmio_live += slot != nullptr ? 1 : 0;
    }
    if (delay_.empty() && inbound_live_ == 0 && mmio_live == 0 &&
        mem_q_.empty() && mmio_resp_q_.empty() && egress_.empty()) {
        return;
    }
    out += "  " + name() + ": " + delay_.occupancy("delayed") +
           ", inbound_reads=" + std::to_string(inbound_live_) +
           ", mmio_pending=" + std::to_string(mmio_live) +
           ", mem_q=" + std::to_string(mem_q_.size()) +
           ", " + egress_.occupancy("egress") +
           (mmio_blocked_upstream_ ? ", blocking CPU MMIO" : "") + "\n";
}

} // namespace accesys::pcie
