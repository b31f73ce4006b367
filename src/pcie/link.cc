#include "pcie/link.hh"

#include <algorithm>

#include "sim/serialize.hh"

namespace accesys::pcie {

void LinkParams::validate() const
{
    require_cfg(lanes == 1 || lanes == 2 || lanes == 4 || lanes == 8 ||
                    lanes == 16 || lanes == 32,
                "PCIe lane count must be a standard width (got ", lanes, ")");
    require_cfg(lane_gbps > 0, "lane speed must be positive");
    require_cfg(hdr_credits > 0 && data_credit_bytes > 0,
                "flow-control credits must be non-zero");
}

LinkParams LinkParams::from_target_gbps(double gbps, unsigned lanes, Gen gen)
{
    require_cfg(gbps > 0, "target bandwidth must be positive");
    LinkParams p;
    p.lanes = lanes;
    p.gen = gen;
    p.lane_gbps = gbps * 8.0 / (lanes * encoding_efficiency(gen));
    return p;
}

void PciePort::attach(PcieNode& node, unsigned node_port_idx)
{
    ensure(node_ == nullptr, "PCIe port attached twice");
    node_ = &node;
    node_port_idx_ = node_port_idx;
}

bool PciePort::can_send(const Tlp& tlp) const
{
    ensure(link_ != nullptr, "PCIe port not part of a link");
    return link_->can_send_from(side_, tlp);
}

unsigned PciePort::hdr_credits() const
{
    if (link_ != nullptr) {
        link_->harvest_credits(side_);
    }
    return tx_hdr_credits_;
}

std::uint64_t PciePort::data_credits() const
{
    if (link_ != nullptr) {
        link_->harvest_credits(side_);
    }
    return tx_data_credits_;
}

bool PciePort::tx_failed() const
{
    ensure(link_ != nullptr, "PCIe port not part of a link");
    return link_->fault_ != nullptr &&
           link_->fault_->dir[side_].link_failed;
}

void PciePort::send(TlpPtr tlp)
{
    ensure(link_ != nullptr, "PCIe port not part of a link");
    // Senders probe can_send() immediately before sending (it harvests any
    // matured lazy credit returns), so the guard here checks the already
    // harvested balance instead of paying a second harvest walk per TLP.
    ensure(tx_hdr_credits_ >= 1 &&
               tx_data_credits_ >= tlp->payload_bytes(),
           "PCIe send without credits");
    tx_hdr_credits_ -= 1;
    tx_data_credits_ -= tlp->payload_bytes();
    link_->transmit(side_, std::move(tlp));
}

void PciePort::release_ingress(std::uint32_t payload_bytes)
{
    ensure(link_ != nullptr, "PCIe port not part of a link");
    // Credits freed on our ingress return to the peer's transmitter.
    link_->queue_credit_return(1 - side_, 1, payload_bytes);
}

PcieLink::PcieLink(Simulator& sim, std::string name, const LinkParams& params)
    : SimObject(sim, std::move(name)), params_(params)
{
    params_.validate();
    ser_ps_per_byte_ = 1000.0 / params_.effective_gbps();
    prop_ticks_ = ticks_from_ns(params_.propagation_delay_ns);
    for (unsigned side = 0; side < 2; ++side) {
        ports_[side].link_ = this;
        ports_[side].side_ = side;
        ports_[side].tx_hdr_credits_ = params_.hdr_credits;
        ports_[side].tx_data_credits_ = params_.data_credit_bytes;
    }
    dirs_[0].deliver_event.set_name(this->name() + ".deliver_ab");
    dirs_[0].deliver_event.set_raw_callback(
        [](void* self) { static_cast<PcieLink*>(self)->deliver(0); }, this);
    dirs_[1].deliver_event.set_name(this->name() + ".deliver_ba");
    dirs_[1].deliver_event.set_raw_callback(
        [](void* self) { static_cast<PcieLink*>(self)->deliver(1); }, this);
    dirs_[0].credit_event.set_name(this->name() + ".credit_ab");
    dirs_[0].credit_event.set_raw_callback(
        [](void* self) { static_cast<PcieLink*>(self)->credit(0); }, this);
    dirs_[1].credit_event.set_name(this->name() + ".credit_ba");
    dirs_[1].credit_event.set_raw_callback(
        [](void* self) { static_cast<PcieLink*>(self)->credit(1); }, this);
    if (FaultInjector* fi = sim.fault_injector()) {
        fault_ = std::make_unique<FaultState>(*this, *fi);
    }
}

PcieLink::FaultState::FaultState(PcieLink& link, FaultInjector& fi)
    : plan(fi.plan()),
      site_id(fi.register_site(link.name())),
      replay_timeout(ticks_from_ns(plan.replay_timeout_ns)),
      corrupted(link.stat_group(), "link_corrupted_tlps",
                "TLPs marked corrupted at transmit"),
      naks(link.stat_group(), "link_nak_count", "NAKs sent by receivers"),
      replays(link.stat_group(), "link_replays",
              "TLP retransmissions from the replay buffer"),
      dropped(link.stat_group(), "link_dropped_tlps",
              "TLP transmissions discarded (corrupt/out-of-seq/down)"),
      dead(link.stat_group(), "link_dead_tlps",
           "TLPs dropped for good after exhausting the replay budget"),
      retrains(link.stat_group(), "link_retrains",
               "link retrains after down windows"),
      recovery_ns(link.stat_group(), "recovery_ns",
                  "summed first-transmit-to-ACK latency of replayed TLPs",
                  [this] {
                      return ticks_to_ns(dir[0].recovery_ticks +
                                         dir[1].recovery_ticks);
                  })
{
    static constexpr const char* kDirSuffix[2] = {"_ab", "_ba"};
    for (unsigned s = 0; s < 2; ++s) {
        FaultDir& f = dir[s];
        f.rng.reseed(fi.stream_seed(site_id, s));
        f.rate_on = fi.rate_applies(link.name());
        fi.collect(link.name(), s, f.corrupt_at, f.down);
        f.dll_event.set_name(link.name() + ".dll" + kDirSuffix[s]);
        f.replay_event.set_name(link.name() + ".replay" + kDirSuffix[s]);
        f.retrain_event.set_name(link.name() + ".retrain" + kDirSuffix[s]);
    }
    dir[0].dll_event.set_raw_callback(
        [](void* self) { static_cast<PcieLink*>(self)->process_dll(0); },
        &link);
    dir[1].dll_event.set_raw_callback(
        [](void* self) { static_cast<PcieLink*>(self)->process_dll(1); },
        &link);
    dir[0].replay_event.set_raw_callback(
        [](void* self) { static_cast<PcieLink*>(self)->replay_timer(0); },
        &link);
    dir[1].replay_event.set_raw_callback(
        [](void* self) { static_cast<PcieLink*>(self)->replay_timer(1); },
        &link);
    dir[0].retrain_event.set_raw_callback(
        [](void* self) { static_cast<PcieLink*>(self)->retrain(0); },
        &link);
    dir[1].retrain_event.set_raw_callback(
        [](void* self) { static_cast<PcieLink*>(self)->retrain(1); },
        &link);
}

void PcieLink::startup()
{
    if (fault_ == nullptr) {
        return;
    }
    for (FaultDir& f : fault_->dir) {
        if (!f.down.empty()) {
            schedule(f.retrain_event, f.down[0].second);
        }
    }
}

double PcieLink::utilization(unsigned dir) const
{
    const Tick elapsed = now();
    return elapsed == 0 ? 0.0
                        : static_cast<double>(dirs_[dir].busy_ticks) /
                              static_cast<double>(elapsed);
}

namespace {

/// Is `t` inside one of the sorted, merged `[start, end)` windows?
/// `idx` is a monotonic cursor (each caller's probe ticks never go back).
bool in_window(const std::vector<std::pair<Tick, Tick>>& w, std::size_t& idx,
               Tick t)
{
    while (idx < w.size() && w[idx].second <= t) {
        ++idx;
    }
    return idx < w.size() && t >= w[idx].first;
}

} // namespace

void PcieLink::synthesize_credits(unsigned side, unsigned hdr,
                                  std::uint64_t data)
{
    // The wire ate a TLP for good: hand its flow-control credits straight
    // back to the transmit side (the receiver will never release them).
    Direction& d = dirs_[side];
    d.credit_returns.push_back(CreditReturn{now(), hdr, data});
    if (d.tx_starved && !d.credit_event.scheduled()) {
        eq().schedule(d.credit_event, now());
    }
}

void PcieLink::arm_replay_timer(unsigned dir)
{
    FaultDir& f = fault_->dir[dir];
    if (!f.replay.empty() && !f.replay_event.scheduled()) {
        schedule(f.replay_event, now() + fault_->replay_timeout);
    }
}

void PcieLink::fault_transmit(unsigned side, TlpPtr tlp)
{
    FaultDir& f = fault_->dir[side];
    if (f.link_failed) {
        // Direction declared dead: swallow the TLP, return its credits so
        // upstream queues drain, and let completion timeouts surface the
        // loss.
        ++fault_->dead;
        synthesize_credits(side, 1, tlp->payload_bytes());
        return;
    }
    tlp->dl_seq = f.next_seq++;
    ReplayEntry e;
    e.first_tx = e.ack_base = now();
    e.seq = tlp->dl_seq;
    e.hdr_cost = 1;
    e.data_cost = tlp->payload_bytes();
    e.tlp = *tlp; // value snapshot — pool-less, survives delivery
    f.replay.push_back(std::move(e));
    arm_replay_timer(side);
    const Tick ack_due = send_attempt(side, std::move(tlp),
                                      /*is_replay=*/false);
    if (ack_due != 0) {
        f.replay[f.replay.size() - 1].ack_base = ack_due;
    }
}

Tick PcieLink::send_attempt(unsigned side, TlpPtr tlp, bool is_replay)
{
    Direction& d = dirs_[side];
    FaultDir& f = fault_->dir[side];
    const Tick start = std::max(now(), d.busy_until);

    // A downed link transmits nothing: the TLP stays in the replay buffer
    // and the replay timer re-sends it after the retrain.
    if (in_window(f.down, f.tx_down_idx, start)) {
        ++fault_->dropped;
        return 0;
    }

    // Corruption is decided per wire attempt — a replay can be hit again.
    bool corrupt = f.rate_on && f.rng.chance(fault_->plan.corrupt_rate);
    if (!corrupt && f.corrupt_idx < f.corrupt_at.size() &&
        start >= f.corrupt_at[f.corrupt_idx]) {
        corrupt = true;
        ++f.corrupt_idx;
    }
    tlp->dl_corrupt = corrupt;
    if (corrupt) {
        ++fault_->corrupted;
    }

    const std::uint64_t bytes = wire_bytes(*tlp);
    const Tick ser =
        static_cast<Tick>(static_cast<double>(bytes) * ser_ps_per_byte_);
    d.busy_until = start + ser;
    d.busy_ticks += ser;
    const Tick arrival = d.busy_until + prop_ticks_;

    if (!is_replay) {
        ++tlps_;
        payload_bytes_ += tlp->payload_bytes();
        wire_bytes_ += static_cast<double>(bytes);
    }
    d.in_flight.push_back(InFlight{arrival, std::move(tlp)});
    if (!d.deliver_event.scheduled()) {
        eq().schedule(d.deliver_event, arrival);
    }
    return arrival + prop_ticks_;
}

bool PcieLink::fault_accept(unsigned dir, Tlp& tlp, Tick arrival)
{
    FaultDir& f = fault_->dir[dir];
    const auto drop = [&] { ++fault_->dropped; };
    const auto nak = [&] {
        ++fault_->naks;
        f.nak_armed = true;
        queue_dll(dir, DllRecord{arrival + prop_ticks_, f.expect_seq, true});
    };

    // Receiver off during a down window: the TLP evaporates on the wire.
    if (in_window(f.down, f.rx_down_idx, arrival)) {
        drop();
        return false;
    }
    if (tlp.dl_corrupt) {
        // A failed LCRC always NAKs — a replayed TLP corrupted again
        // draws another NAK (this is what a NAK storm is made of).
        drop();
        nak();
        return false;
    }
    if (tlp.dl_seq != f.expect_seq) {
        drop();
        // Gap after a loss: NAK once per error window. Duplicates from
        // replay overlap (seq below expected) are discarded silently.
        if (tlp.dl_seq > f.expect_seq && !f.nak_armed) {
            nak();
        }
        return false;
    }
    f.expect_seq = tlp.dl_seq + 1;
    f.nak_armed = false;
    // Cumulative ACK: everything below expect_seq has been accepted.
    queue_dll(dir, DllRecord{arrival + prop_ticks_, f.expect_seq, false});
    return true;
}

void PcieLink::queue_dll(unsigned dir, DllRecord rec)
{
    // Called by direction `dir`'s receiver; the record travels back to
    // the transmit side, arriving a propagation delay later.
    FaultDir& f = fault_->dir[dir];
    const bool nak = rec.nak;
    f.dll.push_back(rec);
    if (nak) {
        ++f.naks_pending;
    }
    // Lazy like credit returns: ACKs are harvested by the next transmit
    // probe; only NAKs (which must trigger replay unprompted) and a
    // replay-starved transmitter need the event.
    if ((nak || f.replay_starved) && !f.dll_event.scheduled()) {
        // Clamp: the front record can be a stale, lazily-unharvested ACK
        // whose arrival tick is already in the past.
        eq().schedule(f.dll_event,
                              std::max(now(), f.dll.front().arrival));
    }
}

bool PcieLink::harvest_acks(unsigned dir)
{
    FaultDir& f = fault_->dir[dir];
    bool freed = false;
    while (!f.dll.empty() && f.dll.front().arrival <= now()) {
        const DllRecord rec = f.dll.take_front();
        while (!f.replay.empty() && f.replay.front().seq < rec.seq) {
            const ReplayEntry& e = f.replay.front();
            if (e.tries > 0) {
                f.recovery_ticks += rec.arrival - e.first_tx;
            }
            f.replay.pop_front();
            freed = true;
        }
        if (rec.nak) {
            --f.naks_pending;
            do_replay(dir, rec.seq);
        }
    }
    return freed;
}

void PcieLink::do_replay(unsigned dir, std::uint64_t from_seq)
{
    FaultDir& f = fault_->dir[dir];
    if (f.link_failed) {
        return;
    }
    for (std::size_t i = 0; i < f.replay.size();) {
        ReplayEntry& e = f.replay[i];
        if (e.seq < from_seq) {
            ++i;
            continue;
        }
        if (e.tries >= fault_->plan.max_replays) {
            // Replay budget exhausted: this TLP is gone for good and the
            // direction can never re-sync its sequence — latch it failed
            // so later traffic fast-fails instead of storming.
            ++fault_->dead;
            synthesize_credits(dir, e.hdr_cost, e.data_cost);
            f.link_failed = true;
            f.replay.erase_at(i);
            break; // the flush below retires whatever is left
        }
        ++e.tries;
        e.ack_base = now();
        ++fault_->replays;
        TlpPtr clone = tlp_pool().make();
        *clone = e.tlp;
        const Tick ack_due =
            send_attempt(dir, std::move(clone), /*is_replay=*/true);
        if (ack_due != 0) {
            e.ack_base = ack_due;
        }
        ++i;
    }
    if (f.link_failed) {
        // Flush what's left: a failed direction keeps nothing alive.
        while (!f.replay.empty()) {
            const ReplayEntry& e = f.replay.front();
            ++fault_->dead;
            synthesize_credits(dir, e.hdr_cost, e.data_cost);
            f.replay.pop_front();
        }
    }
    arm_replay_timer(dir);
}

void PcieLink::process_dll(unsigned dir)
{
    FaultDir& f = fault_->dir[dir];
    const bool was_starved = f.replay_starved;
    const bool freed = harvest_acks(dir);
    // Clear before the kick, exactly like credit(): a still-starved
    // sender's probe inside credit_avail() re-arms below.
    f.replay_starved = false;
    if (freed || was_starved) {
        PciePort& tx = ports_[dir];
        ensure(tx.node_ != nullptr, name(), ": unattached PCIe port");
        tx.node_->credit_avail(tx.node_port_idx_);
    }
    if (!f.dll.empty() && (f.naks_pending > 0 || f.replay_starved) &&
        !f.dll_event.scheduled()) {
        eq().schedule(f.dll_event,
                              std::max(now(), f.dll.front().arrival));
    }
}

void PcieLink::replay_timer(unsigned dir)
{
    FaultDir& f = fault_->dir[dir];
    const bool was_starved = f.replay_starved;
    const bool freed = harvest_acks(dir);
    f.replay_starved = false;
    if (freed || was_starved) {
        PciePort& tx = ports_[dir];
        ensure(tx.node_ != nullptr, name(), ": unattached PCIe port");
        tx.node_->credit_avail(tx.node_port_idx_);
    }
    if (f.replay.empty()) {
        return;
    }
    const Tick due = f.replay.front().ack_base + fault_->replay_timeout;
    if (due <= now()) {
        // Nothing ACKed the oldest entry in a full timeout: the receiver
        // never saw it (link-down loss, lost to a dead window) — replay
        // the whole buffer.
        do_replay(dir, f.replay.front().seq);
    }
    if (!f.replay.empty() && !f.replay_event.scheduled()) {
        const Tick next =
            f.replay.front().ack_base + fault_->replay_timeout;
        schedule(f.replay_event, std::max(next, now()));
    }
}

void PcieLink::retrain(unsigned dir)
{
    // Fires at a down-window end, on the transmit side's queue. The wire
    // comes back clean: drain every in-flight credit return (they belong
    // to the pre-down world) and re-arm the full advertised credits, then
    // kick the transmitter — its egress likely backed up during the
    // window. Sequence state is kept: the replay timer re-sends what the
    // down window ate, under the original sequence numbers.
    Direction& d = dirs_[dir];
    FaultDir& f = fault_->dir[dir];
    d.credit_returns.clear();
    ports_[dir].tx_hdr_credits_ = params_.hdr_credits;
    ports_[dir].tx_data_credits_ = params_.data_credit_bytes;
    ++fault_->retrains;
    d.tx_starved = false;
    PciePort& tx = ports_[dir];
    ensure(tx.node_ != nullptr, name(), ": unattached PCIe port");
    tx.node_->credit_avail(tx.node_port_idx_);
    ++f.retrain_idx;
    if (f.retrain_idx < f.down.size()) {
        schedule(f.retrain_event, f.down[f.retrain_idx].second);
    }
}

void PcieLink::transmit(unsigned from_side, TlpPtr tlp)
{
    if (fault_ != nullptr) {
        fault_transmit(from_side, std::move(tlp));
        return;
    }
    // dir 0 carries a->b (from side 0), dir 1 carries b->a.
    Direction& d = dirs_[from_side];

    const std::uint64_t bytes = wire_bytes(*tlp);
    const Tick start = std::max(now(), d.busy_until);
    const Tick ser =
        static_cast<Tick>(static_cast<double>(bytes) * ser_ps_per_byte_);
    d.busy_until = start + ser;
    d.busy_ticks += ser;
    const Tick arrival = d.busy_until + prop_ticks_;

    ++tlps_;
    payload_bytes_ += tlp->payload_bytes();
    wire_bytes_ += static_cast<double>(bytes);

    d.in_flight.push_back(InFlight{arrival, std::move(tlp)});
    if (!d.deliver_event.scheduled()) {
        eq().schedule(d.deliver_event, arrival);
    }
}

void PcieLink::deliver(unsigned dir)
{
    Direction& d = dirs_[dir];
    while (!d.in_flight.empty() &&
           d.in_flight.front().arrival <= now()) {
        const Tick arrival = d.in_flight.front().arrival;
        TlpPtr tlp = std::move(d.in_flight.front().tlp);
        d.in_flight.pop_front();
        if (fault_ != nullptr && !fault_accept(dir, *tlp, arrival)) {
            continue; // discarded by the DLL; replay recovers it
        }
        PciePort& rx = ports_[1 - dir]; // dir 0 lands at end_b (side 1)
        ensure(rx.node_ != nullptr, name(), ": unattached PCIe port");
        rx.node_->recv_tlp(rx.node_port_idx_, std::move(tlp));
    }
    if (!d.in_flight.empty()) {
        eq().schedule(d.deliver_event, d.in_flight.front().arrival);
    }
}

void PcieLink::queue_credit_return(unsigned to_side, unsigned hdr,
                                   std::uint64_t data)
{
    // Direction index named by the side whose transmitter gets the credits.
    // Called by that direction's *receiver* (release_ingress).
    if (test_credit_leak_[to_side]) {
        return; // test hook: the peer "lost" this release
    }
    Direction& d = dirs_[to_side];
    const Tick arrival = now() + prop_ticks_;
    d.credit_returns.push_back(CreditReturn{arrival, hdr, data});
    // Lazy accounting: an unstarved transmitter harvests this return the
    // next time it probes can_send(); only a starved one needs the event.
    if (d.tx_starved && !d.credit_event.scheduled()) {
        eq().schedule(d.credit_event, arrival);
    }
}

bool PcieLink::harvest_credits(unsigned side)
{
    Direction& d = dirs_[side];
    PciePort& p = ports_[side];
    bool granted = false;
    while (!d.credit_returns.empty() &&
           d.credit_returns.front().arrival <= now()) {
        const CreditReturn cr = d.credit_returns.take_front();
        p.tx_hdr_credits_ += cr.hdr;
        p.tx_data_credits_ += cr.data;
        granted = true;
    }
    if (fault_ != nullptr) {
        // A retrain re-arms full credits; a straggling release from the
        // pre-down world must not push the balance past the advertised
        // buffer.
        p.tx_hdr_credits_ = std::min(p.tx_hdr_credits_, params_.hdr_credits);
        p.tx_data_credits_ =
            std::min(p.tx_data_credits_, params_.data_credit_bytes);
    }
    return granted;
}

bool PcieLink::can_send_from(unsigned side, const Tlp& tlp)
{
    PciePort& p = ports_[side];
    harvest_credits(side);
    if (fault_ != nullptr) {
        FaultDir& f = fault_->dir[side];
        harvest_acks(side); // frees ACKed replay entries (and serves NAKs)
        if (!f.link_failed &&
            f.replay.size() >= fault_->plan.replay_buffer_tlps) {
            // Replay buffer full: back-pressure exactly like credit
            // starvation — the kick comes from the next DLL record (or
            // the replay timer, which is always armed while entries
            // exist).
            f.replay_starved = true;
            if (!f.dll.empty() && !f.dll_event.scheduled()) {
                eq().schedule(
                    f.dll_event, std::max(now(), f.dll.front().arrival));
            }
            return false;
        }
    }
    if (p.tx_hdr_credits_ >= 1 &&
        p.tx_data_credits_ >= tlp.payload_bytes()) {
        return true;
    }
    // Starved: arm the kick at the earliest in-flight return, the first
    // tick at which this probe could succeed.
    Direction& d = dirs_[side];
    d.tx_starved = true;
    if (!d.credit_returns.empty() && !d.credit_event.scheduled()) {
        eq().schedule(d.credit_event, d.credit_returns.front().arrival);
    }
    return false;
}

void PcieLink::credit(unsigned dir)
{
    Direction& d = dirs_[dir];
    const bool was_starved = d.tx_starved;
    const bool granted = harvest_credits(dir);
    // Clear before the kick: a still-starved sender's can_send() probe
    // inside credit_avail() re-arms the next pending arrival. The kick
    // also fires when this event granted nothing but the direction was
    // starved: a same-tick can_send() probe earlier in the batch may have
    // harvested the matured returns inline, and without the kick here the
    // sender whose wakeup those returns carried would wait forever.
    d.tx_starved = false;
    if (granted || was_starved) {
        PciePort& tx = ports_[dir];
        ensure(tx.node_ != nullptr, name(), ": unattached PCIe port");
        tx.node_->credit_avail(tx.node_port_idx_);
    }
    if (!d.credit_returns.empty() && d.tx_starved &&
        !d.credit_event.scheduled()) {
        eq().schedule(d.credit_event, d.credit_returns.front().arrival);
    }
}

void PcieLink::test_leak_credits(unsigned side)
{
    test_credit_leak_[side] = true;
    ports_[side].tx_hdr_credits_ = 0;
    ports_[side].tx_data_credits_ = 0;
    dirs_[side].credit_returns.clear();
}

void PcieLink::serialize(Ckpt& ar)
{
    for (auto& port : ports_) {
        ar.io(port.tx_hdr_credits_, port.tx_data_credits_);
    }
    for (Direction& d : dirs_) {
        ar.io(d.busy_until, d.busy_ticks, d.tx_starved);
        std::uint64_t n_credits = d.credit_returns.size();
        std::uint64_t n_flight = d.in_flight.size();
        ar.io(n_credits, n_flight);
        if (ar.saving()) {
            for (std::size_t i = 0; i < n_credits; ++i) {
                CreditReturn& cr = d.credit_returns[i];
                ar.io(cr.arrival, cr.hdr, cr.data);
            }
            for (std::size_t i = 0; i < n_flight; ++i) {
                InFlight& f = d.in_flight[i];
                ar.io(f.arrival);
                f.tlp->serialize(ar);
            }
        } else {
            d.credit_returns.clear();
            d.in_flight.clear();
            for (std::uint64_t i = 0; i < n_credits; ++i) {
                CreditReturn cr{};
                ar.io(cr.arrival, cr.hdr, cr.data);
                d.credit_returns.push_back(cr);
            }
            for (std::uint64_t i = 0; i < n_flight; ++i) {
                InFlight f{};
                ar.io(f.arrival);
                f.tlp = tlp_pool().make();
                f.tlp->serialize(ar);
                d.in_flight.push_back(std::move(f));
            }
        }
        d.credit_event.serialize(ar, eq());
        d.deliver_event.serialize(ar, eq());
    }
    if (fault_ == nullptr) {
        return; // same config => same plan presence on both sides
    }
    for (FaultDir& f : fault_->dir) {
        f.rng.serialize(ar);
        ar.io(f.link_failed, f.next_seq, f.naks_pending, f.replay_starved,
              f.recovery_ticks, f.expect_seq, f.nak_armed);
        std::uint64_t ci = f.corrupt_idx;
        std::uint64_t ti = f.tx_down_idx;
        std::uint64_t ri = f.retrain_idx;
        std::uint64_t xi = f.rx_down_idx;
        ar.io(ci, ti, ri, xi);
        f.corrupt_idx = static_cast<std::size_t>(ci);
        f.tx_down_idx = static_cast<std::size_t>(ti);
        f.retrain_idx = static_cast<std::size_t>(ri);
        f.rx_down_idx = static_cast<std::size_t>(xi);
        std::uint64_t n_replay = f.replay.size();
        std::uint64_t n_dll = f.dll.size();
        ar.io(n_replay, n_dll);
        if (ar.saving()) {
            for (std::size_t i = 0; i < n_replay; ++i) {
                ReplayEntry& e = f.replay[i];
                ar.io(e.first_tx, e.ack_base, e.seq, e.tries, e.hdr_cost,
                      e.data_cost);
                e.tlp.serialize(ar);
            }
            for (std::size_t i = 0; i < n_dll; ++i) {
                DllRecord& rec = f.dll[i];
                ar.io(rec.arrival, rec.seq, rec.nak);
            }
        } else {
            f.replay.clear();
            f.dll.clear();
            for (std::uint64_t i = 0; i < n_replay; ++i) {
                ReplayEntry e;
                ar.io(e.first_tx, e.ack_base, e.seq, e.tries, e.hdr_cost,
                      e.data_cost);
                e.tlp.serialize(ar);
                f.replay.push_back(std::move(e));
            }
            for (std::uint64_t i = 0; i < n_dll; ++i) {
                DllRecord rec;
                ar.io(rec.arrival, rec.seq, rec.nak);
                f.dll.push_back(rec);
            }
        }
        f.dll_event.serialize(ar, eq());
        f.replay_event.serialize(ar, eq());
        f.retrain_event.serialize(ar, eq());
    }
}

void PcieLink::report_occupancy(std::string& out) const
{
    const std::size_t flight =
        dirs_[0].in_flight.size() + dirs_[1].in_flight.size();
    const std::size_t replay =
        fault_ != nullptr
            ? fault_->dir[0].replay.size() + fault_->dir[1].replay.size()
            : 0;
    const bool failed =
        fault_ != nullptr &&
        (fault_->dir[0].link_failed || fault_->dir[1].link_failed);
    const bool starved = dirs_[0].tx_starved || dirs_[1].tx_starved;
    if (flight == 0 && replay == 0 && !failed && !starved) {
        return;
    }
    out += "  " + name() + ": in_flight=" + std::to_string(flight);
    if (fault_ != nullptr) {
        out += ", replay_buffered=" + std::to_string(replay);
    }
    if (failed) {
        out += ", direction latched FAILED";
    }
    if (starved) {
        out += ", tx credit-starved";
    }
    out += "\n";
}

std::uint64_t PcieNode::encode_sent_hook(const SentHook& hook) const
{
    ensure(!hook, "staged SentHook with no encoder");
    return 0;
}

SentHook PcieNode::decode_sent_hook(std::uint64_t /*code*/)
{
    panic("SentHook decode without an encoder override");
}

DelayStage::DelayStage(Simulator& sim, std::string event_name, Tick latency,
                       ServeFn serve, void* ctx)
    : eq_(&sim.queue()), latency_(latency), event_(std::move(event_name),
                                                   nullptr)
{
    event_.set_raw_callback(serve, ctx);
}

std::size_t DelayStage::drop_all(PciePort& ingress)
{
    const std::size_t n = q_.size();
    while (!q_.empty()) {
        ingress.release_ingress(q_.take_front().tlp->payload_bytes());
    }
    return n;
}

void DelayStage::serialize(Ckpt& ar)
{
    std::uint64_t n = q_.size();
    ar.io(n);
    if (ar.loading()) {
        q_.clear();
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        Entry loaded;
        Entry& e = ar.saving() ? q_[i] : loaded;
        ar.io(e.ready, e.from);
        ckpt_tlp(ar, e.tlp);
        if (ar.loading()) {
            q_.push_back(std::move(loaded));
        }
    }
    event_.serialize(ar, *eq_);
}

std::string DelayStage::occupancy(const std::string& label) const
{
    std::string out = label + "=" + std::to_string(q_.size());
    if (!q_.empty()) {
        out += " (head ";
        out += q_.front().tlp->describe();
        out += ")";
    }
    return out;
}

std::string TlpQueue::occupancy(const std::string& label) const
{
    std::string out = label + "=" + std::to_string(q_.size());
    if (!q_.empty()) {
        std::size_t hooks = 0;
        for (std::size_t i = 0; i < q_.size(); ++i) {
            hooks += q_[i].on_sent ? 1 : 0;
        }
        out += " (head ";
        out += q_.front().tlp->describe();
        out += ", ";
        out += std::to_string(hooks);
        out += " with SentHook)";
    }
    return out;
}

void TlpQueue::serialize(Ckpt& ar, PcieNode& owner)
{
    std::uint64_t n = q_.size();
    ar.io(n);
    if (ar.loading()) {
        q_.clear();
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        Staged loaded;
        Staged& s = ar.saving() ? q_[i] : loaded;
        std::uint8_t has_hook = s.on_sent ? 1 : 0;
        std::uint64_t code =
            has_hook != 0 ? owner.encode_sent_hook(s.on_sent) : 0;
        ar.io(has_hook, code);
        ckpt_tlp(ar, s.tlp);
        if (ar.loading()) {
            if (has_hook != 0) {
                loaded.on_sent = owner.decode_sent_hook(code);
            }
            q_.push_back(std::move(loaded));
        }
    }
}

} // namespace accesys::pcie
