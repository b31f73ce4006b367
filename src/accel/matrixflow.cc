#include "accel/matrixflow.hh"

#include <algorithm>
#include <array>

#include "sim/serialize.hh"

namespace accesys::accel {

namespace {

/// Scratchpad header area: descriptor scratch + completion-flag scratch.
constexpr Addr kDescScratch = 0;
constexpr Addr kFlagScratch = 64;
constexpr Addr kDataBase = 256;

} // namespace

void MatrixFlowParams::validate() const
{
    sa.validate();
    dma.validate();
    require_cfg(local_buffer_bytes >= 16 * kKiB,
                "MatrixFlow local buffer must be at least 16 KiB");
    require_cfg(cmd_fifo_depth >= 1, "MatrixFlow needs a command slot");
}

MatrixFlowDevice::MatrixFlowDevice(Simulator& sim, std::string name,
                                   const MatrixFlowParams& params,
                                   mem::BackingStore& store,
                                   mem::AddrRange host_range)
    : Endpoint(sim, std::move(name), params.ep,
               {mem::AddrRange::with_size(params.bar0_base,
                                          params.bar0_size)}),
      params_(params),
      store_(&store),
      host_range_(host_range),
      sa_(params.sa),
      dma_(sim, this->name() + ".dma", params.dma, *this, store),
      pcie_mover_(dma_, host_range),
      aperture_port_(this->name() + ".aperture", *this),
      aperture_q_(sim, this->name() + ".aperture_q",
                  [](void* s, mem::PacketPtr& pkt) {
                      return static_cast<MatrixFlowDevice*>(s)
                          ->aperture_port_.send_req(pkt);
                  },
                  this)
{
    params_.validate();
    dma_.set_continuation_listener(this);
    aperture_port_.set_fast_path(
        [](void* s, mem::PacketPtr& pkt) {
            return static_cast<MatrixFlowDevice*>(s)->recv_resp(pkt);
        },
        [](void* s) { static_cast<MatrixFlowDevice*>(s)->retry_req(); },
        this);
    compute_event_.set_name(this->name() + ".compute_done");
    compute_event_.set_callback([this] { compute_done(); });
    flr_kick_event_.set_name(this->name() + ".flr_kick");
    flr_kick_event_.set_callback([this] { fetch_next_command(); });
    if (FaultInjector* fi = sim.fault_injector(); fi != nullptr) {
        mf_fault_ = std::make_unique<MfFaultState>(stat_group(), *fi,
                                                   this->name(),
                                                   fault_site_id());
    }
}

MatrixFlowDevice::MfFaultState::MfFaultState(stats::Group& g,
                                             FaultInjector& fi,
                                             const std::string& site_name,
                                             unsigned site_id)
    : hangs(g, "hangs", "seeded accelerator hangs (FSM frozen until FLR)")
{
    hang_rate_on = fi.hang_applies(site_name);
    hang_rate = fi.plan().hang_rate;
    hang_rng.reseed(fi.device_stream_seed(site_id, 1));
    std::vector<Tick> poison_discard; // the Endpoint collects its own
    std::vector<std::pair<Tick, Tick>> ur_discard;
    fi.collect_device(site_name, hang_ticks, poison_discard, ur_discard);
}

void MatrixFlowDevice::attach_devmem(mem::AddrRange devmem_range,
                                     mem::ResponsePort& mover_port,
                                     mem::ResponsePort& aperture_port)
{
    ensure(devmem_mover_ == nullptr, name(), ": devmem already attached");
    devmem_range_ = devmem_range;
    devmem_mover_ = std::make_unique<DevMemMover>(
        sim(), name() + ".devmem_mover", params_.devmem_mover, devmem_range,
        *store_);
    devmem_mover_->set_continuation_listener(this);
    devmem_mover_->port().bind(mover_port);
    aperture_port_.bind(aperture_port);
}

// --- MMIO registers ---------------------------------------------------------

std::uint64_t MatrixFlowDevice::mmio_read(Addr addr, std::uint32_t /*size*/)
{
    switch (addr) {
    case kRegStatus:
        // A wedged or resetting function reports busy: the driver's status
        // probe cannot mistake it for idle.
        return busy() || hung() || in_flr() ? 1 : 0;
    case kRegCmdCount:
        return commands_done();
    case kRegTileCount:
        return static_cast<std::uint64_t>(n_tiles_.value());
    default:
        return 0;
    }
}

void MatrixFlowDevice::mmio_write(Addr addr, std::uint32_t /*size*/,
                                  std::uint64_t value)
{
    if (addr == kRegDoorbell) {
        doorbell(static_cast<Addr>(value));
    }
    // Other offsets: write-ignored (reserved).
}

// --- command handling -------------------------------------------------------

void MatrixFlowDevice::doorbell(Addr desc_addr)
{
    ensure(cmd_fifo_.size() < params_.cmd_fifo_depth, name(),
           ": command FIFO overflow (driver must respect depth ",
           params_.cmd_fifo_depth, ")");
    cmd_fifo_.push_back(desc_addr);
    fetch_next_command();
}

void MatrixFlowDevice::fetch_next_command()
{
    if (fetching_ || run_.has_value() || cmd_fifo_.empty()) {
        return;
    }
    if (hung()) {
        return; // FSM frozen: only an FLR restarts command fetch
    }
    if (in_flr()) {
        // Doorbell rang while the function was resetting: resume fetching
        // when the reset window closes.
        if (!flr_kick_event_.scheduled()) {
            schedule(flr_kick_event_, flr_until());
        }
        return;
    }
    fetching_ = true;
    const Addr desc = cmd_fifo_.front();
    cmd_fifo_.pop_front();

    pcie_mover_.submit(TransferJob{
        desc, params_.local_base + kDescScratch, sizeof(GemmCommand),
        dma::Continuation{this, kContDescFetched, 0}});
}

void MatrixFlowDevice::transfer_done(std::uint8_t kind, std::uint32_t arg)
{
    switch (kind) {
    case kContDescFetched: {
        fetching_ = false;
        const auto cmd = store_->read_obj<GemmCommand>(params_.local_base +
                                                       kDescScratch);
        ensure(cmd.magic == GemmCommand::kMagic, name(),
               ": bad descriptor magic");
        if (mf_fault_ != nullptr && hang_roll()) {
            // Seeded accelerator hang at the command boundary: the
            // descriptor is consumed but the FSM freezes before launch.
            // The host observes a missing completion flag; recovery is an
            // FLR issued by the runner's health machinery.
            mf_fault_->hung = true;
            ++mf_fault_->hangs;
            break;
        }
        start_run(cmd);
        break;
    }
    case kContBLoaded: {
        Run& r = *run_;
        r.b_loaded = true;
        // Kick the A pipeline: fill both slots.
        load_a_strip(0);
        if (r.num_strips > 1) {
            load_a_strip(1);
        }
        try_compute();
        break;
    }
    case kContALoaded: {
        run_->a_slot_ready[arg % 2] = true;
        try_compute();
        break;
    }
    case kContCWritten: {
        Run& r = *run_;
        ensure(r.outstanding_c_jobs > 0, name(),
               ": C write accounting bug");
        --r.outstanding_c_jobs;
        if (r.all_blocks_issued && r.outstanding_c_jobs == 0) {
            run_complete();
        }
        break;
    }
    case kContFlagPosted: {
        ++n_commands_;
        last_complete_tick_ = now();
        run_.reset();
        fetch_next_command();
        break;
    }
    default:
        panic(name(), ": unknown transfer continuation kind ",
              static_cast<int>(kind));
    }
}

void MatrixFlowDevice::start_run(const GemmCommand& cmd)
{
    ensure(cmd.m > 0 && cmd.n > 0 && cmd.k > 0, name(),
           ": degenerate GEMM command");
    Run run;
    run.cmd = cmd;

    if ((cmd.flags & kCmdDataInDevMem) != 0) {
        ensure(devmem_mover_ != nullptr, name(),
               ": DevMem command without device memory attached");
        run.mover = devmem_mover_.get();
    } else {
        run.mover = &pcie_mover_;
    }

    // Choose the column-block width so that one B panel, two A strips and
    // one C strip fit in the scratchpad (minus the header area), bounded by
    // the dataflow's reuse policy (max_block_cols).
    const std::uint64_t budget =
        params_.local_buffer_bytes - kDataBase;
    const std::uint64_t a_bytes = 2ULL * 16 * cmd.k;
    const std::uint64_t cap =
        params_.max_block_cols > 0 ? params_.max_block_cols : 256;
    std::uint32_t jb = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cap, align_up(cmd.n, 16)));
    while (jb > 16 &&
           static_cast<std::uint64_t>(jb) * cmd.k + a_bytes +
                   static_cast<std::uint64_t>(jb) * 16 * 4 >
               budget) {
        jb -= 16;
    }
    require_cfg(static_cast<std::uint64_t>(jb) * cmd.k + a_bytes +
                        static_cast<std::uint64_t>(jb) * 16 * 4 <=
                    budget,
                name(), ": K=", cmd.k,
                " too deep for the local buffer; enlarge it");

    run.jb_cols = jb;
    run.num_jblocks = static_cast<std::uint32_t>(div_ceil(cmd.n, jb));
    run.num_strips = static_cast<std::uint32_t>(div_ceil(cmd.m, 16));

    const Addr base = params_.local_base + kDataBase;
    run.buf_b = base;
    run.buf_a[0] = base + static_cast<Addr>(jb) * cmd.k;
    run.buf_a[1] = run.buf_a[0] + static_cast<Addr>(16) * cmd.k;
    run.buf_c = run.buf_a[1] + static_cast<Addr>(16) * cmd.k;

    run_.emplace(std::move(run));
    start_block();
}

void MatrixFlowDevice::start_block()
{
    Run& r = *run_;
    r.b_loaded = false;
    r.a_slot_ready = {false, false};
    r.a_slot_strip = {-1, -1};
    r.next_compute_strip = 0;
    r.next_load_strip = 0;

    const std::uint32_t col0 = r.cur_jb * r.jb_cols;
    r.cur_cols = std::min(r.jb_cols, r.cmd.n - col0);

    // B panel: `cur_cols` rows of B-transposed, each k bytes — contiguous.
    r.mover->submit(TransferJob{
        r.cmd.addr_b + static_cast<Addr>(col0) * r.cmd.k, r.buf_b,
        static_cast<std::uint64_t>(r.cur_cols) * r.cmd.k,
        dma::Continuation{this, kContBLoaded, 0}});
}

std::uint32_t MatrixFlowDevice::strip_rows(std::uint32_t strip) const
{
    const Run& r = *run_;
    return std::min<std::uint32_t>(16, r.cmd.m - strip * 16);
}

void MatrixFlowDevice::load_a_strip(std::uint32_t strip)
{
    Run& r = *run_;
    if (strip >= r.num_strips) {
        return;
    }
    const unsigned slot = strip % 2;
    ensure(!r.a_slot_ready[slot] && r.a_slot_strip[slot] != strip, name(),
           ": A-slot scheduling bug");
    r.a_slot_strip[slot] = strip;
    r.next_load_strip = strip + 1;

    const std::uint64_t bytes =
        static_cast<std::uint64_t>(strip_rows(strip)) * r.cmd.k;
    r.mover->submit(TransferJob{
        r.cmd.addr_a + static_cast<Addr>(strip) * 16 * r.cmd.k,
        r.buf_a[slot], bytes, dma::Continuation{this, kContALoaded, strip}});
}

void MatrixFlowDevice::try_compute()
{
    Run& r = *run_;
    if (r.computing || !r.b_loaded ||
        r.next_compute_strip >= r.num_strips) {
        return;
    }
    const std::uint32_t strip = r.next_compute_strip;
    const unsigned slot = strip % 2;
    if (!r.a_slot_ready[slot] ||
        r.a_slot_strip[slot] != static_cast<std::int64_t>(strip)) {
        return;
    }

    r.computing = true;
    const auto tiles = static_cast<std::uint32_t>(div_ceil(r.cur_cols, 16));
    const Tick dur = sa_.strip_ticks(tiles, r.cmd.k);
    n_tiles_ += tiles;
    compute_ticks_ += static_cast<double>(dur);
    schedule(compute_event_, now() + dur);
}

void MatrixFlowDevice::compute_done()
{
    Run& r = *run_;
    const std::uint32_t strip = r.next_compute_strip;
    const unsigned slot = strip % 2;

    if ((r.cmd.flags & kCmdVerify) != 0) {
        sa_.compute_strip(*store_, r.buf_a[slot], r.buf_b, r.buf_c,
                          strip_rows(strip), r.cur_cols, r.cmd.k, r.cur_cols);
    }
    write_c_strip(strip);

    // Release the slot and prefetch the next-but-one strip into it.
    r.a_slot_ready[slot] = false;
    r.a_slot_strip[slot] = -1;
    r.computing = false;
    ++r.next_compute_strip;
    if (r.next_load_strip < r.num_strips) {
        load_a_strip(r.next_load_strip);
    }

    if (r.next_compute_strip >= r.num_strips) {
        block_done();
        return;
    }
    try_compute();
}

void MatrixFlowDevice::write_c_strip(std::uint32_t strip)
{
    Run& r = *run_;
    const std::uint32_t rows = strip_rows(strip);
    const std::uint32_t col0 = r.cur_jb * r.jb_cols;
    // C rows are strided in the destination: one job per row segment, all
    // in one batch so the rows' snapshot copies run back to back.
    std::array<TransferJob, 16> jobs;
    for (std::uint32_t row = 0; row < rows; ++row) {
        const Addr dst =
            r.cmd.addr_c +
            (static_cast<Addr>(strip) * 16 + row) * r.cmd.n * 4 +
            static_cast<Addr>(col0) * 4;
        jobs[row] = TransferJob{
            r.buf_c + static_cast<Addr>(row) * r.cur_cols * 4, dst,
            static_cast<std::uint64_t>(r.cur_cols) * 4,
            dma::Continuation{this, kContCWritten, 0}};
    }
    r.outstanding_c_jobs += rows;
    r.mover->submit(std::span(jobs.data(), rows));
}

void MatrixFlowDevice::block_done()
{
    Run& r = *run_;
    ++r.cur_jb;
    if (r.cur_jb < r.num_jblocks) {
        start_block();
        return;
    }
    r.all_blocks_issued = true;
    if (r.outstanding_c_jobs == 0) {
        run_complete();
    }
}

void MatrixFlowDevice::run_complete()
{
    Run& r = *run_;
    // Post the completion flag to host memory. It rides the same posted
    // path as the C data, so it cannot overtake the results.
    store_->write_obj(params_.local_base + kFlagScratch, r.cmd.flag_value);
    const Addr flag_addr = r.cmd.flag_addr;
    pcie_mover_.submit(TransferJob{
        params_.local_base + kFlagScratch, flag_addr, 8,
        dma::Continuation{this, kContFlagPosted, 0}});
}

bool MatrixFlowDevice::hang_roll()
{
    MfFaultState& f = *mf_fault_;
    bool hit = false;
    if (f.hang_idx < f.hang_ticks.size() &&
        now() >= f.hang_ticks[f.hang_idx]) {
        ++f.hang_idx;
        hit = true;
    }
    if (f.hang_rate_on) {
        // Always consume the stream: one draw per command launch, so
        // explicit events never shift the Bernoulli sequence.
        const bool rolled = f.hang_rng.chance(f.hang_rate);
        hit = hit || rolled;
    }
    return hit;
}

void MatrixFlowDevice::begin_flr(Tick duration)
{
    if (mf_fault_ != nullptr) {
        mf_fault_->hung = false;
    }
    if (compute_event_.scheduled()) {
        deschedule(compute_event_);
    }
    run_.reset();
    fetching_ = false;
    cmd_fifo_.clear();
    // Base first: it drops the staged egress queue, whose SentHooks point
    // at DMA JobStates the engine reset below recycles.
    Endpoint::begin_flr(duration);
    dma_.flr_reset();
    if (devmem_mover_ != nullptr) {
        devmem_mover_->flr_reset();
    }
    // Aperture state survives: the CPU NUMA path is function-independent.
}

// --- DMA plumbing ------------------------------------------------------------

void MatrixFlowDevice::recv_dma_completion(const pcie::Tlp& cpl)
{
    dma_.on_completion(cpl);
}

std::uint64_t MatrixFlowDevice::encode_sent_hook(
    const pcie::SentHook& hook) const
{
    return dma_.encode_sent_hook(hook);
}

pcie::SentHook MatrixFlowDevice::decode_sent_hook(std::uint64_t code)
{
    return dma_.decode_sent_hook(code);
}

// --- checkpoint/restore ------------------------------------------------------

void MatrixFlowDevice::serialize(Ckpt& ar)
{
    // DMA job lists first: the endpoint's staged egress SentHooks encode as
    // indices into the engine's active-job deque, so that deque must exist
    // before the base class decodes them. (The engine's own section — tags,
    // window accounting — restores later, in registration order.)
    dma_.serialize_jobs(ar);
    Endpoint::serialize(ar);

    ar.io(last_complete_tick_, fetching_, next_aperture_tag_);

    std::uint64_t n_fifo = cmd_fifo_.size();
    ar.io(n_fifo);
    if (ar.loading()) {
        cmd_fifo_.clear();
    }
    for (std::uint64_t i = 0; i < n_fifo; ++i) {
        Addr desc = ar.saving() ? cmd_fifo_[i] : 0;
        ar.io(desc);
        if (ar.loading()) {
            cmd_fifo_.push_back(desc);
        }
    }

    std::uint8_t has_run = run_.has_value() ? 1 : 0;
    ar.io(has_run);
    if (ar.loading()) {
        run_.reset();
        if (has_run != 0) {
            run_.emplace();
        }
    }
    if (has_run != 0) {
        Run& r = *run_;
        std::uint8_t use_devmem =
            ar.saving() && r.mover == devmem_mover_.get() ? 1 : 0;
        ar.io(r.cmd, use_devmem, r.jb_cols, r.num_jblocks, r.num_strips,
              r.cur_jb, r.cur_cols, r.buf_b, r.buf_a[0], r.buf_a[1], r.buf_c,
              r.b_loaded, r.a_slot_strip[0], r.a_slot_strip[1],
              r.a_slot_ready[0], r.a_slot_ready[1], r.next_compute_strip,
              r.next_load_strip, r.computing, r.outstanding_c_jobs,
              r.all_blocks_issued);
        if (ar.loading()) {
            if (use_devmem != 0) {
                ensure(devmem_mover_ != nullptr, name(),
                       ": checkpointed DevMem run without device memory");
                r.mover = devmem_mover_.get();
            } else {
                r.mover = &pcie_mover_;
            }
        }
    }

    // Aperture reads still owed a completion, in tag order. Answered
    // entries behind the front are implied by the gaps between tags.
    std::uint64_t n_ap = 0;
    if (ar.saving()) {
        for (std::size_t i = 0; i < aperture_reads_.size(); ++i) {
            n_ap += aperture_reads_[i].done ? 0 : 1;
        }
    }
    ar.io(n_ap);
    if (ar.saving()) {
        for (std::size_t i = 0; i < aperture_reads_.size(); ++i) {
            ApertureRead& v = aperture_reads_[i];
            if (!v.done) {
                std::uint64_t k = aperture_front_tag() + i;
                ar.io(k, v.pcie_tag, v.requester, v.length);
            }
        }
    } else {
        // Answered reads between and after the owed ones come back as done
        // placeholders, so the ring ends at next_aperture_tag_ again.
        aperture_reads_.clear();
        std::uint64_t first = next_aperture_tag_;
        const auto pad_to = [&](std::uint64_t tag) {
            while (first + aperture_reads_.size() < tag) {
                aperture_reads_.push_back(ApertureRead{0, 0, 0, true});
            }
        };
        for (std::uint64_t i = 0; i < n_ap; ++i) {
            std::uint64_t k = 0;
            ApertureRead v{};
            ar.io(k, v.pcie_tag, v.requester, v.length);
            first = i == 0 ? k : first;
            ensure(k >= first + aperture_reads_.size() &&
                       k < next_aperture_tag_,
                   name(), ": checkpointed aperture tags out of order");
            pad_to(k);
            aperture_reads_.push_back(v);
        }
        pad_to(next_aperture_tag_);
    }

    aperture_q_.serialize(ar);
    aperture_port_.serialize(ar);
    compute_event_.serialize(ar, eq());
    flr_kick_event_.serialize(ar, eq());
    if (mf_fault_ != nullptr) {
        // Config-keyed presence, like the endpoint's fault block.
        ar.io(mf_fault_->hung, mf_fault_->hang_idx);
        mf_fault_->hang_rng.serialize(ar);
    }
}

void MatrixFlowDevice::report_occupancy(std::string& out) const
{
    Endpoint::report_occupancy(out);
    if (!run_.has_value() && cmd_fifo_.empty() && !fetching_ && !hung()) {
        return;
    }
    out += "  " + name() + ": cmd_fifo=" + std::to_string(cmd_fifo_.size()) +
           (fetching_ ? ", fetching descriptor" : "") +
           (hung() ? ", HUNG (awaiting FLR)" : "");
    if (run_.has_value()) {
        const Run& r = *run_;
        out += ", run{block " + std::to_string(r.cur_jb) + "/" +
               std::to_string(r.num_jblocks) + ", strip " +
               std::to_string(r.next_compute_strip) + "/" +
               std::to_string(r.num_strips) +
               ", outstanding_c=" + std::to_string(r.outstanding_c_jobs) +
               (r.computing ? ", computing" : "") + "}";
    }
    out += "\n";
}

// --- device-memory aperture (CPU NUMA path) ---------------------------------

void MatrixFlowDevice::recv_tlp(unsigned port_idx, pcie::TlpPtr tlp)
{
    const bool is_aperture_mem =
        devmem_mover_ != nullptr && tlp->type != pcie::TlpType::completion &&
        devmem_range_.contains(tlp->addr);
    if (!is_aperture_mem) {
        Endpoint::recv_tlp(port_idx, std::move(tlp));
        return;
    }

    const Tick ready = now() + ticks_from_ns(params_.ep.latency_ns);
    if (tlp->type == pcie::TlpType::mem_read) {
        ++n_aperture_reads_;
        const std::uint64_t atag = next_aperture_tag_++;
        aperture_reads_.push_back(
            ApertureRead{tlp->tag, tlp->requester, tlp->length, false});
        auto pkt = mem::packet_pool().make_read(tlp->addr, tlp->length);
        pkt->set_tag(atag);
        aperture_q_.push(std::move(pkt), ready);
    } else {
        ++n_aperture_writes_;
        auto pkt = mem::packet_pool().make_write(tlp->addr, tlp->length);
        pkt->flags.posted = true;
        aperture_q_.push(std::move(pkt), ready);
    }
    // CPU-side functional data is already consistent via the BackingStore.
    release_pcie_ingress(tlp->payload_bytes());
}

bool MatrixFlowDevice::recv_resp(mem::PacketPtr& pkt)
{
    const std::uint64_t tag = pkt->tag();
    ensure(tag >= aperture_front_tag() && tag < next_aperture_tag_ &&
               !aperture_reads_[tag - aperture_front_tag()].done,
           name(), ": stray aperture response");
    ApertureRead& ar = aperture_reads_[tag - aperture_front_tag()];
    ar.done = true;
    send_tlp(pcie::tlp_pool().make_completion(ar.length, ar.pcie_tag,
                                              ar.requester, 0, true));
    while (!aperture_reads_.empty() && aperture_reads_.front().done) {
        aperture_reads_.pop_front();
    }
    pkt.reset();
    return true;
}

} // namespace accesys::accel
