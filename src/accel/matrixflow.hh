// MatrixFlow accelerator device: a PCIe endpoint wrapping the systolic
// array, local scratchpad buffer, multi-channel DMA engine and (optionally)
// a device-side memory port — the paper's "Accelerator Wrapper" (§III-B).
//
// Execution of one GemmCommand:
//   1. doorbell MMIO write carries the descriptor's host address;
//   2. the descriptor (64 B) is DMA-fetched;
//   3. the controller runs a blocked GEMM: for each column block, load the
//      B panel into the scratchpad, then stream double-buffered A strips
//      through the systolic array and write back C row segments;
//   4. a completion flag is posted to host memory (MSI-style), which the
//      CPU polls.
//
// Operands move over PCIe (host memory modes) or through the device-side
// memory controller (DevMem mode) depending on the command flags; the
// completion flag always crosses PCIe because the host polls it.
//
// CPU reads of the device-memory aperture get dense tags, and their PCIe
// completion headers wait in a ring indexed by tag - front tag. The
// device-memory controller's FR-FCFS scheduler can answer them out of
// order, so an answered entry is only marked done; the ring pops from the
// front once every older read has been answered.
#pragma once

#include <array>
#include <optional>

#include "accel/command.hh"
#include "accel/data_mover.hh"
#include "accel/systolic_array.hh"
#include "dma/dma_engine.hh"
#include "mem/backing_store.hh"
#include "pcie/endpoint.hh"
#include "sim/ring_buffer.hh"

namespace accesys::accel {

struct MatrixFlowParams {
    SystolicParams sa;
    dma::DmaParams dma;
    pcie::EndpointParams ep;
    DevMemMover::Params devmem_mover;
    std::uint64_t local_buffer_bytes = 256 * kKiB;
    /// Column-block (B panel) width cap in output columns. MatrixFlow's
    /// streaming dataflow uses one tile column (16) — arithmetic intensity
    /// ~16 B/cycle, which is what the paper's memory-sensitivity studies
    /// exhibit. 0 = auto-fit the widest panel the buffer allows (the
    /// "wide-reuse" ablation; far less bandwidth-hungry).
    std::uint32_t max_block_cols = 16;
    /// BAR0 (registers) base address in the system map.
    Addr bar0_base = 0x100000000000ULL;
    std::uint64_t bar0_size = 64 * kKiB;
    /// Functional staging space backing the scratchpad (outside every
    /// routable range; only the device touches it).
    Addr local_base = 0x700000000000ULL;
    std::size_t cmd_fifo_depth = 8;

    void validate() const;
};

/// BAR0 register map.
inline constexpr Addr kRegDoorbell = 0x00; ///< W: host addr of a descriptor
inline constexpr Addr kRegStatus = 0x08;   ///< R: 0 idle, 1 busy
inline constexpr Addr kRegCmdCount = 0x10; ///< R: commands completed
inline constexpr Addr kRegTileCount = 0x18; ///< R: tiles computed

class MatrixFlowDevice final : public pcie::Endpoint,
                               public dma::DmaPort,
                               public dma::TransferListener,
                               private mem::Requestor {
  public:
    MatrixFlowDevice(Simulator& sim, std::string name,
                     const MatrixFlowParams& params,
                     mem::BackingStore& store, mem::AddrRange host_range);

    /// Enable device-side memory: aperture + direct mover traffic go to
    /// `port` (typically an Xbar in front of the DevMem controller).
    void attach_devmem(mem::AddrRange devmem_range,
                       mem::ResponsePort& mover_port,
                       mem::ResponsePort& aperture_port);

    [[nodiscard]] dma::DmaEngine& dma_engine() noexcept { return dma_; }
    [[nodiscard]] const MatrixFlowParams& params() const noexcept
    {
        return params_;
    }
    [[nodiscard]] bool busy() const noexcept
    {
        return run_.has_value() || !cmd_fifo_.empty();
    }
    [[nodiscard]] std::uint64_t commands_done() const noexcept
    {
        return static_cast<std::uint64_t>(n_commands_.value());
    }
    /// Ticks the systolic array spent computing (utilisation probe).
    [[nodiscard]] Tick compute_busy_ticks() const noexcept
    {
        return static_cast<Tick>(compute_ticks_.value());
    }
    /// Tick the most recent command finished posting its completion flag
    /// (0 if none yet) — the device-side completion time, free of the
    /// CPU's poll-order observation bias.
    [[nodiscard]] Tick last_complete_tick() const noexcept
    {
        return last_complete_tick_;
    }

    // dma::DmaPort
    void dma_send(pcie::TlpPtr tlp, pcie::SentHook on_sent) override
    {
        send_tlp(std::move(tlp), on_sent);
    }
    [[nodiscard]] std::size_t dma_egress_depth() const override
    {
        return egress_depth();
    }
    [[nodiscard]] std::uint16_t dma_device_id() const override
    {
        return device_id();
    }
    [[nodiscard]] bool dma_path_dead() const override
    {
        return pcie_tx_failed();
    }

    /// Function-level reset: clear a seeded hang, abandon the current run
    /// and command FIFO, reset the DMA engine and device-memory mover, then
    /// delegate to the endpoint base (ingress/egress drain + busy window).
    void begin_flr(Tick duration) override;

    /// Wedged by a seeded accelerator-hang fault (FSM frozen at a command
    /// boundary; only an FLR recovers it)?
    [[nodiscard]] bool hung() const noexcept
    {
        return mf_fault_ != nullptr && mf_fault_->hung;
    }

    // dma::TransferListener — continuation dispatch for every transfer the
    // controller issues (see the kCont* kinds below).
    void transfer_done(std::uint8_t kind, std::uint32_t arg) override;

    /// Checkpoint/restore the controller: DMA job lists first (egress
    /// SentHooks point into them), then the endpoint queues, then the
    /// GEMM run state and aperture bookkeeping.
    void serialize(Ckpt& ar) override;
    void report_occupancy(std::string& out) const override;

  protected:
    std::uint64_t mmio_read(Addr addr, std::uint32_t size) override;
    void mmio_write(Addr addr, std::uint32_t size,
                    std::uint64_t value) override;
    void recv_dma_completion(const pcie::Tlp& cpl) override;
    void tx_ready() override { dma_.on_tx_ready(); }
    std::uint64_t encode_sent_hook(
        const pcie::SentHook& hook) const override;
    pcie::SentHook decode_sent_hook(std::uint64_t code) override;

  private:
    // mem::Requestor — device-memory aperture traffic (CPU NUMA accesses).
    bool recv_resp(mem::PacketPtr& pkt) override;
    void retry_req() override { aperture_q_.retry(); }

    /// Handles MRd/MWr TLPs that target the DevMem aperture BAR.
    void recv_tlp(unsigned port_idx, pcie::TlpPtr tlp) override;

    struct Run {
        GemmCommand cmd;
        DataMover* mover = nullptr;
        std::uint32_t jb_cols = 0;     ///< column-block width (multiple of 16)
        std::uint32_t num_jblocks = 0;
        std::uint32_t num_strips = 0;
        std::uint32_t cur_jb = 0;
        std::uint32_t cur_cols = 0;    ///< width of the current block
        // Scratchpad layout for this run (absolute staging addresses).
        Addr buf_b = 0;
        std::array<Addr, 2> buf_a{};
        Addr buf_c = 0;
        // Progress within the current column block.
        bool b_loaded = false;
        std::array<std::int64_t, 2> a_slot_strip{-1, -1}; ///< strip loaded
        std::array<bool, 2> a_slot_ready{false, false};
        std::uint32_t next_compute_strip = 0;
        std::uint32_t next_load_strip = 0;
        bool computing = false;
        std::uint32_t outstanding_c_jobs = 0;
        bool all_blocks_issued = false;
    };

    // Continuation kinds (TransferJob::on_complete descriptors).
    enum : std::uint8_t {
        kContDescFetched = 1, ///< command descriptor landed in scratch
        kContBLoaded = 2,     ///< B panel staged for the current block
        kContALoaded = 3,     ///< A strip staged (arg = strip index)
        kContCWritten = 4,    ///< one C row segment drained
        kContFlagPosted = 5,  ///< completion flag reached host memory
    };

    void doorbell(Addr desc_addr);
    void fetch_next_command();
    void start_run(const GemmCommand& cmd);
    void start_block();
    void load_a_strip(std::uint32_t strip);
    void try_compute();
    void compute_done();
    void write_c_strip(std::uint32_t strip);
    void block_done();
    void run_complete();
    [[nodiscard]] std::uint32_t strip_rows(std::uint32_t strip) const;

    MatrixFlowParams params_;
    mem::BackingStore* store_;
    mem::AddrRange host_range_;
    SystolicArray sa_;
    dma::DmaEngine dma_;
    PcieDmaMover pcie_mover_;

    // Device-side memory (optional).
    std::unique_ptr<DevMemMover> devmem_mover_;
    mem::AddrRange devmem_range_;
    mem::RequestPort aperture_port_;
    mem::PacketQueue aperture_q_;
    std::uint64_t next_aperture_tag_ = 0;
    struct ApertureRead {
        std::uint8_t pcie_tag = 0;
        std::uint16_t requester = 0;
        std::uint32_t length = 0;
        bool done = false; ///< answered; popped once every older read is
    };
    /// Reads with tags [next_aperture_tag_ - size, next_aperture_tag_);
    /// the front entry is never done.
    RingBuffer<ApertureRead> aperture_reads_;
    [[nodiscard]] std::uint64_t aperture_front_tag() const
    {
        return next_aperture_tag_ - aperture_reads_.size();
    }

    RingBuffer<Addr> cmd_fifo_; ///< doorbell backlog (descriptor addresses)
    Tick last_complete_tick_ = 0;
    std::optional<Run> run_;
    bool fetching_ = false;
    Event compute_event_{"", nullptr};
    /// Fires at the end of an FLR busy window to resume command fetch for
    /// doorbells that arrived while the function was resetting.
    Event flr_kick_event_{"", nullptr};

    /// Seeded accelerator-hang decision (explicit one-shot events first,
    /// then the Bernoulli stream; fixed draw count per command).
    bool hang_roll();

    /// Controller-level fault state, allocated iff the simulator carries an
    /// enabled FaultInjector (mirrors Endpoint::EpFaultState).
    struct MfFaultState {
        MfFaultState(stats::Group& g, FaultInjector& fi,
                     const std::string& site_name, unsigned site_id);
        Rng hang_rng{0};
        bool hang_rate_on = false;
        double hang_rate = 0.0;
        std::vector<Tick> hang_ticks; ///< one-shot explicit hangs
        std::size_t hang_idx = 0;
        bool hung = false;
        stats::Scalar hangs;
    };
    std::unique_ptr<MfFaultState> mf_fault_;

    stats::Scalar n_commands_{stat_group(), "commands",
                              "GEMM commands completed"};
    stats::Scalar n_tiles_{stat_group(), "tiles", "output tiles computed"};
    stats::Scalar compute_ticks_{stat_group(), "compute_ticks",
                                 "ticks the systolic array was busy"};
    stats::Scalar n_aperture_reads_{stat_group(), "aperture_reads",
                                    "CPU reads served from device memory"};
    stats::Scalar n_aperture_writes_{stat_group(), "aperture_writes",
                                     "CPU writes absorbed by device memory"};
};

} // namespace accesys::accel
