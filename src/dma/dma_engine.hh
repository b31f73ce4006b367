// Multi-channel DMA engine for PCIe endpoints.
//
// Reads (host -> device) are issued as MRd TLPs of `request_bytes` — the
// "packet size" knob the paper sweeps in Fig. 4 — bounded by an outstanding
// byte window (the staging buffer) and a PCIe tag pool. Writes
// (device -> host) are posted MWr TLPs of `write_bytes`, gated by the
// endpoint's egress depth.
//
// Functional data moves through the global BackingStore when a read chunk
// completes, and when a write job is submitted (a snapshot: the producer
// may reuse its buffer before the posted writes drain).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "mem/backing_store.hh"
#include "pcie/tlp.hh"
#include "sim/ring_buffer.hh"
#include "sim/simulator.hh"

namespace accesys::dma {

/// Services the engine needs from its hosting endpoint.
class DmaPort {
  public:
    virtual ~DmaPort() = default;

    /// Stage a TLP for transmission; `on_sent` fires when it hits the wire.
    virtual void dma_send(pcie::TlpPtr tlp, pcie::SentHook on_sent) = 0;

    /// TLPs currently waiting for wire/credits.
    [[nodiscard]] virtual std::size_t dma_egress_depth() const = 0;

    /// Requester id stamped into outgoing TLPs.
    [[nodiscard]] virtual std::uint16_t dma_device_id() const = 0;

    /// The transmit path has latched failed (link replay budget exhausted):
    /// outstanding reads can never complete, so the watchdog short-circuits
    /// retries into an immediate job failure. Defaults to "alive".
    [[nodiscard]] virtual bool dma_path_dead() const { return false; }
};

struct DmaParams {
    unsigned channels = 4;            ///< concurrently active jobs
    std::uint32_t request_bytes = 256; ///< MRd size (Fig. 4 packet-size knob)
    std::uint32_t write_bytes = 256;   ///< MWr payload size
    /// Outstanding read-data window — the engine's staging buffer. Large
    /// request sizes divide this into few in-flight requests, which is the
    /// mechanism behind the paper's large-packet penalty (Fig. 4).
    std::uint64_t window_bytes = 8 * kKiB;
    unsigned max_tags = 128;           ///< outstanding MRd TLPs
    std::size_t max_egress = 16;       ///< stage writes while egress shallow

    void validate() const;
};

/// Receives transfer-completion continuations (see Continuation below).
class TransferListener {
  public:
    virtual ~TransferListener() = default;
    virtual void transfer_done(std::uint8_t kind, std::uint32_t arg) = 0;
};

/// Completion continuation carried by a transfer job: a (listener, kind,
/// arg) descriptor instead of a heap-allocated closure. The descriptor is
/// plain data, so in-flight jobs checkpoint/restore exactly — the listener
/// pointer is re-bound structurally (each engine/mover serves exactly one
/// listener) and (kind, arg) travel in the checkpoint.
struct Continuation {
    TransferListener* listener = nullptr;
    std::uint8_t kind = 0;
    std::uint32_t arg = 0;

    explicit operator bool() const noexcept { return listener != nullptr; }
    void fire() const { listener->transfer_done(kind, arg); }
};

struct DmaJob {
    enum class Dir {
        host_to_dev, ///< MRd: pull host data into device-local storage
        dev_to_host, ///< MWr: push device data to host memory
    };
    Dir dir = Dir::host_to_dev;
    Addr host_addr = 0;
    Addr dev_addr = 0;
    std::uint64_t bytes = 0;
    Continuation on_complete;
};

class DmaEngine final : public SimObject {
  public:
    DmaEngine(Simulator& sim, std::string name, const DmaParams& params,
              DmaPort& port, mem::BackingStore& store);

    /// Queue a batch of transfers; each runs when a channel frees up. The
    /// device->host jobs' data is snapshotted first, back to back, then the
    /// jobs are queued and pumped in order, exactly as one-at-a-time
    /// submits would queue them.
    void submit(std::span<const DmaJob> jobs);
    /// A single transfer: a batch of one.
    void submit(const DmaJob& job) { submit(std::span(&job, 1)); }

    [[nodiscard]] bool idle() const
    {
        return active_.empty() && queued_.empty();
    }
    [[nodiscard]] std::size_t jobs_in_flight() const
    {
        return active_.size() + queued_.size();
    }
    [[nodiscard]] const DmaParams& params() const noexcept { return params_; }

    /// Change the read request size between jobs (bench sweeps).
    void set_request_bytes(std::uint32_t bytes);

    // Hooks called by the hosting endpoint.
    void on_completion(const pcie::Tlp& cpl);
    void on_tx_ready() { pump(); }

    /// Function-level reset: discard every active and queued job without
    /// firing continuations, free all tags and window bytes. Late
    /// completions for the dropped tags are then counted as strays. The
    /// hosting endpoint must have dropped its staged egress first (the
    /// SentHooks point at JobStates recycled here).
    void flr_reset();

    /// The single listener restored into job continuations on load (each
    /// engine serves exactly one device controller).
    void set_continuation_listener(TransferListener* l) noexcept
    {
        listener_ = l;
    }

    /// Checkpoint the job lists (active channels + admission queue). Split
    /// out of serialize() so the hosting endpoint can restore jobs *before*
    /// decoding the SentHooks staged in its egress queue, which point at
    /// active JobStates.
    void serialize_jobs(Ckpt& ar);

    /// Checkpoint/restore tags, window accounting and the timeout watchdog
    /// (serialize_jobs must already have run — hosting endpoints register
    /// before their engine member, so object order guarantees it).
    void serialize(Ckpt& ar) override;
    void report_occupancy(std::string& out) const override;

    /// Encode/decode a pump_write SentHook as (active-job index, chunk) for
    /// the hosting endpoint's egress-queue checkpoint.
    [[nodiscard]] std::uint64_t encode_sent_hook(
        const pcie::SentHook& h) const;
    [[nodiscard]] pcie::SentHook decode_sent_hook(std::uint64_t code);

  private:
    struct JobState {
        DmaEngine* engine = nullptr; ///< back-pointer for raw SentHooks
        DmaJob job;
        std::uint64_t issued = 0;   ///< bytes requested / staged so far
        std::uint64_t finished = 0; ///< bytes completed / sent so far
    };

    struct TagState {
        JobState* job = nullptr;
        std::uint64_t offset = 0;
        std::uint32_t bytes = 0;
        bool busy = false;
        Tick deadline = 0;    ///< completion-timeout deadline (fault mode)
        unsigned retries = 0; ///< re-issues of this tag so far
    };

    /// Fault-mode stats, allocated only when the completion watchdog is
    /// enabled so clean-run stat dumps are unchanged.
    struct FaultStats {
        explicit FaultStats(stats::Group& g)
            : timeouts(g, "read_timeouts",
                       "MRd completion timeouts observed"),
              retries(g, "read_retries",
                      "MRd TLPs re-issued after a completion timeout"),
              stray(g, "stray_completions",
                    "late CplDs for already-retired tags (dropped)"),
              jobs_failed(g, "jobs_failed",
                          "DMA jobs abandoned after the retry budget"),
              poisoned(g, "poisoned_cpls_contained",
                       "poisoned completions contained (job failed, data "
                       "never consumed)"),
              dead_path(g, "dead_path_failures",
                        "jobs fast-failed on a latched-dead link path")
        {
        }
        stats::Scalar timeouts;
        stats::Scalar retries;
        stats::Scalar stray;
        stats::Scalar jobs_failed;
        stats::Scalar poisoned;
        stats::Scalar dead_path;
    };

    void pump();
    void pump_read(JobState& js);
    void pump_write(JobState& js);
    [[nodiscard]] JobState* acquire_job_state();
    /// Position of `js` in `active_` (panics when it is not active).
    [[nodiscard]] std::size_t active_index(const JobState* js) const;
    void arm_timeout(Tick deadline);
    void check_timeouts();
    void fail_job(JobState& js);
    static void write_sent_cb(void* p, std::uint32_t sent);

    DmaParams params_;
    DmaPort* port_;
    mem::BackingStore* store_;
    TransferListener* listener_ = nullptr; ///< continuation re-bind on load
    pcie::TlpPool* tlp_pool_ = nullptr; ///< resolved once (chunk loops)

    /// Channel slots in service order. JobState objects are recycled
    /// through `job_free_` (TagState/SentHook back-pointers stay valid for
    /// a slot's whole active life) so the steady state allocates nothing;
    /// the pool only grows the first time each channel depth is reached.
    RingBuffer<JobState*> active_;
    std::vector<std::unique_ptr<JobState>> job_pool_;
    std::vector<JobState*> job_free_;
    RingBuffer<DmaJob> queued_;
    std::vector<TagState> tags_;
    /// Bitmap of free tags (bit set = free): the read pump claims the
    /// lowest free tag with a ctz instead of a linear busy scan.
    std::vector<std::uint64_t> tag_free_bits_;
    std::uint64_t window_in_use_ = 0;
    unsigned tags_in_use_ = 0;
    bool pumping_ = false;
    bool repump_ = false;

    // Fault settings, read from the simulator's FaultPlan at construction.
    // With a plan installed the engine keeps fault stats and drops
    // completions for retired tags (poison containment and FLR drains
    // produce strays even without a watchdog). A timed-out read is
    // re-issued with exponential backoff up to max_retries_ times; then
    // the whole job fails and its completion callback never fires.
    Tick timeout_ticks_ = 0; ///< nonzero = completion watchdog armed
    unsigned max_retries_ = 0;
    Event timeout_event_{"", nullptr};
    std::unique_ptr<FaultStats> fault_stats_; ///< non-null iff a plan is set

    stats::Scalar reads_issued_{stat_group(), "reads_issued",
                                "MRd TLPs issued"};
    stats::Scalar writes_issued_{stat_group(), "writes_issued",
                                 "MWr TLPs issued"};
    stats::Scalar bytes_read_{stat_group(), "bytes_read",
                              "bytes pulled from host"};
    stats::Scalar bytes_written_{stat_group(), "bytes_written",
                                 "bytes pushed to host"};
    stats::Scalar jobs_done_{stat_group(), "jobs_done",
                             "transfer jobs completed"};
};

} // namespace accesys::dma
