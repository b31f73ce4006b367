// Data-movement abstraction used by the accelerator controller.
//
// The controller schedules tile transfers without knowing which transport
// carries them:
//   * PcieDmaMover  — wraps the PCIe DMA engine (host-side memory paths).
//   * DevMemMover   — issues direct requests to the device-side memory
//                     controller (the paper's "arrow 6" bypass of PCIe).
//
// DevMemMover keeps its jobs by value in a ring ordered by job id. Ids are
// handed out densely and jobs retire only from the front, so the ring
// always holds the contiguous ids [next_id_ - size, next_id_): a response
// finds its job by subtraction, not by a lookup, and no job touches the
// heap once the ring has grown to the working set. An id below the ring's
// front belongs to a job a function-level reset dropped; its response is
// swallowed as an orphan.
//
// Jobs arrive in batches. A batch first takes every job's write snapshot
// (the bytes a store-bound job carries, copied now because the producer may
// reuse its staging buffer before the writes drain) back to back, then
// enqueues and pumps the jobs in order. The controller submits a C strip's
// rows as one batch, so the strip's cold-line store misses overlap instead
// of each stalling the next job's submit; packets, ticks and stats are
// those of the same jobs submitted one at a time.
#pragma once

#include <span>

#include "dma/dma_engine.hh"
#include "mem/addr_range.hh"
#include "mem/port.hh"
#include "sim/ring_buffer.hh"
#include "sim/simulator.hh"

namespace accesys::accel {

struct TransferJob {
    Addr src = 0;
    Addr dst = 0;
    std::uint64_t bytes = 0;
    /// Plain-data completion descriptor (see dma::Continuation) — keeps
    /// in-flight transfers checkpointable.
    dma::Continuation on_complete;
};

class DataMover {
  public:
    /// Most jobs one batch holds: one C strip's rows.
    static constexpr std::size_t kMaxBatch = 16;

    virtual ~DataMover() = default;
    /// Snapshot every job's source bytes that must be captured now, then
    /// enqueue and pump the jobs in order (see the file comment).
    virtual void submit(std::span<const TransferJob> jobs) = 0;
    /// A single transfer: a batch of one.
    void submit(const TransferJob& job) { submit(std::span(&job, 1)); }
};

/// Routes transfers through the endpoint's PCIe DMA engine. Exactly one of
/// src/dst must fall inside the host address range.
class PcieDmaMover final : public DataMover {
  public:
    PcieDmaMover(dma::DmaEngine& engine, mem::AddrRange host_range)
        : engine_(&engine), host_range_(host_range)
    {
    }

    using DataMover::submit;
    void submit(std::span<const TransferJob> jobs) override;

  private:
    dma::DmaEngine* engine_;
    mem::AddrRange host_range_;
};

/// Pulls/pushes data against the device-side memory controller directly.
class DevMemMover final : public SimObject,
                          public DataMover,
                          private mem::Requestor {
  public:
    struct Params {
        std::uint32_t request_bytes = 256;
        unsigned max_outstanding = 64;
    };

    DevMemMover(Simulator& sim, std::string name, const Params& params,
                mem::AddrRange devmem_range, mem::BackingStore& store);

    [[nodiscard]] mem::RequestPort& port() noexcept { return port_; }

    using DataMover::submit;
    void submit(std::span<const TransferJob> jobs) override;

    [[nodiscard]] bool idle() const { return active_.empty(); }

    /// Function-level reset: drop every active job without firing
    /// continuations and free the outstanding-request window. Responses
    /// for requests already in flight toward the memory controller are
    /// swallowed as orphans when they return.
    void flr_reset();

    /// Listener re-bound into restored job continuations (one per device).
    void set_continuation_listener(dma::TransferListener* l) noexcept
    {
        listener_ = l;
    }

    /// Checkpoint/restore the job pipeline and outstanding-request state.
    void serialize(Ckpt& ar) override;
    void report_occupancy(std::string& out) const override;

  private:
    bool recv_resp(mem::PacketPtr& pkt) override;
    void retry_req() override
    {
        blocked_ = false;
        pump();
    }

    struct JobState {
        TransferJob job;
        std::uint64_t issued = 0;
        std::uint64_t finished = 0;
        bool reads_devmem = false; ///< src is device memory (load path)
    };

    void pump();
    void reap();
    /// Id of the job at the ring's front (== next_id_ when empty).
    [[nodiscard]] std::uint64_t front_id() const
    {
        return next_id_ - active_.size();
    }

    Params params_;
    mem::AddrRange devmem_range_;
    mem::BackingStore* store_;
    dma::TransferListener* listener_ = nullptr;
    mem::RequestPort port_;
    /// Jobs pipeline: chunks are issued from every job in admission order,
    /// bounded only by the shared outstanding-request window. Job id `i`
    /// sits at active_[i - front_id()].
    RingBuffer<JobState> active_;
    std::uint64_t next_id_ = 0;
    /// Every job with a lower id has issued all its bytes; pump() resumes
    /// here instead of rescanning the fully issued prefix.
    std::uint64_t issue_id_ = 0;
    unsigned outstanding_ = 0;
    /// Responses still owed to jobs dropped by a function-level reset;
    /// swallowed on arrival instead of tripping the unknown-job check.
    unsigned orphans_pending_ = 0;
    bool blocked_ = false;
    bool pumping_ = false;

    stats::Scalar reads_{stat_group(), "reads", "device-memory reads issued"};
    stats::Scalar writes_{stat_group(), "writes",
                          "device-memory writes issued"};
    stats::Scalar bytes_{stat_group(), "bytes", "bytes moved"};
};

} // namespace accesys::accel
