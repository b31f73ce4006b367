// Memory-system packets and the pool that recycles them.
//
// A Packet describes one timing transaction (command, address, size). The
// functional data image lives in a global BackingStore that endpoints touch
// when the transaction logically completes (gem5-style timing/functional
// split), so timing packets are payload-free and cheap. Small MMIO/config
// payloads (<= kMaxInlinePayload bytes) are carried in an inline buffer and
// the response route stack is a fixed inline array, so a Packet performs no
// heap allocation of its own — ever.
//
// Pooled lifecycle
// ----------------
// Packets are created through a PacketPool (`pool.make_read(addr, size)`;
// the `Packet::make_read` statics forward to the process-wide
// `PacketPool::global()`). `PacketPtr` stays a `std::unique_ptr`, but with a
// pool-aware deleter: when the owner drops it, the packet returns to the
// pool's free list instead of the heap, fully re-initialised on the next
// acquire. Steady-state simulation therefore allocates no packet memory at
// all — `PacketPool::allocs_total()` (heap allocations) stays flat while
// `acquires_total()` keeps counting, which is exactly what the perf harness
// asserts. Pools are not thread-safe (the simulator is single-threaded) and
// must outlive every packet drawn from them; the global pool trivially does.
//
// Responses reuse the request object: `make_response()` flips the command in
// place, preserving the route stack that intermediate fabric components
// (xbars, switches) pushed on the way down.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sim/error.hh"
#include "sim/types.hh"

namespace accesys {
class Ckpt;
}

namespace accesys::mem {

/// Requestor-id allocator; every component that originates packets (CPU,
/// caches, DMA channels, walkers) draws one so responses can be
/// attributed and self-created packets recognised. Ids are unique within
/// one System and deterministic across System lifetimes: core::System
/// resets the counter before building its topology, so a component's id
/// depends only on construction order. That determinism is load-bearing
/// for checkpoints — Packet::serialize stores requestor ids verbatim, and
/// a restored in-flight packet must still match the id of the component
/// that created it (e.g. a cache's MSHR-fill ownership test).
[[nodiscard]] std::uint32_t alloc_requestor_id();

/// Rewind the requestor-id counter for a fresh System build (see above).
/// Packets never cross System boundaries, so overlapping id spaces
/// between Systems are harmless.
void reset_requestor_ids();

enum class MemCmd : std::uint8_t {
    read_req,
    read_resp,
    write_req,
    write_resp,
};

[[nodiscard]] constexpr const char* to_string(MemCmd cmd)
{
    switch (cmd) {
    case MemCmd::read_req: return "ReadReq";
    case MemCmd::read_resp: return "ReadResp";
    case MemCmd::write_req: return "WriteReq";
    case MemCmd::write_resp: return "WriteResp";
    }
    return "?";
}

/// Packet attribute flags.
struct PktFlags {
    /// Bypass all caches on the path (DM access mode, MMIO).
    bool uncacheable = false;
    /// Originates from a device (inbound DMA) rather than a CPU.
    bool from_device = false;
    /// Address is virtual in the device's address space; an SMMU on the
    /// path must translate it before it reaches physical memory.
    bool needs_translation = false;
    /// Posted write: no response expected by the requestor.
    bool posted = false;
    /// Poisoned data (fault model only): a fault on the path marked the
    /// payload bad; consumers must contain it, never copy it through.
    bool poisoned = false;
};

class Packet;
class PacketPool;

/// Pool-aware deleter: returns pooled packets to their pool, frees the rest.
struct PacketDeleter {
    void operator()(Packet* pkt) const noexcept;
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

class Packet {
  public:
    /// Deepest xbar/switch nesting a response can route back through.
    static constexpr std::size_t kMaxRouteDepth = 8;
    /// Largest inline MMIO/config payload (doorbells and registers are 8 B).
    static constexpr std::size_t kMaxInlinePayload = 16;

    Packet(MemCmd cmd, Addr addr, std::uint32_t size)
        : cmd_(cmd), addr_(addr), size_(size)
    {
    }

    /// Pool-backed factories (process-wide pool; see PacketPool below).
    [[nodiscard]] static PacketPtr make_read(Addr addr, std::uint32_t size);
    [[nodiscard]] static PacketPtr make_write(Addr addr, std::uint32_t size);

    // --- command -----------------------------------------------------------
    [[nodiscard]] MemCmd cmd() const noexcept { return cmd_; }
    [[nodiscard]] bool is_read() const noexcept
    {
        return cmd_ == MemCmd::read_req || cmd_ == MemCmd::read_resp;
    }
    [[nodiscard]] bool is_write() const noexcept { return !is_read(); }
    [[nodiscard]] bool is_request() const noexcept
    {
        return cmd_ == MemCmd::read_req || cmd_ == MemCmd::write_req;
    }
    [[nodiscard]] bool is_response() const noexcept { return !is_request(); }

    /// Turn this request into its response in place.
    void make_response()
    {
        ensure(is_request(), "make_response on a response packet");
        cmd_ = (cmd_ == MemCmd::read_req) ? MemCmd::read_resp
                                          : MemCmd::write_resp;
    }

    // --- addressing --------------------------------------------------------
    [[nodiscard]] Addr addr() const noexcept { return addr_; }
    void set_addr(Addr a) noexcept { addr_ = a; }
    [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
    [[nodiscard]] Addr end_addr() const noexcept { return addr_ + size_; }

    /// Original (pre-translation) address; valid after an SMMU translated.
    [[nodiscard]] Addr orig_addr() const noexcept { return orig_addr_; }
    void record_translation(Addr new_addr)
    {
        orig_addr_ = addr_;
        addr_ = new_addr;
        flags.needs_translation = false;
    }

    // --- identity / bookkeeping -------------------------------------------
    [[nodiscard]] std::uint32_t requestor() const noexcept
    {
        return requestor_;
    }
    void set_requestor(std::uint32_t id) noexcept { requestor_ = id; }

    [[nodiscard]] std::uint64_t tag() const noexcept { return tag_; }
    void set_tag(std::uint64_t t) noexcept { tag_ = t; }

    /// Translation stream the request belongs to (stamped by the bridge
    /// that admits device traffic, e.g. from the PCIe requester id). An
    /// SMMU uses it to select the per-device translation context; 0 means
    /// "untagged" and maps to the default stream.
    [[nodiscard]] std::uint32_t stream() const noexcept { return stream_; }
    void set_stream(std::uint32_t s) noexcept { stream_ = s; }

    [[nodiscard]] Tick created_at() const noexcept { return created_at_; }
    void set_created_at(Tick t) noexcept { created_at_ = t; }

    PktFlags flags;

    // --- route stack -------------------------------------------------------
    // Fabric components push the ingress-port index when forwarding a
    // request and pop it to steer the response back. Fixed inline storage:
    // kMaxRouteDepth bounds the fabric nesting depth.
    void push_route(std::uint16_t port)
    {
        ensure(route_depth_ < kMaxRouteDepth,
               "route stack overflow (fabric deeper than kMaxRouteDepth)");
        route_[route_depth_++] = port;
    }

    [[nodiscard]] std::uint16_t pop_route()
    {
        ensure(route_depth_ > 0, "response route stack underflow");
        return route_[--route_depth_];
    }

    [[nodiscard]] std::size_t route_depth() const noexcept
    {
        return route_depth_;
    }

    // --- optional inline payload (MMIO/config writes) ----------------------
    [[nodiscard]] bool has_payload() const noexcept
    {
        return payload_size_ != 0;
    }
    [[nodiscard]] const std::uint8_t* payload_data() const noexcept
    {
        return payload_.data();
    }
    [[nodiscard]] std::uint32_t payload_size() const noexcept
    {
        return payload_size_;
    }
    void set_payload(const void* data, std::size_t bytes)
    {
        ensure(bytes <= kMaxInlinePayload, "packet payload too large (",
               bytes, " > ", kMaxInlinePayload, ")");
        std::memcpy(payload_.data(), data, bytes);
        payload_size_ = static_cast<std::uint8_t>(bytes);
    }

    template <typename T>
    void set_payload_value(const T& v)
    {
        static_assert(sizeof(T) <= kMaxInlinePayload);
        set_payload(&v, sizeof(T));
    }

    template <typename T>
    [[nodiscard]] T payload_value() const
    {
        ensure(payload_size_ >= sizeof(T), "payload too small");
        T v;
        std::memcpy(&v, payload_.data(), sizeof(T));
        return v;
    }

    [[nodiscard]] std::string describe() const;

    /// Checkpoint/restore every field except the owning-pool link (the
    /// materializing pool stamps itself; see ckpt_packet below).
    void serialize(Ckpt& ar);

  private:
    friend class PacketPool;
    friend struct PacketDeleter;

    /// Reset every field for reuse from a pool free list.
    void reinit(MemCmd cmd, Addr addr, std::uint32_t size) noexcept
    {
        cmd_ = cmd;
        addr_ = addr;
        size_ = size;
        orig_addr_ = 0;
        requestor_ = 0;
        stream_ = 0;
        tag_ = 0;
        created_at_ = 0;
        flags = PktFlags{};
        route_depth_ = 0;
        payload_size_ = 0;
    }

    MemCmd cmd_;
    Addr addr_;
    std::uint32_t size_;
    Addr orig_addr_ = 0;
    std::uint32_t requestor_ = 0;
    std::uint32_t stream_ = 0;
    std::uint64_t tag_ = 0;
    Tick created_at_ = 0;
    PacketPool* pool_ = nullptr; ///< owning pool; null = plain heap/stack
    std::uint8_t route_depth_ = 0;
    std::uint8_t payload_size_ = 0;
    std::array<std::uint16_t, kMaxRouteDepth> route_{};
    std::array<std::uint8_t, kMaxInlinePayload> payload_{};
};

/// Free-list arena for Packets. Acquire with the make_* factories; release
/// by dropping the PacketPtr — the deleter recycles into `free_`. The pool
/// must outlive its packets; not thread-safe.
class PacketPool {
  public:
    PacketPool() = default;
    ~PacketPool();
    PacketPool(const PacketPool&) = delete;
    PacketPool& operator=(const PacketPool&) = delete;

    [[nodiscard]] PacketPtr make(MemCmd cmd, Addr addr, std::uint32_t size)
    {
        ++acquires_total_;
        if (free_.empty()) {
            ++allocs_total_;
            Packet* p = new Packet(cmd, addr, size);
            p->pool_ = this;
            return PacketPtr(p);
        }
        Packet* p = free_.back();
        free_.pop_back();
        p->reinit(cmd, addr, size);
        return PacketPtr(p);
    }

    [[nodiscard]] PacketPtr make_read(Addr addr, std::uint32_t size)
    {
        return make(MemCmd::read_req, addr, size);
    }
    [[nodiscard]] PacketPtr make_write(Addr addr, std::uint32_t size)
    {
        return make(MemCmd::write_req, addr, size);
    }

    /// Pre-populate the free list with `n` packets.
    void reserve(std::size_t n);

    /// Checkpoint/restore the pool counters. Runs after the components
    /// re-materialized their in-flight packets, so the saved values
    /// overwrite the acquires the restore itself performed and the
    /// counter stream continues as if never interrupted.
    void serialize_counters(Ckpt& ar);

    /// Heap allocations performed (flat once the pool is warm).
    [[nodiscard]] std::uint64_t allocs_total() const noexcept
    {
        return allocs_total_;
    }
    /// Packets handed out over the pool's lifetime.
    [[nodiscard]] std::uint64_t acquires_total() const noexcept
    {
        return acquires_total_;
    }
    /// Packets returned to the free list over the pool's lifetime.
    [[nodiscard]] std::uint64_t recycles_total() const noexcept
    {
        return recycles_total_;
    }
    /// Packets currently parked on the free list.
    [[nodiscard]] std::size_t free_count() const noexcept
    {
        return free_.size();
    }
    /// Packets currently in flight (acquired and not yet recycled).
    [[nodiscard]] std::uint64_t live() const noexcept
    {
        return acquires_total_ - recycles_total_;
    }

    /// The process-wide pool behind Packet::make_read / make_write.
    [[nodiscard]] static PacketPool& global();

  private:
    friend struct PacketDeleter;

    void recycle(Packet* pkt) noexcept
    {
        ++recycles_total_;
        try {
            free_.push_back(pkt);
        } catch (...) {
            delete pkt; // free-list growth failed; fall back to the heap
        }
    }

    std::vector<Packet*> free_;
    std::uint64_t allocs_total_ = 0;
    std::uint64_t acquires_total_ = 0;
    std::uint64_t recycles_total_ = 0;
};

/// The process-wide packet pool.
[[nodiscard]] inline PacketPool& packet_pool()
{
    return PacketPool::global();
}

/// Checkpoint/restore an owning packet slot, empty or occupied. On load an
/// occupied slot re-materializes from the process-wide pool, preserving
/// the zero-steady-state-allocation property for the resumed run.
void ckpt_packet(Ckpt& ar, PacketPtr& pkt);

inline PacketPtr Packet::make_read(Addr addr, std::uint32_t size)
{
    return packet_pool().make_read(addr, size);
}

inline PacketPtr Packet::make_write(Addr addr, std::uint32_t size)
{
    return packet_pool().make_write(addr, size);
}

inline void PacketDeleter::operator()(Packet* pkt) const noexcept
{
    if (pkt == nullptr) {
        return;
    }
    if (pkt->pool_ != nullptr) {
        pkt->pool_->recycle(pkt);
    } else {
        delete pkt;
    }
}

} // namespace accesys::mem
