// Transaction Layer Packets (TLPs) and PCIe generation/encoding helpers.
//
// Like mem::Packet, TLPs are pooled: the make_* factories draw from
// `TlpPool::global()` and `TlpPtr`'s deleter recycles instead of freeing,
// so steady-state PCIe traffic performs zero heap allocation. The small
// functional payload (MMIO register values) lives in a fixed inline buffer;
// bulk DMA data never rides in TLPs (it lives in the global BackingStore —
// see the timing/functional split note on `Tlp::data`).
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

namespace accesys::pcie {

/// Raw post-send callback carried alongside a staged TLP: `fn(ctx, arg)`.
/// POD on purpose — egress queues copy these through recycled ring slots,
/// and binding a context pointer instead of a capturing std::function keeps
/// the per-TLP staging path allocation-free.
struct SentHook {
    void (*fn)(void*, std::uint32_t) = nullptr;
    void* ctx = nullptr;
    std::uint32_t arg = 0;

    explicit operator bool() const noexcept { return fn != nullptr; }
    void operator()() const { fn(ctx, arg); }
};

/// PCIe generation: determines line encoding efficiency.
enum class Gen : std::uint8_t {
    gen1, ///< 2.5 GT/s class, 8b/10b
    gen2, ///< 5 GT/s class, 8b/10b
    gen3, ///< 8 GT/s class, 128b/130b
    gen4,
    gen5,
    gen6, ///< PAM4/FLIT; efficiency approximated as 242/256
};

[[nodiscard]] constexpr double encoding_efficiency(Gen g)
{
    switch (g) {
    case Gen::gen1:
    case Gen::gen2:
        return 0.8; // 8b/10b
    case Gen::gen3:
    case Gen::gen4:
    case Gen::gen5:
        return 128.0 / 130.0;
    case Gen::gen6:
        return 242.0 / 256.0; // FLIT-mode approximation
    }
    return 1.0;
}

[[nodiscard]] constexpr const char* to_string(Gen g)
{
    switch (g) {
    case Gen::gen1: return "Gen1";
    case Gen::gen2: return "Gen2";
    case Gen::gen3: return "Gen3";
    case Gen::gen4: return "Gen4";
    case Gen::gen5: return "Gen5";
    case Gen::gen6: return "Gen6";
    }
    return "?";
}

enum class TlpType : std::uint8_t {
    mem_read,   ///< MRd — non-posted, expects completion(s) with data
    mem_write,  ///< MWr — posted
    completion, ///< CplD — carries read data back to the requester
};

[[nodiscard]] constexpr const char* to_string(TlpType t)
{
    switch (t) {
    case TlpType::mem_read: return "MRd";
    case TlpType::mem_write: return "MWr";
    case TlpType::completion: return "CplD";
    }
    return "?";
}

class TlpPool;

/// One transaction-layer packet.
///
/// `length` is the payload byte count for MWr/CplD and the *requested* byte
/// count for MRd (which carries no payload on the wire). Completions for one
/// MRd may be split; `byte_offset`/`is_last` let the requester reassemble.
struct Tlp {
    /// Largest inline functional payload (register traffic is 8 bytes).
    static constexpr std::size_t kMaxInlineData = 16;

    Tlp() = default;
    // Copies are value snapshots: they never inherit the owning-pool link,
    // so a copied TLP is plain heap/stack data.
    Tlp(const Tlp& o)
        : type(o.type),
          addr(o.addr),
          length(o.length),
          tag(o.tag),
          requester(o.requester),
          byte_offset(o.byte_offset),
          is_last(o.is_last),
          dl_seq(o.dl_seq),
          dl_corrupt(o.dl_corrupt),
          poisoned(o.poisoned),
          data_size_(o.data_size_),
          data_(o.data_)
    {
    }
    Tlp& operator=(const Tlp& o)
    {
        type = o.type;
        addr = o.addr;
        length = o.length;
        tag = o.tag;
        requester = o.requester;
        byte_offset = o.byte_offset;
        is_last = o.is_last;
        dl_seq = o.dl_seq;
        dl_corrupt = o.dl_corrupt;
        poisoned = o.poisoned;
        data_size_ = o.data_size_;
        data_ = o.data_;
        return *this; // pool_ intentionally untouched
    }

    TlpType type = TlpType::mem_read;
    Addr addr = 0;               ///< target address (MRd/MWr); 0 for CplD
    std::uint32_t length = 0;
    std::uint8_t tag = 0;        ///< transaction tag (MRd and its CplDs)
    std::uint16_t requester = 0; ///< requester id (endpoint/port number)
    std::uint32_t byte_offset = 0; ///< CplD: offset of this chunk in the request
    bool is_last = true;           ///< CplD: final completion of the request

    // --- data-link layer (fault model only; untouched on clean links) ------
    /// Per-direction DLL sequence number, stamped by PcieLink::transmit
    /// when a fault plan is active (the receiver drops out-of-sequence
    /// TLPs and NAKs for replay).
    std::uint64_t dl_seq = 0;
    /// Injected transmission error: the receiving link end discards this
    /// TLP (as a failed LCRC would) instead of delivering it.
    bool dl_corrupt = false;
    /// EP/completer poison bit (fault model only): the payload is known
    /// bad. Consumers must contain it — count and fail the transaction —
    /// never copy the data through.
    bool poisoned = false;

    /// True when the TLP type carries payload bytes on the wire.
    [[nodiscard]] bool has_payload() const noexcept
    {
        return type != TlpType::mem_read;
    }

    /// Wire payload footprint in bytes (`length` for MWr/CplD, 0 for MRd).
    [[nodiscard]] std::uint32_t payload_bytes() const noexcept
    {
        return has_payload() ? length : 0;
    }

    // --- functional data (MMIO register traffic only) ----------------------
    // DMA data stays in the global BackingStore (see DESIGN.md on the
    // timing/functional split); only small register values ride inline.
    [[nodiscard]] bool has_data() const noexcept { return data_size_ != 0; }
    [[nodiscard]] const std::uint8_t* data() const noexcept
    {
        return data_.data();
    }
    [[nodiscard]] std::uint32_t data_size() const noexcept
    {
        return data_size_;
    }
    void set_data(const void* bytes, std::size_t n)
    {
        ensure(n <= kMaxInlineData, "TLP functional payload too large (", n,
               " > ", kMaxInlineData, ")");
        std::memcpy(data_.data(), bytes, n);
        data_size_ = static_cast<std::uint8_t>(n);
    }

    [[nodiscard]] std::string describe() const;

    /// Checkpoint/restore every field except the owning-pool link (the
    /// materializing pool stamps itself; see ckpt_tlp below).
    void serialize(Ckpt& ar);

  private:
    friend class TlpPool;
    friend struct TlpDeleter;

    /// Reset every field for reuse from a pool free list (keeps pool_).
    void reinit() noexcept
    {
        type = TlpType::mem_read;
        addr = 0;
        length = 0;
        tag = 0;
        requester = 0;
        byte_offset = 0;
        is_last = true;
        dl_seq = 0;
        dl_corrupt = false;
        poisoned = false;
        data_size_ = 0;
    }

    TlpPool* pool_ = nullptr; ///< owning pool; null = plain heap/stack
    std::uint8_t data_size_ = 0;
    std::array<std::uint8_t, kMaxInlineData> data_{};
};

/// Pool-aware deleter: returns pooled TLPs to their pool, frees the rest.
struct TlpDeleter {
    void operator()(Tlp* tlp) const noexcept;
};

using TlpPtr = std::unique_ptr<Tlp, TlpDeleter>;

/// Free-list arena for TLPs; same contract as mem::PacketPool (must outlive
/// its TLPs, not thread-safe).
class TlpPool {
  public:
    TlpPool() = default;
    ~TlpPool();
    TlpPool(const TlpPool&) = delete;
    TlpPool& operator=(const TlpPool&) = delete;

    [[nodiscard]] TlpPtr make()
    {
        ++acquires_total_;
        if (free_.empty()) {
            ++allocs_total_;
            Tlp* t = new Tlp();
            t->pool_ = this;
            return TlpPtr(t);
        }
        Tlp* t = free_.back();
        free_.pop_back();
        t->reinit(); // full field reset for determinism across reuse
        return TlpPtr(t);
    }

    [[nodiscard]] TlpPtr make_mem_read(Addr addr, std::uint32_t length,
                                       std::uint8_t tag,
                                       std::uint16_t requester)
    {
        TlpPtr t = make();
        t->type = TlpType::mem_read;
        t->addr = addr;
        t->length = length;
        t->tag = tag;
        t->requester = requester;
        return t;
    }

    [[nodiscard]] TlpPtr make_mem_write(Addr addr, std::uint32_t length,
                                        std::uint16_t requester)
    {
        TlpPtr t = make();
        t->type = TlpType::mem_write;
        t->addr = addr;
        t->length = length;
        t->requester = requester;
        return t;
    }

    [[nodiscard]] TlpPtr make_completion(std::uint32_t length,
                                         std::uint8_t tag,
                                         std::uint16_t requester,
                                         std::uint32_t byte_offset,
                                         bool is_last)
    {
        TlpPtr t = make();
        t->type = TlpType::completion;
        t->length = length;
        t->tag = tag;
        t->requester = requester;
        t->byte_offset = byte_offset;
        t->is_last = is_last;
        return t;
    }

    /// Checkpoint/restore the pool counters (see
    /// mem::PacketPool::serialize_counters for the ordering contract).
    void serialize_counters(Ckpt& ar);

    [[nodiscard]] std::uint64_t allocs_total() const noexcept
    {
        return allocs_total_;
    }
    [[nodiscard]] std::uint64_t acquires_total() const noexcept
    {
        return acquires_total_;
    }
    [[nodiscard]] std::uint64_t recycles_total() const noexcept
    {
        return recycles_total_;
    }
    [[nodiscard]] std::size_t free_count() const noexcept
    {
        return free_.size();
    }
    [[nodiscard]] std::uint64_t live() const noexcept
    {
        return acquires_total_ - recycles_total_;
    }

    /// The process-wide pool behind tlp_pool() and the make_* shorthands.
    [[nodiscard]] static TlpPool& global();

  private:
    friend struct TlpDeleter;

    void recycle(Tlp* tlp) noexcept
    {
        ++recycles_total_;
        try {
            free_.push_back(tlp);
        } catch (...) {
            delete tlp;
        }
    }

    std::vector<Tlp*> free_;
    std::uint64_t allocs_total_ = 0;
    std::uint64_t acquires_total_ = 0;
    std::uint64_t recycles_total_ = 0;
};

/// The process-wide TLP pool.
[[nodiscard]] inline TlpPool& tlp_pool()
{
    return TlpPool::global();
}

inline void TlpDeleter::operator()(Tlp* tlp) const noexcept
{
    if (tlp == nullptr) {
        return;
    }
    if (tlp->pool_ != nullptr) {
        tlp->pool_->recycle(tlp);
    } else {
        delete tlp;
    }
}

[[nodiscard]] inline TlpPtr make_mem_read(Addr addr, std::uint32_t length,
                                          std::uint8_t tag,
                                          std::uint16_t requester)
{
    return tlp_pool().make_mem_read(addr, length, tag, requester);
}

[[nodiscard]] inline TlpPtr make_mem_write(Addr addr, std::uint32_t length,
                                           std::uint16_t requester)
{
    return tlp_pool().make_mem_write(addr, length, requester);
}

[[nodiscard]] inline TlpPtr make_completion(std::uint32_t length,
                                            std::uint8_t tag,
                                            std::uint16_t requester,
                                            std::uint32_t byte_offset,
                                            bool is_last)
{
    return tlp_pool().make_completion(length, tag, requester, byte_offset,
                                      is_last);
}

/// Checkpoint/restore an owning TLP slot, empty or occupied. On load an
/// occupied slot re-materializes from the process-wide pool, preserving
/// the zero-steady-state-allocation property for the resumed run.
void ckpt_tlp(Ckpt& ar, TlpPtr& tlp);

} // namespace accesys::pcie
