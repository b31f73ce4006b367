// Sparse functional memory image shared by a whole simulated system.
//
// Timing packets carry no payload; endpoints read/write this store when a
// transaction logically completes. Storage is allocated lazily in fixed
// chunks so multi-GB address spaces cost only what is touched.
//
// A small direct-mapped memo of chunk pointers (kMemoSlots entries, slot
// picked by a multiplicative hash of the chunk key) keeps hot accesses off
// the chunk map. It needs several entries: a device-memory mover copies
// between a device-memory chunk and a scratchpad chunk on every response,
// and several endpoints interleave, so a single entry would miss on nearly
// every copy. Chunk payloads never move once allocated, so a memoed
// pointer stays valid for the store's lifetime.
//
// view()/mut_view() hand out pointers straight into a chunk for ranges
// that lie inside one, so bulk consumers (the systolic array's strips)
// compute in place; a range that straddles a chunk boundary is staged
// through a caller-owned buffer instead, so callers keep one code path.
// Not thread-safe (the simulator is single-threaded).
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/error.hh"
#include "sim/types.hh"

namespace accesys {
class Ckpt;
}

namespace accesys::mem {

class BackingStore {
  public:
    static constexpr std::uint64_t kChunkBytes = 64 * kKiB;
    static constexpr std::uint64_t kChunkMask = kChunkBytes - 1;

    BackingStore() = default;
    BackingStore(const BackingStore&) = delete;
    BackingStore& operator=(const BackingStore&) = delete;

    void write(Addr addr, const void* src, std::uint64_t n)
    {
        const auto* p = static_cast<const std::uint8_t*>(src);
        const std::uint64_t off = addr & kChunkMask;
        if (off + n <= kChunkBytes) {
            // Single-chunk fast path: packet-sized accesses and streaming
            // DMA bursts land here — one memo probe, one memcpy.
            std::memcpy(chunk_for(addr) + off, p, n);
            return;
        }
        while (n > 0) {
            const std::uint64_t o = addr & kChunkMask;
            const std::uint64_t run = std::min(n, kChunkBytes - o);
            std::memcpy(chunk_for(addr) + o, p, run);
            addr += run;
            p += run;
            n -= run;
        }
    }

    void read(Addr addr, void* dst, std::uint64_t n) const
    {
        auto* p = static_cast<std::uint8_t*>(dst);
        const std::uint64_t off = addr & kChunkMask;
        if (off + n <= kChunkBytes) {
            const std::uint8_t* c = find_chunk(addr);
            if (c != nullptr) {
                std::memcpy(p, c + off, n);
            } else {
                std::memset(p, 0, n); // untouched memory reads as zero
            }
            return;
        }
        while (n > 0) {
            const std::uint64_t o = addr & kChunkMask;
            const std::uint64_t run = std::min(n, kChunkBytes - o);
            const std::uint8_t* c = find_chunk(addr);
            if (c != nullptr) {
                std::memcpy(p, c + o, run);
            } else {
                std::memset(p, 0, run); // untouched memory reads as zero
            }
            addr += run;
            p += run;
            n -= run;
        }
    }

    template <typename T>
    void write_obj(Addr addr, const T& v)
    {
        write(addr, &v, sizeof(T));
    }

    template <typename T>
    [[nodiscard]] T read_obj(Addr addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    /// Copy `n` bytes from `src` to `dst` within the store. Regions are
    /// copied chunk-to-chunk with no intermediate bounce buffer; an
    /// unallocated source chunk materialises as zeros at the destination.
    /// Overlapping same-chunk spans copy as if through a snapshot
    /// (memmove); cross-chunk overlap is the caller's problem, exactly as
    /// it was for the bounce-buffer version this replaces.
    void copy(Addr dst, Addr src, std::uint64_t n)
    {
        while (n > 0) {
            const std::uint64_t soff = src & kChunkMask;
            const std::uint64_t doff = dst & kChunkMask;
            const std::uint64_t run = std::min(
                n, kChunkBytes - std::max(soff, doff));
            const std::uint8_t* s = find_chunk(src);
            std::uint8_t* d = chunk_for(dst);
            if (s == nullptr) {
                std::memset(d + doff, 0, run);
            } else if (s + soff == d + doff) {
                // Same place: nothing to move.
            } else {
                std::memmove(d + doff, s + soff, run);
            }
            src += run;
            dst += run;
            n -= run;
        }
    }

    /// Read-only view of `count` T at `addr`: a pointer straight into the
    /// store when the range lies inside one allocated chunk (and is
    /// aligned for T), otherwise a copy read into `staging` (untouched
    /// memory reads as zero; no chunk is allocated). Valid until the range
    /// or `staging` is next written. T is an integer type: a chunk is an
    /// unsigned char array, which implicitly creates the T objects a view
    /// accesses (C++20 [intro.object]).
    template <typename T>
    [[nodiscard]] const T* view(Addr addr, std::size_t count,
                                std::vector<T>& staging) const
    {
        if (in_one_chunk<T>(addr, count)) {
            if (const std::uint8_t* c = find_chunk(addr); c != nullptr) {
                return reinterpret_cast<const T*>(c + (addr & kChunkMask));
            }
        }
        staging.resize(count);
        read(addr, staging.data(), count * sizeof(T));
        return staging.data();
    }

    /// Writable view of `count` T at `addr`: a pointer straight into the
    /// chunk (allocated on demand) when the range lies inside one,
    /// otherwise `staging` loaded with the range's current contents. Pass
    /// the result to commit_view() once written; that copies a staged view
    /// back (touching every chunk the range covers) and is a no-op for an
    /// in-place one.
    template <typename T>
    [[nodiscard]] T* mut_view(Addr addr, std::size_t count,
                              std::vector<T>& staging)
    {
        if (in_one_chunk<T>(addr, count)) {
            return reinterpret_cast<T*>(chunk_for(addr) + (addr & kChunkMask));
        }
        staging.resize(count);
        read(addr, staging.data(), count * sizeof(T));
        return staging.data();
    }

    template <typename T>
    void commit_view(Addr addr, const T* view, const std::vector<T>& staging)
    {
        if (view == staging.data()) {
            write(addr, staging.data(), staging.size() * sizeof(T));
        }
    }

    [[nodiscard]] std::size_t chunks_allocated() const
    {
        return chunks_.size();
    }

    /// Checkpoint/restore every allocated chunk (sorted by key so the
    /// byte stream is independent of directory iteration order). Load
    /// overwrites in place: workload setup re-touches a subset of the
    /// checkpointed chunks, never any others, so nothing is cleared.
    void serialize(Ckpt& ar);

  private:
    static constexpr unsigned kMemoBits = 4;
    static constexpr std::size_t kMemoSlots = std::size_t{1} << kMemoBits;

    struct MemoSlot {
        std::uint64_t key = ~std::uint64_t{0};
        std::uint8_t* chunk = nullptr;
    };

    /// Fibonacci hashing: chunk keys of different regions differ in high
    /// bits and neighbouring keys differ by one, and the top bits of the
    /// product spread both kinds over the slots.
    [[nodiscard]] MemoSlot& memo_slot(std::uint64_t key) const
    {
        return memo_[(key * 0x9E3779B97F4A7C15ULL) >> (64 - kMemoBits)];
    }

    template <typename T>
    [[nodiscard]] static bool in_one_chunk(Addr addr, std::size_t count)
    {
        // Chunk payloads come from operator new[], so their alignment
        // covers every scalar T.
        return (addr & kChunkMask) + count * sizeof(T) <= kChunkBytes &&
               addr % alignof(T) == 0;
    }

    std::uint8_t* chunk_for(Addr addr)
    {
        const std::uint64_t key = addr / kChunkBytes;
        MemoSlot& m = memo_slot(key);
        if (m.key == key) {
            return m.chunk;
        }
        auto& slot = chunks_[key];
        if (!slot) {
            // make_unique value-initialises the array: the chunk is zeroed.
            slot = std::make_unique<std::uint8_t[]>(kChunkBytes);
        }
        m = MemoSlot{key, slot.get()};
        return m.chunk;
    }

    [[nodiscard]] const std::uint8_t* find_chunk(Addr addr) const
    {
        const std::uint64_t key = addr / kChunkBytes;
        MemoSlot& m = memo_slot(key);
        if (m.key == key) {
            return m.chunk;
        }
        const auto it = chunks_.find(key);
        if (it == chunks_.end()) {
            return nullptr;
        }
        m = MemoSlot{key, it->second.get()};
        return m.chunk;
    }

    std::unordered_map<std::uint64_t, std::unique_ptr<std::uint8_t[]>>
        chunks_;
    /// Direct-mapped memo of allocated chunks; only ever holds pointers to
    /// live chunks (absent chunks are not memoed). Mutable: reads refresh
    /// it too.
    mutable std::array<MemoSlot, kMemoSlots> memo_{};
};

} // namespace accesys::mem
