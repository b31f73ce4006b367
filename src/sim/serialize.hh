// Checkpoint archive: versioned, named-section binary format with
// per-section CRCs.
//
// A checkpoint captures the complete dynamic state of a simulation at a
// quiescent point (any point between events) so a fresh process can rebuild
// the same `SystemConfig`, `Simulator::restore()` the file, and resume with
// results bit-identical to the uninterrupted run (see ROADMAP
// "Checkpoint/restore").
//
// One `Ckpt` object serves both directions: every component implements a
// single `serialize(Ckpt&)` that reads or writes depending on the archive's
// mode, so the field list — the thing that must match exactly — is written
// once. Sections are keyed by component name (unique by construction) and
// looked up by name on load, each with a CRC32 over its payload; the file
// header carries a format version and a hash of the originating
// `SystemConfig` so a restore into the wrong topology fails loudly instead
// of corrupting silently.
//
// File layout (all integers little-endian):
//   magic "ACSYSCKP" | u32 format version | u64 config hash |
//   u32 section count | sections: u16 name len | name bytes |
//   u64 payload len | u32 crc32(payload) | payload bytes
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/error.hh"

namespace accesys {

/// CRC-32 (IEEE 802.3 polynomial, table-driven).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n,
                                  std::uint32_t seed = 0);

/// FNV-1a 64-bit accumulator (config hashing).
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::uint64_t h,
                                              std::uint64_t v) noexcept
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ULL;
    }
    return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

/// Symmetric checkpoint archive (see file header).
class Ckpt {
  public:
    // v2: poison bit on Tlp/Packet/InboundRead + endpoint/SMMU fault state.
    // v3: one event queue — the "sim", "sim.counters" and "pools" sections
    //     lose their domain/pool count prefixes and parallel-core counters.
    // v4: "sim.counters" loses the express-lane hit/spill counters.
    // v5: the Runner's "runner.rounds" hook (every round-engine front end)
    //     replaces "runner.serving".
    // v6: one layout for every PCIe node's staged TLPs: the shared delay
    //     stage (ready, ingress port, TLP; then its event) and egress
    //     queue (SentHook code, TLP).
    // v7: caches drop the MSHR key vector, the per-MSHR fill_sent and
    //     dirty_on_fill flags and the replacement RNG; the SMMU drops its
    //     raw counters (the stats section holds them).
    static constexpr std::uint32_t kFormatVersion = 7;
    static constexpr char kMagic[8] = {'A', 'C', 'S', 'Y',
                                       'S', 'C', 'K', 'P'};

    enum class Mode { save, load };

    /// A saving archive; fill sections, then write_file().
    Ckpt() : mode_(Mode::save) {}

    /// A loading archive over the named file. Verifies magic, format
    /// version, config hash and every section CRC; throws SimError on any
    /// mismatch.
    static Ckpt load_file(const std::string& path,
                          std::uint64_t expect_config_hash);

    /// Parse without the config-hash check (ckpt_tool inspection).
    static Ckpt load_file_unchecked(const std::string& path);

    [[nodiscard]] bool saving() const noexcept
    {
        return mode_ == Mode::save;
    }
    [[nodiscard]] bool loading() const noexcept { return !saving(); }

    // --- sections -----------------------------------------------------------

    /// Open the named section: on save, start buffering a new payload; on
    /// load, position the read cursor at the start of the section's saved
    /// payload (throws SimError when the checkpoint has no such section).
    void begin_section(const std::string& name);

    /// Close the current section. On load, the entire payload must have
    /// been consumed — a length mismatch means the serialize() field list
    /// changed between save and load, which is exactly the class of bug
    /// this check exists to catch.
    void end_section();

    // --- primitives ---------------------------------------------------------

    void raw(void* p, std::size_t n)
    {
        if (saving()) {
            const auto* b = static_cast<const std::uint8_t*>(p);
            cur_payload_.insert(cur_payload_.end(), b, b + n);
        } else {
            ensure(read_pos_ + n <= read_end_,
                   "checkpoint section '", cur_name_,
                   "' truncated (field list mismatch)");
            if (n != 0) { // an empty vector's data() may be null
                std::memcpy(p, read_base_ + read_pos_, n);
            }
            read_pos_ += n;
        }
    }

    template <typename T>
    void pod(T& v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "Ckpt::pod needs a trivially copyable type");
        raw(&v, sizeof(T));
    }

    /// Read/write a list of trivially copyable fields in order.
    template <typename... Ts>
    void io(Ts&... vs)
    {
        (pod(vs), ...);
    }

    void str(std::string& s)
    {
        std::uint64_t n = s.size();
        pod(n);
        if (loading()) {
            s.resize(n);
        }
        raw(s.data(), n);
    }

    template <typename T>
    void pod_vec(std::vector<T>& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint64_t n = v.size();
        pod(n);
        if (loading()) {
            v.resize(n);
        }
        raw(v.data(), n * sizeof(T));
    }

    // --- file I/O -----------------------------------------------------------

    /// Serialize every buffered section to `path` (atomic-ish: written to
    /// a temp file, then renamed). Save mode only.
    void write_file(const std::string& path, std::uint64_t config_hash);

    // --- introspection (ckpt_tool) ------------------------------------------

    struct Section {
        std::string name;
        std::uint64_t offset = 0; ///< payload start within blob_
        std::uint64_t size = 0;
        std::uint32_t crc = 0;
    };

    [[nodiscard]] const std::vector<Section>& sections() const noexcept
    {
        return sections_;
    }
    [[nodiscard]] std::uint64_t config_hash() const noexcept
    {
        return config_hash_;
    }
    [[nodiscard]] std::uint32_t format_version() const noexcept
    {
        return format_version_;
    }
    /// Payload bytes of section `i` (load mode).
    [[nodiscard]] const std::uint8_t* section_data(std::size_t i) const
    {
        return blob_.data() + sections_.at(i).offset;
    }

  private:
    explicit Ckpt(Mode m) : mode_(m) {}
    static Ckpt parse(const std::string& path);

    [[nodiscard]] const Section* find_section(const std::string& name) const;

    Mode mode_;
    // Save side: completed sections + the one being filled.
    std::vector<Section> sections_;
    std::vector<std::vector<std::uint8_t>> payloads_;
    std::vector<std::uint8_t> cur_payload_;
    std::string cur_name_;
    bool in_section_ = false;
    // Load side: the whole file, with sections_ carrying offsets into it.
    std::vector<std::uint8_t> blob_;
    const std::uint8_t* read_base_ = nullptr;
    std::uint64_t read_pos_ = 0;
    std::uint64_t read_end_ = 0;
    std::uint64_t config_hash_ = 0;
    std::uint32_t format_version_ = kFormatVersion;
};

} // namespace accesys
