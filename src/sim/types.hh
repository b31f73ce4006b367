// Core scalar types and time helpers shared by every accesys library.
//
// Conventions:
//   * 1 tick == 1 picosecond, carried in an unsigned 64-bit integer:
//     fine enough for GHz clock periods, and 2^64 ticks is ~213 days of
//     simulated time.
//   * Addresses are 64-bit byte addresses.
#pragma once

#include <cstdint>
#include <limits>

namespace accesys {

/// Simulated time in picoseconds.
using Tick = std::uint64_t;

/// Byte address in a (virtual or physical) address space.
using Addr = std::uint64_t;

/// Count of clock cycles in some clock domain.
using Cycles = std::uint64_t;

inline constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

inline constexpr Tick kTicksPerNs = 1000;
inline constexpr Tick kTicksPerUs = 1000 * kTicksPerNs;
inline constexpr Tick kTicksPerMs = 1000 * kTicksPerUs;
inline constexpr Tick kTicksPerSec = 1000 * kTicksPerMs;

/// Convert a duration in nanoseconds to ticks (rounding to nearest tick).
constexpr Tick ticks_from_ns(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(kTicksPerNs) + 0.5);
}

constexpr Tick ticks_from_us(double us)
{
    return ticks_from_ns(us * 1000.0);
}

constexpr double ticks_to_ns(Tick t)
{
    // Multiply by the reciprocal: this runs per translation / per read on
    // stat-sampling paths, and a divsd is ~3x the latency of a mulsd.
    // (1/1000 is not exactly representable, so ns-derived stat values can
    // differ from the divide form in the last ULP — acceptable: every
    // run of this build agrees with itself, which is what the
    // determinism and checkpoint bit-identity contracts compare.)
    return static_cast<double>(t) * (1.0 / static_cast<double>(kTicksPerNs));
}

constexpr double ticks_to_us(Tick t)
{
    return ticks_to_ns(t) / 1000.0;
}

constexpr double ticks_to_ms(Tick t)
{
    return ticks_to_us(t) / 1000.0;
}

constexpr double ticks_to_sec(Tick t)
{
    return ticks_to_ms(t) / 1000.0;
}

/// Clock period, in ticks, of a clock running at `mhz` megahertz.
constexpr Tick period_from_mhz(double mhz)
{
    return static_cast<Tick>(1e6 / mhz + 0.5);
}

/// Clock period, in ticks, of a clock running at `ghz` gigahertz.
constexpr Tick period_from_ghz(double ghz)
{
    return period_from_mhz(ghz * 1000.0);
}

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;

/// True iff `v` is a power of two (0 is not).
constexpr bool is_pow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/// Base-2 logarithm of a power of two.
constexpr unsigned log2i(std::uint64_t v)
{
    unsigned n = 0;
    while (v > 1) {
        v >>= 1;
        ++n;
    }
    return n;
}

/// Round `v` down to a multiple of `align` (power of two).
constexpr std::uint64_t align_down(std::uint64_t v, std::uint64_t align)
{
    return v & ~(align - 1);
}

/// Round `v` up to a multiple of `align` (power of two).
constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/// Integer division rounding up.
constexpr std::uint64_t div_ceil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace accesys
