// Deterministic, seedable pseudo-random number generator (xoshiro256**).
//
// The standard <random> engines are avoided in hot simulation paths because
// of their size and per-call overhead; xoshiro256** is small, fast and has
// excellent statistical quality for simulation (non-cryptographic) use.
#pragma once

#include <cstddef>
#include <cstdint>

namespace accesys {

class Ckpt;

class Rng {
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

    /// Re-initialise the state from a single 64-bit seed (splitmix64 spread).
    void reseed(std::uint64_t seed)
    {
        for (auto& word : state_) {
            seed += 0x9E3779B97F4A7C15ULL;
            std::uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
            word = z ^ (z >> 31);
        }
    }

    /// Uniform 64-bit value.
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform value in [0, bound) — bound must be non-zero.
    std::uint64_t below(std::uint64_t bound)
    {
        // Multiply-shift range reduction (Lemire); bias is negligible for
        // simulation purposes.
        const unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// Uniform value in [lo, hi] inclusive.
    std::uint64_t between(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /// Uniform double in [0, 1).
    double uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /// Bernoulli trial with probability `p` of returning true.
    bool chance(double p) { return uniform() < p; }

    /// Fill `n` bytes at `dst` with eight bytes per draw: byte i is byte
    /// (i mod 8) of draw ⌊i/8⌋, taken by shifts, least-significant first,
    /// so the stream is the same on every host byte order. A tail of
    /// fewer than eight bytes takes the low bytes of one more whole draw,
    /// so the next fill starts at a fresh draw, and fills of multiples of
    /// eight bytes concatenate into one stream.
    void fill_bytes(void* dst, std::size_t n)
    {
        auto* p = static_cast<std::uint8_t*>(dst);
        for (; n >= 8; n -= 8, p += 8) {
            put_bytes(p, next(), 8);
        }
        if (n > 0) {
            put_bytes(p, next(), n);
        }
    }

    /// Checkpoint/restore the stream position: a restored Rng continues
    /// the exact draw sequence of the saved one.
    void serialize(Ckpt& ar);

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    static void put_bytes(std::uint8_t* p, std::uint64_t v, std::size_t n)
    {
        for (std::size_t b = 0; b < n; ++b) {
            p[b] = static_cast<std::uint8_t>(v >> (8 * b));
        }
    }

    std::uint64_t state_[4] = {};
};

} // namespace accesys
