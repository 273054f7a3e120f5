// Deterministic splitmix64 RNG. Every stochastic component of the
// simulator draws from an explicitly threaded Rng so that a fixed seed
// reproduces a run bit-for-bit (see the deterministic-replay test).

#ifndef OSCAR_CORE_RNG_H_
#define OSCAR_CORE_RNG_H_

#include <cstdint>

namespace oscar {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit draw (splitmix64).
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n); returns 0 when n == 0.
  uint64_t UniformInt(uint64_t n) {
    if (n == 0) return 0;
    // Rejection sampling to avoid modulo bias: draws at or above
    // `limit` are refused. The limit is never below UINT64_MAX - n + 1,
    // so only a draw above UINT64_MAX - n can be refused, and only then
    // is the limit's division paid.
    uint64_t draw = Next();
    if (draw > UINT64_MAX - n) {
      const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
      while (draw >= limit) draw = Next();
    }
    return draw % n;
  }

  /// Standard normal via Box-Muller (one draw per call, no caching, to
  /// keep the consumption pattern deterministic and simple).
  double NextGaussian();

  /// Counter-forked stream: a generator derived purely from
  /// (seed, stream, substream), consuming nothing from any live Rng.
  /// Checkpoint rewiring forks one per (rewire salt, checkpoint, peer)
  /// so every peer's plan draws from its own stream regardless of the
  /// order — or thread — the plans are computed in.
  static Rng Fork(uint64_t seed, uint64_t stream, uint64_t substream) {
    uint64_t state = Mix(seed + 0x9e3779b97f4a7c15ULL);
    state = Mix(state ^ (stream + 0xbf58476d1ce4e5b9ULL));
    state = Mix(state ^ (substream + 0x94d049bb133111ebULL));
    return Rng(state);
  }

 private:
  /// splitmix64 finalizer: full-avalanche mixing for Fork.
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  uint64_t state_;
};

}  // namespace oscar

#endif  // OSCAR_CORE_RNG_H_
