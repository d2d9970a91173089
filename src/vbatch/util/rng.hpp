// Deterministic pseudo-random number generation.
//
// The paper's test batches are generated from two PRNG-driven size
// distributions (§IV-B). Determinism matters for the simulator's replay
// guarantees, so the library carries its own small xoshiro256** engine
// instead of relying on implementation-defined std::random distributions.
#pragma once

#include <cstdint>

namespace vbatch {

/// xoshiro256** 1.0 — small, fast, high-quality, fully deterministic across
/// platforms (std::mt19937 is deterministic too, but std distributions are
/// not specified bit-exactly; we implement our own).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box–Muller (deterministic, stateless pairing).
  double gaussian() noexcept;

  /// Normal with the given mean / standard deviation.
  double gaussian(double mean, double stddev) noexcept;

 private:
  std::uint64_t s_[4];
  bool have_spare_ = false;
  double spare_ = 0.0;
};

/// Fills a column-major n×n buffer (leading dimension ld) with a random
/// Hermitian (real: symmetric) positive definite matrix. The strict lower
/// triangle is drawn column by column, each element uniform in [0,1)
/// (complex: imaginary part uniform in [-0.5,0.5)), and mirrored conjugated
/// into the upper triangle; the diagonal is real, uniform in [0,1) plus n.
/// For real types diagonal dominance guarantees SPD for any n ≥ 1.
template <typename T>
void fill_spd(Rng& rng, T* a, std::int64_t n, std::int64_t ld);

/// Fills a column-major m×n buffer with uniform values in [-1, 1).
template <typename T>
void fill_general(Rng& rng, T* a, std::int64_t m, std::int64_t n, std::int64_t ld);

}  // namespace vbatch
