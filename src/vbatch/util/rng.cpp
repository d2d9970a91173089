#include "vbatch/util/rng.hpp"

#include <cmath>
#include <numbers>

#include "vbatch/util/types.hpp"

namespace vbatch {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

// splitmix64 seeds the xoshiro state from a single 64-bit value.
constexpr std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % range);
}

double Rng::gaussian() noexcept {
  if (have_spare_) {
    have_spare_ = false;
    return spare_;
  }
  // Box–Muller; reject u1 == 0 to keep log finite.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  spare_ = r * std::sin(theta);
  have_spare_ = true;
  return r * std::cos(theta);
}

double Rng::gaussian(double mean, double stddev) noexcept {
  return mean + stddev * gaussian();
}

template <typename T>
void fill_spd(Rng& rng, T* a, std::int64_t n, std::int64_t ld) {
  using R = real_t<T>;
  // Column by column: the real diagonal, then the lower triangle (one draw
  // each, contiguous), mirrored conjugated into the upper triangle.
  for (std::int64_t j = 0; j < n; ++j) {
    a[j + j * ld] = T(static_cast<R>(rng.uniform()) + static_cast<R>(n));
    for (std::int64_t i = j + 1; i < n; ++i) {
      T v;
      if constexpr (is_complex_v<T>) {
        v = T(static_cast<R>(rng.uniform()), static_cast<R>(rng.uniform(-0.5, 0.5)));
      } else {
        v = static_cast<T>(rng.uniform());
      }
      a[i + j * ld] = v;
      a[j + i * ld] = conj_val(v);
    }
  }
}

template <typename T>
void fill_general(Rng& rng, T* a, std::int64_t m, std::int64_t n, std::int64_t ld) {
  using R = real_t<T>;
  for (std::int64_t j = 0; j < n; ++j)
    for (std::int64_t i = 0; i < m; ++i) {
      if constexpr (is_complex_v<T>) {
        a[i + j * ld] =
            T(static_cast<R>(rng.uniform(-1.0, 1.0)), static_cast<R>(rng.uniform(-1.0, 1.0)));
      } else {
        a[i + j * ld] = static_cast<T>(rng.uniform(-1.0, 1.0));
      }
    }
}

template void fill_spd<float>(Rng&, float*, std::int64_t, std::int64_t);
template void fill_spd<double>(Rng&, double*, std::int64_t, std::int64_t);
template void fill_general<float>(Rng&, float*, std::int64_t, std::int64_t, std::int64_t);
template void fill_general<double>(Rng&, double*, std::int64_t, std::int64_t, std::int64_t);
template void fill_spd<std::complex<float>>(Rng&, std::complex<float>*, std::int64_t,
                                            std::int64_t);
template void fill_spd<std::complex<double>>(Rng&, std::complex<double>*, std::int64_t,
                                             std::int64_t);
template void fill_general<std::complex<float>>(Rng&, std::complex<float>*, std::int64_t,
                                                std::int64_t, std::int64_t);
template void fill_general<std::complex<double>>(Rng&, std::complex<double>*, std::int64_t,
                                                 std::int64_t, std::int64_t);

}  // namespace vbatch
