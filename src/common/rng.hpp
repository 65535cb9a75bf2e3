// Deterministic, splittable random number generation.
//
// Every stochastic component in updp2p (churn, fanout selection, forward
// coin flips, latency models, version-id nonces, workloads) draws from a
// StreamRng that is keyed explicitly, so a whole experiment is reproducible
// from a single root seed:
//
//   * StreamRng — counter-based Philox4x32-10, keyed by
//     (seed, stream, purpose). Draw sequences depend only on the key, never
//     on how many draws other streams made, which decouples randomness from
//     iteration order — the property the sharded round engine needs to stay
//     bit-deterministic at any thread count. Each consumer owns a named
//     purpose constant, so a draw in one component never shifts another's.
//   * Rng — sequential xoshiro256**. No component under src/, bench/ or
//     examples/ draws from it (updp2p-lint's rng-discipline rule enforces
//     that); it stays only because the live benchmark's inproc_churn
//     workload (livebench/src/inproc_churn.cpp) still seeds its sessions
//     from it, and goes once that workload keys a StreamRng instead.
//
// Both share one distribution toolkit (RngOps).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"

namespace updp2p::common {

/// splitmix64 step — used for seeding and stream derivation.
/// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Distribution algorithms over any UniformRandomBitGenerator with a full
/// 64-bit output range. CRTP so Rng and StreamRng produce bit-identical
/// draw sequences from identical raw outputs.
template <typename Derived>
class RngOps {
 public:
  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept {
    // 53 random mantissa bits -> uniform in [0,1).
    return static_cast<double>(self()() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// nearly-divisionless method.
  [[nodiscard]] std::uint64_t uniform_below(std::uint64_t bound) noexcept {
    // Lemire's method: multiply-shift with rejection to remove modulo bias.
    std::uint64_t x = self()();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = self()();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo,
                                         std::int64_t hi) noexcept {
    const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform_below(range));
  }

  /// Exponentially distributed value with rate `lambda` (> 0).
  [[nodiscard]] double exponential(double lambda) noexcept {
    // Inverse CDF; guard against log(0).
    double u;
    do {
      u = uniform01();
    } while (u <= 0.0);
    return -std::log(u) / lambda;
  }

  /// Geometric: number of Bernoulli(p) failures before the first success.
  [[nodiscard]] std::uint64_t geometric(double p) noexcept {
    if (p >= 1.0) return 0;
    if (p <= 0.0) return ~std::uint64_t{0};
    double u;
    do {
      u = uniform01();
    } while (u <= 0.0);
    return static_cast<std::uint64_t>(
        std::floor(std::log(u) / std::log1p(-p)));
  }

  /// Poisson-distributed count with mean `lambda` (Knuth for small lambda,
  /// normal approximation above 64 — adequate for workload generation).
  [[nodiscard]] std::uint64_t poisson(double lambda) noexcept {
    if (lambda <= 0.0) return 0;
    if (lambda < 64.0) {
      const double limit = std::exp(-lambda);
      std::uint64_t count = 0;
      double product = uniform01();
      while (product > limit) {
        ++count;
        product *= uniform01();
      }
      return count;
    }
    // Normal approximation with continuity correction for large means.
    const double u1 = std::max(uniform01(), 1e-300);
    const double u2 = uniform01();
    const double normal = std::sqrt(-2.0 * std::log(u1)) *
                          std::cos(2.0 * 3.141592653589793 * u2);
    const double value = lambda + std::sqrt(lambda) * normal + 0.5;
    return value <= 0.0 ? 0 : static_cast<std::uint64_t>(value);
  }

  /// Zipf-distributed rank in [0, n) with exponent `s` (> 0): rank k is
  /// drawn with probability ∝ 1/(k+1)^s. Rejection-inversion; O(1) per
  /// draw. Used for skewed key-popularity workloads.
  [[nodiscard]] std::uint64_t zipf(std::uint64_t n, double s) noexcept {
    if (n <= 1) return 0;
    // Rejection-inversion sampling (Hörmann & Derflinger). H is an
    // antiderivative of the continuous envelope x^-s.
    const double sd = s;
    auto H = [sd](double x) {
      return sd == 1.0 ? std::log(x)
                       : (std::pow(x, 1.0 - sd) - 1.0) / (1.0 - sd);
    };
    auto H_inv = [sd](double u) {
      return sd == 1.0 ? std::exp(u)
                       : std::pow(1.0 + u * (1.0 - sd), 1.0 / (1.0 - sd));
    };
    const double h_x1 = H(1.5) - 1.0;  // shifted so rank 1 is acceptable
    const double h_n = H(static_cast<double>(n) + 0.5);
    for (;;) {
      const double u = h_x1 + uniform01() * (h_n - h_x1);
      const double x = H_inv(u);
      const auto k = static_cast<std::uint64_t>(x + 0.5);
      const double k_d = static_cast<double>(std::max<std::uint64_t>(k, 1));
      if (k >= 1 && k <= n && u >= H(k_d + 0.5) - std::pow(k_d, -sd)) {
        return k - 1;  // 0-based rank
      }
    }
  }

  /// Samples `k` distinct values uniformly from [0, n). If k >= n returns
  /// the full range (shuffled). Floyd's algorithm: O(k) expected.
  [[nodiscard]] std::vector<std::uint32_t> sample_without_replacement(
      std::uint32_t n, std::uint32_t k) {
    std::vector<std::uint32_t> out;
    if (n == 0 || k == 0) return out;
    if (k >= n) {
      out.resize(n);
      for (std::uint32_t i = 0; i < n; ++i) out[i] = i;
      shuffle(std::span<std::uint32_t>(out));
      return out;
    }
    out.reserve(k);
    // Floyd's algorithm: for j in [n-k, n), pick t in [0, j]; insert t or j.
    std::unordered_set<std::uint32_t> chosen;
    chosen.reserve(k * 2);
    for (std::uint32_t j = n - k; j < n; ++j) {
      const auto t = static_cast<std::uint32_t>(uniform_below(j + 1));
      const std::uint32_t pick = chosen.contains(t) ? j : t;
      chosen.insert(pick);
      out.push_back(pick);
    }
    return out;
  }

  /// Fisher–Yates shuffle of a span in place.
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Picks one element index of a non-empty range of size n.
  [[nodiscard]] std::size_t pick_index(std::size_t n) noexcept {
    return static_cast<std::size_t>(uniform_below(n));
  }

 private:
  [[nodiscard]] Derived& self() noexcept {
    return static_cast<Derived&>(*this);
  }
};

/// xoshiro256** PRNG (Blackman & Vigna). Kept for the live benchmark's
/// inproc_churn workload only; see the file comment. Satisfies
/// UniformRandomBitGenerator.
class Rng : public RngOps<Rng> {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state from `seed` via splitmix64, per the
  /// xoshiro authors' recommendation.
  explicit Rng(std::uint64_t seed = 0x1234567890abcdefULL) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~std::uint64_t{0};
  }

  result_type operator()() noexcept;

  /// Derives an independent child generator. The child's seed mixes this
  /// generator's next output, so repeated splits yield distinct streams.
  [[nodiscard]] Rng split() noexcept;

  /// Derives a child stream bound to `id` — deterministic given the parent
  /// state at the time of the call, and distinct per id.
  [[nodiscard]] Rng split_for(std::uint64_t id) const noexcept;

 private:
  std::uint64_t s_[4];
};

/// Philox4x32-10 block cipher (Salmon et al., "Parallel random numbers: as
/// easy as 1, 2, 3", SC'11). Maps a 64-bit key and a 128-bit counter to 128
/// pseudorandom bits; distinct (key, counter) pairs yield independent
/// outputs, so random streams can be *indexed* instead of iterated.
struct PhiloxStream {
  using Block = std::array<std::uint32_t, 4>;

  [[nodiscard]] static constexpr Block block(std::uint32_t key0,
                                             std::uint32_t key1,
                                             Block ctr) noexcept {
    constexpr std::uint32_t kMul0 = 0xD2511F53u;
    constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
    constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;  // golden ratio
    constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;  // sqrt(3) - 1
    for (int round = 0; round < 10; ++round) {
      const auto product0 = static_cast<std::uint64_t>(kMul0) * ctr[0];
      const auto product1 = static_cast<std::uint64_t>(kMul1) * ctr[2];
      ctr = {static_cast<std::uint32_t>(product1 >> 32) ^ ctr[1] ^ key0,
             static_cast<std::uint32_t>(product1),
             static_cast<std::uint32_t>(product0 >> 32) ^ ctr[3] ^ key1,
             static_cast<std::uint32_t>(product0)};
      key0 += kWeyl0;
      key1 += kWeyl1;
    }
    return ctr;
  }
};

/// Counter-based generator over PhiloxStream, keyed by
/// (seed, stream, purpose). The key layout:
///   * the Philox key is derived from `seed` alone — one cipher keying per
///     experiment;
///   * (stream, purpose) select the upper 64 counter bits, so every
///     (seed, stream, purpose) triple owns 2^64 draws that no other triple
///     can collide with;
///   * the draw index forms the lower 64 counter bits.
/// Constructing a StreamRng costs three splitmix64 steps and no block
/// computation — cheap enough to key a fresh stream per (node, round).
/// Satisfies UniformRandomBitGenerator.
class StreamRng : public RngOps<StreamRng> {
 public:
  using result_type = std::uint64_t;

  explicit StreamRng(std::uint64_t seed = 0x1234567890abcdefULL,
                     std::uint64_t stream = 0,
                     std::uint64_t purpose = 0) noexcept {
    std::uint64_t sm = seed;
    const std::uint64_t keyed = splitmix64(sm);
    key0_ = static_cast<std::uint32_t>(keyed);
    key1_ = static_cast<std::uint32_t>(keyed >> 32);
    sm ^= stream * 0x9e3779b97f4a7c15ULL;
    const std::uint64_t stream_mix = splitmix64(sm);
    sm ^= purpose * 0xbf58476d1ce4e5b9ULL;
    const std::uint64_t purpose_mix = splitmix64(sm);
    hi_ = stream_mix ^ purpose_mix;
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~std::uint64_t{0};
  }

  result_type operator()() noexcept {
    if (have_buffered_) {
      have_buffered_ = false;
      return buffered_;
    }
    const PhiloxStream::Block out = PhiloxStream::block(
        key0_, key1_,
        {static_cast<std::uint32_t>(ctr_),
         static_cast<std::uint32_t>(ctr_ >> 32),
         static_cast<std::uint32_t>(hi_),
         static_cast<std::uint32_t>(hi_ >> 32)});
    ++ctr_;
    buffered_ = out[2] | (static_cast<std::uint64_t>(out[3]) << 32);
    have_buffered_ = true;
    return out[0] | (static_cast<std::uint64_t>(out[1]) << 32);
  }

  /// Derives an independent child generator (consumes one draw).
  [[nodiscard]] StreamRng split() noexcept { return StreamRng((*this)()); }

  /// Derives a child stream bound to `id` — a pure function of this
  /// stream's key and `id`; does not advance this generator.
  [[nodiscard]] StreamRng split_for(std::uint64_t id) const noexcept {
    return StreamRng(derive_seed(id));
  }

  /// Collapses (key, hi, tag) into a 64-bit seed — pure, non-advancing.
  /// The seed of split_for's child stream.
  [[nodiscard]] std::uint64_t derive_seed(std::uint64_t tag) const noexcept {
    std::uint64_t sm = (static_cast<std::uint64_t>(key1_) << 32 | key0_) ^
                       hi_ ^ (tag * 0x9e3779b97f4a7c15ULL);
    return splitmix64(sm);
  }

 private:
  std::uint32_t key0_ = 0;
  std::uint32_t key1_ = 0;
  std::uint64_t hi_ = 0;    ///< upper counter half: the stream selector
  std::uint64_t ctr_ = 0;   ///< lower counter half: the draw index
  std::uint64_t buffered_ = 0;
  bool have_buffered_ = false;
};

}  // namespace updp2p::common
