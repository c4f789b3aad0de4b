#ifndef TCSS_COMMON_RNG_H_
#define TCSS_COMMON_RNG_H_

#include <cstdint>
#include <cstddef>
#include <vector>

namespace tcss {

/// SplitMix64's output finalizer: a bijective avalanche mix of one 64-bit
/// word. Rng's seeding and every counter-derived stream (per-user
/// synthetic data, per-shard negative sampling, proptest case seeds, the
/// dist fingerprint) go through this one function.
inline uint64_t Mix64(uint64_t z) {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

/// Deterministic, fast PRNG (xoshiro256**), seeded via SplitMix64.
/// All stochastic components of the library draw from this generator so
/// experiments are exactly reproducible from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box-Muller (cached second value).
  double Gaussian();

  /// Gaussian with given mean and stddev.
  double Gaussian(double mean, double stddev);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Samples an index in [0, weights.size()) with probability proportional
  /// to the (non-negative) weights. Returns 0 if all weights are zero.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Draws k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace tcss

#endif  // TCSS_COMMON_RNG_H_
