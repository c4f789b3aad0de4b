#include "common/rng.h"

#include <cassert>
#include <cmath>
#include <numeric>

namespace tcss {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  return Mix64(*state += 0x9e3779b97f4a7c15ULL);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias: a draw below 2^64 mod n is
  // rejected. That threshold, (0 - n) % n, is itself below n, so a draw
  // r >= n is always kept and only r < n (where r % n is r) needs it.
  for (;;) {
    const uint64_t r = Next();
    if (r >= n) return r % n;
    if (r >= (0 - n) % n) return r;
  }
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  const double u2 = Uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  has_cached_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) return 0;
  double x = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (x < acc) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  // Floyd's algorithm would avoid materializing [0, n), but n is small in
  // our workloads and the full shuffle keeps ordering uniform.
  if (k == 0) return {};
  if (k * 4 >= n) {
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), size_t{0});
    Shuffle(&all);
    all.resize(k);
    return all;
  }
  // Sparse case: sample-and-retry with a set of chosen values.
  std::vector<size_t> chosen;
  chosen.reserve(k);
  std::vector<bool> used(n, false);
  while (chosen.size() < k) {
    size_t idx = static_cast<size_t>(UniformInt(n));
    if (!used[idx]) {
      used[idx] = true;
      chosen.push_back(idx);
    }
  }
  return chosen;
}

}  // namespace tcss
