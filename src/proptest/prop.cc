#include "proptest/prop.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"

namespace tcss {
namespace proptest {

uint64_t DeriveCaseSeed(uint64_t run_seed, uint64_t case_index) {
  return Mix64(run_seed + 0x9e3779b97f4a7c15ULL * (case_index + 1));
}

uint32_t SizeForSeed(uint64_t case_seed, uint32_t max_size) {
  if (max_size <= 1) return max_size;
  const uint64_t bits = Mix64(case_seed ^ 0x517e'b0d9'e7ULL);
  // Mix two scales: ~1/4 of cases draw from [1, min(4, max)] so degenerate
  // shapes (singletons, near-empty tensors) show up often even when the
  // budget is large.
  const uint32_t small_cap = max_size < 4 ? max_size : 4;
  if ((bits & 3u) == 0) {
    return 1 + static_cast<uint32_t>((bits >> 2) % small_cap);
  }
  return 1 + static_cast<uint32_t>((bits >> 2) % max_size);
}

bool ReplaySeedFromEnv(uint64_t* seed) {
  const char* value = std::getenv("TCSS_PROPTEST_SEED");
  if (value == nullptr || *value == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0') {
    std::fprintf(stderr,
                 "[proptest] ignoring malformed TCSS_PROPTEST_SEED='%s'\n",
                 value);
    return false;
  }
  *seed = static_cast<uint64_t>(parsed);
  return true;
}

namespace internal {

void PrintFailure(const std::string& name, int case_index, int n_cases,
                  const PropReport& report) {
  std::fprintf(stderr,
               "[proptest] FALSIFIED %s: case %d/%d, size %u, shrunk to "
               "size %u\n",
               name.c_str(), case_index + 1, n_cases, report.fail_size,
               report.shrunk_size);
  if (!report.message.empty()) {
    std::fprintf(stderr, "[proptest]   counterexample: %s\n",
                 report.message.c_str());
  }
  std::fprintf(stderr,
               "[proptest] repro: TCSS_PROPTEST_SEED=%llu replays this "
               "exact case (same shrunk counterexample)\n",
               static_cast<unsigned long long>(report.fail_seed));
}

}  // namespace internal

}  // namespace proptest
}  // namespace tcss
