// Table IV: training time of one epoch of the L2 head under the three
// implementations - the naive whole-data loss (Eq 14), negative sampling,
// and the rewritten loss (Eq 15).
//
// Expected shape (paper): Eq 15 is orders of magnitude faster than Eq 14
// and clearly faster than negative sampling; absolute numbers differ from
// the paper (single CPU core vs their GPU setup), the ratios are the
// asymptotic-complexity property being reproduced. The run exits non-zero
// unless 2 x rewritten < naive on every preset: that wall-clock gate lives
// here rather than in the unit tests, which must not depend on timing.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/logging.h"
#include <algorithm>
#include <vector>

#include "core/trainer.h"

namespace {

using tcss::bench::GetWorld;

struct CostRow {
  std::string dataset;
  double naive_s = 0, sampling_s = 0, rewritten_s = 0;
};

std::map<std::string, CostRow> g_rows;

void BM_LossEpoch(benchmark::State& state, tcss::SyntheticPreset preset,
                  tcss::LossMode mode) {
  const tcss::bench::World& world = GetWorld(preset);
  tcss::TcssConfig cfg;
  tcss::TcssTrainer trainer(world.data, world.train, cfg);
  double seconds = 0.0;
  for (auto _ : state) {
    auto timed = trainer.TimeOneLossEpoch(mode);
    TCSS_CHECK(timed.ok());
    seconds = timed.value();
    benchmark::DoNotOptimize(seconds);
  }
  state.counters["epoch_s"] = seconds;
  CostRow& row = g_rows[tcss::PresetName(preset)];
  row.dataset = tcss::PresetName(preset);
  switch (mode) {
    case tcss::LossMode::kNaive:
      row.naive_s = seconds;
      break;
    case tcss::LossMode::kNegativeSampling:
      row.sampling_s = seconds;
      break;
    case tcss::LossMode::kRewritten:
      row.rewritten_s = seconds;
      break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const tcss::SyntheticPreset presets[] = {
      tcss::SyntheticPreset::kGowallaLike, tcss::SyntheticPreset::kYelpLike,
      tcss::SyntheticPreset::kFoursquareLike};
  const std::pair<tcss::LossMode, const char*> modes[] = {
      {tcss::LossMode::kNaive, "naive_eq14"},
      {tcss::LossMode::kNegativeSampling, "negative_sampling"},
      {tcss::LossMode::kRewritten, "rewritten_eq15"}};
  for (auto preset : presets) {
    for (const auto& [mode, label] : modes) {
      std::string name = std::string("table4/") + tcss::PresetName(preset) +
                         "/" + label;
      benchmark::RegisterBenchmark(name.c_str(), BM_LossEpoch, preset, mode)
          ->Iterations(1)
          ->Unit(benchmark::kSecond);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // The summary table re-measures directly (median of 3) rather than
  // relying on state captured inside the benchmark callbacks.
  std::printf("\n=== Table IV: training time per epoch of the L2 head ===\n");
  std::printf("%-24s %-18s %-20s %-18s %-12s\n", "Dataset",
              "Original Eq (14)", "Negative sampling", "Rewritten Eq (15)",
              "speedup");
  int status = 0;
  for (auto preset : presets) {
    const tcss::bench::World& world = GetWorld(preset);
    tcss::TcssConfig cfg;
    tcss::TcssTrainer trainer(world.data, world.train, cfg);
    auto median_time = [&trainer](tcss::LossMode mode) {
      std::vector<double> ts;
      for (int rep = 0; rep < 3; ++rep) {
        auto timed = trainer.TimeOneLossEpoch(mode);
        TCSS_CHECK(timed.ok());
        ts.push_back(timed.value());
      }
      std::sort(ts.begin(), ts.end());
      return ts[1];
    };
    const double naive = median_time(tcss::LossMode::kNaive);
    const double sampling = median_time(tcss::LossMode::kNegativeSampling);
    const double rewritten = median_time(tcss::LossMode::kRewritten);
    std::printf("%-24s %-18.6f %-20.6f %-18.6f %-12.0fx\n",
                tcss::PresetName(preset), naive, sampling, rewritten,
                rewritten > 0 ? naive / rewritten : 0.0);
    const std::string dataset = tcss::PresetName(preset);
    tcss::bench::AppendBenchJson("table4_losscost", dataset, "naive_epoch_s",
                                 naive);
    tcss::bench::AppendBenchJson("table4_losscost", dataset,
                                 "negative_sampling_epoch_s", sampling);
    tcss::bench::AppendBenchJson("table4_losscost", dataset,
                                 "rewritten_epoch_s", rewritten);
    tcss::bench::AppendBenchJson("table4_losscost", dataset,
                                 "rewritten_speedup",
                                 rewritten > 0 ? naive / rewritten : 0.0);
    if (!(2.0 * rewritten < naive)) {
      std::fprintf(stderr,
                   "FAIL %s: rewritten Eq (15) epoch %.6f s is not under "
                   "half the naive Eq (14) epoch %.6f s\n",
                   dataset.c_str(), rewritten, naive);
      status = 1;
    }
  }
  return status;
}
