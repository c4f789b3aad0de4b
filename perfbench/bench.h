// Shared pieces of the repository benchmark: run arguments, the metric
// report, the in-memory span tracer and small statistics helpers.
#ifndef TCSS_PERFBENCH_BENCH_H_
#define TCSS_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/factor_model.h"
#include "data/dataset.h"
#include "data/split.h"
#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Training and serving threads. At two threads catalog train_s ranged
/// 17.7-21.2 s over four runs of one input; at one thread 26.0-27.5 s.
inline constexpr int kThreads = 1;
/// Set-ups timed per run (the median is reported).
inline constexpr int kSetupRepeats = 3;

/// Command-line parameters of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< length of each measured window
  bool trace = false;
  bool tiny = false;      ///< smoke-test scale
  /// Deliberate corruption of one answer before the output checks run
  /// (smoke test only): "swap_topk", "drop_response" or "nan_loss".
  std::string inject;
  std::string rev = "unknown";
};

/// What one pipeline workload runs: a generated LBSN, full TCSS training on
/// its 80/20 split, then socket serving of the trained model.
struct WorkloadSpec {
  std::string name;
  size_t users = 0, pois = 0, checkins = 0, cities = 0;
  int epochs = 0;
  int checkpoint_every = 0;
  int trainings = 1;           ///< repeats of the training (untraced runs)
  double nominal_rate = 1000;  ///< offered req/s of the serving window
  double saturation_requests = 12000;  ///< closed-loop window size
  uint64_t rollover_every = 0; ///< accepted ingests between rollovers
};

/// Collects metrics, context stamps and correctness failures, and prints
/// the run's result lines.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Context stamp; `json` is an already-encoded JSON value.
  void Context(const std::string& key, const std::string& json);
  /// A property share of the workload with its base.
  void Share(const std::string& name, double count, double base);
  void Fail(const std::string& why);
  void Attempted(uint64_t n, uint64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }

  bool correct() const { return failures_.empty(); }
  bool HasMetric(const std::string& name) const {
    return metrics_.count(name) > 0;
  }
  double MetricValue(const std::string& name) const;

  /// Prints the context and share lines, then the result object with
  /// every metric as the last line of stdout.
  void Print() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::pair<std::string, std::string>> shares_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Spans around the benchmark's calls into each layer. Single-threaded:
/// only the thread that owns the tracer opens spans. Spans stay in memory
/// and are written out once, when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t request_id);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
  };

  bool enabled() const { return enabled_; }

  /// Sum of self times (duration minus the part of the interval covered by
  /// child spans) over all spans named `name`, in ms.
  double SelfMs(const std::string& name) const;
  size_t Count(const std::string& name) const;

  /// One JSON object per span: name, start/end (µs since the first span),
  /// parent index, request id.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    Clock::time_point start, end;
    int64_t parent;
    uint64_t request_id;
    double child_ms = 0.0;
  };
  bool enabled_;
  std::vector<Record> spans_;
  std::vector<int64_t> open_;
};

/// Linear-interpolated quantile (q in [0, 1]); +inf entries sort last.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Process peak resident set (VmHWM) in MB, and its reset to the current
/// resident set (after returning freed heap pages to the system), so a
/// phase's peak excludes what the benchmark's preparation touched.
double PeakRssMb();
void ResetPeakRss();

/// Delta of a registry histogram between two snapshots: count, sum and
/// buckets subtract; min/max come from `after` (quantiles clamp to them).
tcss::obs::HistogramSnapshot HistDelta(const tcss::obs::MetricsSnapshot& before,
                                       const tcss::obs::MetricsSnapshot& after,
                                       const std::string& name);
uint64_t CounterDelta(const tcss::obs::MetricsSnapshot& before,
                      const tcss::obs::MetricsSnapshot& after,
                      const std::string& name);

/// The workload's dataset: the gowalla-like preset, with its own generator
/// seed, at the spec's shape.
tcss::Result<tcss::Dataset> GenerateWorkloadData(const WorkloadSpec& spec);

/// Training half of a pipeline run. Fills `trained` with the model it
/// trained (bit-identical across the run's repeats).
void RunTraining(const WorkloadSpec& spec, const RunArgs& args,
                 const tcss::Dataset& data,
                 const tcss::TrainTestSplit& split, Report* report,
                 Tracer* tracer, tcss::FactorModel* trained);

/// Serving half: the trained model, U1 cut to the first 90% of users,
/// served over a Unix socket with ingest on and the spec's rollover cadence.
void RunServing(const WorkloadSpec& spec, const RunArgs& args,
                const tcss::Dataset& data, const tcss::FactorModel& trained,
                Report* report, Tracer* tracer);

}  // namespace perfbench

#endif  // TCSS_PERFBENCH_BENCH_H_
