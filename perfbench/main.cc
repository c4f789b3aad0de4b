// Repository benchmark binary. One run generates a workload's dataset,
// splits it 80/20 and draws its request schedule from the seed, then
// measures the pipeline a user of the library runs on it:
// trainer set-up, full TCSS training with checkpoints, the model save, the
// paper's ranking protocol, and socket serving of the trained model with
// streaming ingest. It checks every output and prints all metrics as one
// JSON object on the last line of stdout.
//
//   tcss_perfbench --workload gowalla|catalog --seed N --seconds S
//                  --trace 0|1 [--tiny] [--rev REV]
//                  [--inject swap_topk|drop_response|nan_loss]
//
// Files (checkpoints, model, socket, trace) go to the working directory.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "common/strings.h"
#include "linalg/simd.h"

namespace perfbench {
namespace {

/// The workloads. Both use the gowalla-like generator settings, month
/// bins, the 80/20 split and the TcssConfig defaults; they differ in
/// scale, which moves the dominant layer (see BENCHMARK.json).
bool LookupSpec(const std::string& name, bool tiny, WorkloadSpec* spec) {
  spec->name = name;
  if (name == "gowalla") {
    // The gowalla-like preset at scale 1.0.
    spec->users = tiny ? 60 : 300;
    spec->pois = tiny ? 50 : 250;
    spec->checkins = tiny ? 3000 : 24000;
    spec->cities = tiny ? 2 : 3;
    spec->epochs = tiny ? 20 : 300;
    spec->checkpoint_every = tiny ? 5 : 50;
    spec->trainings = 4;
    spec->rollover_every = tiny ? 20 : 250;
  } else if (name == "catalog") {
    // The paper's catalogue size: 6000 users x 10000 POIs, 20 cities.
    spec->users = tiny ? 300 : 6000;
    spec->pois = tiny ? 500 : 10000;
    spec->checkins = tiny ? 10000 : 300000;
    spec->cities = tiny ? 4 : 20;
    spec->epochs = tiny ? 10 : 50;
    spec->checkpoint_every = tiny ? 5 : 25;
    spec->trainings = 2;
    // No automatic slice rollover under load: publishing the 3.4 MB model
    // holds the dispatcher for ~170 ms, which sheds more than 1% of the
    // nominal window. The traced run times Rollover on its own.
    spec->rollover_every = 0;
  } else {
    return false;
  }
  spec->nominal_rate = tiny ? 300 : 1000;
  spec->saturation_requests = tiny ? 600 : 12000;
  return true;
}

bool ParseArgs(int argc, char** argv, RunArgs* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--tiny") {
      a->tiny = true;
      continue;
    }
    if (value == nullptr) return false;
    ++i;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(value);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--rev") {
      a->rev = value;
    } else if (flag == "--inject") {
      a->inject = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

int Run(const RunArgs& args, const WorkloadSpec& spec) {
  Report report;
  Tracer tracer(args.trace);
  report.Context("workload", "\"" + spec.name + "\"");
  report.Context("seed", std::to_string(args.seed));
  report.Context("trace", args.trace ? "1" : "0");
  report.Context("tiny", args.tiny ? "true" : "false");
  report.Context("nproc",
                 std::to_string(std::thread::hardware_concurrency()));
  report.Context("simd", std::string("\"") +
                             tcss::SimdModeName(tcss::ActiveSimdMode()) +
                             "\"");
  report.Context("git_rev", "\"" + args.rev + "\"");

  // Preparation, outside every metric: the dataset and its split. The
  // LBSN is the preset's own (fixed generator seed); the workload seed
  // picks the 80/20 split and the request schedule. A generator seed
  // changes the tensor's eigen-gaps and the Hausdorff pools, which moved
  // catalog train_s from 13.5 to 21.3 s over five seeds: an input effect
  // that would drown every change a later commit makes.
  const Clock::time_point prep = Clock::now();
  auto data = GenerateWorkloadData(spec);
  if (!data.ok()) {
    std::fprintf(stderr, "generate: %s\n", data.status().ToString().c_str());
    return 2;
  }
  const tcss::TrainTestSplit split =
      tcss::SplitCheckins(data.value(), 0.8, args.seed);
  report.Context("prepare_s", tcss::StrFormat("%.3f", SecondsSince(prep)));

  ResetPeakRss();
  const tcss::obs::MetricsSnapshot pool_before =
      tcss::obs::MetricRegistry::Global()->Snapshot();
  tcss::FactorModel trained;
  RunTraining(spec, args, data.value(), split, &report, &tracer, &trained);
  if (report.correct()) {
    RunServing(spec, args, data.value(), trained, &report, &tracer);
  }
  if (!report.HasMetric("peak_rss_mb")) {
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  }
  report.Metric("setup_s",
                report.MetricValue("setup_train_s") +
                    report.MetricValue("setup_serve_s"),
                "s");
  const tcss::obs::MetricsSnapshot pool_after =
      tcss::obs::MetricRegistry::Global()->Snapshot();
  report.Metric("pool.jobs",
                static_cast<double>(
                    CounterDelta(pool_before, pool_after, "threadpool.jobs")),
                "count");
  report.Metric("pool.inline_runs",
                static_cast<double>(CounterDelta(pool_before, pool_after,
                                                 "threadpool.inline_runs")),
                "count");
  report.Metric("pool.queue_wait_ms_p99",
                HistDelta(pool_before, pool_after, "threadpool.queue_wait_ms")
                    .Quantile(0.99),
                "ms");
  if (tracer.enabled() && !tracer.WriteJsonl("trace.jsonl")) {
    report.Fail("cannot write trace.jsonl");
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // One malloc arena: with one per thread, which serving threads touched
  // which arena first moved gowalla's peak RSS by 10% between runs.
  mallopt(M_ARENA_MAX, 1);
  perfbench::RunArgs args;
  perfbench::WorkloadSpec spec;
  if (!perfbench::ParseArgs(argc, argv, &args) ||
      !perfbench::LookupSpec(args.workload, args.tiny, &spec)) {
    std::fprintf(stderr,
                 "usage: tcss_perfbench --workload gowalla|catalog --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--rev R] "
                 "[--inject swap_topk|drop_response|nan_loss]\n");
    return 2;
  }
  return perfbench::Run(args, spec);
}
