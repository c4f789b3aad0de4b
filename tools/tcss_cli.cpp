// tcss - command-line front end for the TCSS library.
//
//   tcss generate  --preset gowalla|yelp|foursquare|gmu5k [--scale S]
//                  [--seed N] --out DIR
//   tcss train     --data DIR --model FILE [--epochs N] [--rank R]
//                  [--lambda L] [--num-threads N]
//                  [--granularity month|week|hour]
//                  [--checkpoint-dir DIR] [--checkpoint-every N]
//                  [--checkpoint-retain N] [--resume]
//                  [--metrics-out FILE] [--metrics-every N]
//   tcss evaluate  --data DIR --model FILE [--granularity G]
//   tcss recommend --data DIR --model FILE --user U [--time K] [--k N]
//                  [--new-only] [--granularity G]
//   tcss serve     --data DIR --model FILE
//                  (--requests FILE | --listen SOCKET)
//                  [--granularity G] [--poll-every N] [--metrics-out FILE]
//                  [--workers N] [--queue N] [--max-batch N] [--max-conns N]
//                  [--deadline-ms X] [--write-timeout-ms N]
//
// `generate` writes an LBSN as CSV (pois.csv / checkins.csv / friends.csv);
// `train` fits TCSS on an 80/20 split of the check-ins and saves the
// factors; `evaluate` reports Hit@10 / MRR on the held-out 20%;
// `recommend` prints a ranked POI list for one user and time bin; `serve`
// answers queries through the resilient fallback chain (hot-reloaded
// model -> fold-in -> popularity) — either a batch request file
// (`--requests`, ranked lists on stdout) or a Unix-domain socket server
// (`--listen`, frame protocol of serve/frontend.h with admission control
// and load shedding; see DESIGN.md §10).
//
// Both `train` and `serve --listen` shut down gracefully on SIGINT/SIGTERM:
// training writes a final checkpoint through the atomic path and saves the
// model trained so far; the server stops accepting, answers or sheds
// everything in flight, flushes --metrics-out, and exits 0.
//
// All data-loading commands accept `--lenient` (quarantine malformed CSV
// rows instead of failing the load) and `--max-bad-rows N`.
//
// A malformed flag value, an unknown --granularity, and a flag that the
// command does not read in its mode (a typo, or a flag of another command
// or mode) exit 2 with a message before the command does any work.
//
// `--metrics-out FILE` dumps the process metric registry (stage timings,
// counters, latency histograms) as JSON — periodically while running
// (atomic replace, so the file is always whole) and once on exit. Set
// TCSS_LOG_LEVEL=debug|info|warning|error to change log verbosity.
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <type_traits>

#include "common/env.h"
#include "common/strings.h"
#include "core/checkpoint.h"
#include "core/model_io.h"
#include "core/recommend.h"
#include "core/tcss_model.h"
#include "data/csv_io.h"
#include "data/split.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"
#include "dist/coordinator.h"
#include "dist/partition.h"
#include "dist/worker.h"
#include "eval/ranking_protocol.h"
#include "obs/metrics.h"
#include "serve/model_watcher.h"
#include "serve/recommend_service.h"
#include "serve/request.h"
#include "serve/server.h"
#include "stream/streaming_engine.h"

namespace {

using namespace tcss;

// SIGINT/SIGTERM request a graceful stop. The handler only stores to an
// atomic flag (the one async-signal-safe thing it can do); the trainer
// checks it per epoch and the server's drain loop polls it.
std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

void InstallStopHandlers() {
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
}

// A command reads its flags through Get/Has (and the typed readers built
// on Get), each of which records the key it asked for; once a command has
// read every flag of its mode it calls AllRead, so a flag that it never
// asks for exits 2 without a per-command flag list to keep in sync.
struct Args {
  std::string command;
  std::map<std::string, std::string> flags;  ///< --key value
  std::set<std::string> switches;            ///< valueless --key
  mutable std::set<std::string> asked;       ///< every key read so far

  const char* Get(const std::string& key, const char* dflt = nullptr) const {
    asked.insert(key);
    auto it = flags.find(key);
    return it != flags.end() ? it->second.c_str() : dflt;
  }
  /// True iff the valueless flag --key was given.
  bool Has(const std::string& key) const {
    asked.insert(key);
    return switches.count(key) > 0;
  }
  /// Reads a real flag into *out (left as is when absent): a finite
  /// number in [lo, hi] — (lo, hi] when `lo_open` — parsed with the exact
  /// ParseDouble. Anything else prints a message and returns false; the
  /// command then exits 2.
  bool GetReal(const std::string& key, double* out, double lo,
               double hi = std::numeric_limits<double>::infinity(),
               bool lo_open = false) const {
    const char* v = Get(key);
    if (v == nullptr) return true;
    double parsed = 0.0;
    if (!ParseDouble(v, &parsed) || !std::isfinite(parsed) || parsed < lo ||
        (lo_open && parsed == lo) || parsed > hi) {
      std::fprintf(stderr,
                   "--%s: expected a finite number in %c%g, %g%c, got '%s'\n",
                   key.c_str(), lo_open ? '(' : '[', lo, hi,
                   std::isinf(hi) ? ')' : ']', v);
      return false;
    }
    *out = parsed;
    return true;
  }
  /// Reads --granularity month|week|hour into *out (month when absent);
  /// any other value prints a message and returns false.
  bool GetGranularity(TimeGranularity* out) const {
    const char* v = Get("granularity", "month");
    if (std::strcmp(v, "month") == 0) {
      *out = TimeGranularity::kMonthOfYear;
    } else if (std::strcmp(v, "week") == 0) {
      *out = TimeGranularity::kWeekOfYear;
    } else if (std::strcmp(v, "hour") == 0) {
      *out = TimeGranularity::kHourOfDay;
    } else {
      std::fprintf(stderr,
                   "--granularity: expected month|week|hour, got '%s'\n", v);
      return false;
    }
    return true;
  }
  /// Reads every integer flag: a non-negative integer that fits in T,
  /// parsed with the exact ParseInt64, into *out (left as is when the flag
  /// is absent). Anything else prints a message and returns false; the
  /// command then exits 2.
  template <typename T>
  bool GetCount(const std::string& key, T* out) const {
    static_assert(std::is_integral_v<T>);
    const char* v = Get(key);
    if (v == nullptr) return true;
    int64_t parsed = 0;
    if (!ParseInt64(v, &parsed) || parsed < 0 ||
        static_cast<uint64_t>(parsed) >
            static_cast<uint64_t>(std::numeric_limits<T>::max())) {
      std::fprintf(stderr, "--%s: expected a non-negative integer, got '%s'\n",
                   key.c_str(), v);
      return false;
    }
    *out = static_cast<T>(parsed);
    return true;
  }
  /// True iff the command asked for every flag given. Call it once the
  /// command has read all the flags of its mode, before any work; each
  /// flag it never asked for prints a message, and the command exits 2.
  bool AllRead() const {
    bool ok = true;
    auto check = [&](const std::string& key) {
      if (asked.count(key) == 0) {
        std::fprintf(stderr, "tcss %s: --%s is not a flag of this command "
                     "(or of this mode)\n", command.c_str(), key.c_str());
        ok = false;
      }
    };
    for (const auto& [key, value] : flags) check(key);
    for (const std::string& key : switches) check(key);
    return ok;
  }
};

// The data-loading flags --data, --lenient and --max-bad-rows: read with
// the rest of a command's flags, loaded once they all check out.
struct DataFlags {
  const char* dir = nullptr;
  CsvLoadOptions opts;

  bool Read(const Args& args) {
    dir = args.Get("data");
    opts.mode =
        args.Has("lenient") ? CsvLoadMode::kLenient : CsvLoadMode::kStrict;
    return args.GetCount("max-bad-rows", &opts.max_bad_rows);
  }
  Result<Dataset> Load() const;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  tcss generate  --preset gowalla|yelp|foursquare|gmu5k "
      "[--scale S] [--seed N] --out DIR\n"
      "  tcss train     --data DIR --model FILE [--epochs N] [--rank R] "
      "[--lambda L] [--num-threads N] [--granularity month|week|hour] "
      "[--checkpoint-dir DIR] [--checkpoint-every N] "
      "[--checkpoint-retain N] [--resume] "
      "[--metrics-out FILE] [--metrics-every N]\n"
      "  tcss evaluate  --data DIR --model FILE [--granularity G]\n"
      "  tcss stats     --data DIR\n"
      "distributed training (see DESIGN.md §11):\n"
      "  tcss train     --dist-coordinator SOCKET --dist-workers W "
      "[--model FILE] [--checkpoint-every N] [training flags] "
      "(--data DIR | --streamed-users N [--streamed-pois N] "
      "[--streamed-bins N] [--streamed-seed S])\n"
      "  tcss train     --dist-worker SOCKET --dist-rank R "
      "--dist-workers W [--checkpoint-dir DIR] [training flags] "
      "(--data DIR | --streamed-users N ...)\n"
      "  tcss recommend --data DIR --model FILE --user U [--time K] "
      "[--k N] [--new-only] [--granularity G]\n"
      "  tcss serve     --data DIR --model FILE "
      "(--requests FILE | --listen SOCKET) "
      "[--granularity G] [--poll-every N] [--metrics-out FILE] "
      "[--workers N] [--queue N] [--max-batch N] [--max-conns N] "
      "[--deadline-ms X] [--write-timeout-ms N] "
      "[--ingest [--rollover-every N] [--refine-every N] "
      "[--refine-budget N]]\n"
      "common flags: [--lenient] [--max-bad-rows N]\n"
      "env: TCSS_LOG_LEVEL=debug|info|warning|error\n");
  return 2;
}

// Dumps the global metric registry to `path` (no-op on null). A failed
// dump only warns: telemetry must never fail the command it observes.
void DumpMetrics(const char* path) {
  if (path == nullptr) return;
  Status st = obs::DumpMetricsJson(Env::Default(), path);
  if (!st.ok()) {
    std::fprintf(stderr, "warning: metrics dump to %s failed: %s\n", path,
                 st.ToString().c_str());
  }
}

int Generate(const Args& args) {
  const char* preset_name = args.Get("preset", "gowalla");
  const char* out = args.Get("out");
  if (out == nullptr) return Usage();
  SyntheticPreset preset = SyntheticPreset::kGowallaLike;
  if (std::strcmp(preset_name, "yelp") == 0) {
    preset = SyntheticPreset::kYelpLike;
  } else if (std::strcmp(preset_name, "foursquare") == 0) {
    preset = SyntheticPreset::kFoursquareLike;
  } else if (std::strcmp(preset_name, "gmu5k") == 0) {
    preset = SyntheticPreset::kGmu5kLike;
  } else if (std::strcmp(preset_name, "gowalla") != 0) {
    std::fprintf(stderr, "unknown preset '%s'\n", preset_name);
    return 2;
  }
  double scale = 1.0;
  if (!args.GetReal("scale", &scale, 0.0, 1.0, /*lo_open=*/true)) return 2;
  SyntheticConfig cfg = PresetConfig(preset, scale);
  if (!args.GetCount("seed", &cfg.seed) || !args.AllRead()) return 2;
  auto data = GenerateSyntheticLbsn(cfg);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  std::filesystem::create_directories(out);
  Status st = SaveDatasetCsv(data.value(), out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s to %s\n", data.value().Summary().c_str(), out);
  return 0;
}

Result<Dataset> DataFlags::Load() const {
  if (dir == nullptr) return Status::InvalidArgument("--data is required");
  LoadReport report;
  auto data = LoadDatasetCsv(dir, opts, &report);
  if (data.ok() && report.bad_rows() > 0) {
    std::fprintf(stderr,
                 "warning: quarantined %zu bad rows (%zu pois, %zu "
                 "checkins, %zu edges) to %s\n",
                 report.bad_rows(), report.bad_pois, report.bad_checkins,
                 report.bad_edges, report.quarantine_path.c_str());
  }
  return data;
}

// Distributed training entry points (`train --dist-coordinator` /
// `--dist-worker`). Every process of a run must be launched with the same
// training flags and data source — the fingerprint handshake enforces it.
// The tensor comes either from a CSV dataset (--data, sliced per worker)
// or from the streamed power-law generator (--streamed-users ...), where
// each worker synthesizes only its own row block and the full tensor is
// never materialized anywhere.
int DistTrain(const Args& args) {
  const char* coord_socket = args.Get("dist-coordinator");
  const char* worker_socket = args.Get("dist-worker");
  int num_workers = 1;
  TcssConfig cfg;
  cfg.epochs = 40;
  cfg.rank = 8;
  cfg.seed = 13;
  // The social Hausdorff head couples users across shards and spectral
  // init needs the full tensor; the distributed defaults drop both
  // (ValidateDistConfig rejects incompatible overrides with a diagnostic).
  cfg.lambda = 0.0;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.init = InitMethod::kRandom;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!args.GetCount("dist-workers", &num_workers) ||
      !args.GetCount("epochs", &cfg.epochs) ||
      !args.GetCount("rank", &cfg.rank) ||
      !args.GetCount("num-threads", &cfg.num_threads) ||
      !args.GetCount("seed", &cfg.seed) ||
      !args.GetReal("lr", &cfg.learning_rate, 0.0, kInf, /*lo_open=*/true) ||
      !args.GetReal("temporal-smoothness", &cfg.temporal_smoothness, 0.0) ||
      !args.GetReal("lambda", &cfg.lambda, 0.0)) {
    return 2;
  }

  // The data source: the streamed generator or a CSV dataset.
  const bool streamed = args.Get("streamed-users") != nullptr;
  StreamedTensorConfig scfg;
  DataFlags source;
  TimeGranularity g = TimeGranularity::kMonthOfYear;
  if (streamed) {
    if (!args.GetCount("streamed-users", &scfg.num_users) ||
        !args.GetCount("streamed-pois", &scfg.num_pois) ||
        !args.GetCount("streamed-bins", &scfg.num_bins) ||
        !args.GetCount("streamed-seed", &scfg.seed) ||
        !args.GetReal("streamed-mean-checkins", &scfg.mean_checkins, 0.0,
                      kInf, /*lo_open=*/true)) {
      return 2;
    }
  } else if (!source.Read(args) || !args.GetGranularity(&g)) {
    return 2;
  }

  // The flags of this process's role.
  DistCoordinatorOptions copts;
  copts.checkpoint_every = 25;
  const char* model_path = nullptr;
  DistWorkerOptions wopts;
  if (coord_socket != nullptr) {
    model_path = args.Get("model");
    if (!args.GetCount("checkpoint-every", &copts.checkpoint_every) ||
        !args.GetCount("heartbeat-timeout-ms", &copts.heartbeat_timeout_ms) ||
        !args.GetCount("world-timeout-ms", &copts.world_timeout_ms)) {
      return 2;
    }
  } else {
    const char* ckpt_dir = args.Get("checkpoint-dir");
    if (ckpt_dir != nullptr) wopts.checkpoint_dir = ckpt_dir;
    if (!args.GetCount("dist-rank", &wopts.rank) ||
        !args.GetCount("checkpoint-retain", &wopts.checkpoint_retain)) {
      return 2;
    }
    if (wopts.rank >= num_workers) {
      std::fprintf(stderr, "--dist-rank %d outside [0, %d)\n", wopts.rank,
                   num_workers);
      return 2;
    }
  }
  if (!args.AllRead()) return 2;

  // Dims + a per-rank tensor slice factory, from either source. Each
  // streamed worker synthesizes only its own row block.
  SparseTensor full;
  size_t dim_i = scfg.num_users, dim_j = scfg.num_pois,
         dim_k = scfg.num_bins;
  if (!streamed) {
    auto data = source.Load();
    if (!data.ok()) {
      std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
      return 1;
    }
    TrainTestSplit split = SplitCheckins(data.value(), 0.8, 42);
    auto built = BuildCheckinTensor(data.value(), split.train, g);
    if (!built.ok()) {
      std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
      return 1;
    }
    full = built.MoveValue();
    dim_i = full.dim_i();
    dim_j = full.dim_j();
    dim_k = full.dim_k();
  }
  if (dim_i == 0 || dim_j == 0 || dim_k == 0) {
    std::fprintf(stderr,
                 "distributed training needs a data source: --data DIR or "
                 "--streamed-users N\n");
    return 2;
  }

  if (coord_socket != nullptr) {
    InstallStopHandlers();
    copts.num_workers = num_workers;
    copts.socket_path = coord_socket;
    copts.stop = &g_stop;
    copts.epoch_callback = [&cfg](const EpochStats& s) {
      if (s.epoch % std::max(1, cfg.epochs / 5) == 0) {
        std::printf("  epoch %4d  L2=%.2f  grad=%.3g  lr=%.4f\n", s.epoch,
                    s.loss_l2, s.grad_norm, s.lr);
      }
    };
    DistCoordinator coordinator(cfg, dim_i, dim_j, dim_k, copts);
    std::printf("coordinating %d workers on %s (%s, tensor %zux%zux%zu)\n",
                num_workers, coord_socket, cfg.Summary().c_str(), dim_i,
                dim_j, dim_k);
    auto model = coordinator.Run();
    const DistCoordinatorStats& cs = coordinator.stats();
    std::fprintf(stderr,
                 "coordinator: %d epochs, %d rollbacks, %d recoveries, %d "
                 "stragglers, %d ckpt acks\n",
                 cs.epochs, cs.rollbacks, cs.recoveries, cs.stragglers,
                 cs.ckpt_acks);
    if (!model.ok()) {
      std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
      return 1;
    }
    if (model_path != nullptr) {
      Status st = SaveFactorModel(model.value(), model_path);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("saved model to %s\n", model_path);
    }
    return 0;
  }

  // Worker process.
  const int rank = wopts.rank;
  const RowPartition part(dim_i, num_workers);
  Result<SparseTensor> slice =
      streamed
          ? GenerateStreamedSlice(scfg, part.Begin(rank), part.End(rank))
          : SliceTensorRows(full, part.Begin(rank), part.End(rank));
  if (!slice.ok()) {
    std::fprintf(stderr, "%s\n", slice.status().ToString().c_str());
    return 1;
  }
  wopts.num_workers = num_workers;
  wopts.socket_path = worker_socket;
  DistWorker worker(cfg, dim_i, dim_j, dim_k, slice.MoveValue(), wopts);
  std::printf("worker %d/%d connecting to %s (%zu local users)\n", rank,
              num_workers, worker_socket, part.Count(rank));
  Status st = worker.Run();
  const DistWorkerStats& ws = worker.stats();
  std::fprintf(stderr,
               "worker %d: %d epochs computed, %d steps, %d rollbacks, %d "
               "reconnects, %d checkpoints, %d reloads\n",
               rank, ws.epochs_computed, ws.steps_applied, ws.rollbacks,
               ws.reconnects, ws.checkpoints, ws.reloads);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

int Train(const Args& args) {
  if (args.Get("dist-coordinator") != nullptr ||
      args.Get("dist-worker") != nullptr) {
    return DistTrain(args);
  }
  const char* model_path = args.Get("model");
  if (model_path == nullptr) return Usage();
  TcssConfig cfg;
  CheckpointOptions copts;
  copts.every = 25;
  int64_t metrics_every = 25;
  DataFlags source;
  TimeGranularity g = TimeGranularity::kMonthOfYear;
  if (!args.GetCount("epochs", &cfg.epochs) ||
      !args.GetCount("rank", &cfg.rank) ||
      !args.GetCount("num-threads", &cfg.num_threads) ||
      !args.GetCount("checkpoint-every", &copts.every) ||
      !args.GetCount("checkpoint-retain", &copts.retain) ||
      !args.GetCount("metrics-every", &metrics_every) ||
      !args.GetReal("lambda", &cfg.lambda, 0.0) || !source.Read(args) ||
      !args.GetGranularity(&g)) {
    return 2;
  }
  const char* ckpt_dir = args.Get("checkpoint-dir");
  const bool resume = args.Has("resume");
  const char* metrics_out = args.Get("metrics-out");
  if (!args.AllRead()) return 2;
  if (resume && ckpt_dir == nullptr) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return 2;
  }
  auto data = source.Load();
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  TrainTestSplit split = SplitCheckins(data.value(), 0.8, 42);
  auto train = BuildCheckinTensor(data.value(), split.train, g);
  if (!train.ok()) {
    std::fprintf(stderr, "%s\n", train.status().ToString().c_str());
    return 1;
  }

  std::unique_ptr<CheckpointManager> checkpoints;
  if (ckpt_dir != nullptr) {
    copts.dir = ckpt_dir;
    checkpoints = std::make_unique<CheckpointManager>(copts);
    Status cst = checkpoints->Init();
    if (!cst.ok()) {
      std::fprintf(stderr, "%s\n", cst.ToString().c_str());
      return 1;
    }
  }
  TrainOptions topts;
  topts.checkpoints = checkpoints.get();
  topts.resume = resume;
  // An explicit --resume against a directory with nothing loadable exits
  // nonzero with a diagnostic instead of silently retraining from scratch.
  topts.require_checkpoint = resume;
  InstallStopHandlers();
  topts.stop = &g_stop;

  metrics_every = std::max<int64_t>(1, metrics_every);

  TcssModel model(cfg);
  std::printf("training %s on %s ...\n", cfg.Summary().c_str(),
              data.value().Summary().c_str());
  Status st = model.FitWithOptions(
      {&data.value(), &train.value(), g, 13}, topts,
      [&](const EpochStats& s, const FactorModel&) {
        if (s.epoch % std::max(1, cfg.epochs / 5) == 0) {
          std::printf("  epoch %4d  L2=%.2f  L1=%.2f\n", s.epoch, s.loss_l2,
                      s.loss_l1);
        }
        // Periodic flush so a killed run still leaves telemetry behind;
        // the write is atomic-replace, never a torn file.
        if (metrics_out != nullptr && s.epoch % metrics_every == 0) {
          DumpMetrics(metrics_out);
        }
      });
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    DumpMetrics(metrics_out);
    return 1;
  }
  if (g_stop.load(std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "interrupted: saving the model trained so far "
                 "(checkpoint written; --resume continues from here)\n");
  }
  st = SaveFactorModel(model.factors(), model_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    DumpMetrics(metrics_out);
    return 1;
  }
  std::printf("saved model to %s\n", model_path);
  DumpMetrics(metrics_out);
  return 0;
}

// Loads a model and exposes it through the Recommender interface.
class LoadedModel : public Recommender {
 public:
  explicit LoadedModel(FactorModel factors) : factors_(std::move(factors)) {}
  std::string name() const override { return "TCSS(loaded)"; }
  Status Fit(const TrainContext&) override { return Status::OK(); }
  double Score(uint32_t i, uint32_t j, uint32_t k) const override {
    return factors_.Predict(i, j, k);
  }
  const FactorModel& factors() const { return factors_; }

 private:
  FactorModel factors_;
};

Result<LoadedModel> LoadModel(const char* path, const Dataset& data,
                              TimeGranularity g) {
  if (path == nullptr) return Status::InvalidArgument("--model is required");
  auto factors = LoadFactorModel(path);
  if (!factors.ok()) return factors.status();
  const FactorModel& m = factors.value();
  if (m.u1.rows() != data.num_users() || m.u2.rows() != data.num_pois() ||
      m.u3.rows() != NumBins(g)) {
    return Status::InvalidArgument(
        "model dimensions do not match the dataset/granularity");
  }
  return LoadedModel(factors.MoveValue());
}

int Stats(const Args& args) {
  DataFlags source;
  if (!source.Read(args) || !args.AllRead()) return 2;
  auto data = source.Load();
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const DatasetProfile profile = ProfileDataset(data.value());
  std::fputs(profile.ToString().c_str(), stdout);
  return 0;
}

int Evaluate(const Args& args) {
  DataFlags source;
  TimeGranularity g = TimeGranularity::kMonthOfYear;
  const char* model_path = args.Get("model");
  if (!source.Read(args) || !args.GetGranularity(&g) || !args.AllRead()) {
    return 2;
  }
  auto data = source.Load();
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  auto model = LoadModel(model_path, data.value(), g);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  TrainTestSplit split = SplitCheckins(data.value(), 0.8, 42);
  const auto cells = EventsToCells(split.test, g);
  RankingMetrics m = EvaluateRanking(model.value(), data.value().num_pois(),
                                     cells, RankingProtocolOptions{});
  std::printf("test entries: %zu users: %zu\nHit@10 = %.4f\nMRR    = %.4f\n",
              m.num_entries, m.num_users, m.hit_at_k, m.mrr);
  return 0;
}

int Recommend(const Args& args) {
  if (args.Get("user") == nullptr) return Usage();
  DataFlags source;
  TimeGranularity g = TimeGranularity::kMonthOfYear;
  const char* model_path = args.Get("model");
  const bool new_only = args.Has("new-only");
  int64_t user_arg = 0, time_arg = 0, k_arg = 10;
  if (!args.GetGranularity(&g) || !args.GetCount("user", &user_arg) ||
      !args.GetCount("time", &time_arg) || !args.GetCount("k", &k_arg) ||
      !source.Read(args) || !args.AllRead()) {
    return 2;
  }
  if (time_arg >= static_cast<int64_t>(NumBins(g))) {
    std::fprintf(stderr, "--time %lld out of range: %s bins are 0..%zu\n",
                 static_cast<long long>(time_arg), GranularityName(g),
                 NumBins(g) - 1);
    return 2;
  }
  auto data = source.Load();
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  auto model = LoadModel(model_path, data.value(), g);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  if (user_arg >= static_cast<int64_t>(data.value().num_users())) {
    std::fprintf(stderr, "user %lld out of range\n",
                 static_cast<long long>(user_arg));
    return 1;
  }
  const uint32_t user = static_cast<uint32_t>(user_arg);
  const uint32_t time_bin = static_cast<uint32_t>(time_arg);

  TopKOptions opts;
  opts.k = static_cast<size_t>(k_arg);
  opts.exclude_visited = new_only;
  // --new-only excludes every check-in in the dataset, as `serve` does.
  auto checkins = BuildCheckinTensor(data.value(), g);
  if (!checkins.ok()) {
    std::fprintf(stderr, "%s\n", checkins.status().ToString().c_str());
    return 1;
  }
  auto recs = TopKRecommendations(model.value(), user, time_bin,
                                  data.value().num_pois(), opts,
                                  &checkins.value());
  std::printf("top-%zu POIs for user %u at %s bin %u%s:\n", opts.k, user,
              GranularityName(g), time_bin,
              new_only ? " (new places only)" : "");
  std::printf("%-5s %-6s %-14s %-9s %-s\n", "rank", "poi", "category",
              "score", "location");
  for (size_t t = 0; t < recs.size(); ++t) {
    const Poi& poi = data.value().poi(recs[t].poi);
    std::printf("%-5zu %-6u %-14s %-9.4f %s\n", t + 1, recs[t].poi,
                CategoryName(poi.category), recs[t].score,
                ToString(poi.location).c_str());
  }
  return 0;
}

// Batch serving front end: every line of --requests is either a `topk`
// query (see ParseRequestLine), `poll` (one hot-reload check), `stats`
// (dump running stats to stderr), a blank line or a `#` comment. The
// process never aborts on a malformed line — it reports and moves on,
// because request files are untrusted input.
// Socket server mode (`serve --listen`): runs until SIGINT/SIGTERM, then
// drains — stops accepting, answers or sheds everything accepted, flushes
// metrics and exits 0. Overload never crashes it: the queue is bounded,
// admission control sheds predicted deadline misses, slow clients hit
// write timeouts.
int ServeListen(ServerOptions sopts, RecommendService* service,
                StreamingEngine* engine, const char* listen,
                const char* metrics_out) {
  InstallStopHandlers();
  if (engine != nullptr) {
    // Ingest frames run on the dispatcher thread (the sole mutator of
    // serving state), interleaved with query batches.
    sopts.ingest_handler = [engine](const ServeRequest& req) {
      return engine->Ingest(req);
    };
  }
  Server server(service, listen, sopts);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "listening on unix socket %s\n", listen);
  int ticks = 0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (metrics_out != nullptr && ++ticks % 100 == 0) {
      DumpMetrics(metrics_out);  // ~every 5 s, atomic replace
    }
  }
  std::fprintf(stderr, "signal received, draining ...\n");
  st = server.Stop();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "server: %s\n", server.stats().ToString().c_str());
  std::fprintf(stderr, "service: %s\n", service->Stats().ToString().c_str());
  DumpMetrics(metrics_out);
  return 0;
}

int Serve(const Args& args) {
  const char* model_path = args.Get("model");
  const char* requests_path = args.Get("requests");
  const char* listen = args.Get("listen");
  if (model_path == nullptr ||
      (requests_path == nullptr && listen == nullptr)) {
    return Usage();
  }
  int poll_every = 0;
  DataFlags source;
  TimeGranularity g = TimeGranularity::kMonthOfYear;
  const char* metrics_out = args.Get("metrics-out");
  if (!args.GetCount("poll-every", &poll_every) || !source.Read(args) ||
      !args.GetGranularity(&g)) {
    return 2;
  }
  // Socket server flags (--listen only).
  ServerOptions sopts;
  if (listen != nullptr &&
      (!args.GetCount("workers", &sopts.num_workers) ||
       !args.GetCount("queue", &sopts.queue_capacity) ||
       !args.GetCount("max-batch", &sopts.max_batch) ||
       !args.GetCount("max-conns", &sopts.max_connections) ||
       !args.GetCount("write-timeout-ms", &sopts.write_timeout_ms) ||
       !args.GetReal("deadline-ms", &sopts.default_deadline_ms, 0.0))) {
    return 2;
  }
  sopts.poll_every_batches = poll_every;
  // Streaming ingestion flags (--ingest only). The refinement config
  // mirrors the train command's flags; --refine-budget is its epoch count.
  const bool ingest = args.Has("ingest");
  StreamingEngine::Options eopts;
  TcssConfig rcfg;
  rcfg.epochs = 3;
  if (ingest && (!args.GetCount("rollover-every", &eopts.rollover_every) ||
                 !args.GetCount("refine-every", &eopts.refine_every) ||
                 !args.GetCount("refine-budget", &rcfg.epochs) ||
                 !args.GetCount("rank", &rcfg.rank) ||
                 !args.GetCount("num-threads", &rcfg.num_threads) ||
                 !args.GetReal("lambda", &rcfg.lambda, 0.0))) {
    return 2;
  }
  if (!args.AllRead()) return 2;
  auto data = source.Load();
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }

  ModelWatcher::Options wopts;
  wopts.num_users = data.value().num_users();
  wopts.num_pois = data.value().num_pois();
  wopts.num_bins = NumBins(g);
  ModelWatcher watcher(model_path, wopts);
  RecommendService::Options svc_opts;
  // Streaming ingestion (--ingest, DESIGN.md §14): the engine owns the
  // delta buffer, the incremental fold-in tier the service delegates to,
  // and the periodic rollover/refinement publishers.
  std::unique_ptr<StreamingEngine> engine;
  if (ingest) {
    eopts.granularity = g;
    eopts.model_path = model_path;
    eopts.refiner.config = rcfg;
    eopts.refiner.stop = &g_stop;
    engine = std::make_unique<StreamingEngine>(data.value(), &watcher,
                                               eopts);
    svc_opts.incremental = engine->fold_in();
  }
  RecommendService service(&data.value(), g, &watcher, svc_opts);
  Status st = service.Init();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (watcher.current() == nullptr) {
    std::fprintf(stderr, "warning: no valid model at %s (%s); serving %s\n",
                 model_path, watcher.last_error().ToString().c_str(),
                 ServeHealthName(service.health()));
  }

  if (listen != nullptr) {
    return ServeListen(sopts, &service, engine.get(), listen, metrics_out);
  }

  std::ifstream in(requests_path);
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", requests_path);
    return 1;
  }
  std::string line;
  size_t lineno = 0;
  long since_poll = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string trimmed(Trim(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (trimmed == "poll") {
      service.PollModel();
      std::fprintf(stderr, "poll: health=%s\n",
                   ServeHealthName(service.health()));
      continue;
    }
    if (trimmed == "stats") {
      std::fprintf(stderr, "%s\n", service.Stats().ToString().c_str());
      continue;
    }
    auto req = ParseRequestLine(trimmed);
    if (!req.ok()) {
      std::printf("line %zu error: %s\n", lineno,
                  req.status().message().c_str());
      continue;
    }
    if (poll_every > 0 && ++since_poll >= poll_every) {
      service.PollModel();
      since_poll = 0;
    }
    if (req.value().verb == ServeVerb::kIngest) {
      if (engine == nullptr) {
        std::printf("line %zu error: ingest not enabled (pass --ingest)\n",
                    lineno);
        continue;
      }
      auto seq = engine->Ingest(req.value());
      if (!seq.ok()) {
        std::printf("line %zu error: %s\n", lineno,
                    seq.status().message().c_str());
      } else {
        std::printf("ingested seq=%llu\n",
                    static_cast<unsigned long long>(seq.value()));
      }
      continue;
    }
    auto resp = service.TopK(req.value());
    std::printf("user=%u time=%u tier=%s :", req.value().user,
                req.value().time_bin, ServeTierName(resp.tier));
    for (const auto& r : resp.recs) {
      std::printf(" %u:%.4f", r.poi, r.score);
    }
    std::printf("\n");
    if (metrics_out != nullptr && lineno % 256 == 0) {
      DumpMetrics(metrics_out);
    }
  }
  std::fprintf(stderr, "%s\n", service.Stats().ToString().c_str());
  DumpMetrics(metrics_out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.command = argv[1];
  for (int a = 2; a < argc; ++a) {
    std::string flag = argv[a];
    if (flag.rfind("--", 0) != 0) return Usage();
    flag = flag.substr(2);
    if (flag == "new-only" || flag == "resume" || flag == "lenient" ||
        flag == "ingest") {
      args.switches.insert(flag);
    } else if (a + 1 < argc) {
      args.flags[flag] = argv[++a];
    } else {
      return Usage();
    }
  }
  if (args.command == "generate") return Generate(args);
  if (args.command == "train") return Train(args);
  if (args.command == "evaluate") return Evaluate(args);
  if (args.command == "stats") return Stats(args);
  if (args.command == "recommend") return Recommend(args);
  if (args.command == "serve") return Serve(args);
  return Usage();
}
