// Training half of a pipeline workload: tensor build + TcssTrainer set-up,
// full TCSS training with periodic checkpoints, the model save, and the
// paper's ranking protocol on the held-out 20%.
#include <cmath>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "common/strings.h"
#include "core/checkpoint.h"
#include "core/hausdorff_loss.h"
#include "core/model_io.h"
#include "core/spectral_init.h"
#include "core/trainer.h"
#include "data/tensor_builder.h"
#include "eval/ranking_protocol.h"
#include "linalg/linear_operator.h"
#include "linalg/subspace_iteration.h"
#include "tensor/gram_operator.h"

namespace perfbench {
namespace {

using tcss::EpochStats;
using tcss::FactorModel;
using tcss::SparseTensor;
using tcss::TcssConfig;
using tcss::TcssTrainer;

constexpr tcss::TimeGranularity kGranularity =
    tcss::TimeGranularity::kMonthOfYear;
/// The Hausdorff head's distance-cache budget (see hausdorff_loss.cc).
constexpr double kDistCacheBudgetMb = 256.0;

namespace fs = std::filesystem;

/// One training set-up: the train tensor and a trainer bound to it.
struct TrainerSetup {
  std::unique_ptr<SparseTensor> tensor;
  std::unique_ptr<TcssTrainer> trainer;
  double tensor_ms = 0.0;
  double seconds = 0.0;
};

TrainerSetup SetUp(const tcss::Dataset& data,
                   const tcss::TrainTestSplit& split, const TcssConfig& cfg,
                   Tracer* tracer, Report* report) {
  TrainerSetup s;
  Tracer::Span span(tracer, "setup.train", 0);
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Span build(tracer, "data.tensor_build", 0);
    auto tensor = tcss::BuildCheckinTensor(data, split.train, kGranularity);
    if (!tensor.ok()) {
      report->Fail("tensor build: " + tensor.status().ToString());
      return s;
    }
    s.tensor = std::make_unique<SparseTensor>(tensor.MoveValue());
  }
  s.tensor_ms = SecondsSince(t0) * 1e3;
  {
    Tracer::Span construct(tracer, "trainer.construct", 0);
    s.trainer = std::make_unique<TcssTrainer>(data, *s.tensor, cfg);
  }
  s.seconds = SecondsSince(t0);
  return s;
}

/// Result of one training: the model, its epoch log and timings.
struct Trained {
  FactorModel model;
  std::vector<EpochStats> epochs;
  double train_s = 0.0;  ///< Train (init, epochs, checkpoints) + save
  double save_ms = 0.0;
  double init_ms = 0.0;  ///< traced runs only: InitializeFactors
  uint64_t model_bytes = 0;
  uint64_t checkpoint_bytes = 0;
};

/// Size of the newest checkpoint (names carry the zero-padded epoch).
uint64_t NewestFileBytes(const fs::path& dir) {
  fs::path newest;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file() && e.path().filename() > newest.filename()) {
      newest = e.path();
    }
  }
  return newest.empty() ? 0 : fs::file_size(newest, ec);
}

bool TrainOnce(const WorkloadSpec& spec, const TcssConfig& cfg,
               TrainerSetup* setup, Tracer* tracer, Report* report,
               Trained* out) {
  const fs::path ckpt_dir = "ckpt";
  fs::remove_all(ckpt_dir);
  tcss::CheckpointOptions copts;
  copts.dir = ckpt_dir.string();
  copts.every = spec.checkpoint_every;
  copts.retain = 2;
  tcss::CheckpointManager checkpoints(copts);
  tcss::Status init = checkpoints.Init();
  if (!init.ok()) {
    report->Fail("checkpoint dir: " + init.ToString());
    return false;
  }
  tcss::TrainOptions options;
  options.checkpoints = &checkpoints;
  out->epochs.clear();
  out->epochs.reserve(static_cast<size_t>(cfg.epochs));
  auto on_epoch = [out](const EpochStats& s, const FactorModel&) {
    out->epochs.push_back(s);
  };

  const Clock::time_point t0 = Clock::now();
  tcss::Result<FactorModel> model = tcss::Status::OK();
  {
    Tracer::Span train_span(tracer, "train", 0);
    FactorModel warm;
    if (tracer->enabled()) {
      // Traced runs split init out of Train: the same InitializeFactors
      // call Train would make, handed back as the warm start.
      Tracer::Span span(tracer, "init.spectral", 0);
      const Clock::time_point ti = Clock::now();
      auto w = tcss::InitializeFactors(*setup->tensor, cfg);
      out->init_ms = SecondsSince(ti) * 1e3;
      if (!w.ok()) {
        report->Fail("init: " + w.status().ToString());
        return false;
      }
      warm = w.MoveValue();
      options.warm_start = &warm;
    }
    Tracer::Span epochs_span(tracer, "trainer.train", 0);
    model = setup->trainer->Train(options, on_epoch);
  }
  if (!model.ok()) {
    report->Fail("train: " + model.status().ToString());
    return false;
  }
  const Clock::time_point ts = Clock::now();
  {
    Tracer::Span span(tracer, "model.save", 0);
    tcss::Status saved = tcss::SaveFactorModel(model.value(), "model.tcss");
    if (!saved.ok()) {
      report->Fail("save: " + saved.ToString());
      return false;
    }
  }
  out->save_ms = SecondsSince(ts) * 1e3;
  out->train_s = SecondsSince(t0);
  out->model = model.MoveValue();
  out->model_bytes = fs::file_size("model.tcss");
  out->checkpoint_bytes = NewestFileBytes(ckpt_dir);
  return true;
}

bool SameBytes(const tcss::Matrix& a, const tcss::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::equal(a.data(), a.data() + a.size(), b.data());
}

bool SameModel(const FactorModel& a, const FactorModel& b) {
  return SameBytes(a.u1, b.u1) && SameBytes(a.u2, b.u2) &&
         SameBytes(a.u3, b.u3) && a.h == b.h;
}

/// Output checks of one training: finite losses, no rollback, and a saved
/// model that reloads, fits the dataset's shape and equals the trained one.
void CheckTraining(const Trained& t, const SparseTensor& tensor,
                   const RunArgs& args, Report* report) {
  std::vector<EpochStats> epochs = t.epochs;
  if (args.inject == "nan_loss" && !epochs.empty()) {
    epochs[epochs.size() / 2].loss_l2 = std::nan("");
  }
  for (const EpochStats& s : epochs) {
    if (!std::isfinite(s.TotalLoss())) {
      report->Fail(tcss::StrFormat("non-finite loss at epoch %d", s.epoch));
      break;
    }
  }
  if (!epochs.empty() && epochs.back().rollbacks != 0) {
    report->Fail(tcss::StrFormat("%d divergence rollbacks",
                                 epochs.back().rollbacks));
  }
  auto loaded = tcss::LoadFactorModel("model.tcss");
  if (!loaded.ok()) {
    report->Fail("reload: " + loaded.status().ToString());
    return;
  }
  tcss::Status shape = tcss::ValidateModelShape(
      loaded.value(), tensor.dim_i(), tensor.dim_j(), tensor.dim_k());
  if (!shape.ok()) report->Fail("model shape: " + shape.ToString());
  if (!SameModel(loaded.value(), t.model)) {
    report->Fail("reloaded model differs from the trained one");
  }
}

/// Distance-cache size the Hausdorff head computes at construction:
/// |S(v_i)| * (|N(v_i)| + 1) floats per user.
double DistCacheMb(const tcss::SocialHausdorffLoss& loss, size_t users) {
  double floats = 0.0;
  for (uint32_t u = 0; u < users; ++u) {
    floats += static_cast<double>(loss.candidate_pool(u).size()) *
              static_cast<double>(loss.friend_pois(u).size() + 1);
  }
  return floats * sizeof(float) / (1024.0 * 1024.0);
}

/// Per-layer probes of the traced run that are not on the training path:
/// the eigensolver's iteration counts and per-user Hausdorff costs.
void TraceTrainingLayers(const tcss::Dataset& data, const TrainerSetup& setup,
                         const TcssConfig& cfg, const FactorModel& model,
                         Tracer* tracer, Report* report) {
  const SparseTensor& tensor = *setup.tensor;
  for (int mode = 0; mode < 3; ++mode) {
    Tracer::Span span(tracer, "init.subspace_eigen", 0);
    // Same operator and options as InitializeFactors' spectral factor of
    // this mode: zero-diagonal Gram shifted by its largest diagonal entry.
    tcss::ModeGramOperator gram(tensor, mode, /*zero_diagonal=*/true);
    double sigma = 0.0;
    for (double d : gram.Diagonal()) sigma = std::max(sigma, d);
    tcss::ShiftedOperator shifted(&gram, sigma);
    tcss::SubspaceIterationOptions opts;
    opts.seed = cfg.seed + static_cast<uint64_t>(mode) +
                static_cast<uint64_t>(mode) * 7919;
    auto eig = tcss::SubspaceEigen(
        shifted, std::min(cfg.rank, tensor.dim(mode)), opts);
    report->Metric(tcss::StrFormat("init.iterations.mode%d", mode),
                   eig.ok() ? eig.value().iterations : -1, "count");
  }

  const Clock::time_point tc = Clock::now();
  std::unique_ptr<tcss::SocialHausdorffLoss> loss;
  {
    Tracer::Span span(tracer, "hausdorff.construct", 0);
    loss = std::make_unique<tcss::SocialHausdorffLoss>(data, tensor, cfg);
  }
  report->Metric("hausdorff.construct_ms", SecondsSince(tc) * 1e3, "ms");
  const double cache_mb = DistCacheMb(*loss, tensor.dim_i());
  report->Metric("hausdorff.dist_cache_mb", cache_mb, "MB");
  report->Metric("hausdorff.dist_cache_on",
                 cache_mb <= kDistCacheBudgetMb ? 1.0 : 0.0, "bool");
  const size_t eligible = loss->num_eligible_users();
  report->Metric(
      "hausdorff.users_per_epoch",
      static_cast<double>(cfg.hausdorff_users_per_epoch == 0
                              ? eligible
                              : std::min(cfg.hausdorff_users_per_epoch,
                                         eligible)),
      "count");

  // Forward and forward+backward cost of ComputeForUser over one
  // minibatch's worth of eligible users, spread over the user range.
  std::vector<uint32_t> users;
  for (uint32_t u = 0; u < tensor.dim_i(); ++u) {
    if (!loss->candidate_pool(u).empty() && !loss->friend_pois(u).empty()) {
      users.push_back(u);
    }
  }
  const size_t want = std::min<size_t>(users.size(), 96);
  std::vector<uint32_t> sample;
  for (size_t s = 0; s < want; ++s) {
    sample.push_back(users[s * users.size() / want]);
  }
  tcss::FactorGrads grads(model);
  double fwd_ms = 0.0, bwd_ms = 0.0;
  for (uint32_t u : sample) {
    {
      Tracer::Span span(tracer, "hausdorff.forward", u);
      const Clock::time_point t = Clock::now();
      (void)loss->ComputeForUser(model, u, nullptr, 1.0);
      fwd_ms += SecondsSince(t) * 1e3;
    }
    {
      Tracer::Span span(tracer, "hausdorff.backward", u);
      const Clock::time_point t = Clock::now();
      (void)loss->ComputeForUser(model, u, &grads, 1.0);
      bwd_ms += SecondsSince(t) * 1e3;
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(sample.size()));
  report->Metric("hausdorff.forward_us_per_user", fwd_ms * 1e3 / n, "us");
  report->Metric("hausdorff.backward_us_per_user", bwd_ms * 1e3 / n, "us");
}

/// Per-epoch stage means read from the train.stage.* histograms.
void ReportStages(const tcss::obs::MetricsSnapshot& before,
                  const tcss::obs::MetricsSnapshot& after,
                  const SparseTensor& tensor, const TcssConfig& cfg,
                  Report* report) {
  auto mean = [&](const char* name) {
    const tcss::obs::HistogramSnapshot h = HistDelta(before, after, name);
    return h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
  };
  auto total = [&](const char* name) {
    return HistDelta(before, after, name).sum;
  };
  const double epochs = static_cast<double>(
      std::max<uint64_t>(1, CounterDelta(before, after, "train.epochs")));
  const double epoch_ms = total("train.epoch_ms") / epochs;
  const double loss_ms = total("train.stage.loss_ms") / epochs;
  const double haus_ms = total("train.stage.hausdorff_ms") / epochs;
  const double apply_ms = total("train.stage.apply_ms") / epochs;
  const double ckpt_ms = total("train.stage.checkpoint_ms") / epochs;
  report->Metric("l2.ms_per_epoch", loss_ms, "ms");
  // Operation count of the Eq 15 rewrite per epoch: the three r x r Grams
  // and the three dense gradient products (2 n r^2 each), plus per observed
  // cell the prediction (4r) and its gradient into three rows and h (12r).
  const double r = static_cast<double>(cfg.rank);
  const double dims = static_cast<double>(tensor.dim_i() + tensor.dim_j() +
                                          tensor.dim_k());
  const double flops =
      4.0 * dims * r * r + 16.0 * static_cast<double>(tensor.nnz()) * r;
  report->Metric("l2.gflops", loss_ms > 0 ? flops / (loss_ms * 1e6) : 0.0,
                 "GFLOP/s");
  report->Metric("hausdorff.ms_per_epoch", haus_ms, "ms");
  report->Metric("trainer.apply_ms_per_epoch", apply_ms, "ms");
  report->Metric("trainer.checkpoint_ms", mean("train.stage.checkpoint_ms"),
                 "ms");
  report->Metric("trainer.epoch_ms", epoch_ms, "ms");
  const double staged = loss_ms + haus_ms + apply_ms + ckpt_ms;
  report->Metric("trainer.unattributed_ms_per_epoch", epoch_ms - staged,
                 "ms");
  report->Metric("trainer.attributed_share",
                 epoch_ms > 0 ? staged / epoch_ms : 0.0, "ratio");
  report->Metric("trainer.rollbacks",
                 static_cast<double>(
                     CounterDelta(before, after, "train.rollbacks")),
                 "count");
}

}  // namespace

void RunTraining(const WorkloadSpec& spec, const RunArgs& args,
                 const tcss::Dataset& data,
                 const tcss::TrainTestSplit& split, Report* report,
                 Tracer* tracer, FactorModel* trained) {
  TcssConfig cfg;  // paper defaults: rank 10, lambda 0.1, social head, ...
  cfg.epochs = spec.epochs;
  cfg.num_threads = kThreads;

  std::vector<double> setup_s, tensor_ms, train_s;
  Trained first;
  int trainings = 0;
  const int repeats = tracer->enabled() ? 1 : spec.trainings;
  tcss::obs::MetricsSnapshot before, after;
  TrainerSetup last_setup;
  while (trainings < repeats) {
    last_setup = TrainerSetup{};  // one trainer alive at a time
    TrainerSetup setup = SetUp(data, split, cfg, tracer, report);
    if (setup.trainer == nullptr) return;
    setup_s.push_back(setup.seconds);
    tensor_ms.push_back(setup.tensor_ms);
    Trained t;
    if (trainings == 0) {
      before = tcss::obs::MetricRegistry::Global()->Snapshot();
    }
    if (!TrainOnce(spec, cfg, &setup, tracer, report, &t)) return;
    if (trainings == 0) {
      after = tcss::obs::MetricRegistry::Global()->Snapshot();
    }
    train_s.push_back(t.train_s);
    CheckTraining(t, *setup.tensor, args, report);
    if (trainings == 0) {
      first = std::move(t);
    } else if (!SameModel(first.model, t.model)) {
      report->Fail("repeated training produced different bytes");
    }
    ++trainings;
    last_setup = std::move(setup);
  }
  // Set-up is timed several times per run even when training runs once.
  while (static_cast<int>(setup_s.size()) < kSetupRepeats) {
    TrainerSetup setup = SetUp(data, split, cfg, tracer, report);
    if (setup.trainer == nullptr) return;
    setup_s.push_back(setup.seconds);
    tensor_ms.push_back(setup.tensor_ms);
  }
  report->Attempted(static_cast<uint64_t>(trainings), 0);
  report->Metric("setup_train_s", Median(setup_s), "s");
  report->Metric("train_s", Median(train_s), "s");
  report->Metric("data.tensor_build_ms", Median(tensor_ms), "ms");
  report->Metric("model.save_ms", first.save_ms, "ms");
  report->Metric("model.bytes", static_cast<double>(first.model_bytes),
                 "bytes");
  report->Metric("trainer.checkpoint_bytes",
                 static_cast<double>(first.checkpoint_bytes), "bytes");
  report->Metric("train.trainings", trainings, "count");
  ReportStages(before, after, *last_setup.tensor, cfg, report);

  // The paper's protocol on the held-out 20%: 100 sampled negatives per
  // test cell, seed 777, Hit@10 and per-user-averaged MRR.
  const Clock::time_point te = Clock::now();
  tcss::RankingMetrics quality;
  {
    Tracer::Span span(tracer, "eval", 0);
    const std::vector<tcss::TensorCell> test_cells =
        tcss::EventsToCells(split.test, kGranularity);
    const FactorModel& m = first.model;
    tcss::RankingProtocolOptions ropts;
    ropts.num_negatives = 100;
    ropts.top_k = 10;
    ropts.seed = 777;
    quality = tcss::EvaluateRanking(
        [&m](uint32_t i, uint32_t j, uint32_t k) { return m.Predict(i, j, k); },
        data.num_pois(), test_cells, ropts);
  }
  report->Metric("eval.ms", SecondsSince(te) * 1e3, "ms");
  report->Metric("hit_at_10", quality.hit_at_k, "ratio");
  report->Metric("mrr", quality.mrr, "ratio");
  if (!(quality.hit_at_k > 0.0) || !(quality.mrr > 0.0)) {
    report->Fail("ranking quality is zero");
  }

  const SparseTensor& tensor = *last_setup.tensor;
  report->Context("dataset", tcss::StrFormat(
      "{\"users\": %zu, \"pois\": %zu, \"bins\": %zu, \"train_cells\": %zu, "
      "\"test_cells\": %zu, \"checkins\": %zu}",
      tensor.dim_i(), tensor.dim_j(), tensor.dim_k(), tensor.nnz(),
      split.test.size(), data.num_checkins()));
  report->Context("train_threads", std::to_string(kThreads));
  std::string samples = "[";
  for (size_t i = 0; i < train_s.size(); ++i) {
    samples += tcss::StrFormat("%s%.4f", i ? ", " : "", train_s[i]);
  }
  report->Context("train_s_samples", samples + "]");
  report->Context("epochs", std::to_string(cfg.epochs));

  if (tracer->enabled()) {
    report->Metric("init.spectral_ms", first.init_ms, "ms");
    TraceTrainingLayers(data, last_setup, cfg, first.model, tracer, report);
  } else {
    // Which side of the distance-cache budget this workload trains on is a
    // property of its input; untraced runs report it as a share too.
    const double mb = DistCacheMb(*last_setup.trainer->hausdorff(),
                                  tensor.dim_i());
    report->Share("hausdorff.dist_cache_on", mb <= kDistCacheBudgetMb ? 1 : 0,
                  1);
    report->Context("dist_cache_mb", tcss::StrFormat("%.3f", mb));
  }
  *trained = std::move(first.model);
}

}  // namespace perfbench
