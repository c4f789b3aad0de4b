// Kernel micro-benchmark: CP-ALS's MTTKRP, plus the dense gemm/Gram
// micro-kernels, the social Hausdorff head and spectral init's
// eigensolve — the trajectory behind BENCH_kernels.json.
//
// BM_Mttkrp times tcss::Mttkrp, the one plain CSF loop that serves CP-ALS
// (the Table I baseline; TCSS training never forms an MTTKRP), for each
// mode at ranks 10 and 32 on the gowalla-like tensor. It is compiled with
// the default flags and is not a KernelTable entry, so it has no simd
// variant. BM_Gemm/BM_Gram sweep the dense products (square references
// plus the tall-skinny rows x rank shapes CP-ALS forms), each in scalar
// and simd variants. BM_HausdorffUser times the social Hausdorff head per
// user (SocialHausdorffLoss::ComputeForUser) on the gowalla preset and at
// the catalog workload's shape (96 users, past the distance cache), forward
// only and forward+backward, under each kernel table. BM_RewrittenLoss
// times the L2 head (RewrittenLoss::ComputeWithGrads, Eq 15) at one thread
// on the same two train tensors, under each kernel table.
// BM_GramBlockApply and BM_SubspaceEigen time spectral init's eigensolve
// at the catalog workload's shape (6000 users x 10000 POIs): one block
// Gram apply of the r + 4 = 14 iteration vectors, and a whole
// SubspaceEigen of one mode as InitializeFactors runs it; BM_Gemm's 10-
// and 14-column rows and BM_GemmT are the tall-skinny products of the L2
// head and of subspace iteration (A q W and q^T A q). BM_TrainEpochs times
// whole warm-started training epochs at the catalog shape, at 1, 2 and 4
// threads, with the minor page faults each epoch takes. BM_SetUp times the
// set-up before training and serving at both shapes: the train and full
// check-in tensors and the Hausdorff head's construction.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/hausdorff_loss.h"
#include "core/spectral_init.h"
#include "core/trainer.h"
#include "core/whole_data_loss.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"
#include "linalg/linear_operator.h"
#include "linalg/simd.h"
#include "linalg/subspace_iteration.h"
#include "tensor/gram_operator.h"
#include "tensor/mttkrp.h"

namespace {

using namespace tcss;

// Selects the kernel build for one benchmark run. simd=1 asks for the
// native build; if it is unavailable (not compiled in / CPU too old) the
// dispatcher falls back to scalar with a warning and the emitted rows
// carry "simd": "scalar", so a fallback can never masquerade as a
// vectorized measurement.
void SelectSimd(int64_t simd) {
  SetSimdMode(simd != 0 ? SimdMode::kNative : SimdMode::kScalar);
  if (simd != 0 && !(SimdNativeCompiledIn() && SimdNativeSupportedByCpu())) {
    SetSimdMode(SimdMode::kScalar);
  }
}

const char* SimdTag(int64_t simd) { return simd != 0 ? "_simd" : ""; }

// The gowalla-like preset's train tensor at scale 1.0, month bins.
const SparseTensor& CheckinTensor() {
  static const SparseTensor* tensor = [] {
    auto data = GenerateSyntheticLbsn(
        PresetConfig(SyntheticPreset::kGowallaLike, 1.0));
    auto split = SplitCheckins(data.value(), 0.8, 42);
    auto t = BuildCheckinTensor(data.value(), split.train,
                                TimeGranularity::kMonthOfYear);
    return new SparseTensor(t.MoveValue());
  }();
  return *tensor;
}

// Args: {mode, rank}. CP-ALS's MTTKRP on the tensor's CSF tree.
void BM_Mttkrp(benchmark::State& state) {
  const SparseTensor& x = CheckinTensor();
  const int mode = static_cast<int>(state.range(0));
  const size_t r = static_cast<size_t>(state.range(1));
  SetSimdMode(SimdMode::kScalar);  // the loop bypasses the kernel table;
                                   // keep the emitted simd tag honest
  Rng rng(1);
  Matrix factors[3] = {Matrix::GaussianRandom(x.dim_i(), r, &rng),
                       Matrix::GaussianRandom(x.dim_j(), r, &rng),
                       Matrix::GaussianRandom(x.dim_k(), r, &rng)};
  Stopwatch sw;
  size_t iters = 0;
  for (auto _ : state) {
    Matrix out = Mttkrp(x, factors, mode);
    benchmark::DoNotOptimize(out.data());
    ++iters;
  }
  state.counters["fibers"] = static_cast<double>(x.num_fibers());
  state.counters["nnz"] = static_cast<double>(x.nnz());
  if (iters > 0) {
    tcss::bench::AppendBenchJson(
        "kernel_mttkrp", "gowalla-like",
        "mttkrp_mode" + std::to_string(mode) + "_r" + std::to_string(r) +
            "_s",
        sw.ElapsedSeconds() / static_cast<double>(iters));
  }
}

// Dense gemm sweep over the shapes the CP-ALS solve path actually hits:
// square reference points plus the tall-skinny (rows x rank) products
// behind Gram matrices and fold-in. Args: {m, k, n, simd} for
// (m x k)(k x n).
void BM_Gemm(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const size_t n = static_cast<size_t>(state.range(2));
  const int64_t simd = state.range(3);
  SelectSimd(simd);
  Rng rng(7);
  const Matrix a = Matrix::GaussianRandom(m, k, &rng);
  const Matrix b = Matrix::GaussianRandom(k, n, &rng);
  Stopwatch sw;
  size_t iters = 0;
  for (auto _ : state) {
    Matrix out = MatMul(a, b);
    benchmark::DoNotOptimize(out.data());
    ++iters;
  }
  const double flops = 2.0 * static_cast<double>(m) *
                       static_cast<double>(k) * static_cast<double>(n);
  state.counters["gflops"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  if (iters > 0) {
    tcss::bench::AppendBenchJson(
        "kernel_gemm", "dense",
        "m" + std::to_string(m) + "_k" + std::to_string(k) + "_n" +
            std::to_string(n) + SimdTag(simd) + "_s",
        sw.ElapsedSeconds() / static_cast<double>(iters));
  }
  SetSimdMode(SimdMode::kScalar);
}

// The transposed product a^T b of two tall (rows x k) and (rows x n)
// blocks: the Rayleigh-Ritz q^T A q of subspace iteration. Args: {rows, k,
// n, simd}.
void BM_GemmT(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const size_t n = static_cast<size_t>(state.range(2));
  const int64_t simd = state.range(3);
  SelectSimd(simd);
  Rng rng(7);
  const Matrix a = Matrix::GaussianRandom(rows, k, &rng);
  const Matrix b = Matrix::GaussianRandom(rows, n, &rng);
  Stopwatch sw;
  size_t iters = 0;
  for (auto _ : state) {
    Matrix out = MatTMul(a, b);
    benchmark::DoNotOptimize(out.data());
    ++iters;
  }
  if (iters > 0) {
    tcss::bench::AppendBenchJson(
        "kernel_gemm", "dense",
        "gemmt_rows" + std::to_string(rows) + "_k" + std::to_string(k) +
            "_n" + std::to_string(n) + SimdTag(simd) + "_s",
        sw.ElapsedSeconds() / static_cast<double>(iters));
  }
  SetSimdMode(SimdMode::kScalar);
}

// Tall-skinny Gram sweep (a^T a for rows x rank factors): the per-mode
// normal-equation matrix CP-ALS forms every sweep. Args: {rows, r, simd}.
void BM_Gram(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t r = static_cast<size_t>(state.range(1));
  const int64_t simd = state.range(2);
  SelectSimd(simd);
  Rng rng(7);
  const Matrix a = Matrix::GaussianRandom(rows, r, &rng);
  Stopwatch sw;
  size_t iters = 0;
  for (auto _ : state) {
    Matrix out = Gram(a);
    benchmark::DoNotOptimize(out.data());
    ++iters;
  }
  if (iters > 0) {
    tcss::bench::AppendBenchJson(
        "kernel_gemm", "dense",
        "gram_rows" + std::to_string(rows) + "_r" + std::to_string(r) +
            SimdTag(simd) + "_s",
        sw.ElapsedSeconds() / static_cast<double>(iters));
  }
  SetSimdMode(SimdMode::kScalar);
}

// The catalog workload's data and train tensor: the gowalla-like generator
// at 6000 users x 10000 POIs, 300k check-ins in 20 cities, month bins, 80%
// split.
struct CatalogWorld {
  Dataset data;
  TrainTestSplit split;
  SparseTensor train;
};

const CatalogWorld& Catalog() {
  static const CatalogWorld* world = [] {
    SyntheticConfig cfg = PresetConfig(SyntheticPreset::kGowallaLike, 1.0);
    cfg.num_users = 6000;
    cfg.num_pois = 10000;
    cfg.num_checkins = 300000;
    cfg.num_cities = 20;
    auto data = GenerateSyntheticLbsn(cfg);
    auto split = SplitCheckins(data.value(), 0.8, 1);
    auto t = BuildCheckinTensor(data.value(), split.train,
                                TimeGranularity::kMonthOfYear);
    return new CatalogWorld{data.MoveValue(), std::move(split),
                            t.MoveValue()};
  }();
  return *world;
}

const SparseTensor& CatalogTensor() { return Catalog().train; }

// One workload of BM_HausdorffUser: the head at the default config
// (160 candidates, up to 96 friend POIs, rank 10, month bins) built on
// the workload's train tensor, the spectral warm start, and the users
// timed.
struct HausdorffBenchWorld {
  SocialHausdorffLoss loss;
  FactorModel model;
  std::vector<uint32_t> users;
};

// gowalla: every eligible user of the preset, with the distance cache on.
// catalog: 96 users spread evenly over the eligible ones, past the cache
// budget, so each call computes its distance block.
const HausdorffBenchWorld& HausdorffWorld(bool catalog) {
  static const HausdorffBenchWorld* worlds[2] = {};
  const HausdorffBenchWorld*& world = worlds[catalog ? 1 : 0];
  if (world == nullptr) {
    const Dataset& data =
        catalog ? Catalog().data
                : tcss::bench::GetWorld(SyntheticPreset::kGowallaLike).data;
    const SparseTensor& train =
        catalog ? Catalog().train
                : tcss::bench::GetWorld(SyntheticPreset::kGowallaLike).train;
    const TcssConfig cfg;
    auto* w = new HausdorffBenchWorld{
        SocialHausdorffLoss(data, train, cfg),
        InitializeFactors(train, cfg).MoveValue(), {}};
    std::vector<uint32_t> eligible;
    for (uint32_t u = 0; u < train.dim_i(); ++u) {
      if (!w->loss.candidate_pool(u).empty() &&
          !w->loss.friend_pois(u).empty()) {
        eligible.push_back(u);
      }
    }
    constexpr size_t kCatalogUsers = 96;
    if (!catalog) w->users = eligible;
    for (size_t i = 0; catalog && i < kCatalogUsers; ++i) {
      w->users.push_back(eligible[i * eligible.size() / kCatalogUsers]);
    }
    world = w;
  }
  return *world;
}

// Args: {backward, simd, catalog}. Mean time per user of the social
// Hausdorff head (ComputeForUser) on the gowalla preset (catalog = 0) or
// the catalog workload's shape (catalog = 1; HausdorffWorld); backward =
// 1 also accumulates the gradients.
void BM_HausdorffUser(benchmark::State& state) {
  const bool backward = state.range(0) != 0;
  const int64_t simd = state.range(1);
  const bool catalog = state.range(2) != 0;
  const HausdorffBenchWorld& world = HausdorffWorld(catalog);
  SelectSimd(simd);
  FactorGrads grads(world.model);
  Stopwatch sw;
  size_t calls = 0;
  for (auto _ : state) {
    double sum = 0.0;
    for (uint32_t u : world.users) {
      sum += world.loss.ComputeForUser(world.model, u,
                                       backward ? &grads : nullptr, 1.0);
    }
    benchmark::DoNotOptimize(sum);
    calls += world.users.size();
  }
  state.counters["users"] = static_cast<double>(world.users.size());
  if (calls > 0) {
    tcss::bench::AppendBenchJson(
        "kernel_hausdorff", catalog ? "catalog" : "gowalla-like",
        std::string(backward ? "user_fwd_bwd" : "user_fwd") + SimdTag(simd) +
            "_s",
        sw.ElapsedSeconds() / static_cast<double>(calls));
  }
  SetSimdMode(SimdMode::kScalar);
}

// Args: {simd, catalog}. One RewrittenLoss::ComputeWithGrads with
// gradients (the observed-entry loop over the train tensor's CSF tree, the
// Gram terms and their products) at rank 10 and one thread, on the gowalla
// preset's train tensor (catalog = 0) or at the catalog workload's shape
// (catalog = 1), with the trainer's default weights and Gaussian factors.
void BM_RewrittenLoss(benchmark::State& state) {
  const int64_t simd = state.range(0);
  const bool catalog = state.range(1) != 0;
  const SparseTensor& x = catalog ? CatalogTensor() : CheckinTensor();
  SetGlobalThreads(1);
  SelectSimd(simd);
  const TcssConfig cfg;
  Rng rng(7);
  FactorModel model;
  model.u1 = Matrix::GaussianRandom(x.dim_i(), cfg.rank, &rng, 0.3);
  model.u2 = Matrix::GaussianRandom(x.dim_j(), cfg.rank, &rng, 0.3);
  model.u3 = Matrix::GaussianRandom(x.dim_k(), cfg.rank, &rng, 0.3);
  model.h.assign(cfg.rank, 1.0);
  RewrittenLoss loss(cfg.w_pos, cfg.w_neg);
  FactorGrads grads(model);
  Stopwatch sw;
  size_t iters = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(loss.ComputeWithGrads(model, x, &grads));
    ++iters;
  }
  state.counters["nnz"] = static_cast<double>(x.nnz());
  if (iters > 0) {
    tcss::bench::AppendBenchJson(
        "kernel_l2", catalog ? "catalog" : "gowalla-like",
        std::string("rewritten_loss_grads") + SimdTag(simd) + "_s",
        sw.ElapsedSeconds() / static_cast<double>(iters));
  }
  SetSimdMode(SimdMode::kScalar);
}

// Args: {mode, simd}. One block apply of the zero-diagonal mode Gram to
// the n x 14 iterate of spectral init's subspace iteration (rank 10 plus
// four guard vectors).
void BM_GramBlockApply(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const int64_t simd = state.range(1);
  const ModeGramOperator gram(CatalogTensor(), mode, /*zero_diagonal=*/true);
  SelectSimd(simd);
  Rng rng(7);
  const Matrix x = Matrix::GaussianRandom(gram.Dim(), 14, &rng);
  Matrix y(gram.Dim(), 14);
  Stopwatch sw;
  size_t iters = 0;
  for (auto _ : state) {
    gram.Apply(x, &y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
    ++iters;
  }
  if (iters > 0) {
    tcss::bench::AppendBenchJson(
        "kernel_spectral", "catalog",
        "gram_apply_b14_mode" + std::to_string(mode) + SimdTag(simd) + "_s",
        sw.ElapsedSeconds() / static_cast<double>(iters));
  }
  SetSimdMode(SimdMode::kScalar);
}

// Args: {mode, simd}. One mode's eigensolve exactly as InitializeFactors
// runs it (default config: rank 10, shift by the largest Gram diagonal,
// the same seed); rows record the whole solve and its time per operator
// application (EigenPairs::iterations counts applications).
void BM_SubspaceEigen(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const int64_t simd = state.range(1);
  const SparseTensor& tensor = CatalogTensor();
  const TcssConfig cfg;
  const ModeGramOperator gram(tensor, mode, /*zero_diagonal=*/true);
  double sigma = 0.0;
  for (double d : gram.Diagonal()) sigma = std::max(sigma, d);
  const ShiftedOperator shifted(&gram, sigma);
  SubspaceIterationOptions opts;
  opts.seed = cfg.seed + static_cast<uint64_t>(mode) * 7920;
  SelectSimd(simd);
  Stopwatch sw;
  size_t iters = 0;
  int eigen_iterations = 0;
  for (auto _ : state) {
    auto eig = SubspaceEigen(shifted, cfg.rank, opts);
    benchmark::DoNotOptimize(eig.value().values.data());
    eigen_iterations = eig.value().iterations;
    ++iters;
  }
  state.counters["iterations"] = eigen_iterations;
  if (iters > 0) {
    const double per_solve = sw.ElapsedSeconds() / static_cast<double>(iters);
    const std::string tag = "_mode" + std::to_string(mode) + SimdTag(simd);
    tcss::bench::AppendBenchJson("kernel_spectral", "catalog",
                                 "subspace_eigen" + tag + "_s", per_solve);
    tcss::bench::AppendBenchJson(
        "kernel_spectral", "catalog", "subspace_eigen_per_iter" + tag + "_s",
        per_solve / std::max(1, eigen_iterations));
  }
  SetSimdMode(SimdMode::kScalar);
}

// Args: {catalog}. The set-up a trainer and a serving stack pay before
// their first epoch or answer, at one thread: BuildCheckinTensor of the
// train split and of all check-ins (month bins), and the construction of
// SocialHausdorffLoss at the default config on the train tensor (entropy
// weights, d_max, friend lists, pools and, on gowalla, the distance
// cache); on the gowalla preset (catalog = 0) or at the catalog
// workload's shape (catalog = 1), native kernels. Rows give each part's
// mean seconds.
void BM_SetUp(benchmark::State& state) {
  const bool catalog = state.range(0) != 0;
  const auto& gowalla = tcss::bench::GetWorld(SyntheticPreset::kGowallaLike);
  const Dataset& data = catalog ? Catalog().data : gowalla.data;
  const std::vector<CheckInEvent>& events =
      catalog ? Catalog().split.train : gowalla.split.train;
  constexpr TimeGranularity kBins = TimeGranularity::kMonthOfYear;
  SetGlobalThreads(1);
  SelectSimd(1);
  const TcssConfig cfg;
  double parts[3] = {0.0, 0.0, 0.0};
  size_t iters = 0;
  for (auto _ : state) {
    Stopwatch sw;
    auto train = BuildCheckinTensor(data, events, kBins);
    parts[0] += sw.ElapsedSeconds();
    sw.Restart();
    auto full = BuildCheckinTensor(data, kBins);
    parts[1] += sw.ElapsedSeconds();
    sw.Restart();
    const SocialHausdorffLoss loss(data, train.value(), cfg);
    parts[2] += sw.ElapsedSeconds();
    benchmark::DoNotOptimize(full.value().nnz());
    benchmark::DoNotOptimize(loss.num_eligible_users());
    ++iters;
  }
  if (iters > 0) {
    const char* metrics[3] = {"train_tensor_s", "full_tensor_s",
                              "head_construct_s"};
    for (int p = 0; p < 3; ++p) {
      state.counters[metrics[p]] = parts[p] / static_cast<double>(iters);
      tcss::bench::AppendBenchJson("kernel_setup",
                                   catalog ? "catalog" : "gowalla-like",
                                   metrics[p], state.counters[metrics[p]]);
    }
  }
  SetSimdMode(SimdMode::kScalar);
}

// Args: {threads}. Whole training epochs on the catalog workload's shape:
// TcssTrainer::Train of 10 epochs (default config, native kernels),
// warm-started from the spectral init, after one untimed run of the same
// trainer. Rows record the wall time and the minor page faults of the
// process (getrusage) per epoch; the faults show whether an epoch's
// gradient buffers are fresh pages or kept ones.
void BM_TrainEpochs(benchmark::State& state) {
  constexpr int kEpochs = 10;
  const CatalogWorld& world = Catalog();
  TcssConfig cfg;
  cfg.epochs = kEpochs;
  cfg.num_threads = static_cast<int>(state.range(0));
  static const FactorModel* init =
      new FactorModel(InitializeFactors(world.train, cfg).MoveValue());
  SelectSimd(1);
  TcssTrainer trainer(world.data, world.train, cfg);
  TrainOptions options;
  options.warm_start = init;
  if (!trainer.Train(options, nullptr).ok()) {
    state.SkipWithError("training failed");
    return;
  }
  rusage before, after;
  getrusage(RUSAGE_SELF, &before);
  Stopwatch sw;
  size_t epochs = 0;
  for (auto _ : state) {
    auto model = trainer.Train(options, nullptr);
    benchmark::DoNotOptimize(model.value().h.data());
    epochs += kEpochs;
  }
  const double seconds = sw.ElapsedSeconds();
  getrusage(RUSAGE_SELF, &after);
  if (epochs > 0) {
    const double n = static_cast<double>(epochs);
    const double ms = seconds * 1e3 / n;
    const double faults =
        static_cast<double>(after.ru_minflt - before.ru_minflt) / n;
    state.counters["ms_per_epoch"] = ms;
    state.counters["minor_faults_per_epoch"] = faults;
    tcss::bench::AppendBenchJson("kernel_train", "catalog",
                                 "train_ms_per_epoch", ms);
    tcss::bench::AppendBenchJson("kernel_train", "catalog",
                                 "train_minor_faults_per_epoch", faults);
  }
  SetGlobalThreads(1);
  SetSimdMode(SimdMode::kScalar);
}

BENCHMARK(BM_Mttkrp)
    ->Args({0, 10})->Args({1, 10})->Args({2, 10})
    ->Args({0, 32})->Args({1, 32})->Args({2, 32});
BENCHMARK(BM_Gemm)
    ->Args({128, 128, 128, 0})
    ->Args({256, 256, 256, 0})
    ->Args({512, 512, 512, 0})
    ->Args({4096, 32, 32, 0})
    ->Args({4096, 32, 512, 0})
    ->Args({128, 128, 128, 1})
    ->Args({256, 256, 256, 1})
    ->Args({512, 512, 512, 1})
    ->Args({4096, 32, 32, 1})
    ->Args({4096, 32, 512, 1})
    ->Args({10000, 10, 10, 0})
    ->Args({10000, 14, 14, 0})
    ->Args({10000, 10, 10, 1})
    ->Args({10000, 14, 14, 1});
BENCHMARK(BM_GemmT)
    ->Args({10000, 10, 10, 0})
    ->Args({10000, 14, 14, 0})
    ->Args({10000, 10, 10, 1})
    ->Args({10000, 14, 14, 1});
BENCHMARK(BM_Gram)
    ->Args({2000, 10, 0})
    ->Args({2000, 32, 0})
    ->Args({20000, 32, 0})
    ->Args({2000, 10, 1})
    ->Args({2000, 32, 1})
    ->Args({20000, 32, 1});
BENCHMARK(BM_HausdorffUser)
    ->Args({0, 0, 0})->Args({1, 0, 0})->Args({0, 1, 0})->Args({1, 1, 0})
    ->Args({0, 0, 1})->Args({1, 0, 1})->Args({0, 1, 1})->Args({1, 1, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RewrittenLoss)
    ->Args({0, 0})->Args({1, 0})->Args({0, 1})->Args({1, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GramBlockApply)
    ->Args({0, 0})->Args({1, 0})->Args({0, 1})->Args({1, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SubspaceEigen)
    ->Args({0, 1})->Args({1, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SetUp)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainEpochs)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
