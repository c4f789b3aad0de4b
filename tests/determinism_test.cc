// Determinism suite for the parallel training engine: the ThreadPool /
// ParallelFor / ParallelReduce primitives (kept shard buffers, waves,
// ascending merges), exact serial-vs-parallel equality of the row-sharded
// kernels (MatMul, Gram, MTTKRP, AdamStep), bitwise equality of the
// per-shard-reduced losses across thread counts and against fresh loss
// objects, byte-identical trained models at num_threads in {1, 2, 3, 8},
// and bit-identical kill-and-resume in kNegativeSampling mode (the
// counter-based sampler state).
//
// tools/check.sh runs this suite under ThreadSanitizer as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "core/model_io.h"
#include "core/spectral_init.h"
#include "core/trainer.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"
#include "linalg/kernel_table.h"
#include "linalg/vector_ops.h"
#include "tensor/mttkrp.h"

namespace tcss {
namespace {

struct World {
  Dataset data;
  SparseTensor train;
};

World MakeWorld() {
  auto data = GenerateSyntheticLbsn(
      PresetConfig(SyntheticPreset::kGowallaLike, 0.2));
  EXPECT_TRUE(data.ok());
  TrainTestSplit split = SplitCheckins(data.value(), 0.8, 3);
  auto train = BuildCheckinTensor(data.value(), split.train,
                                  TimeGranularity::kMonthOfYear);
  EXPECT_TRUE(train.ok());
  return {data.MoveValue(), train.MoveValue()};
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

bool BitIdentical(const FactorGrads& a, const FactorGrads& b) {
  return a.h == b.h && BitIdentical(a.u1, b.u1) && BitIdentical(a.u2, b.u2) &&
         BitIdentical(a.u3, b.u3);
}

/// Binary tensor of `nnz` random cells (duplicates coalesce, so a few
/// fewer survive).
SparseTensor RandomTensor(size_t I, size_t J, size_t K, size_t nnz,
                          uint64_t seed) {
  Rng rng(seed);
  SparseTensor x(I, J, K);
  for (size_t e = 0; e < nnz; ++e) {
    (void)x.Add(static_cast<uint32_t>(rng.UniformInt(I)),
                static_cast<uint32_t>(rng.UniformInt(J)),
                static_cast<uint32_t>(rng.UniformInt(K)));
  }
  EXPECT_TRUE(x.Finalize().ok());
  return x;
}

FactorModel RandomModel(const SparseTensor& x, size_t r, uint64_t seed) {
  Rng rng(seed);
  FactorModel model;
  model.u1 = Matrix::GaussianRandom(x.dim_i(), r, &rng, 0.1);
  model.u2 = Matrix::GaussianRandom(x.dim_j(), r, &rng, 0.1);
  model.u3 = Matrix::GaussianRandom(x.dim_k(), r, &rng, 0.1);
  model.h.assign(r, 1.0);
  return model;
}

/// Non-zero gradients to accumulate into, as the trainer's buffer holds
/// when the Hausdorff head runs after L2. Only a buffer that starts
/// non-zero tells a one-shard call written straight into it from one
/// that goes through a zeroed shard buffer first.
FactorGrads Prefilled(const FactorModel& model, uint64_t seed) {
  Rng rng(seed);
  FactorGrads g(model);
  for (Matrix* m : {&g.u1, &g.u2, &g.u3}) {
    for (size_t i = 0; i < m->size(); ++i) m->data()[i] = rng.Gaussian();
  }
  for (double& v : g.h) v = rng.Gaussian();
  return g;
}

/// RAII: restore the global pool to 1 thread when a test ends.
struct ThreadGuard {
  ~ThreadGuard() { SetGlobalThreads(1); }
};

// --------------------------------------------------------------------------
// ThreadPool / ParallelFor primitives
// --------------------------------------------------------------------------

TEST(ThreadPoolTest, RunExecutesEveryShardExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kShards = 257;
  std::vector<std::atomic<int>> hits(kShards);
  pool.Run(kShards, [&](size_t s) { hits[s].fetch_add(1); });
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(hits[s].load(), 1) << "shard " << s;
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<size_t> sum{0};
    pool.Run(50, [&](size_t s) { sum.fetch_add(s); });
    EXPECT_EQ(sum.load(), 50u * 49u / 2u) << "round " << round;
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  size_t count = 0;  // no atomics needed: everything runs on this thread
  pool.Run(10, [&](size_t) { ++count; });
  EXPECT_EQ(count, 10u);
}

TEST(ParallelForTest, CoversRangeExactlyOnceAtAnyThreadCount) {
  ThreadGuard guard;
  for (int threads : {1, 2, 8}) {
    SetGlobalThreads(threads);
    constexpr size_t kN = 1003;
    std::vector<std::atomic<int>> hits(kN);
    ParallelFor(kN, 64, [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ParallelForTest, ShardDecompositionIgnoresThreadCount) {
  ThreadGuard guard;
  EXPECT_EQ(ParallelForShards(0, 64), 0u);
  EXPECT_EQ(ParallelForShards(1, 64), 1u);
  EXPECT_EQ(ParallelForShards(64, 64), 1u);
  EXPECT_EQ(ParallelForShards(65, 64), 2u);
  // The (begin, end, shard) triples ParallelFor produces must be the same
  // set regardless of the thread count.
  auto collect = [&](int threads) {
    SetGlobalThreads(threads);
    std::vector<std::vector<size_t>> triples(ParallelForShards(1000, 128));
    ParallelFor(1000, 128, [&](size_t begin, size_t end, size_t s) {
      triples[s] = {begin, end};
    });
    return triples;
  };
  EXPECT_EQ(collect(1), collect(8));
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadGuard guard;
  SetGlobalThreads(4);
  std::vector<std::atomic<int>> hits(16 * 16);
  ParallelFor(16, 1, [&](size_t ob, size_t, size_t) {
    ParallelFor(16, 4, [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) hits[ob * 16 + i].fetch_add(1);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "cell " << i;
  }
}

// --------------------------------------------------------------------------
// ParallelReduce: kept shard buffers, waves, ascending merges
// --------------------------------------------------------------------------

TEST(ParallelReduceTest, KeepsOneBufferPerThreadAndMergesInShardOrder) {
  ThreadGuard guard;
  // 16 shards of 10 items, the last one of 7: at 3 threads the waves are
  // 3, 3, 3, 3, 3 and 1 shards.
  constexpr size_t kN = 157;
  constexpr size_t kGrain = 10;
  constexpr size_t kShards = 16;
  ASSERT_EQ(ParallelForShards(kN, kGrain), kShards);
  // Value sum that only ascending shard order leaves at exactly 0.0: the
  // 1.0s vanish into 1e16 only while it leads.
  auto value_of = [](size_t s) {
    return s == 0 ? 1e16 : s + 1 == kShards ? -1e16 : 1.0;
  };
  for (int threads : {1, 2, 3, 8}) {
    SetGlobalThreads(threads);
    const size_t width = std::min<size_t>(kShards, threads);
    ShardScratch<std::vector<double>> scratch;
    size_t made = 0;
    for (int call = 0; call < 2; ++call) {
      std::vector<double> out(4, 0.5);
      std::vector<std::vector<size_t>> ranges(kShards);
      std::vector<int> zero_on_entry(kShards, 0);
      std::vector<size_t> merged;
      const double total = ParallelReduce(
          kN, kGrain, &out, &scratch,
          [&] {
            ++made;
            return std::vector<double>(4, 0.0);
          },
          [&](size_t begin, size_t end, size_t s, std::vector<double>* buf) {
            ranges[s] = {begin, end};
            zero_on_entry[s] = std::all_of(buf->begin(), buf->end(),
                                           [](double v) { return v == 0.0; });
            (*buf)[s % 4] += static_cast<double>(s + 1);
            return value_of(s);
          },
          [&](std::vector<double>* part, std::vector<double>* dst) {
            for (size_t i = 0; i < 4; ++i) {
              if ((*part)[i] != 0.0) {
                merged.push_back(static_cast<size_t>((*part)[i]) - 1);
              }
            }
            AddAndZero(dst->data(), part->data(), 4);
          });
      // Buffers are made on the first call only, one per concurrent shard.
      EXPECT_EQ(made, width) << threads << " threads, call " << call;
      EXPECT_EQ(scratch.size(), width);
      EXPECT_EQ(total, 0.0) << threads << " threads, call " << call;
      std::vector<size_t> in_order(kShards);
      for (size_t s = 0; s < kShards; ++s) {
        in_order[s] = s;
        EXPECT_EQ(ranges[s],
                  (std::vector<size_t>{s * kGrain,
                                       std::min(kN, (s + 1) * kGrain)}))
            << "shard " << s;
        EXPECT_EQ(zero_on_entry[s], 1) << "shard " << s;
      }
      EXPECT_EQ(merged, in_order) << threads << " threads";
      // Shard s added s + 1 into slot s % 4.
      EXPECT_EQ(out, (std::vector<double>{0.5 + 1 + 5 + 9 + 13,
                                          0.5 + 2 + 6 + 10 + 14,
                                          0.5 + 3 + 7 + 11 + 15,
                                          0.5 + 4 + 8 + 12 + 16}));
      // Every kept buffer comes back all zero.
      const std::vector<double>* kept = scratch.Fit(width, [] {
        ADD_FAILURE() << "no buffer is missing";
        return std::vector<double>();
      });
      for (size_t w = 0; w < width; ++w) {
        EXPECT_EQ(kept[w], std::vector<double>(4, 0.0)) << "buffer " << w;
      }
    }
  }
}

TEST(ParallelReduceTest, OneShardRunsDirectUnlessBuffered) {
  ThreadGuard guard;
  SetGlobalThreads(8);
  ShardScratch<std::vector<double>> scratch;
  size_t made = 0;
  size_t merges = 0;
  auto make = [&] {
    ++made;
    return std::vector<double>(1, 0.0);
  };
  std::vector<double> out(1, 2.0);
  auto body = [&](size_t begin, size_t end, size_t s, std::vector<double>* g) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
    EXPECT_EQ(s, 0u);
    if (g != nullptr) (*g)[0] += 1.0;
    return 1.0;
  };
  auto merge = [&](std::vector<double>* part, std::vector<double>* dst) {
    ++merges;
    AddAndZero(dst->data(), part->data(), 1, 3.0);
  };
  // One shard writes straight into `out`.
  EXPECT_EQ(ParallelReduce(5, 10, &out, &scratch, make, body, merge), 1.0);
  EXPECT_EQ(out[0], 3.0);
  EXPECT_EQ(made + merges, 0u);
  // Buffered, it goes through one kept buffer and one merge.
  EXPECT_EQ(ParallelReduce(5, 10, &out, &scratch, make, body, merge, true),
            1.0);
  EXPECT_EQ(out[0], 6.0);
  EXPECT_EQ(made, 1u);
  EXPECT_EQ(merges, 1u);
  // Value only: no buffer, no merge, `out` untouched.
  std::vector<double>* none = nullptr;
  EXPECT_EQ(ParallelReduce(5, 10, none, &scratch, make, body, merge, true),
            1.0);
  EXPECT_EQ(made, 1u);
  EXPECT_EQ(merges, 1u);
  // An empty range returns Value{} and keeps the buffers.
  EXPECT_EQ(ParallelReduce(0, 10, &out, &scratch, make, body, merge, true),
            0.0);
  EXPECT_EQ(out[0], 6.0);
  EXPECT_EQ(scratch.size(), 1u);
}

// --------------------------------------------------------------------------
// Kernels: parallel result == serial result, bit for bit
// --------------------------------------------------------------------------

TEST(KernelDeterminismTest, MatMulParallelMatchesSerialExactly) {
  ThreadGuard guard;
  Rng rng(7);
  const Matrix a = Matrix::GaussianRandom(150, 40, &rng);
  const Matrix b = Matrix::GaussianRandom(40, 60, &rng);
  SetGlobalThreads(1);
  const Matrix serial = MatMul(a, b);
  for (int threads : {2, 8}) {
    SetGlobalThreads(threads);
    EXPECT_TRUE(BitIdentical(serial, MatMul(a, b))) << threads << " threads";
  }
}

TEST(KernelDeterminismTest, GramParallelMatchesSerialExactly) {
  ThreadGuard guard;
  Rng rng(8);
  const Matrix a = Matrix::GaussianRandom(500, 32, &rng);
  SetGlobalThreads(1);
  const Matrix serial = Gram(a);
  for (int threads : {2, 8}) {
    SetGlobalThreads(threads);
    EXPECT_TRUE(BitIdentical(serial, Gram(a))) << threads << " threads";
  }
}

TEST(KernelDeterminismTest, MttkrpParallelMatchesSerialExactlyAllModes) {
  ThreadGuard guard;
  const World w = MakeWorld();
  ASSERT_GT(w.train.nnz(), 1000u);  // large enough to cross the threshold
  const size_t r = 16;
  // Modes 1/2 reduce ReduceGrain(slices, 1) shards: one slice makes one
  // shard, two make two, 256 make the 16-shard cap; each stays above the
  // serial threshold of nnz * r = 2^14.
  const SparseTensor one_slice = RandomTensor(1, 300, 40, 2000, 21);
  const SparseTensor two_slices = RandomTensor(2, 300, 40, 2000, 22);
  const SparseTensor cap = RandomTensor(256, 40, 12, 3000, 23);
  for (const SparseTensor* x : {&w.train, &one_slice, &two_slices, &cap}) {
    ASSERT_GE(x->nnz() * r, 1u << 14);
    Rng rng(9);
    Matrix factors[3] = {Matrix::GaussianRandom(x->dim_i(), r, &rng),
                         Matrix::GaussianRandom(x->dim_j(), r, &rng),
                         Matrix::GaussianRandom(x->dim_k(), r, &rng)};
    for (int mode = 0; mode < 3; ++mode) {
      SetGlobalThreads(1);
      const Matrix serial = Mttkrp(*x, factors, mode);
      for (int threads : {2, 3, 8}) {
        SetGlobalThreads(threads);
        EXPECT_TRUE(BitIdentical(serial, Mttkrp(*x, factors, mode)))
            << x->dim_i() << " slices, mode " << mode << ", " << threads
            << " threads";
      }
    }
  }
}

// --------------------------------------------------------------------------
// Losses: per-shard ordered reduction is thread-count invariant
// --------------------------------------------------------------------------

TEST(LossDeterminismTest, RewrittenLossBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const World w = MakeWorld();
  TcssConfig cfg;
  RewrittenLoss loss(cfg.w_pos, cfg.w_neg);
  // The CSF entry loop cuts min(nnz / 1024, 16) shards (at least one):
  // nnz < 2048 runs one shard straight into the gradients, [2048, 3072)
  // two, and >= 16384 the cap.
  const SparseTensor one = RandomTensor(40, 30, 12, 1500, 31);
  const SparseTensor two = RandomTensor(60, 50, 12, 2600, 32);
  const SparseTensor cap = RandomTensor(400, 300, 12, 40000, 33);
  ASSERT_LT(one.nnz(), 2048u);
  ASSERT_GE(two.nnz(), 2048u);
  ASSERT_LT(two.nnz(), 3072u);
  ASSERT_GE(cap.nnz(), 16384u);
  for (const SparseTensor* x : {&w.train, &one, &two, &cap}) {
    const FactorModel model = RandomModel(*x, cfg.rank, 11);
    SetGlobalThreads(1);
    FactorGrads ref = Prefilled(model, 12);
    const double ref_loss = loss.ComputeWithGrads(model, *x, &ref);
    for (int threads : {2, 3, 8}) {
      SetGlobalThreads(threads);
      FactorGrads got = Prefilled(model, 12);
      const double got_loss = loss.ComputeWithGrads(model, *x, &got);
      EXPECT_EQ(ref_loss, got_loss) << x->nnz() << " nnz @" << threads;
      EXPECT_TRUE(BitIdentical(ref, got)) << x->nnz() << " nnz @" << threads;
    }
    if (x != &one) continue;
    // One shard is the direct path: the kernel over every slice, straight
    // into the pre-filled gradients, then the Gram part (all that a call
    // on an empty tensor of the same shape adds).
    FactorGrads direct = Prefilled(model, 12);
    const CsfView v = x->csf();
    double direct_loss = ActiveKernels().csf_rewritten_entries(
        v, model.u1.data(), model.u2.data(), model.u3.data(),
        model.h.data(), cfg.rank, cfg.w_pos, cfg.w_neg, direct.u1.data(),
        direct.u2.data(), direct.u3.data(), direct.h.data(), 0,
        v.num_slices);
    SparseTensor empty(x->dim_i(), x->dim_j(), x->dim_k());
    ASSERT_TRUE(empty.Finalize().ok());
    direct_loss += loss.ComputeWithGrads(model, empty, &direct);
    EXPECT_EQ(ref_loss, direct_loss);
    EXPECT_TRUE(BitIdentical(ref, direct));
  }
}

TEST(LossDeterminismTest, NegativeSamplingBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const World w = MakeWorld();
  TcssConfig cfg;
  // Positives cut shards of >= 1024 entries, negatives of >= 256, both at
  // most 16: `tiny` is one shard each, `neg2` one positive and two
  // negative shards, `pos2` two positive shards, `cap` 16 of each.
  const SparseTensor tiny = RandomTensor(9, 8, 5, 150, 41);
  const SparseTensor neg2 = RandomTensor(20, 15, 6, 400, 42);
  const SparseTensor pos2 = RandomTensor(40, 30, 12, 1500, 43);
  const SparseTensor cap = RandomTensor(400, 300, 12, 40000, 44);
  ASSERT_LE(tiny.nnz(), 256u);
  ASSERT_GT(neg2.nnz(), 256u);
  ASSERT_LE(neg2.nnz(), 512u);
  ASSERT_GT(pos2.nnz(), 1024u);
  ASSERT_LE(pos2.nnz(), 2048u);
  ASSERT_GE(cap.nnz(), 16384u);
  for (const SparseTensor* x : {&w.train, &tiny, &neg2, &pos2, &cap}) {
    const FactorModel model = RandomModel(*x, cfg.rank, 12);
    SetGlobalThreads(1);
    NegativeSamplingLoss ref_loss(cfg.w_pos, cfg.w_neg, 99);
    FactorGrads ref = Prefilled(model, 13);
    const double ref_val = ref_loss.ComputeWithGrads(model, *x, &ref);
    for (int threads : {2, 3, 8}) {
      SetGlobalThreads(threads);
      // Fresh loss object: same seed, same call counter (0) -> the sampled
      // negatives must be the same cells regardless of the thread count.
      NegativeSamplingLoss loss(cfg.w_pos, cfg.w_neg, 99);
      FactorGrads got = Prefilled(model, 13);
      const double got_val = loss.ComputeWithGrads(model, *x, &got);
      EXPECT_EQ(ref_val, got_val) << x->nnz() << " nnz @" << threads;
      EXPECT_TRUE(BitIdentical(ref, got)) << x->nnz() << " nnz @" << threads;
    }
    if (x != &tiny) continue;
    // One positive shard is the direct path: every positive accumulates
    // straight into the pre-filled gradients, in entry order. The one
    // negative shard still goes through a buffer (the under-draw rescale
    // needs the total first); a twin with w+ = 0 draws the same cells and
    // leaves exactly that buffer in zeroed gradients.
    SetGlobalThreads(1);
    FactorGrads direct = Prefilled(model, 13);
    double pos = 0.0;
    for (const TensorEntry& e : x->entries()) {
      const double d = model.Predict(e.i, e.j, e.k) - e.value;
      pos += cfg.w_pos * d * d;
      AccumulateEntryGrad(model, e.i, e.j, e.k, 2.0 * cfg.w_pos * d, &direct);
    }
    NegativeSamplingLoss twin(0.0, cfg.w_neg, 99);
    FactorGrads negatives(model);
    const double neg = twin.ComputeWithGrads(model, *x, &negatives);
    direct.AddAndZero(&negatives);
    EXPECT_EQ(ref_val, pos + neg) << x->nnz() << " nnz";
    EXPECT_TRUE(BitIdentical(ref, direct)) << x->nnz() << " nnz";
  }
}

TEST(LossDeterminismTest, HausdorffBatchGradsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  World w = MakeWorld();
  // Pool sizes off the kernels' four-candidate lane groups too. The batch
  // cuts ReduceGrain(batch, 1) shards: 1 user is one shard, written
  // straight into the gradients, 2 users two shards, 48 the 16-shard cap.
  for (size_t pool : {64, 63, 37, 6}) {
    for (size_t batch : {1, 2, 48}) {
      TcssConfig cfg;
      cfg.hausdorff_pool = pool;
      cfg.max_friend_pois = 32;
      cfg.hausdorff_users_per_epoch = batch;
      SocialHausdorffLoss loss(w.data, w.train, cfg);
      ASSERT_GT(loss.num_eligible_users(), batch);
      const FactorModel model = RandomModel(w.train, cfg.rank, 13);

      SetGlobalThreads(1);
      loss.set_rotation(0);
      FactorGrads ref = Prefilled(model, 14);
      const double ref_val = loss.ComputeWithGrads(model, cfg.lambda, &ref);
      for (int threads : {2, 3, 8}) {
        SetGlobalThreads(threads);
        loss.set_rotation(0);  // replay the same minibatch
        FactorGrads got = Prefilled(model, 14);
        const double got_val = loss.ComputeWithGrads(model, cfg.lambda, &got);
        EXPECT_EQ(ref_val, got_val)
            << "pool " << pool << " batch " << batch << " @" << threads;
        EXPECT_TRUE(BitIdentical(ref, got))
            << "pool " << pool << " batch " << batch << " @" << threads;
      }
      if (batch != 1) continue;
      // One user is the direct path: ComputeForUser straight into the
      // pre-filled gradients. Rotation 0 starts at the first eligible user
      // (non-empty candidate pool and friend POIs).
      uint32_t user = 0;
      while (loss.candidate_pool(user).empty() ||
             loss.friend_pois(user).empty()) {
        ++user;
      }
      const double users = static_cast<double>(loss.num_eligible_users());
      FactorGrads direct = Prefilled(model, 14);
      const double value =
          loss.ComputeForUser(model, user, &direct, cfg.lambda * users);
      EXPECT_EQ(ref_val, value * users) << "pool " << pool;
      EXPECT_TRUE(BitIdentical(ref, direct)) << "pool " << pool;
    }
  }
}

/// Whether a kept shard buffer is all +0.0 with no row marked.
bool IsClear(const ShardRowGrads& g) {
  auto zero = [](const double* v, size_t n) {
    return std::all_of(v, v + n, [](double x) {
      return x == 0.0 && !std::signbit(x);
    });
  };
  auto unmarked = [](const std::vector<uint64_t>& bits) {
    return std::all_of(bits.begin(), bits.end(),
                       [](uint64_t w) { return w == 0; });
  };
  return zero(g.u1.data(), g.u1.size()) && zero(g.u2.data(), g.u2.size()) &&
         zero(g.u3.data(), g.u3.size()) && zero(g.h.data(), g.h.size()) &&
         unmarked(g.u1_rows) && unmarked(g.u2_rows);
}

template <typename Loss>
bool ScratchClear(const Loss& loss) {
  const auto& buffers = loss.shard_scratch().buffers();
  return std::all_of(buffers.begin(), buffers.end(), IsClear);
}

/// The L2 entry loop as a full-buffer merge: each shard of the loop's
/// decomposition runs into a zeroed full-size buffer (dL/dU1 in place),
/// which is added whole into `grads` in ascending shard order; then the
/// Gram part, which a call on an empty tensor of the shape adds.
double FullMergeRewritten(RewrittenLoss* loss, const SparseTensor& x,
                          const FactorModel& model, const TcssConfig& cfg,
                          FactorGrads* grads) {
  const CsfView v = x.csf();
  const size_t target = std::clamp<size_t>(x.nnz() / 1024, 1, 16);
  const size_t grain = (v.num_slices + target - 1) / target;
  double total = 0.0;
  for (size_t begin = 0; begin < v.num_slices; begin += grain) {
    FactorGrads part(model);
    total += ActiveKernels().csf_rewritten_entries(
        v, model.u1.data(), model.u2.data(), model.u3.data(), model.h.data(),
        model.rank(), cfg.w_pos, cfg.w_neg, grads->u1.data(),
        part.u2.data(), part.u3.data(), part.h.data(), begin,
        std::min(v.num_slices, begin + grain));
    AddAndZero(grads->u2.data(), part.u2.data(), part.u2.size());
    AddAndZero(grads->u3.data(), part.u3.data(), part.u3.size());
    AddAndZero(grads->h.data(), part.h.data(), part.h.size());
  }
  SparseTensor empty(x.dim_i(), x.dim_j(), x.dim_k());
  EXPECT_TRUE(empty.Finalize().ok());
  return total + loss->ComputeWithGrads(model, empty, grads);
}

/// The Hausdorff minibatch at rotation `rotation` as a full-buffer merge:
/// each shard's users run through ComputeForUser into a zeroed full-size
/// buffer, added whole into `grads` in ascending shard order.
double FullMergeHead(const SocialHausdorffLoss& loss,
                     const std::vector<uint32_t>& eligible,
                     const FactorModel& model, const TcssConfig& cfg,
                     size_t rotation, FactorGrads* grads) {
  const size_t batch = cfg.hausdorff_users_per_epoch;
  const double extrapolate = static_cast<double>(eligible.size()) /
                             static_cast<double>(batch);
  const size_t grain = ReduceGrain(batch, 1);
  double total = 0.0;
  for (size_t begin = 0; begin < batch; begin += grain) {
    FactorGrads part(model);
    double local = 0.0;
    for (size_t t = begin; t < std::min(batch, begin + grain); ++t) {
      local += loss.ComputeForUser(
          model, eligible[(rotation + t) % eligible.size()], &part,
          cfg.lambda * extrapolate);
    }
    total += local;
    grads->AddAndZero(&part);
  }
  return total * extrapolate;
}

// The L2 entry loop and the Hausdorff minibatch merge only the rows their
// shards marked (ShardRowGrads). An epoch's gradients, L2 then the head
// into buffers that start at +0.0 as the trainer's do, must equal the
// full-buffer merges' byte for byte at any thread count: on a one-hot
// init (whole rows of exact zeros), at one shard, two shards and the
// 16-shard cap, over calls whose rotation revisits users. After every
// call each kept buffer is all +0.0 and unmarked.
TEST(LossDeterminismTest, TouchedRowMergesMatchFullBufferMerges) {
  ThreadGuard guard;
  const World w = MakeWorld();
  TcssConfig cfg;
  cfg.init = InitMethod::kOneHot;
  cfg.hausdorff_pool = 64;
  cfg.max_friend_pois = 32;
  const SparseTensor two = RandomTensor(60, 50, 12, 2600, 71);
  const SparseTensor cap = RandomTensor(400, 300, 12, 40000, 72);
  ASSERT_GE(two.nnz(), 2048u);
  ASSERT_LT(two.nnz(), 3072u);
  ASSERT_GE(cap.nnz(), 16384u);
  for (const SparseTensor* x : {&w.train, &two, &cap}) {
    const FactorModel model = InitializeFactors(*x, cfg).MoveValue();
    RewrittenLoss ref_loss(cfg.w_pos, cfg.w_neg);
    FactorGrads ref(model);
    const double ref_val = FullMergeRewritten(&ref_loss, *x, model, cfg, &ref);
    for (int threads : {1, 2, 3, 8}) {
      SetGlobalThreads(threads);
      RewrittenLoss loss(cfg.w_pos, cfg.w_neg);
      for (int call = 0; call < 2; ++call) {
        FactorGrads got(model);
        EXPECT_EQ(ref_val, loss.ComputeWithGrads(model, *x, &got))
            << x->nnz() << " nnz @" << threads;
        EXPECT_TRUE(BitIdentical(ref, got))
            << x->nnz() << " nnz @" << threads << " call " << call;
        EXPECT_TRUE(ScratchClear(loss)) << x->nnz() << " nnz @" << threads;
      }
    }
  }

  // The head's eligible users, in the order its rotation walks them.
  const FactorModel model = InitializeFactors(w.train, cfg).MoveValue();
  std::vector<uint32_t> eligible;
  {
    const SocialHausdorffLoss sets(w.data, w.train, cfg);
    for (uint32_t u = 0; u < w.train.dim_i(); ++u) {
      if (!sets.candidate_pool(u).empty() && !sets.friend_pois(u).empty()) {
        eligible.push_back(u);
      }
    }
    ASSERT_EQ(eligible.size(), sets.num_eligible_users());
  }
  ASSERT_LT(40u, eligible.size());
  ASSERT_GT(3 * 40u, eligible.size());  // three calls of 40 revisit users
  for (size_t batch : {2, 40}) {
    cfg.hausdorff_users_per_epoch = batch;
    const SocialHausdorffLoss ref_head(w.data, w.train, cfg);
    RewrittenLoss ref_l2(cfg.w_pos, cfg.w_neg);
    for (int threads : {1, 2, 3, 8}) {
      SetGlobalThreads(threads);
      RewrittenLoss l2(cfg.w_pos, cfg.w_neg);
      SocialHausdorffLoss head(w.data, w.train, cfg);
      for (int call = 0; call < 3; ++call) {
        const size_t rotation = head.rotation();
        FactorGrads want(model);
        const double want_l2 =
            FullMergeRewritten(&ref_l2, w.train, model, cfg, &want);
        const double want_head =
            FullMergeHead(ref_head, eligible, model, cfg, rotation, &want);
        FactorGrads got(model);
        EXPECT_EQ(want_l2, l2.ComputeWithGrads(model, w.train, &got));
        EXPECT_EQ(want_head, head.ComputeWithGrads(model, cfg.lambda, &got))
            << "batch " << batch << " @" << threads << " call " << call;
        EXPECT_TRUE(BitIdentical(want, got))
            << "batch " << batch << " @" << threads << " call " << call;
        EXPECT_TRUE(ScratchClear(head))
            << "batch " << batch << " @" << threads << " call " << call;
        EXPECT_TRUE(ScratchClear(l2));
      }
    }
  }
}

TEST(LossDeterminismTest, UnderDrawnNegativesAreRescaled) {
  ThreadGuard guard;
  SetGlobalThreads(2);
  // 8x8x8 tensor with every cell observed except (7,7,7): the rejection
  // sampler can only ever accept that one free cell, so it exhausts its
  // guard far short of the nnz=511 negatives it wants. The w- term must
  // be rescaled by want/drawn, keeping the loss at what a full draw of
  // 511 negatives would produce (every negative scores the same y here).
  SparseTensor dense(8, 8, 8);
  for (uint32_t i = 0; i < 8; ++i) {
    for (uint32_t j = 0; j < 8; ++j) {
      for (uint32_t k = 0; k < 8; ++k) {
        if (i == 7 && j == 7 && k == 7) continue;
        ASSERT_TRUE(dense.Add(i, j, k, 1.0).ok());
      }
    }
  }
  ASSERT_TRUE(dense.Finalize().ok());
  ASSERT_EQ(dense.nnz(), 511u);

  // Rank-1 all-ones model with h = c: Predict == c for every cell.
  const double c = 0.25;
  FactorModel model;
  model.u1.Resize(8, 1, 1.0);
  model.u2.Resize(8, 1, 1.0);
  model.u3.Resize(8, 1, 1.0);
  model.h = {c};

  const double w_pos = 0.95, w_neg = 0.05;
  NegativeSamplingLoss loss(w_pos, w_neg, 99);
  FactorGrads grads(model);
  const double value = loss.ComputeWithGrads(model, dense, &grads);

  const double pos_term =
      511.0 * (w_pos * (c - 1.0) * (c - 1.0));
  const double neg_term = 511.0 * w_neg * c * c;  // want * w- * y^2
  EXPECT_NEAR(value, pos_term + neg_term, 1e-9 * (pos_term + neg_term));
}

// A loss object keeps its shard buffers between calls. Calls on one object
// whose model values, shape, rank and thread count change from call to
// call must match calls on fresh objects bit for bit: kept buffers start
// every shard from +0.0 and are re-made for a new shape.
TEST(LossDeterminismTest, KeptShardBuffersMatchFreshLossObjects) {
  ThreadGuard guard;
  const World w = MakeWorld();
  TcssConfig cfg;
  const SparseTensor cap = RandomTensor(400, 300, 12, 40000, 51);
  const SparseTensor other = RandomTensor(300, 500, 7, 30000, 52);
  struct Step {
    const SparseTensor* x;
    size_t rank;
    uint64_t seed;
    int threads;
  };
  const std::vector<Step> steps = {{&cap, 10, 1, 8},   {&cap, 10, 2, 1},
                                   {&cap, 10, 3, 8},   {&other, 10, 4, 3},
                                   {&cap, 7, 5, 8},    {&w.train, 10, 6, 2}};
  RewrittenLoss rewritten(cfg.w_pos, cfg.w_neg);
  NegativeSamplingLoss sampled(cfg.w_pos, cfg.w_neg, 99);
  for (const Step& step : steps) {
    SetGlobalThreads(step.threads);
    const FactorModel model = RandomModel(*step.x, step.rank, step.seed);
    {
      FactorGrads kept = Prefilled(model, step.seed + 10);
      FactorGrads fresh = Prefilled(model, step.seed + 10);
      RewrittenLoss once(cfg.w_pos, cfg.w_neg);
      EXPECT_EQ(rewritten.ComputeWithGrads(model, *step.x, &kept),
                once.ComputeWithGrads(model, *step.x, &fresh))
          << "seed " << step.seed;
      EXPECT_TRUE(BitIdentical(kept, fresh)) << "seed " << step.seed;
    }
    {
      FactorGrads kept = Prefilled(model, step.seed + 20);
      FactorGrads fresh = Prefilled(model, step.seed + 20);
      NegativeSamplingLoss once(cfg.w_pos, cfg.w_neg, 99);
      once.set_sampler_state(sampled.sampler_state());
      EXPECT_EQ(sampled.ComputeWithGrads(model, *step.x, &kept),
                once.ComputeWithGrads(model, *step.x, &fresh))
          << "seed " << step.seed;
      EXPECT_TRUE(BitIdentical(kept, fresh)) << "seed " << step.seed;
    }
  }

  // The head is bound to one tensor; its model's values, rank and the
  // thread count change between calls. 48 users make the 16-shard cap.
  cfg.hausdorff_pool = 64;
  cfg.max_friend_pois = 32;
  cfg.hausdorff_users_per_epoch = 48;
  SocialHausdorffLoss head(w.data, w.train, cfg);
  for (const Step& step : steps) {
    if (step.x != &cap) continue;
    SetGlobalThreads(step.threads);
    const FactorModel model = RandomModel(w.train, step.rank, step.seed);
    SocialHausdorffLoss once(w.data, w.train, cfg);
    once.set_rotation(head.rotation());
    FactorGrads kept = Prefilled(model, step.seed + 30);
    FactorGrads fresh = Prefilled(model, step.seed + 30);
    EXPECT_EQ(head.ComputeWithGrads(model, cfg.lambda, &kept),
              once.ComputeWithGrads(model, cfg.lambda, &fresh))
        << "seed " << step.seed;
    EXPECT_TRUE(BitIdentical(kept, fresh)) << "seed " << step.seed;
  }
}

// train.l2.scratch_bytes and train.hausdorff.scratch_bytes report the
// shard buffers each site keeps: min(shards, threads) of them after one
// call with gradients.
TEST(LossDeterminismTest, ScratchGaugesCountKeptBuffers) {
  ThreadGuard guard;
  World w = MakeWorld();
  obs::MetricRegistry* reg = obs::MetricRegistry::Global();
  obs::Gauge* l2 = reg->GetGauge("train.l2.scratch_bytes");
  obs::Gauge* head_gauge = reg->GetGauge("train.hausdorff.scratch_bytes");
  TcssConfig cfg;
  cfg.hausdorff_pool = 64;
  cfg.max_friend_pois = 32;
  cfg.hausdorff_users_per_epoch = 48;
  // 16 shards at every site: >= 16384 entries for the CSF loop and the
  // positives, >= 4096 for the negatives, 48 users for the head.
  const SparseTensor cap = RandomTensor(400, 300, 12, 40000, 61);
  ASSERT_GE(cap.nnz(), 16384u);
  for (int threads : {1, 8}) {
    SetGlobalThreads(threads);
    const double width = std::min(16, threads);
    const FactorModel model = RandomModel(cap, cfg.rank, 62);
    FactorGrads grads(model);
    const double full = static_cast<double>(grads.bytes());
    ASSERT_EQ(grads.bytes(),
              (400 + 300 + 12 + 1) * cfg.rank * sizeof(double));
    RewrittenLoss rewritten(cfg.w_pos, cfg.w_neg);
    (void)rewritten.ComputeWithGrads(model, cap, &grads);
    EXPECT_EQ(l2->Value(), width * static_cast<double>(
                                       (300 + 12 + 1) * cfg.rank *
                                       sizeof(double)))
        << threads << " threads";
    NegativeSamplingLoss sampled(cfg.w_pos, cfg.w_neg, 99);
    (void)sampled.ComputeWithGrads(model, cap, &grads);
    EXPECT_EQ(l2->Value(), 2 * width * full) << threads << " threads";

    const FactorModel user_model = RandomModel(w.train, cfg.rank, 63);
    FactorGrads user_grads(user_model);
    SocialHausdorffLoss head(w.data, w.train, cfg);
    (void)head.ComputeWithGrads(user_model, cfg.lambda, &user_grads);
    EXPECT_EQ(head_gauge->Value(),
              width * static_cast<double>(user_grads.bytes()))
        << threads << " threads";
  }
}

// Shard buffers keep their small U3 and h blocks off each other's cache
// lines: however the allocator places them, no 64-byte line holds values
// of two buffers' U3 or h.
TEST(LossDeterminismTest, ShardBuffersShareNoSmallBlockCacheLine) {
  const SparseTensor shape(25, 30, 3);
  for (size_t r : {size_t{1}, size_t{7}, size_t{10}}) {
    const FactorModel model = RandomModel(shape, r, 81);
    std::vector<FactorGrads> buffers;
    for (int b = 0; b < 16; ++b) {
      buffers.push_back(ShardGrads(model, /*with_u1=*/b % 2 == 0));
    }
    std::vector<std::pair<uintptr_t, uintptr_t>> lines;  // first, last
    for (size_t b = 0; b < buffers.size(); ++b) {
      const FactorGrads& g = buffers[b];
      EXPECT_EQ(g.u1.size(), b % 2 == 0 ? model.u1.size() : size_t{0});
      EXPECT_EQ(g.u2.rows(), model.u2.rows());
      EXPECT_EQ(g.u3.rows(), model.u3.rows());
      EXPECT_EQ(g.u3.cols(), r);
      EXPECT_EQ(g.h.size(), r);
      EXPECT_TRUE(std::all_of(g.h.begin(), g.h.end(),
                              [](double v) { return v == 0.0; }));
      EXPECT_EQ(g.u3.MaxAbs(), 0.0);
      for (auto [p, n] : {std::pair<const double*, size_t>{g.u3.data(),
                                                           g.u3.size()},
                          std::pair<const double*, size_t>{g.h.data(),
                                                           g.h.size()}}) {
        const auto at = reinterpret_cast<uintptr_t>(p);
        lines.push_back({at / 64, (at + n * sizeof(double) - 1) / 64});
      }
    }
    for (size_t a = 0; a < lines.size(); ++a) {
      for (size_t b = a + 1; b < lines.size(); ++b) {
        if (a / 2 == b / 2) continue;  // one buffer's U3 and h
        EXPECT_TRUE(lines[a].second < lines[b].first ||
                    lines[b].second < lines[a].first)
            << "rank " << r << ": blocks " << a << " and " << b;
      }
    }
  }
}

// AdamStep runs its row ranges in parallel: the same bytes at any thread
// count, on factors taller than one row range.
TEST(KernelDeterminismTest, AdamStepBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const SparseTensor x(5000, 2100, 12);
  const FactorModel model = RandomModel(x, 10, 71);
  const FactorGrads grads = Prefilled(model, 72);
  std::string ref;
  for (int threads : {1, 2, 3, 8}) {
    SetGlobalThreads(threads);
    TrainerCheckpoint state(model);
    for (int step = 0; step < 3; ++step) {
      AdamStep(grads, 0.01, &state);
    }
    const std::string bytes = SerializeFactorModel(state.model);
    if (threads == 1) {
      ref = bytes;
    } else {
      EXPECT_EQ(ref, bytes) << threads << " threads";
    }
  }
}

// --------------------------------------------------------------------------
// End-to-end: byte-identical models at any thread count
// --------------------------------------------------------------------------

std::string TrainToBytes(const World& w, TcssConfig cfg, int threads) {
  cfg.num_threads = threads;
  TcssTrainer trainer(w.data, w.train, cfg);
  auto result = trainer.Train();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return "";
  return SerializeFactorModel(result.value());
}

TEST(TrainingDeterminismTest, RewrittenModeByteIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 6;
  cfg.hausdorff_pool = 64;
  cfg.max_friend_pois = 32;
  cfg.hausdorff_users_per_epoch = 32;
  const std::string one = TrainToBytes(w, cfg, 1);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, TrainToBytes(w, cfg, 2));
  EXPECT_EQ(one, TrainToBytes(w, cfg, 3));
  EXPECT_EQ(one, TrainToBytes(w, cfg, 8));
}

TEST(TrainingDeterminismTest,
     NegativeSamplingModeByteIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 6;
  cfg.loss_mode = LossMode::kNegativeSampling;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;
  const std::string one = TrainToBytes(w, cfg, 1);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, TrainToBytes(w, cfg, 2));
  EXPECT_EQ(one, TrainToBytes(w, cfg, 3));
  EXPECT_EQ(one, TrainToBytes(w, cfg, 8));
}

// The observability contract: metrics only observe, they never feed back
// into computation. A run with telemetry fully disabled must produce the
// same model bytes as instrumented runs at every thread count.
TEST(TrainingDeterminismTest, MetricsDoNotPerturbTrainedBytes) {
  ThreadGuard guard;
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 6;
  cfg.hausdorff_pool = 64;
  cfg.max_friend_pois = 32;
  cfg.hausdorff_users_per_epoch = 32;

  obs::SetMetricsEnabled(false);
  const std::string metrics_off = TrainToBytes(w, cfg, 1);
  obs::SetMetricsEnabled(true);
  ASSERT_FALSE(metrics_off.empty());

  EXPECT_EQ(metrics_off, TrainToBytes(w, cfg, 1));
  EXPECT_EQ(metrics_off, TrainToBytes(w, cfg, 2));
  EXPECT_EQ(metrics_off, TrainToBytes(w, cfg, 8));
}

TEST(TrainingDeterminismTest, NegativeSamplingKillAndResumeIsBitIdentical) {
  ThreadGuard guard;
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 8;
  cfg.loss_mode = LossMode::kNegativeSampling;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;

  // Reference: uninterrupted run.
  std::string reference;
  {
    TcssTrainer trainer(w.data, w.train, cfg);
    auto result = trainer.Train();
    ASSERT_TRUE(result.ok());
    reference = SerializeFactorModel(result.value());
  }

  // Interrupted run: train the full 8 epochs with snapshots, then delete
  // the final checkpoint to simulate a crash after epoch 4 (training to
  // epoch 4 with cfg.epochs=4 would change the LR schedule, which scales
  // with the total epoch count). Resuming in a fresh trainer must replay
  // epochs 5..8 bit-exactly; without the persisted sampler call counter
  // the resumed epochs would redraw epoch 1..4's negatives and diverge
  // from the reference bytes.
  const std::string dir =
      ::testing::TempDir() + "/tcss_neg_sampling_resume";
  std::filesystem::remove_all(dir);
  CheckpointOptions copts;
  copts.dir = dir;
  copts.every = 4;
  copts.retain = 10;
  CheckpointManager mgr(copts);
  ASSERT_TRUE(mgr.Init().ok());
  {
    TcssTrainer trainer(w.data, w.train, cfg);
    TrainOptions topts;
    topts.checkpoints = &mgr;
    ASSERT_TRUE(trainer.Train(topts, nullptr).ok());
  }
  // The resumed run must rewrite the deleted snapshot byte for byte —
  // model, Adam state, epoch, sampler counter and lr_scale, not only the
  // factors it returns.
  const std::string final_ckpt = dir + "/ckpt-000008.tckp";
  auto final_bytes = Env::Default()->ReadFileToString(final_ckpt);
  ASSERT_TRUE(final_bytes.ok());
  ASSERT_TRUE(std::filesystem::remove(final_ckpt));
  {
    TcssTrainer trainer(w.data, w.train, cfg);
    TrainOptions topts;
    topts.checkpoints = &mgr;
    topts.resume = true;
    int first_epoch = 0;
    auto result = trainer.Train(
        topts, [&first_epoch](const EpochStats& s, const FactorModel&) {
          if (first_epoch == 0) first_epoch = s.epoch;
        });
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(first_epoch, 5);
    EXPECT_EQ(reference, SerializeFactorModel(result.value()));
  }
  auto rewritten = Env::Default()->ReadFileToString(final_ckpt);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(), final_bytes.value());
  auto final_state = ParseCheckpoint(rewritten.value());
  ASSERT_TRUE(final_state.ok());
  EXPECT_GT(final_state.value().sampler_state, 0u);
}

}  // namespace
}  // namespace tcss
