// Distributed training suite (ctest label "dist"): the partition chaos
// harness and the differential gates of the coordinator/worker engine
// (src/dist, DESIGN.md §11).
//
//  * Units: row partition coverage, tensor slicing, sliced factor init,
//    the streamed generator's slice-concat identity, wire round-trips and
//    strict-parse rejection.
//  * Differential gates: a W=1 distributed run is bitwise identical to
//    TcssTrainer (same model bytes, same per-epoch loss bytes); W>=2 runs
//    are run-to-run bitwise reproducible and match the single-process
//    trajectory to <= 1e-12 per element (reduction-order effects only).
//  * Chaos: deterministic worker kill-and-restart resumes bit-identically
//    from the newest common shard checkpoint; a transient wire fault
//    (FaultInjectionEnv) triggers reconnect/recovery without changing the
//    final bytes; split reads exercise frame reassembly end to end; a
//    permanent partition aborts in bounded time instead of hanging.
//  * A multi-process smoke (gated on TCSS_CLI_PATH) SIGKILLs a real
//    worker process mid-run and verifies the restarted fleet converges to
//    the exact bytes of an uninterrupted run.
//
// tools/check.sh runs this suite in the plain and TSan stages.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/fault_env.h"
#include "common/strings.h"
#include "core/trainer.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"
#include "core/spectral_init.h"
#include "dist/coordinator.h"
#include "dist/partition.h"
#include "dist/wire.h"
#include "dist/worker.h"

namespace tcss {
namespace {

// ------------------------------------------------------------------------
// Shared fixtures and helpers
// ------------------------------------------------------------------------

struct World {
  Dataset data;
  SparseTensor train;
};

const World& SmallWorld() {
  static World* world = [] {
    auto data =
        GenerateSyntheticLbsn(PresetConfig(SyntheticPreset::kGowallaLike, 0.2));
    EXPECT_TRUE(data.ok()) << data.status().ToString();
    TrainTestSplit split = SplitCheckins(data.value(), 0.8, 3);
    auto train = BuildCheckinTensor(data.value(), split.train,
                                    TimeGranularity::kMonthOfYear);
    EXPECT_TRUE(train.ok()) << train.status().ToString();
    return new World{data.MoveValue(), train.MoveValue()};
  }();
  return *world;
}

/// The distributed-trainable config every engine test uses: decomposable
/// loss, no cross-shard Hausdorff coupling, seedable init, one compute
/// thread (the suite runs under TSan too).
TcssConfig DistConfig(int epochs = 12) {
  TcssConfig cfg;
  cfg.rank = 4;
  cfg.epochs = epochs;
  cfg.lambda = 0.0;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.init = InitMethod::kRandom;
  cfg.loss_mode = LossMode::kRewritten;
  cfg.temporal_smoothness = 0.05;
  cfg.num_threads = 1;
  cfg.seed = 13;
  return cfg;
}

/// Short unique socket path (sun_path caps at ~100 bytes, so TempDir is
/// not an option).
std::string SockPath(const char* tag) {
  static std::atomic<int> counter{0};
  return StrFormat("/tmp/tcssd-%d-%s-%d.sock", static_cast<int>(getpid()),
                   tag, counter.fetch_add(1));
}

std::string ScratchDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("tcss_dist_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

bool BitIdentical(const FactorModel& a, const FactorModel& b) {
  return a.h == b.h && BitIdentical(a.u1, b.u1) && BitIdentical(a.u2, b.u2) &&
         BitIdentical(a.u3, b.u3);
}

/// One in-process distributed run: the coordinator and every worker on
/// their own threads over a real unix-domain socket. Workers whose
/// simulated-SIGKILL flag fired are restarted once with a fresh DistWorker
/// over the same checkpoint directory — the in-process equivalent of a
/// supervisor restarting a dead process.
struct DistRun {
  Status coordinator_status = Status::OK();
  FactorModel model;
  DistCoordinatorStats cstats;
  std::vector<Status> worker_status;
  std::vector<DistWorkerStats> wstats;
  std::vector<EpochStats> epochs;

  bool ok() const {
    if (!coordinator_status.ok()) return false;
    for (const Status& s : worker_status) {
      if (!s.ok()) return false;
    }
    return true;
  }
};

struct DistRunSpec {
  int num_workers = 1;
  /// Per-rank option tweaks (checkpoint dir, fault env, kill hooks...).
  std::function<void(int, DistWorkerOptions*)> tweak_worker;
  std::function<void(DistCoordinatorOptions*)> tweak_coordinator;
  /// Rank -> simulated-SIGKILL flag; such ranks restart once after dying.
  std::map<int, std::atomic<bool>*> kill_flags;
};

DistRun RunDist(const TcssConfig& cfg, const SparseTensor& full,
                const DistRunSpec& spec) {
  DistRun out;
  const size_t I = full.dim_i(), J = full.dim_j(), K = full.dim_k();
  const RowPartition part(I, spec.num_workers);

  std::vector<SparseTensor> slices;
  slices.reserve(spec.num_workers);
  for (int r = 0; r < spec.num_workers; ++r) {
    auto slice = SliceTensorRows(full, part.Begin(r), part.End(r));
    if (!slice.ok()) {
      ADD_FAILURE() << slice.status().ToString();
      out.coordinator_status = slice.status();
      return out;
    }
    slices.push_back(slice.MoveValue());
  }

  DistCoordinatorOptions copts;
  copts.num_workers = spec.num_workers;
  copts.socket_path = SockPath("run");
  copts.heartbeat_timeout_ms = 2000;
  copts.straggler_warn_ms = 250;
  copts.world_timeout_ms = 20000;
  if (spec.tweak_coordinator) spec.tweak_coordinator(&copts);

  DistCoordinator coordinator(cfg, I, J, K, copts);

  out.worker_status.assign(spec.num_workers, Status::OK());
  out.wstats.assign(spec.num_workers, DistWorkerStats{});
  std::vector<std::thread> threads;
  threads.reserve(spec.num_workers);
  for (int r = 0; r < spec.num_workers; ++r) {
    DistWorkerOptions wopts;
    wopts.rank = r;
    wopts.num_workers = spec.num_workers;
    wopts.socket_path = copts.socket_path;
    wopts.heartbeat_interval_ms = 50;
    if (spec.tweak_worker) spec.tweak_worker(r, &wopts);
    std::atomic<bool>* kill = nullptr;
    auto it = spec.kill_flags.find(r);
    if (it != spec.kill_flags.end()) kill = it->second;
    threads.emplace_back([&out, r, cfg, I, J, K,
                          local = std::move(slices[r]), wopts,
                          kill]() mutable {
      {
        DistWorker worker(cfg, I, J, K, local, wopts);
        out.worker_status[r] = worker.Run();
        out.wstats[r] = worker.stats();
        if (out.worker_status[r].ok() || kill == nullptr || !kill->load()) {
          return;
        }
      }
      // The simulated SIGKILL fired: restart, as a supervisor would. The
      // fresh DistWorker rebuilds everything from the checkpoint dir — the
      // dead instance's memory is gone, exactly like a real process death.
      kill->store(false);
      DistWorker worker(cfg, I, J, K, std::move(local), wopts);
      out.worker_status[r] = worker.Run();
      const DistWorkerStats& second = worker.stats();
      out.wstats[r].epochs_computed += second.epochs_computed;
      out.wstats[r].steps_applied += second.steps_applied;
      out.wstats[r].checkpoints += second.checkpoints;
      out.wstats[r].reloads += second.reloads;
      out.wstats[r].rollbacks += second.rollbacks;
      out.wstats[r].reconnects += second.reconnects;
    });
  }

  // The coordinator runs on this thread: every epoch_callback a test
  // installs fires here, sequenced with the assertions that follow.
  auto result = coordinator.Run();
  for (std::thread& t : threads) t.join();
  out.cstats = coordinator.stats();
  if (result.ok()) {
    out.model = result.MoveValue();
  } else {
    out.coordinator_status = result.status();
  }
  return out;
}

// ------------------------------------------------------------------------
// RowPartition / SliceTensorRows / InitializeFactorRows
// ------------------------------------------------------------------------

TEST(RowPartitionTest, CoversRowsContiguouslyWithBalancedBlocks) {
  for (size_t rows : {0u, 1u, 7u, 100u, 101u}) {
    for (int world : {1, 2, 3, 8}) {
      const RowPartition part(rows, world);
      size_t total = 0, max_count = 0, min_count = rows + 1;
      EXPECT_EQ(part.Begin(0), 0u);
      EXPECT_EQ(part.End(world - 1), rows);
      for (int r = 0; r < world; ++r) {
        EXPECT_EQ(part.End(r), r + 1 < world ? part.Begin(r + 1) : rows);
        total += part.Count(r);
        max_count = std::max(max_count, part.Count(r));
        min_count = std::min(min_count, part.Count(r));
      }
      EXPECT_EQ(total, rows) << "rows=" << rows << " world=" << world;
      EXPECT_LE(max_count - min_count, 1u);
    }
  }
}

TEST(SliceTensorRowsTest, SliceConcatEqualsFullTensor) {
  const SparseTensor& full = SmallWorld().train;
  const RowPartition part(full.dim_i(), 3);
  size_t seen = 0;
  for (int r = 0; r < 3; ++r) {
    auto slice = SliceTensorRows(full, part.Begin(r), part.End(r));
    ASSERT_TRUE(slice.ok());
    EXPECT_EQ(slice.value().dim_i(), part.Count(r));
    EXPECT_EQ(slice.value().dim_j(), full.dim_j());
    EXPECT_EQ(slice.value().dim_k(), full.dim_k());
    for (const TensorEntry& e : slice.value().entries()) {
      const TensorEntry& g = full.entries()[seen++];
      EXPECT_EQ(e.i + part.Begin(r), g.i);
      EXPECT_EQ(e.j, g.j);
      EXPECT_EQ(e.k, g.k);
      EXPECT_EQ(e.value, g.value);
    }
  }
  EXPECT_EQ(seen, full.nnz());
}

TEST(SliceTensorRowsTest, RejectsBadRangesAndUnfinalizedInput) {
  const SparseTensor& full = SmallWorld().train;
  EXPECT_FALSE(SliceTensorRows(full, 5, 4).ok());
  EXPECT_FALSE(SliceTensorRows(full, 0, full.dim_i() + 1).ok());
  SparseTensor raw(4, 4, 4);
  ASSERT_TRUE(raw.Add(0, 0, 0).ok());
  EXPECT_FALSE(SliceTensorRows(raw, 0, 2).ok());
}

TEST(ValidateDistConfigTest, EnforcesDecomposability) {
  std::string why;
  TcssConfig good = DistConfig();
  EXPECT_TRUE(ValidateDistConfig(good, 2, &why)) << why;
  EXPECT_TRUE(ValidateDistConfig(good, 1, &why)) << why;

  TcssConfig sampling = good;
  sampling.loss_mode = LossMode::kNegativeSampling;
  EXPECT_FALSE(ValidateDistConfig(sampling, 2, &why));

  TcssConfig social = good;
  social.lambda = 0.1;
  social.hausdorff = HausdorffMode::kSocial;
  EXPECT_FALSE(ValidateDistConfig(social, 2, &why));

  TcssConfig spectral = good;
  spectral.init = InitMethod::kSpectral;
  EXPECT_FALSE(ValidateDistConfig(spectral, 2, &why));
  // W == 1 trains on the full tensor, so spectral init stays available.
  EXPECT_TRUE(ValidateDistConfig(spectral, 1, &why)) << why;
}

TEST(InitializeFactorRowsTest, MatchesFullInitBitwise) {
  const size_t I = 25, J = 9, K = 5;
  for (InitMethod init : {InitMethod::kRandom, InitMethod::kOneHot}) {
    TcssConfig cfg = DistConfig();
    cfg.init = init;
    // The full-model reference init, via a tensor with those dims.
    SparseTensor t(I, J, K);
    ASSERT_TRUE(t.Add(0, 0, 0).ok());
    ASSERT_TRUE(t.Finalize().ok());
    auto full = InitializeFactors(t, cfg);
    ASSERT_TRUE(full.ok());
    const RowPartition part(I, 3);
    for (int r = 0; r < 3; ++r) {
      auto sliced =
          InitializeFactorRows(cfg, I, J, K, part.Begin(r), part.End(r));
      ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
      EXPECT_EQ(sliced.value().u1.rows(), part.Count(r));
      for (size_t i = 0; i < part.Count(r); ++i) {
        for (size_t c = 0; c < cfg.rank; ++c) {
          EXPECT_EQ(sliced.value().u1.row(i)[c],
                    full.value().u1.row(part.Begin(r) + i)[c])
              << "init=" << InitMethodName(init) << " rank " << r;
        }
      }
      EXPECT_TRUE(BitIdentical(sliced.value().u2, full.value().u2));
      EXPECT_TRUE(BitIdentical(sliced.value().u3, full.value().u3));
      EXPECT_EQ(sliced.value().h, full.value().h);
    }
  }
  TcssConfig spectral = DistConfig();
  spectral.init = InitMethod::kSpectral;
  EXPECT_FALSE(InitializeFactorRows(spectral, I, J, K, 0, I).ok());
  EXPECT_FALSE(InitializeFactorRows(DistConfig(), I, J, K, 5, I + 1).ok());
}

TEST(DistFingerprintTest, SeparatesIncompatibleRuns) {
  TcssConfig cfg = DistConfig();
  const uint64_t base = DistFingerprint(cfg, 100, 50, 12, 2);
  EXPECT_EQ(base, DistFingerprint(cfg, 100, 50, 12, 2));
  EXPECT_NE(base, DistFingerprint(cfg, 101, 50, 12, 2));
  EXPECT_NE(base, DistFingerprint(cfg, 100, 50, 12, 3));
  TcssConfig other = cfg;
  other.learning_rate *= 2.0;
  EXPECT_NE(base, DistFingerprint(other, 100, 50, 12, 2));
  other = cfg;
  other.seed += 1;
  EXPECT_NE(base, DistFingerprint(other, 100, 50, 12, 2));
}

// ------------------------------------------------------------------------
// Streamed generator
// ------------------------------------------------------------------------

TEST(StreamedSliceTest, SliceConcatEqualsFullGeneration) {
  StreamedTensorConfig cfg;
  cfg.seed = 99;
  cfg.num_users = 200;
  cfg.num_pois = 50;
  cfg.num_bins = 6;
  cfg.mean_checkins = 10.0;
  auto full = GenerateStreamedSlice(cfg, 0, cfg.num_users);
  ASSERT_TRUE(full.ok());
  EXPECT_GT(full.value().nnz(), 0u);
  size_t seen = 0;
  const size_t cuts[] = {0, 70, 140, cfg.num_users};
  for (int s = 0; s < 3; ++s) {
    auto slice = GenerateStreamedSlice(cfg, cuts[s], cuts[s + 1]);
    ASSERT_TRUE(slice.ok());
    EXPECT_EQ(slice.value().dim_i(), cuts[s + 1] - cuts[s]);
    for (const TensorEntry& e : slice.value().entries()) {
      const TensorEntry& g = full.value().entries()[seen++];
      EXPECT_EQ(e.i + cuts[s], g.i);
      EXPECT_EQ(e.j, g.j);
      EXPECT_EQ(e.k, g.k);
      EXPECT_EQ(e.value, g.value);
    }
  }
  EXPECT_EQ(seen, full.value().nnz());

  // Regeneration is deterministic: same config, same bytes.
  auto again = GenerateStreamedSlice(cfg, 0, cfg.num_users);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value().nnz(), full.value().nnz());
  for (size_t n = 0; n < full.value().nnz(); ++n) {
    EXPECT_EQ(full.value().entries()[n].i, again.value().entries()[n].i);
    EXPECT_EQ(full.value().entries()[n].j, again.value().entries()[n].j);
    EXPECT_EQ(full.value().entries()[n].k, again.value().entries()[n].k);
  }
}

// ------------------------------------------------------------------------
// Wire protocol
// ------------------------------------------------------------------------

std::vector<DistMsg> RepresentativeMessages() {
  std::vector<DistMsg> msgs;
  {
    DistMsg m;
    m.type = DistMsgType::kHello;
    m.gen = 3;
    m.rank = 1;
    m.num_workers = 4;
    m.fingerprint = 0xdeadbeefcafef00dull;
    m.ckpt_epochs = {5, 10, 15};
    msgs.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kStart;
    m.gen = 7;
    m.epoch = 15;
    msgs.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kGrad;
    m.gen = 7;
    m.epoch = 16;
    m.loss = 123.25;
    m.grad_maxabs = 0.5;
    m.lr_scale = 0.25;
    m.u2 = {1.0, -2.0, 3.5};
    m.u3 = {0.0, -0.0};
    m.h = {1e-300};
    m.u3_replica = {4.0, 5.0};
    msgs.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kReduced;
    m.gen = 7;
    m.epoch = 16;
    m.action = kActionStep;
    m.flags = kFlagCheckpoint | kFlagLastEpoch;
    m.lr = 0.0625;
    m.lr_scale = 0.25;
    m.u2 = {2.0};
    m.u3 = {3.0};
    m.h = {4.0};
    msgs.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kHeartbeat;
    m.gen = 9;
    msgs.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kCkptAck;
    m.gen = 9;
    m.epoch = 20;
    msgs.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kFinal;
    m.gen = 9;
    m.epoch = 40;
    m.u1 = {1.5, 2.5, 3.5, 4.5};
    m.u2 = {1.0};
    m.u3 = {2.0};
    m.h = {3.0};
    msgs.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kShutdown;
    m.gen = 9;
    msgs.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kReport;
    m.gen = 10;
    msgs.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kAbort;
    m.gen = 10;
    m.text = "fingerprint mismatch";
    msgs.push_back(m);
  }
  return msgs;
}

void ExpectSameMsg(const DistMsg& a, const DistMsg& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.gen, b.gen);
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.num_workers, b.num_workers);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.ckpt_epochs, b.ckpt_epochs);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.lr, b.lr);
  EXPECT_EQ(a.lr_scale, b.lr_scale);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.grad_maxabs, b.grad_maxabs);
  EXPECT_EQ(a.u1, b.u1);
  EXPECT_EQ(a.u2, b.u2);
  EXPECT_EQ(a.u3, b.u3);
  EXPECT_EQ(a.h, b.h);
  EXPECT_EQ(a.u3_replica, b.u3_replica);
  EXPECT_EQ(a.text, b.text);
}

TEST(DistWireTest, EveryMessageTypeRoundTripsExactly) {
  for (const DistMsg& m : RepresentativeMessages()) {
    auto parsed = ParseDistMsg(EncodeDistMsg(m));
    ASSERT_TRUE(parsed.ok())
        << DistMsgTypeName(m.type) << ": " << parsed.status().ToString();
    ExpectSameMsg(m, parsed.value());
  }
}

// Hex of a byte string, for comparing against golden encodings.
std::string Hex(std::string_view bytes) {
  std::string out;
  for (unsigned char c : bytes) out += StrFormat("%02x", c);
  return out;
}

// EncodeDistMsg bytes of RepresentativeMessages(), one per type, taken
// from the build before the byte codec moved to common/codec.h: sharing
// the codec must not move a byte of the wire.
TEST(DistWireTest, EncodingMatchesGoldenBytes) {
  const char* const golden[] = {
      // hello
      "010300000001000000040000000df0fecaefbeadde03000000050000000a0000"
      "000f000000",
      // start
      "02070000000f000000",
      // grad
      "0307000000100000000000000000d05e40000000000000e03f000000000000d0"
      "3f03000000000000000000f03f00000000000000c00000000000000c40020000"
      "00000000000000000000000000000000800100000059f3f8c21f6ea501020000"
      "0000000000000010400000000000001440",
      // reduced
      "0407000000100000000003000000000000b03f000000000000d03f0100000000"
      "00000000000040010000000000000000000840010000000000000000001040",
      // heartbeat
      "0509000000",
      // ckpt-ack
      "060900000014000000",
      // final
      "07090000002800000004000000000000000000f83f0000000000000440000000"
      "0000000c40000000000000124001000000000000000000f03f01000000000000"
      "0000000040010000000000000000000840",
      // shutdown
      "0809000000",
      // report
      "090a000000",
      // abort
      "0a0a0000001400000066696e6765727072696e74206d69736d61746368",
  };
  const std::vector<DistMsg> msgs = RepresentativeMessages();
  ASSERT_EQ(msgs.size(), std::size(golden));
  for (size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(Hex(EncodeDistMsg(msgs[i])), golden[i])
        << DistMsgTypeName(msgs[i].type);
  }
  // And one framed message, CRC trailer included.
  Frame frame;
  frame.id = msgs[2].gen;
  frame.payload = EncodeDistMsg(msgs[2]);
  EXPECT_EQ(Hex(EncodeFrame(kDistMagic, frame)),
            "5451444d0700000000000000710000000307000000100000000000000000d05e"
            "40000000000000e03f000000000000d03f03000000000000000000f03f000000"
            "00000000c00000000000000c4002000000000000000000000000000000000000"
            "800100000059f3f8c21f6ea50102000000000000000000104000000000000014"
            "401c804c0e");
}

TEST(DistWireTest, StrictParseRejectsMalformedPayloads) {
  EXPECT_FALSE(ParseDistMsg("").ok());
  EXPECT_FALSE(ParseDistMsg(std::string(1, '\x63')).ok());  // unknown type
  for (const DistMsg& m : RepresentativeMessages()) {
    const std::string good = EncodeDistMsg(m);
    // Every truncation fails (a shorter prefix can never parse: trailing
    // bytes are rejected, so a valid shorter message cannot hide inside).
    for (size_t cut = 0; cut < good.size(); ++cut) {
      EXPECT_FALSE(ParseDistMsg(std::string_view(good.data(), cut)).ok())
          << DistMsgTypeName(m.type) << " cut=" << cut;
    }
    // One trailing byte fails.
    EXPECT_FALSE(ParseDistMsg(good + 'x').ok()) << DistMsgTypeName(m.type);
  }
  // An absurd array count must be rejected before allocation.
  DistMsg hello;
  hello.type = DistMsgType::kHello;
  std::string evil = EncodeDistMsg(hello);
  // The ckpt_epochs count is the last u32 of the payload; force it huge.
  ASSERT_GE(evil.size(), 4u);
  evil[evil.size() - 1] = '\x7f';
  evil[evil.size() - 2] = '\xff';
  evil[evil.size() - 3] = '\xff';
  evil[evil.size() - 4] = '\xff';
  EXPECT_FALSE(ParseDistMsg(evil).ok());
}

TEST(DistWireTest, ReaderReassemblesSplitReadsOverRealSocket) {
  FaultInjectionEnv env(Env::Default());
  env.set_conn_read_chunk(3);  // the kernel dribbles 3 bytes at a time
  const std::string path = SockPath("wire");
  auto listener = env.NewListener(path);
  ASSERT_TRUE(listener.ok());
  std::thread client([&env, &path] {
    auto conn = env.Connect(path);
    ASSERT_TRUE(conn.ok());
    for (const DistMsg& m : RepresentativeMessages()) {
      ASSERT_TRUE(SendDistMsg(conn.value().get(), m, 2000).ok());
    }
  });
  auto server_conn = listener.value()->Accept(2000);
  ASSERT_TRUE(server_conn.ok());
  FrameReader reader(kMaxDistPayload);
  for (const DistMsg& want : RepresentativeMessages()) {
    DistMsg got;
    auto ev = ReadDistMsg(&reader, server_conn.value().get(), &got, 5000,
                          nullptr);
    ASSERT_TRUE(ev.ok()) << ev.status().ToString();
    ASSERT_EQ(ev.value(), FrameReader::Event::kFrame);
    ExpectSameMsg(want, got);
  }
  client.join();
  EXPECT_GT(env.conn_reads_attempted(), 3);
}

// ------------------------------------------------------------------------
// Differential gates: distributed vs single-process
// ------------------------------------------------------------------------

Result<FactorModel> TrainReference(const TcssConfig& cfg,
                                   std::vector<EpochStats>* epochs) {
  TcssTrainer trainer(SmallWorld().data, SmallWorld().train, cfg);
  TrainOptions topts;
  return trainer.Train(topts, [epochs](const EpochStats& s,
                                       const FactorModel&) {
    if (epochs != nullptr) epochs->push_back(s);
  });
}

TEST(DistDifferentialTest, SingleWorkerMatchesTrainerBitwise) {
  const TcssConfig cfg = DistConfig(10);
  std::vector<EpochStats> ref_epochs;
  auto ref = TrainReference(cfg, &ref_epochs);
  ASSERT_TRUE(ref.ok());

  DistRunSpec spec;
  spec.num_workers = 1;
  std::vector<EpochStats> dist_epochs;
  spec.tweak_coordinator = [&dist_epochs](DistCoordinatorOptions* o) {
    o->epoch_callback = [&dist_epochs](const EpochStats& s) {
      dist_epochs.push_back(s);
    };
  };
  DistRun run = RunDist(cfg, SmallWorld().train, spec);
  ASSERT_TRUE(run.ok()) << run.coordinator_status.ToString();

  EXPECT_TRUE(BitIdentical(run.model, ref.value()))
      << "W=1 distributed model deviates from TcssTrainer";
  ASSERT_EQ(dist_epochs.size(), ref_epochs.size());
  for (size_t e = 0; e < ref_epochs.size(); ++e) {
    EXPECT_EQ(dist_epochs[e].epoch, ref_epochs[e].epoch);
    EXPECT_EQ(dist_epochs[e].loss_l2, ref_epochs[e].loss_l2) << "epoch " << e;
    EXPECT_EQ(dist_epochs[e].loss_ts, ref_epochs[e].loss_ts) << "epoch " << e;
    EXPECT_EQ(dist_epochs[e].grad_norm, ref_epochs[e].grad_norm)
        << "epoch " << e;
    EXPECT_EQ(dist_epochs[e].lr, ref_epochs[e].lr) << "epoch " << e;
  }
}

TEST(DistDifferentialTest, TwoWorkersMatchSingleProcessWithinReduceOrder) {
  const TcssConfig cfg = DistConfig(10);
  auto ref = TrainReference(cfg, nullptr);
  ASSERT_TRUE(ref.ok());

  DistRunSpec spec;
  spec.num_workers = 2;
  DistRun run = RunDist(cfg, SmallWorld().train, spec);
  ASSERT_TRUE(run.ok()) << run.coordinator_status.ToString();

  // Only the summation order of the U2/U3/h gradient partials differs
  // (per-worker blocks instead of per-thread shards), so the trajectories
  // agree to reduction-order rounding. DESIGN.md §11 documents the bound.
  EXPECT_LE(MaxAbsDiff(run.model.u1, ref.value().u1), 1e-12);
  EXPECT_LE(MaxAbsDiff(run.model.u2, ref.value().u2), 1e-12);
  EXPECT_LE(MaxAbsDiff(run.model.u3, ref.value().u3), 1e-12);
  for (size_t t = 0; t < run.model.h.size(); ++t) {
    EXPECT_LE(std::abs(run.model.h[t] - ref.value().h[t]), 1e-12);
  }
}

TEST(DistDifferentialTest, TwoWorkerRunsAreBitwiseReproducible) {
  const TcssConfig cfg = DistConfig(8);
  DistRunSpec spec;
  spec.num_workers = 2;
  DistRun a = RunDist(cfg, SmallWorld().train, spec);
  DistRun b = RunDist(cfg, SmallWorld().train, spec);
  ASSERT_TRUE(a.ok()) << a.coordinator_status.ToString();
  ASSERT_TRUE(b.ok()) << b.coordinator_status.ToString();
  EXPECT_TRUE(BitIdentical(a.model, b.model));
}

TEST(DistDifferentialTest, ThreeWorkersHandleUnevenRowBlocks) {
  // Trim one user so I % 3 != 0 and the blocks differ in size.
  auto trimmed =
      SliceTensorRows(SmallWorld().train, 0, SmallWorld().train.dim_i() - 1);
  ASSERT_TRUE(trimmed.ok());
  const SparseTensor& full = trimmed.value();
  ASSERT_NE(full.dim_i() % 3, 0u);
  const TcssConfig cfg = DistConfig(6);
  DistRunSpec spec;
  spec.num_workers = 3;
  DistRun run = RunDist(cfg, full, spec);
  ASSERT_TRUE(run.ok()) << run.coordinator_status.ToString();
  EXPECT_EQ(run.model.u1.rows(), full.dim_i());
  EXPECT_EQ(run.model.u2.rows(), full.dim_j());
  EXPECT_EQ(run.model.u3.rows(), full.dim_k());
  for (size_t i = 0; i < run.model.u1.size(); ++i) {
    ASSERT_TRUE(std::isfinite(run.model.u1.data()[i]));
  }
  EXPECT_EQ(run.cstats.epochs, 6);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(run.wstats[r].steps_applied, 6) << "rank " << r;
  }
}

// ------------------------------------------------------------------------
// Chaos harness: kill/restart, wire faults, stragglers, partitions
// ------------------------------------------------------------------------

TEST(DistChaosTest, KilledWorkerRestartsAndResumesBitIdentically) {
  const TcssConfig cfg = DistConfig(12);
  const std::string dir = ScratchDir("kill_resume");
  auto with_ckpts = [&dir](int, DistWorkerOptions* w) {
    w->checkpoint_dir = dir;  // shard naming keeps ranks apart
    w->checkpoint_retain = 8;
  };

  // Reference: the same checkpointed run, uninterrupted.
  DistRunSpec ref_spec;
  ref_spec.num_workers = 2;
  ref_spec.tweak_worker = with_ckpts;
  ref_spec.tweak_coordinator = [](DistCoordinatorOptions* o) {
    o->checkpoint_every = 3;
  };
  DistRun ref = RunDist(cfg, SmallWorld().train, ref_spec);
  ASSERT_TRUE(ref.ok()) << ref.coordinator_status.ToString();

  // Chaos run in a fresh directory: kill rank 1 right after epoch 5's
  // step broadcast (it dies at its next gradient computation), restart it,
  // and demand the exact bytes of the uninterrupted run.
  const std::string dir2 = ScratchDir("kill_resume_chaos");
  std::atomic<bool> kill{false};
  DistRunSpec spec;
  spec.num_workers = 2;
  spec.kill_flags[1] = &kill;
  spec.tweak_worker = [&dir2, &kill](int rank, DistWorkerOptions* w) {
    w->checkpoint_dir = dir2;
    w->checkpoint_retain = 8;
    if (rank == 1) w->abrupt_stop = &kill;
  };
  bool killed = false;  // epoch 5 is replayed after recovery; kill once
  spec.tweak_coordinator = [&kill, &killed](DistCoordinatorOptions* o) {
    o->checkpoint_every = 3;
    o->heartbeat_timeout_ms = 600;
    o->epoch_callback = [&kill, &killed](const EpochStats& s) {
      if (s.epoch == 5 && !killed) {
        killed = true;
        kill.store(true);
      }
    };
  };
  DistRun run = RunDist(cfg, SmallWorld().train, spec);
  ASSERT_TRUE(run.ok()) << run.coordinator_status.ToString();

  EXPECT_TRUE(BitIdentical(run.model, ref.model))
      << "kill-and-resume changed the trained bytes";
  EXPECT_GE(run.cstats.recoveries, 1);
  EXPECT_GE(run.wstats[1].reloads, 1) << "rank 1 never warm-restarted";
  // The survivor was restarted from the common snapshot too.
  EXPECT_GE(run.wstats[0].reloads, 1);

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);
}

TEST(DistChaosTest, TransientWireFaultRecoversBitIdentically) {
  const TcssConfig cfg = DistConfig(12);
  const std::string dir = ScratchDir("wire_ref");
  auto with_ckpts_at = [](const std::string& d) {
    return [d](int, DistWorkerOptions* w) { w->checkpoint_dir = d; };
  };
  DistRunSpec ref_spec;
  ref_spec.num_workers = 2;
  ref_spec.tweak_worker = with_ckpts_at(dir);
  ref_spec.tweak_coordinator = [](DistCoordinatorOptions* o) {
    o->checkpoint_every = 3;
  };
  DistRun ref = RunDist(cfg, SmallWorld().train, ref_spec);
  ASSERT_TRUE(ref.ok()) << ref.coordinator_status.ToString();

  // Rank 1 talks through a fault-injection env. After epoch 4's step its
  // next read is torn down (a reset mid-stream); injection clears shortly
  // after, while the worker is still inside its reconnect backoff.
  FaultInjectionEnv chaos_env(Env::Default());
  const std::string dir2 = ScratchDir("wire_chaos");
  DistRunSpec spec;
  spec.num_workers = 2;
  spec.tweak_worker = [&](int rank, DistWorkerOptions* w) {
    w->checkpoint_dir = dir2;
    if (rank == 1) w->env = &chaos_env;
  };
  std::thread clearer;
  bool armed = false;  // epoch 4 re-runs after recovery; inject only once
  spec.tweak_coordinator = [&](DistCoordinatorOptions* o) {
    o->checkpoint_every = 3;
    o->heartbeat_timeout_ms = 600;
    // The injected fault can kill several short-lived sessions before it
    // clears; the budget must not turn that storm into an abort.
    o->max_recoveries = 100000;
    o->epoch_callback = [&](const EpochStats& s) {
      if (s.epoch == 4 && !armed) {
        armed = true;
        chaos_env.set_fail_conn_reads_after(0);
        clearer = std::thread([&chaos_env] {
          std::this_thread::sleep_for(std::chrono::milliseconds(400));
          chaos_env.set_fail_conn_reads_after(-1);
        });
      }
    };
  };
  DistRun run = RunDist(cfg, SmallWorld().train, spec);
  if (clearer.joinable()) clearer.join();
  ASSERT_TRUE(run.ok()) << run.coordinator_status.ToString();

  EXPECT_TRUE(BitIdentical(run.model, ref.model))
      << "wire fault changed the trained bytes";
  EXPECT_GE(run.wstats[1].reconnects + run.cstats.recoveries, 1)
      << "the injected fault was never hit";
  EXPECT_GE(chaos_env.conn_faults_injected(), 1);

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);
}

TEST(DistChaosTest, WholeRunSurvivesSplitReadsBitIdentically) {
  const TcssConfig cfg = DistConfig(8);
  DistRunSpec plain;
  plain.num_workers = 2;
  DistRun ref = RunDist(cfg, SmallWorld().train, plain);
  ASSERT_TRUE(ref.ok()) << ref.coordinator_status.ToString();

  // Every byte of every frame — handshake, gradients, reduced steps,
  // finals — now arrives in 7-byte dribbles on both sides.
  FaultInjectionEnv env(Env::Default());
  env.set_conn_read_chunk(7);
  DistRunSpec spec;
  spec.num_workers = 2;
  spec.tweak_worker = [&env](int, DistWorkerOptions* w) { w->env = &env; };
  spec.tweak_coordinator = [&env](DistCoordinatorOptions* o) {
    o->env = &env;
  };
  DistRun run = RunDist(cfg, SmallWorld().train, spec);
  ASSERT_TRUE(run.ok()) << run.coordinator_status.ToString();
  EXPECT_TRUE(BitIdentical(run.model, ref.model));
  EXPECT_GT(env.conn_reads_attempted(), 100);
}

TEST(DistChaosTest, PermanentPartitionAbortsInBoundedTime) {
  // Rank 1's receive path dies permanently mid-run: it can still connect
  // and send kHello, but never hears a reply, so every recovery collapses
  // again. The run must abort once the recovery budget is spent — bounded
  // time, clear diagnostic, no hang.
  const TcssConfig cfg = DistConfig(30);
  FaultInjectionEnv dead_env(Env::Default());
  DistRunSpec spec;
  spec.num_workers = 2;
  spec.tweak_worker = [&dead_env](int rank, DistWorkerOptions* w) {
    if (rank == 1) {
      w->env = &dead_env;
      w->reconnect_attempts = 3;
      w->reconnect_base_ms = 10;
      w->reconnect_max_ms = 50;
    }
  };
  spec.tweak_coordinator = [&dead_env](DistCoordinatorOptions* o) {
    o->heartbeat_timeout_ms = 400;
    o->world_timeout_ms = 2000;
    o->max_recoveries = 4;
    o->epoch_callback = [&dead_env](const EpochStats& s) {
      if (s.epoch == 3) dead_env.set_fail_conn_reads_after(0);
    };
  };
  const auto t0 = std::chrono::steady_clock::now();
  DistRun run = RunDist(cfg, SmallWorld().train, spec);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_FALSE(run.coordinator_status.ok())
      << "a permanently partitioned run must not report success";
  EXPECT_FALSE(run.worker_status[1].ok());
  EXPECT_LT(secs, 60.0) << "partition abort took too long";
}

TEST(DistChaosTest, StragglerIsWarnedNotKilled) {
  const TcssConfig cfg = DistConfig(8);
  DistRunSpec plain;
  plain.num_workers = 2;
  DistRun ref = RunDist(cfg, SmallWorld().train, plain);
  ASSERT_TRUE(ref.ok());

  DistRunSpec spec;
  spec.num_workers = 2;
  spec.tweak_worker = [](int rank, DistWorkerOptions* w) {
    if (rank == 1) {
      w->stall_before_epoch = 3;  // 600ms nap before epoch 3's gradient
      w->stall_ms = 600;
    }
  };
  spec.tweak_coordinator = [](DistCoordinatorOptions* o) {
    o->straggler_warn_ms = 150;
    o->heartbeat_timeout_ms = 5000;  // slow, but alive: must not be killed
  };
  DistRun run = RunDist(cfg, SmallWorld().train, spec);
  ASSERT_TRUE(run.ok()) << run.coordinator_status.ToString();
  EXPECT_GE(run.cstats.stragglers, 1);
  EXPECT_EQ(run.cstats.recoveries, 0);
  EXPECT_TRUE(BitIdentical(run.model, ref.model))
      << "a straggler must not change the arithmetic";
}

TEST(DistChaosTest, GracefulStopEndsRunEarlyWithAssembledModel) {
  const TcssConfig cfg = DistConfig(50);
  std::atomic<bool> stop{false};
  DistRunSpec spec;
  spec.num_workers = 2;
  spec.tweak_coordinator = [&stop](DistCoordinatorOptions* o) {
    o->stop = &stop;
    o->epoch_callback = [&stop](const EpochStats& s) {
      if (s.epoch == 4) stop.store(true);
    };
  };
  DistRun run = RunDist(cfg, SmallWorld().train, spec);
  ASSERT_TRUE(run.ok()) << run.coordinator_status.ToString();
  EXPECT_GE(run.cstats.epochs, 4);
  EXPECT_LE(run.cstats.epochs, 6);
  EXPECT_EQ(run.model.u1.rows(), SmallWorld().train.dim_i());
}

TEST(DistChaosTest, DivergenceGuardMatchesTrainerAtOneWorker) {
  // An absurd learning rate diverges immediately; the distributed guard
  // must reach the same verdict (NotConverged after the retry budget) as
  // the single-process trainer, by the same rollback path.
  TcssConfig cfg = DistConfig(10);
  cfg.learning_rate = 1e12;

  TcssTrainer trainer(SmallWorld().data, SmallWorld().train, cfg);
  TrainOptions topts;
  auto ref = trainer.Train(topts, nullptr);

  DistRunSpec spec;
  spec.num_workers = 1;
  DistRun run = RunDist(cfg, SmallWorld().train, spec);

  ASSERT_FALSE(ref.ok());
  EXPECT_FALSE(run.coordinator_status.ok());
  EXPECT_EQ(run.coordinator_status.code(), ref.status().code());
  EXPECT_EQ(run.coordinator_status.message(), ref.status().message());
  EXPECT_EQ(run.cstats.rollbacks, 3);  // DivergenceGuard::max_retries
}

TEST(DistChaosTest, DivergenceRollbackRecoversLikeTheTrainer) {
  // An absurd learning rate diverges at epoch 2; one backoff of 1e-81
  // lands at a sane LR of 0.1, so the run recovers after exactly one
  // rollback — through every worker's rollback target, which restores the
  // same state TcssTrainer's does.
  TcssConfig cfg = DistConfig(8);
  cfg.learning_rate = 1e80;
  DivergenceGuard guard;
  guard.max_retries = 2;
  guard.lr_backoff = 1e-81;

  TcssTrainer trainer(SmallWorld().data, SmallWorld().train, cfg);
  TrainOptions topts;
  topts.divergence = guard;
  auto ref = trainer.Train(topts, nullptr);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  auto run_at = [&](int workers) {
    DistRunSpec spec;
    spec.num_workers = workers;
    spec.tweak_coordinator = [&guard](DistCoordinatorOptions* o) {
      o->divergence = guard;
    };
    DistRun run = RunDist(cfg, SmallWorld().train, spec);
    EXPECT_TRUE(run.ok()) << run.coordinator_status.ToString();
    EXPECT_EQ(run.cstats.rollbacks, 1) << "W=" << workers;
    for (int r = 0; r < workers; ++r) {
      EXPECT_EQ(run.wstats[r].rollbacks, 1) << "W=" << workers << " rank "
                                            << r;
    }
    return run;
  };

  DistRun one = run_at(1);
  EXPECT_TRUE(BitIdentical(one.model, ref.value()))
      << "W=1 rollback recovery deviates from TcssTrainer";

  DistRun a = run_at(2);
  DistRun b = run_at(2);
  EXPECT_TRUE(BitIdentical(a.model, b.model));
  ASSERT_EQ(a.model.u1.rows(), ref.value().u1.rows());
  EXPECT_LE(MaxAbsDiff(a.model.u1, ref.value().u1), 1e-12);
  EXPECT_LE(MaxAbsDiff(a.model.u2, ref.value().u2), 1e-12);
  EXPECT_LE(MaxAbsDiff(a.model.u3, ref.value().u3), 1e-12);
  for (size_t t = 0; t < a.model.h.size(); ++t) {
    EXPECT_LE(std::abs(a.model.h[t] - ref.value().h[t]), 1e-12);
  }
}

TEST(DistChaosTest, FingerprintMismatchAbortsTheImpostor) {
  // A worker launched with yesterday's config must be turned away at the
  // handshake, not silently averaged in.
  const TcssConfig cfg = DistConfig(6);
  TcssConfig stale = cfg;
  stale.learning_rate *= 2.0;

  const SparseTensor& full = SmallWorld().train;
  const RowPartition part(full.dim_i(), 1);
  DistCoordinatorOptions copts;
  copts.num_workers = 1;
  copts.socket_path = SockPath("fpr");
  copts.world_timeout_ms = 4000;
  DistCoordinator coordinator(cfg, full.dim_i(), full.dim_j(), full.dim_k(),
                              copts);

  Status impostor_status = Status::OK();
  std::thread impostor([&] {
    auto slice = SliceTensorRows(full, 0, full.dim_i());
    ASSERT_TRUE(slice.ok());
    DistWorkerOptions wopts;
    wopts.rank = 0;
    wopts.num_workers = 1;
    wopts.socket_path = copts.socket_path;
    wopts.reconnect_attempts = 2;
    wopts.reconnect_base_ms = 10;
    DistWorker worker(stale, full.dim_i(), full.dim_j(), full.dim_k(),
                      slice.MoveValue(), wopts);
    impostor_status = worker.Run();
  });
  auto result = coordinator.Run();
  impostor.join();
  EXPECT_FALSE(result.ok());  // no compatible worker ever arrived
  EXPECT_FALSE(impostor_status.ok());
}

// ------------------------------------------------------------------------
// Multi-process smoke: real processes, real SIGKILL
// ------------------------------------------------------------------------

#ifdef TCSS_CLI_PATH

pid_t Spawn(const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  pid_t pid = fork();
  if (pid == 0) {
    // Quiet child: the test log only needs the verdict.
    std::freopen("/dev/null", "w", stdout);
    execv(cargv[0], cargv.data());
    _exit(127);
  }
  return pid;
}

int WaitFor(pid_t pid) {
  int status = 0;
  waitpid(pid, &status, 0);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -WTERMSIG(status);
}

std::vector<std::string> CommonArgs(const std::string& extra_users) {
  return {TCSS_CLI_PATH,       "train",
          "--streamed-users",  extra_users,
          "--streamed-pois",   "500",
          "--streamed-bins",   "8",
          "--dist-workers",    "2",
          "--epochs",          "40",
          "--rank",            "6",
          "--num-threads",     "1"};
}

TEST(DistMultiProcessTest, SigkilledWorkerProcessResumesToIdenticalBytes) {
  const std::string users = "20000";
  const std::string dir = ScratchDir("mp_smoke");
  const std::string ref_model = dir + "/ref.fm";
  const std::string chaos_model = dir + "/chaos.fm";
  std::filesystem::create_directories(dir);

  auto run_fleet = [&](const std::string& sock, const std::string& ckpt_dir,
                       const std::string& model_path, bool kill_one) {
    auto coord = CommonArgs(users);
    coord.insert(coord.end(), {"--dist-coordinator", sock, "--model",
                               model_path, "--checkpoint-every", "4",
                               "--heartbeat-timeout-ms", "1000",
                               "--world-timeout-ms", "30000"});
    const pid_t cpid = Spawn(coord);
    auto worker_args = [&](int rank) {
      auto w = CommonArgs(users);
      w.insert(w.end(), {"--dist-worker", sock, "--dist-rank",
                         std::to_string(rank), "--checkpoint-dir", ckpt_dir,
                         "--checkpoint-retain", "16"});
      return w;
    };
    const pid_t w0 = Spawn(worker_args(0));
    pid_t w1 = Spawn(worker_args(1));

    if (kill_one) {
      // Deterministic trigger: SIGKILL rank 1 once its first shard
      // checkpoint exists (epoch 4 of 40) — no timing guesswork.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      bool saw_ckpt = false;
      while (std::chrono::steady_clock::now() < deadline) {
        for (const auto& e :
             std::filesystem::directory_iterator(ckpt_dir)) {
          const std::string name = e.path().filename().string();
          if (name.find("s1of2") != std::string::npos &&
              name.find(".tmp") == std::string::npos) {
            saw_ckpt = true;
          }
        }
        if (saw_ckpt) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      EXPECT_TRUE(saw_ckpt) << "rank 1 never wrote a shard checkpoint";
      kill(w1, SIGKILL);
      WaitFor(w1);
      // The supervisor restarts the dead rank; it re-Hellos and the fleet
      // resumes from the newest common snapshot.
      w1 = Spawn(worker_args(1));
    }

    EXPECT_EQ(WaitFor(cpid), 0) << "coordinator failed";
    EXPECT_EQ(WaitFor(w0), 0) << "worker 0 failed";
    EXPECT_EQ(WaitFor(w1), 0) << "worker 1 failed";
  };

  const std::string ref_ckpts = dir + "/ck_ref";
  const std::string chaos_ckpts = dir + "/ck_chaos";
  std::filesystem::create_directories(ref_ckpts);
  std::filesystem::create_directories(chaos_ckpts);
  run_fleet(SockPath("mpr"), ref_ckpts, ref_model, /*kill_one=*/false);
  run_fleet(SockPath("mpc"), chaos_ckpts, chaos_model, /*kill_one=*/true);

  auto read_all = [](const std::string& p) {
    auto r = Env::Default()->ReadFileToString(p);
    EXPECT_TRUE(r.ok()) << p;
    return r.ok() ? r.value() : std::string();
  };
  const std::string ref_bytes = read_all(ref_model);
  ASSERT_FALSE(ref_bytes.empty());
  EXPECT_EQ(ref_bytes, read_all(chaos_model))
      << "SIGKILL + restart changed the trained model bytes";

  std::filesystem::remove_all(dir);
}

#endif  // TCSS_CLI_PATH

}  // namespace
}  // namespace tcss
