// Scaling + recovery benchmark for the distributed training engine
// (src/dist/, DESIGN.md §11). Phase 1 sweeps world sizes W = 1/2/4 over
// the same streamed tensor — every worker generates exactly its row
// slice with GenerateStreamedSlice — and reports wall time and
// epochs/sec per fleet. Phase 2 trains the same tensor and config with
// the single-process TcssTrainer at 1/2/4 threads, generation inside the
// clock as in the fleets: the engine must beat it to earn its place.
// Phase 3 re-runs W = 2 with shard checkpoints, SIGKILL-simulates rank 1
// mid-run, and measures the recovery latency: the gap between the kill
// and the first epoch the resumed fleet completes (heartbeat detection +
// world reassembly + checkpoint replay).
//
// Human-readable table on stdout; TCSS_BENCH_JSON appends machine rows
// (bench "dist_train"). TCSS_BENCH_SCALE (default 1.0) scales the user
// count for quick smoke runs.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/env.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "dist/coordinator.h"
#include "dist/partition.h"
#include "dist/worker.h"

namespace tcss {
namespace {

constexpr size_t kPois = 2'000;
constexpr size_t kBins = 12;
constexpr int kEpochs = 15;
constexpr int kKillEpoch = 8;  // between periodic snapshots (every 5)

StreamedTensorConfig TensorConfig() {
  StreamedTensorConfig cfg;
  cfg.seed = 17;
  // ~5M check-ins at scale 1: big enough that per-epoch gradient work
  // dwarfs the lockstep round trip, so the sweep measures scaling and
  // not protocol overhead.
  cfg.num_users = static_cast<size_t>(200'000 * bench::BenchScale());
  cfg.num_pois = kPois;
  cfg.num_bins = kBins;
  cfg.mean_checkins = 24.0;
  return cfg;
}

TcssConfig TrainConfig() {
  TcssConfig cfg;
  cfg.rank = 8;
  cfg.epochs = kEpochs;
  cfg.learning_rate = 0.05;
  cfg.lambda = 0.0;  // decomposability: no Hausdorff side information
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.init = InitMethod::kRandom;
  cfg.loss_mode = LossMode::kRewritten;
  cfg.temporal_smoothness = 0.05;
  cfg.num_threads = 1;
  cfg.seed = 13;
  return cfg;
}

struct FleetResult {
  bool ok = false;
  double wall_s = 0.0;
  double recovery_ms = 0.0;  ///< kill fleets only
  int epochs = 0;
  int recoveries = 0;
};

/// One full fleet run: coordinator on this thread, W worker threads each
/// generating its own tensor slice. kill_rank1 simulates a SIGKILL of
/// rank 1 at epoch kKillEpoch and restarts it (a fresh DistWorker over
/// the same checkpoint directory), timing kill -> first resumed epoch.
FleetResult RunFleet(int num_workers, bool kill_rank1,
                     const std::string& ckpt_dir) {
  const StreamedTensorConfig tcfg = TensorConfig();
  const TcssConfig cfg = TrainConfig();
  const RowPartition part(tcfg.num_users, num_workers);
  const std::string sock = StrFormat("/tmp/tcssbd-%d-w%d%s.sock", getpid(),
                                     num_workers, kill_rank1 ? "k" : "");

  std::atomic<bool> kill{false};
  Stopwatch clock;
  std::atomic<double> kill_at_s{-1.0};
  std::atomic<double> resumed_at_s{-1.0};

  DistCoordinatorOptions copts;
  copts.num_workers = num_workers;
  copts.socket_path = sock;
  copts.checkpoint_every = 5;
  copts.heartbeat_timeout_ms = 1'000;
  copts.straggler_warn_ms = 10'000;
  copts.world_timeout_ms = 60'000;
  bool killed = false;  // callbacks re-fire after recovery: kill once
  copts.epoch_callback = [&](const EpochStats& s) {
    if (kill_rank1 && s.epoch == kKillEpoch && !killed) {
      killed = true;
      kill_at_s.store(clock.ElapsedSeconds());
      kill.store(true);
    } else if (killed && kill_at_s.load() >= 0.0 &&
               resumed_at_s.load() < 0.0) {
      resumed_at_s.store(clock.ElapsedSeconds());
    }
  };
  DistCoordinator coordinator(cfg, tcfg.num_users, kPois, kBins, copts);

  std::vector<std::thread> workers;
  std::atomic<bool> workers_ok{true};
  for (int r = 0; r < num_workers; ++r) {
    workers.emplace_back([&, r] {
      DistWorkerOptions wopts;
      wopts.rank = r;
      wopts.num_workers = num_workers;
      wopts.socket_path = sock;
      wopts.heartbeat_interval_ms = 50;
      wopts.checkpoint_dir = ckpt_dir;
      if (kill_rank1 && r == 1) wopts.abrupt_stop = &kill;
      for (int life = 0; life < 2; ++life) {
        auto slice = GenerateStreamedSlice(tcfg, part.Begin(r), part.End(r));
        if (!slice.ok()) {
          workers_ok.store(false);
          return;
        }
        DistWorker worker(cfg, tcfg.num_users, kPois, kBins,
                          slice.MoveValue(), wopts);
        Status st = worker.Run();
        if (st.ok()) return;
        // Only the killed rank restarts; real failures end the fleet.
        if (!(kill_rank1 && r == 1 && life == 0)) {
          workers_ok.store(false);
          return;
        }
        kill.store(false);
      }
    });
  }

  auto model = coordinator.Run();
  for (auto& t : workers) t.join();

  FleetResult out;
  out.ok = model.ok() && workers_ok.load();
  out.wall_s = clock.ElapsedSeconds();
  out.epochs = coordinator.stats().epochs;
  out.recoveries = coordinator.stats().recoveries;
  if (resumed_at_s.load() >= 0.0 && kill_at_s.load() >= 0.0) {
    out.recovery_ms = (resumed_at_s.load() - kill_at_s.load()) * 1e3;
  }
  if (!model.ok()) {
    std::fprintf(stderr, "coordinator (W=%d): %s\n", num_workers,
                 model.status().ToString().c_str());
  }
  return out;
}

/// TcssTrainer on the whole tensor at `threads` compute threads, timed
/// like a fleet: generating the tensor is inside the clock.
FleetResult RunTrainer(int threads) {
  Stopwatch clock;
  const StreamedTensorConfig tcfg = TensorConfig();
  TcssConfig cfg = TrainConfig();
  cfg.num_threads = threads;
  FleetResult out;
  auto tensor = GenerateStreamedSlice(tcfg, 0, tcfg.num_users);
  if (tensor.ok()) {
    const Dataset no_side_info;  // lambda = 0: the trainer never reads it
    TcssTrainer trainer(no_side_info, tensor.value(), cfg);
    auto model = trainer.Train();
    out.ok = model.ok();
    if (!model.ok()) {
      std::fprintf(stderr, "trainer (%d threads): %s\n", threads,
                   model.status().ToString().c_str());
    }
  }
  out.wall_s = clock.ElapsedSeconds();
  out.epochs = out.ok ? cfg.epochs : 0;
  return out;
}

}  // namespace
}  // namespace tcss

int main() {
  using namespace tcss;
  const StreamedTensorConfig tcfg = TensorConfig();
  const std::string dataset = StrFormat("streamed%zux%zux%zu",
                                        tcfg.num_users, kPois, kBins);
  bool all_ok = true;

  // Phase 1: world-size sweep, no faults, no checkpoints. Speedup is
  // bounded by host cores: on a 1-CPU box the fleets timeshare and the
  // sweep instead measures the engine's oversubscription overhead.
  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("host cpus: %u (speedup ceiling)\n", cpus);
  bench::AppendBenchJson("dist_train", dataset, "host_cpus",
                         static_cast<double>(cpus));
  std::printf("%-6s %10s %12s %8s\n", "world", "wall_s", "epochs_per_s",
              "epochs");
  double w1_wall = 0.0;
  std::map<int, double> fleet_wall;
  for (const int w : {1, 2, 4}) {
    FleetResult r = RunFleet(w, /*kill_rank1=*/false, /*ckpt_dir=*/"");
    all_ok = all_ok && r.ok;
    const double eps = r.wall_s > 0.0 ? r.epochs / r.wall_s : 0.0;
    if (w == 1) w1_wall = r.wall_s;
    fleet_wall[w] = r.wall_s;
    std::printf("%-6d %10.2f %12.2f %8d%s\n", w, r.wall_s, eps, r.epochs,
                r.ok ? "" : "  FAILED");
    bench::AppendBenchJson("dist_train", dataset,
                           StrFormat("w%d_wall_s", w), r.wall_s);
    bench::AppendBenchJson("dist_train", dataset,
                           StrFormat("w%d_epochs_per_s", w), eps);
    if (w > 1 && r.wall_s > 0.0 && w1_wall > 0.0) {
      bench::AppendBenchJson("dist_train", dataset,
                             StrFormat("w%d_speedup", w),
                             w1_wall / r.wall_s);
    }
  }

  // Phase 2: the single-process trainer on the same work. w<T>_vs_trainer
  // > 1 means a W = T fleet beats TcssTrainer at T threads.
  std::printf("%-8s %10s %12s %8s\n", "threads", "wall_s", "fleet_speedup",
              "epochs");
  for (const int t : {1, 2, 4}) {
    FleetResult r = RunTrainer(t);
    all_ok = all_ok && r.ok;
    const double vs = fleet_wall[t] > 0.0 ? r.wall_s / fleet_wall[t] : 0.0;
    std::printf("%-8d %10.2f %12.2f %8d%s\n", t, r.wall_s, vs, r.epochs,
                r.ok ? "" : "  FAILED");
    bench::AppendBenchJson("dist_train", dataset,
                           StrFormat("trainer_t%d_wall_s", t), r.wall_s);
    bench::AppendBenchJson("dist_train", dataset,
                           StrFormat("w%d_vs_trainer", t), vs);
  }

  // Phase 3: W=2 with shard checkpoints; SIGKILL rank 1 at epoch 8.
  const std::string ckpt_dir =
      StrFormat("/tmp/tcssbd-%d-ckpt", getpid());
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::create_directories(ckpt_dir);
  FleetResult kr = RunFleet(2, /*kill_rank1=*/true, ckpt_dir);
  all_ok = all_ok && kr.ok && kr.recoveries >= 1 && kr.recovery_ms > 0.0;
  std::printf(
      "kill+resume (W=2): wall %.2f s, recovery %.0f ms, %d recoveries%s\n",
      kr.wall_s, kr.recovery_ms, kr.recoveries, kr.ok ? "" : "  FAILED");
  bench::AppendBenchJson("dist_train", dataset, "kill_resume_wall_s",
                         kr.wall_s);
  bench::AppendBenchJson("dist_train", dataset, "kill_recovery_ms",
                         kr.recovery_ms);
  bench::AppendBenchJson("dist_train", dataset, "kill_recoveries",
                         kr.recoveries);
  std::filesystem::remove_all(ckpt_dir);
  return all_ok ? 0 : 2;
}
