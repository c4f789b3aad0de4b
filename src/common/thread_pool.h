#ifndef TCSS_COMMON_THREAD_POOL_H_
#define TCSS_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tcss {

/// Fixed-size, work-stealing-free thread pool for deterministic data
/// parallelism. One job runs at a time: Run(num_shards, fn) executes
/// fn(shard) for every shard in [0, num_shards) across the workers plus
/// the calling thread, claiming shards from a single shared counter (no
/// per-thread deques, no stealing), and returns only when every shard has
/// finished.
///
/// Determinism contract: the pool guarantees each shard runs exactly once,
/// but NOT in which order or on which thread. Callers obtain bit-identical
/// results at any thread count by (a) writing shard-disjoint outputs
/// (row-partitioned matrices), or (b) reducing shared outputs through
/// ParallelReduce, which merges per-shard buffers in ascending shard
/// order — and by deriving the shard decomposition from the problem size
/// only, never from the thread count. See DESIGN.md "Deterministic
/// parallelism".
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the caller of Run is the last
  /// execution lane). num_threads < 1 is clamped to 1 (no workers, Run
  /// degenerates to a serial loop).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Executes fn(shard) for shard in [0, num_shards); blocks until all
  /// shards completed. Safe to call from multiple threads (jobs are
  /// serialized). fn must not call Run on the same pool (use ParallelFor,
  /// which falls back to inline execution when nested).
  void Run(size_t num_shards, const std::function<void(size_t)>& fn);

 private:
  /// One parallel region. Heap-allocated and shared with the workers so a
  /// worker waking up late (after the job finished and a new one started)
  /// still holds the shard counter of *its* job, which is exhausted — it
  /// can never claim shards of a newer job with a stale function pointer.
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t num_shards = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
  };

  void WorkerLoop();
  /// Claims and executes shards of `job` until none remain; returns after
  /// signalling done_cv_ if this thread finished the last shard.
  void DrainJob(const std::shared_ptr<Job>& job);

  const int num_threads_;
  std::mutex mu_;                  ///< guards job_ / shutdown_
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;
  bool shutdown_ = false;
  std::mutex run_mu_;              ///< serializes concurrent Run callers
  std::vector<std::thread> workers_;
};

/// Process-global pool used by ParallelFor. Starts at 1 thread (serial)
/// until SetGlobalThreads is called; the trainer calls it with
/// TcssConfig::num_threads, the CLI plumbs --num-threads.
ThreadPool* GlobalThreadPool();

/// Replaces the global pool with one of `num_threads` threads
/// (0 = std::thread::hardware_concurrency). Not safe concurrently with an
/// in-flight ParallelFor; call between parallel regions (e.g. before
/// training starts). No-op when the pool already has that many threads.
void SetGlobalThreads(int num_threads);

/// Thread count of the current global pool.
int GlobalThreads();

/// Number of shards ParallelFor(n, grain, ...) will produce: ceil(n/grain)
/// (0 for n == 0). Depends only on (n, grain) — never on the thread count
/// — so per-shard accumulator layouts are stable across machines.
size_t ParallelForShards(size_t n, size_t grain);

/// Splits [0, n) into ceil(n/grain) contiguous shards and runs
/// fn(begin, end, shard) for each on the global pool. The decomposition is
/// a pure function of (n, grain); the thread count only affects which
/// thread runs which shard. Nested calls (fn itself calling ParallelFor)
/// execute inline serially with the same decomposition, so results do not
/// depend on nesting depth either.
void ParallelFor(size_t n, size_t grain,
                 const std::function<void(size_t, size_t, size_t)>& fn);

/// Shard cap of the ParallelReduce decompositions: enough shards to keep
/// a few threads busy, few enough that the per-shard merges stay cheap.
inline constexpr size_t kMaxReduceShards = 16;

/// Grain that cuts [0, n) into at most kMaxReduceShards shards of at
/// least `min_grain` items each. A pure function of (n, min_grain).
inline size_t ReduceGrain(size_t n, size_t min_grain) {
  return std::max(min_grain,
                  (n + kMaxReduceShards - 1) / kMaxReduceShards);
}

/// The shard buffers of one ParallelReduce site. The site's owner keeps it
/// across calls (a loss object holds one per site), so steady-state calls
/// allocate no buffers. Between calls every buffer is all +0.0.
template <typename Buffer>
class ShardScratch {
 public:
  /// What the buffers are sized by (the model's dimensions and rank).
  using Shape = std::array<size_t, 4>;

  /// Frees the buffers when `shape` is not the one they were made for, so
  /// that the next call makes them afresh.
  void Reshape(const Shape& shape) {
    if (shape == shape_) return;
    buffers_.clear();
    shape_ = shape;
  }

  /// Number of buffers held.
  size_t size() const { return buffers_.size(); }

  /// The buffers held (tests check that they are clear between calls).
  const std::vector<Buffer>& buffers() const { return buffers_; }

  /// Holds exactly `count` buffers, making missing ones with make_buffer()
  /// (which returns them zeroed) and freeing the rest.
  template <typename MakeBuffer>
  Buffer* Fit(size_t count, const MakeBuffer& make_buffer) {
    if (buffers_.size() > count) buffers_.resize(count);
    while (buffers_.size() < count) buffers_.push_back(make_buffer());
    return buffers_.data();
  }

 private:
  std::vector<Buffer> buffers_;
  Shape shape_{};
};

/// The one place that merges per-shard buffers. Splits [0, n) as
/// ParallelFor(n, grain) does; body(begin, end, shard, buf) handles one
/// shard, accumulating into *buf (null when `out` is: value only) and
/// returning the shard's value. `buf` is an Out* on the direct path and a
/// Buffer* otherwise; the two types differ where a shard buffer carries
/// more than the output (a record of the rows it wrote).
///
///  * One shard runs straight into `out` and its value is returned as is,
///    unless `buffer_one_shard` (a merge that scales what it adds must see
///    every part the same way).
///  * Otherwise the shards run in waves of w = min(shards, threads), each
///    shard of a wave accumulating from +0.0 into its own buffer of
///    `scratch`, which then holds w buffers from make_buffer(). After each
///    wave, its values are added to the total from Value{} and
///    merge(part, out) adds each buffer into `out` and zeroes it in the
///    same pass, both in ascending shard order. An empty range returns
///    Value{} and leaves `out` alone.
///
/// Every rounding decision depends on (n, grain) only, so the result is
/// bit-identical at any thread count.
template <typename Out, typename Buffer, typename MakeBuffer, typename Body,
          typename Merge>
auto ParallelReduce(size_t n, size_t grain, Out* out,
                    ShardScratch<Buffer>* scratch,
                    const MakeBuffer& make_buffer, const Body& body,
                    const Merge& merge, bool buffer_one_shard = false) {
  using Value = decltype(body(size_t{0}, size_t{0}, size_t{0}, out));
  const size_t shards = ParallelForShards(n, grain);
  if (shards == 0) return Value{};
  if (shards == 1 && !buffer_one_shard) return body(0, n, 0, out);
  grain = std::max<size_t>(grain, 1);
  const size_t width =
      std::min(shards, static_cast<size_t>(GlobalThreads()));
  Buffer* parts =
      out != nullptr ? scratch->Fit(width, make_buffer) : nullptr;
  std::vector<Value> values(width);
  Value total{};
  for (size_t first = 0; first < shards; first += width) {
    const size_t wave = std::min(width, shards - first);
    ParallelFor(wave, 1, [&](size_t w, size_t, size_t) {
      const size_t begin = (first + w) * grain;
      values[w] = body(begin, std::min(n, begin + grain), first + w,
                       parts != nullptr ? &parts[w] : nullptr);
    });
    for (size_t w = 0; w < wave; ++w) {
      total += values[w];
      if (parts != nullptr) merge(&parts[w], out);
    }
  }
  return total;
}

}  // namespace tcss

#endif  // TCSS_COMMON_THREAD_POOL_H_
