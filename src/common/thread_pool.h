// Fixed-size thread pool with a ParallelFor helper.
//
// The one shared pool runs the sharded index's scatter-gather (one task
// per shard block of queries) and its parallel shard builds, k-means
// assignment steps and batch embedding. Within the index layer only
// ShardedIndex spreads a vector scan over it; every other index scans on
// its calling thread. The pool is deliberately simple: one global queue,
// condition-variable wakeups.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace proximity {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; the returned future observes its completion and
  /// propagates exceptions.
  std::future<void> Submit(std::function<void()> task);

  /// Pops and runs one queued task on the calling thread. Returns false
  /// when the queue is empty. This is the help-while-waiting primitive
  /// that makes nested ParallelFor calls deadlock-free: a blocked caller
  /// drains the queue instead of occupying a worker slot idle (the
  /// sharded index builds its shards on the pool, and an IVF shard's
  /// Train runs k-means on the same pool underneath).
  bool TryRunOne();

  /// Runs fn(i) for i in [begin, end), partitioned into contiguous chunks
  /// across the pool plus the calling thread. Blocks until all iterations
  /// complete; while blocked the caller helps drain the queue (see
  /// TryRunOne), so ParallelFor may be called from inside pool tasks.
  /// Rethrows the first exception raised by any chunk.
  void ParallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& fn);

  /// Like ParallelFor but hands each worker a [chunk_begin, chunk_end)
  /// range, which avoids per-iteration indirection in tight loops.
  void ParallelForChunked(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// Shared process-wide pool sized to the host.
  static ThreadPool& Shared();

  /// Overrides the size the shared pool is built with (0 = host width).
  /// Must run before the first Shared() call; returns false (and changes
  /// nothing) once the pool exists. Benches use this to emulate wider
  /// hosts (`shard_scaling --threads N`) on small machines.
  static bool SetSharedSize(std::size_t threads);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace proximity
