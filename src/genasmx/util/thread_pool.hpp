#pragma once
// Minimal fixed-size thread pool with a blocking task queue plus a
// chunked parallel_for used to parallelize alignment batches.
//
// Alignment pairs are embarrassingly parallel (the paper runs 48 CPU
// threads); the pool keeps per-task overhead low by handing out index
// ranges rather than single indices.
//
// parallel_for is safe to call from several caller threads at once:
// each call tracks its own chunks in a per-call task group, so a
// caller only waits for (and only sees exceptions from) its own work.
// The server layer relies on this to share one AlignmentEngine across
// concurrent mapping sessions.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gx::util {

class ThreadPool {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue an arbitrary task. Fire and forget; use wait_idle() to join.
  void submit(std::function<void()> task);

  /// Block until every group-less submitted task has finished. If any
  /// such task threw, rethrows the first captured exception here (on the
  /// waiting thread); the remaining tasks still ran to completion first,
  /// so the pool is reusable afterwards. Before this existed, a throwing
  /// task escaped worker_loop and took the whole process down via
  /// std::terminate. Tasks spawned by other callers' parallel_for are
  /// invisible here — their group owns them.
  void wait_idle();

  /// Run fn(begin, end) over [0, n) split into up to `size()*4` chunks of
  /// at least `min_chunk` indices (only the last one may be shorter),
  /// blocking until completion; a lone chunk runs on the calling thread.
  /// fn must be safe to call concurrently. Rethrows the first exception
  /// any chunk threw (see wait_idle); callers that need per-chunk
  /// isolation catch inside fn. Concurrent calls from different threads
  /// are independent: each waits only for its own chunks.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t min_chunk = 1);

 private:
  /// One parallel_for call's accounting, stack-allocated by the caller.
  struct Group {
    std::size_t in_flight = 0;
    std::exception_ptr error;  ///< first chunk throw in this group
  };

  struct Task {
    std::function<void()> fn;
    Group* group = nullptr;  ///< nullptr = global (submit/wait_idle)
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;  ///< group-less tasks only
  bool stop_ = false;
  std::exception_ptr pending_error_;  ///< first group-less throw
};

}  // namespace gx::util
