#include "genasmx/util/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace gx::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    tasks_.push(Task{std::move(task), nullptr});
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (pending_error_) {
    std::exception_ptr err = std::exchange(pending_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t min_chunk) {
  if (n == 0) return;
  const std::size_t chunks = std::min(n, size() * 4);
  const std::size_t step = std::max((n + chunks - 1) / chunks, min_chunk);
  if (step >= n) {
    // A single chunk runs on the caller, which would only block on it
    // anyway: no queue round-trip, no worker wake-up.
    fn(0, n);
    return;
  }
  // The group outlives every chunk because we block on it below, so the
  // workers may hold raw pointers into this frame.
  Group group;
  {
    std::lock_guard lock(mu_);
    for (std::size_t begin = 0; begin < n; begin += step) {
      const std::size_t end = std::min(begin + step, n);
      tasks_.push(Task{[&fn, begin, end] { fn(begin, end); }, &group});
      ++group.in_flight;
    }
  }
  cv_task_.notify_all();
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [&group] { return group.in_flight == 0; });
  if (group.error) {
    std::exception_ptr err = std::exchange(group.error, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    std::exception_ptr err;
    try {
      task.fn();
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard lock(mu_);
      if (task.group != nullptr) {
        if (err && !task.group->error) task.group->error = err;
        if (--task.group->in_flight == 0) cv_idle_.notify_all();
      } else {
        if (err && !pending_error_) pending_error_ = err;
        if (--in_flight_ == 0) cv_idle_.notify_all();
      }
    }
  }
}

}  // namespace gx::util
