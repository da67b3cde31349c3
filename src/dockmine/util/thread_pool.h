// Work-queue thread pool and parallel loop helpers.
//
// The downloader fetches manifests and layers concurrently (the paper's
// downloader "can download multiple images simultaneously and fetch the
// individual layers of an image in parallel", §III-B) and the analyzer
// profiles layers in parallel. Both sit on this pool. Design follows the
// classic bounded-MPMC + worker model: tasks are type-erased closures, the
// queue applies backpressure so a fast producer cannot buffer the whole
// dataset, and shutdown drains remaining work.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace dockmine::util {

/// Bounded multi-producer/multi-consumer FIFO. Blocking push/pop with
/// close() for shutdown. Mutex+condvar implementation: simple, correct, and
/// fully adequate here — queue operations are ~microseconds while the tasks
/// they carry (untar + classify a layer) are ~milliseconds.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Blocks while full. Returns false if the queue was closed.
  bool push(T item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty. Empty optional once closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

/// Fixed-size worker pool.
class ThreadPool {
 public:
  /// `threads == 0` selects hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0, std::size_t queue_capacity = 1024);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; blocks if the queue is full. No-op after shutdown().
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished executing.
  void wait_idle();

  /// Stop accepting work, drain the queue, join workers. Idempotent.
  void shutdown();

  std::size_t thread_count() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  BoundedQueue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;  // queued + executing, guarded by idle_mutex_
  bool shut_down_ = false;
};

/// Run `body(i)` for i in [begin, end) across `pool`, in contiguous chunks.
/// Blocks until all iterations complete. `grain` bounds chunk size so skewed
/// per-item cost (one 826k-file layer among thousands of tiny ones) cannot
/// serialize the loop.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  std::size_t grain,
                  const std::function<void(std::size_t)>& body);

}  // namespace dockmine::util
