#include "common/thread_pool.h"

#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace rain {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  // Leaked on purpose (reachable via the static pointer): avoids destruction
  // order issues with worker threads at process exit.
  static ThreadPool* pool = [] {
    int n = 0;
    if (const char* env = std::getenv("RAIN_NUM_THREADS")) n = std::atoi(env);
    if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 1;
    return new ThreadPool(n);
  }();
  return *pool;
}

namespace {

/// Join-state for one ParallelFor batch.
struct Batch {
  std::mutex mu;
  std::condition_variable done;
  size_t remaining = 0;
  std::exception_ptr first_exception;
};

void RunChunk(const std::function<void(size_t, size_t, size_t)>& body, size_t begin,
              size_t end, size_t chunk, const std::shared_ptr<Batch>& batch) {
  std::exception_ptr exc;
  try {
    body(begin, end, chunk);
  } catch (...) {
    exc = std::current_exception();
  }
  std::lock_guard<std::mutex> lock(batch->mu);
  if (exc && !batch->first_exception) batch->first_exception = exc;
  if (--batch->remaining == 0) batch->done.notify_all();
}

/// Shared fork/join core: runs `body` over [0, n) in exactly `chunks`
/// contiguous near-equal chunks (callers compute `chunks` via
/// ParallelChunkCount so the layout stays a pure function of the knobs).
void ParallelForChunked(
    size_t chunks, size_t n,
    const std::function<void(size_t begin, size_t end, size_t chunk)>& body) {
  const size_t base = n / chunks;
  const size_t extra = n % chunks;  // first `extra` chunks get one more item
  auto batch = std::make_shared<Batch>();
  batch->remaining = chunks;

  ThreadPool& pool = ThreadPool::Global();
  size_t begin = 0;
  size_t chunk0_end = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t end = begin + base + (c < extra ? 1 : 0);
    if (c == 0) {
      chunk0_end = end;  // reserved for the calling thread
    } else {
      const size_t b = begin, e = end;
      pool.Submit([&body, b, e, c, batch] { RunChunk(body, b, e, c, batch); });
    }
    begin = end;
  }
  RunChunk(body, 0, chunk0_end, 0, batch);

  // Help drain the queue while waiting so nested parallel sections cannot
  // deadlock even when every worker is blocked in a ParallelFor of its own.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(batch->mu);
      if (batch->remaining == 0) break;
    }
    if (!pool.RunOneTask()) {
      std::unique_lock<std::mutex> lock(batch->mu);
      batch->done.wait(lock, [&] { return batch->remaining == 0; });
      break;
    }
  }
  if (batch->first_exception) std::rethrow_exception(batch->first_exception);
}

}  // namespace

size_t ParallelChunkCount(int parallelism, size_t n, size_t min_grain) {
  if (n == 0) return 0;
  size_t chunks = parallelism < 1 ? 1 : static_cast<size_t>(parallelism);
  if (chunks > n) chunks = n;
  if (min_grain > 1) {
    // Cap the chunk count so every chunk holds at least min_grain
    // iterations (the last chunk may hold fewer only when n < min_grain,
    // where the loop collapses to a single inline chunk anyway).
    const size_t cap = n / min_grain;
    if (chunks > cap) chunks = cap < 1 ? 1 : cap;
  }
  return chunks;
}

void ParallelFor(int parallelism, size_t n, size_t min_grain,
                 const std::function<void(size_t begin, size_t end, size_t chunk)>& body) {
  if (n == 0) return;
  const size_t chunks = ParallelChunkCount(parallelism, n, min_grain);
  if (chunks <= 1) {
    body(0, n, 0);
    return;
  }
  ParallelForChunked(chunks, n, body);
}

void ParallelFor(int parallelism, size_t n,
                 const std::function<void(size_t begin, size_t end, size_t chunk)>& body) {
  ParallelFor(parallelism, n, /*min_grain=*/1, body);
}

bool ParallelForCancellable(
    int parallelism, size_t n, size_t min_grain, const CancellationToken* cancel,
    const std::function<void(size_t begin, size_t end, size_t chunk)>& body) {
  if (cancel == nullptr) {
    ParallelFor(parallelism, n, min_grain, body);
    return true;
  }
  std::atomic<bool> skipped{false};
  ParallelFor(parallelism, n, min_grain,
              [&body, &skipped, cancel](size_t begin, size_t end, size_t chunk) {
                if (cancel->ShouldStop()) {
                  skipped.store(true, std::memory_order_relaxed);
                  return;
                }
                body(begin, end, chunk);
              });
  return !skipped.load(std::memory_order_relaxed);
}

bool ParallelForCancellable(
    int parallelism, size_t n, const CancellationToken* cancel,
    const std::function<void(size_t begin, size_t end, size_t chunk)>& body) {
  return ParallelForCancellable(parallelism, n, /*min_grain=*/1, cancel, body);
}

void ParallelForEach(int parallelism, size_t n,
                     const std::function<void(size_t i)>& body) {
  ParallelFor(parallelism, n, [&body](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) body(i);
  });
}

AdmissionController::AdmissionController(int capacity)
    : capacity_(capacity < 1 ? 1 : capacity) {}

bool AdmissionController::TryAcquire(int weight) {
  if (weight < 1) weight = 1;
  std::lock_guard<std::mutex> lock(mu_);
  if (acquired_ + weight > capacity_) return false;
  acquired_ += weight;
  return true;
}

void AdmissionController::Release(int weight) {
  if (weight < 1) weight = 1;
  std::lock_guard<std::mutex> lock(mu_);
  acquired_ -= weight;
  if (acquired_ < 0) acquired_ = 0;
}

int AdmissionController::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

int AdmissionController::acquired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acquired_;
}

}  // namespace rain
