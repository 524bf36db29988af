#ifndef RAIN_COMMON_THREAD_POOL_H_
#define RAIN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/cancellation.h"

namespace rain {

/// \brief Fixed-size thread pool shared by every parallel kernel in Rain.
///
/// Deliberately work-stealing-free: tasks go through one FIFO queue, which
/// keeps the scheduler trivial to reason about. Determinism is achieved one
/// level up — ParallelFor splits work into a chunk count derived from the
/// requested parallelism (never from the pool size or scheduling order), so
/// results depend only on the `parallelism` knob a caller passes.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Tasks must not block waiting for queue slots.
  void Submit(std::function<void()> task);

  /// Pops and runs one queued task if any is pending. Returns false when the
  /// queue was empty. Blocked ParallelFor callers use this to help drain the
  /// queue, which makes nested parallel sections deadlock-free even on a
  /// single-worker pool.
  bool RunOneTask();

  /// Process-wide pool, created on first use. Sized from the
  /// RAIN_NUM_THREADS environment variable when set, otherwise from
  /// std::thread::hardware_concurrency().
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// \brief Bounded share counter for admission control over a shared
/// resource — in-tree, the process-wide ThreadPool.
///
/// The serve layer admits a debug session only if its declared worker
/// demand (the session's `parallelism` knob) still fits under a capacity
/// derived from the pool size. Shares are advisory: they do not reserve
/// threads (ParallelFor callers help drain the queue regardless), they
/// bound how much concurrent demand the service lets pile onto the pool
/// before refusing new work with `Status::kResourceExhausted` instead of
/// degrading every admitted session.
///
/// Thread-safe; acquire/release may happen from any thread.
class AdmissionController {
 public:
  /// `capacity` is clamped to >= 1.
  explicit AdmissionController(int capacity);

  /// Acquires `weight` shares (clamped to >= 1). Returns false — acquiring
  /// nothing — when the acquisition would exceed capacity. A single
  /// request heavier than the whole capacity is rejected even on an empty
  /// controller, so one caller cannot oversubscribe by going first.
  bool TryAcquire(int weight);
  /// Returns `weight` shares (clamped like TryAcquire; never below zero
  /// in total).
  void Release(int weight);

  int capacity() const;
  int acquired() const;

 private:
  mutable std::mutex mu_;
  int capacity_;
  int acquired_ = 0;
};

/// \brief The deterministic chunk count of a (parallelism, n, min_grain)
/// parallel loop: min(parallelism, n), further clamped so no chunk covers
/// fewer than `min_grain` iterations (`min_grain <= 1` preserves the
/// original min(parallelism, n) layout exactly).
///
/// A pure function of its three arguments — never of the pool size or of
/// scheduling — so a chunk layout is always reproducible. Exposed so
/// callers (and tests) can reason about the layout a loop will use.
size_t ParallelChunkCount(int parallelism, size_t n, size_t min_grain);

/// \brief Runs body(begin, end, chunk) over [0, n) split into
/// min(parallelism, n) contiguous chunks whose sizes differ by at most one.
///
/// The chunk layout depends only on (parallelism, n) — never on the pool
/// size or on scheduling — so any per-chunk computation is reproducible for
/// a fixed knob value. This is the deterministic-chunk contract every
/// parallel kernel in Rain is built on (see docs/architecture.md).
///
/// Blocks until every chunk finishes. If chunks throw, the first exception
/// (in completion order) is rethrown on the calling thread.
///
/// \param parallelism requested worker count. <= 1 (or n <= 1) runs
///        body(0, n, 0) inline on the calling thread with no
///        synchronization at all, which keeps the sequential path bitwise
///        identical to pre-parallel code.
/// \param n iteration-space size; nothing runs when 0.
/// \param body receives its half-open range [begin, end) and the chunk
///        index (0-based, < min(parallelism, n)); chunk 0 always runs on
///        the calling thread.
void ParallelFor(int parallelism, size_t n,
                 const std::function<void(size_t begin, size_t end, size_t chunk)>& body);

/// \brief ParallelFor with a minimum grain: the range is split into
/// ParallelChunkCount(parallelism, n, min_grain) chunks, so tiny ranges
/// stop spawning near-empty tasks whose fork/join handshake costs more
/// than the work they carry.
///
/// min_grain is part of the deterministic layout function (chunks depend
/// only on the three arguments); `min_grain <= 1` is byte-for-byte the
/// plain ParallelFor layout. Kernels whose chunks write disjoint slots
/// (per-record scores, per-row predictions) are bitwise layout-invariant
/// and may pick any grain freely; chunk-ordered reductions get a
/// *different deterministic* grouping per grain value, the same latitude
/// they already have across parallelism values (see docs/architecture.md,
/// "grain-size contract").
void ParallelFor(int parallelism, size_t n, size_t min_grain,
                 const std::function<void(size_t begin, size_t end, size_t chunk)>& body);

/// \brief Element-wise convenience over ParallelFor: body(i) for i in
/// [0, n), chunked by the same deterministic layout.
void ParallelForEach(int parallelism, size_t n,
                     const std::function<void(size_t i)>& body);

/// \brief ParallelFor that cooperatively observes a cancellation token:
/// each chunk checks `cancel` before running its range, so a stop request
/// skips every not-yet-started chunk while chunks already running finish
/// normally (they may poll the token themselves for finer grain).
///
/// Returns true when every chunk ran; false when at least one chunk was
/// skipped — the caller must treat any partial output as interrupted and
/// discard it (which keeps the deterministic-chunk contract intact: an
/// *uncancelled* call is indistinguishable from plain ParallelFor).
///
/// `cancel == nullptr` never cancels.
bool ParallelForCancellable(
    int parallelism, size_t n, const CancellationToken* cancel,
    const std::function<void(size_t begin, size_t end, size_t chunk)>& body);

/// \brief ParallelForCancellable with a minimum grain (see the grain
/// ParallelFor overload for layout semantics).
bool ParallelForCancellable(
    int parallelism, size_t n, size_t min_grain, const CancellationToken* cancel,
    const std::function<void(size_t begin, size_t end, size_t chunk)>& body);

}  // namespace rain

#endif  // RAIN_COMMON_THREAD_POOL_H_
