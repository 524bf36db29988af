#ifndef RAIN_COMMON_FUTURE_H_
#define RAIN_COMMON_FUTURE_H_

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/thread_pool.h"

namespace rain {

/// \brief Single-assignment value channel between a producer thread and a
/// consumer thread.
///
/// `Promise<T>` is the producer end, `Future<T>` the consumer end; both
/// are cheap shared views onto one state block, so either side may
/// outlive the other. `Future<T>::Get()` blocks until the value (or an
/// exception) arrives — and, when invoked on a thread that could itself
/// be needed to make progress (a pool worker inside a nested wait), it
/// helps drain the shared ThreadPool queue instead of sleeping, which
/// keeps nested waits deadlock-free even on a single-worker pool.
template <typename T>
class Future;

template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<State>()) {}

  void Set(T value) {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->value.emplace(std::move(value));
      state_->ready = true;
    }
    state_->cv.notify_all();
  }

  void SetException(std::exception_ptr exc) {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->exception = exc;
      state_->ready = true;
    }
    state_->cv.notify_all();
  }

  Future<T> future() const { return Future<T>(state_); }

 private:
  friend class Future<T>;
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    std::optional<T> value;
    std::exception_ptr exception;
  };
  std::shared_ptr<State> state_;
};

template <typename T>
class Future {
 public:
  Future() = default;

  bool Ready() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->ready;
  }

  /// Blocks until the producer fulfilled the promise, draining pool tasks
  /// while waiting (see class comment).
  void Wait() const {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(state_->mu);
        if (state_->ready) return;
      }
      if (!ThreadPool::Global().RunOneTask()) {
        std::unique_lock<std::mutex> lock(state_->mu);
        state_->cv.wait(lock, [this] { return state_->ready; });
        return;
      }
    }
  }

  /// Waits, then returns the value (moved out — Get() consumes; call at
  /// most once per future chain) or rethrows the producer's exception.
  T Get() const {
    Wait();
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->exception) std::rethrow_exception(state_->exception);
    return std::move(*state_->value);
  }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<typename Promise<T>::State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<typename Promise<T>::State> state_;
};

}  // namespace rain

#endif  // RAIN_COMMON_FUTURE_H_
