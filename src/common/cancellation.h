#ifndef RAIN_COMMON_CANCELLATION_H_
#define RAIN_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <memory>

namespace rain {

/// \brief Cooperative cancellation handle shared by long-running kernels.
///
/// A token is a cheap copyable view onto shared state holding a cancel
/// flag and an optional deadline. Producers (DebugSession, DebugService)
/// call `Cancel()` / `set_deadline()`; consumers (the Newton and L-BFGS
/// training loops, the CG solver, per-record influence scoring) poll
/// `ShouldStop()` between chunks of work and wind down early, leaving
/// partial state their caller is expected to discard or record as
/// interrupted.
///
/// Tokens form a tree: `MakeChild()` returns a token that stops when it
/// is cancelled itself OR when any ancestor stops. The debug service
/// uses this for hosted sessions — cancelling one session's child token
/// stops just that session, while cancelling the service root token
/// stops every session.
///
/// Polling is two acquire loads per token in the chain, plus a clock read
/// only when a deadline is armed, so it is cheap enough for per-record
/// loops.
class CancellationToken {
 public:
  /// A fresh, un-cancelled token with no deadline.
  CancellationToken() : state_(std::make_shared<State>()) {}

  /// Requests cancellation; safe from any thread, idempotent, sticky.
  void Cancel() { state_->cancelled.store(true, std::memory_order_release); }

  bool cancelled() const {
    for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
      if (s->cancelled.load(std::memory_order_acquire)) return true;
    }
    return false;
  }

  /// Arms (or replaces) the deadline. Deadlines, like cancellation, are
  /// observed cooperatively at the consumers' polling points.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    state_->deadline_ns.store(deadline.time_since_epoch().count(),
                              std::memory_order_release);
  }
  void clear_deadline() { state_->deadline_ns.store(0, std::memory_order_release); }

  /// Loads every deadline up the parent chain first and reads the clock
  /// only when one of them is armed, so per-record polls of a token with
  /// no deadline cost no clock read.
  bool deadline_passed() const {
    int64_t earliest = 0;
    for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
      const int64_t d = s->deadline_ns.load(std::memory_order_acquire);
      if (d != 0 && (earliest == 0 || d < earliest)) earliest = d;
    }
    if (earliest == 0) return false;
    return std::chrono::steady_clock::now().time_since_epoch().count() >= earliest;
  }

  /// The single predicate consumers poll: cancelled or past a deadline,
  /// on this token or any ancestor.
  bool ShouldStop() const { return cancelled() || deadline_passed(); }

  /// A token linked below this one: it stops when this (or any ancestor)
  /// stops, and can additionally be cancelled on its own.
  CancellationToken MakeChild() const {
    CancellationToken child;
    child.state_->parent = state_;
    return child;
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    /// steady_clock nanoseconds-since-epoch; 0 = no deadline armed.
    std::atomic<int64_t> deadline_ns{0};
    std::shared_ptr<const State> parent;
  };

  std::shared_ptr<State> state_;
};

}  // namespace rain

#endif  // RAIN_COMMON_CANCELLATION_H_
