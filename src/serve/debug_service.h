#ifndef RAIN_SERVE_DEBUG_SERVICE_H_
#define RAIN_SERVE_DEBUG_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/future.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "core/session.h"
#include "incremental/update.h"

namespace rain {
namespace serve {

/// \brief An immutable dataset bundle the service hosts sessions over.
///
/// Registered once; every session opened against it gets its OWN
/// `Query2Pipeline` (own model, own catalog entry, own provenance arena)
/// whose training set is a copy-on-write `Dataset::View()` of `train` —
/// deletion debugging only flips per-session active masks, so N sessions
/// share ONE feature matrix + label block instead of N copies (the
/// query-side feature dataset in the catalog shares storage the same
/// way). `default_workload` holds `PlanPtr`s, which are immutable and
/// safely shared across all sessions.
struct HostedDataset {
  /// Registry key clients pass to `open`.
  std::string name;
  /// The queried relation as registered in each session's catalog.
  std::string table_name;
  Table table;
  /// Row-aligned feature matrix for `predict(*)` over `table`.
  Dataset query_features;
  /// The (typically corrupted) training set sessions debug.
  Dataset train;
  /// Complaints a session opens with when its spec carries none.
  std::vector<QueryComplaints> default_workload;
  /// Fresh untrained model per session (sessions must not share mutable
  /// model state).
  std::function<std::unique_ptr<Model>()> make_model;
  TrainConfig train_config;
};

/// A per-session pipeline over `dataset`: catalog copy (COW feature
/// datasets), fresh model, COW training view. Exposed for tests and for
/// building bitwise-reference standalone sessions next to hosted ones.
std::unique_ptr<Query2Pipeline> MakeSessionPipeline(const HostedDataset& dataset);

struct ServiceOptions {
  /// Hard cap on concurrently open sessions.
  int max_sessions = 64;
  /// Admission-share capacity; <= 0 derives 2x the global pool's worker
  /// count (mild oversubscription: ParallelFor callers help drain the
  /// queue, so shares bound demand, not threads).
  int admission_capacity = 0;
  /// Turn-driver threads. Sessions are independent (own pipeline, COW
  /// view), so drivers step different sessions genuinely in parallel;
  /// per-session results are bitwise-independent of this knob by the
  /// deterministic-chunk contract. 1 makes the turn log deterministic.
  int num_drivers = 2;
  /// Record the sid of every turn the drivers run (fairness tests).
  bool record_turn_log = false;
};

/// What a client asks for at `open`: which dataset, which ranking
/// strategy, the loop budgets, and — verbatim, the same struct the
/// standalone `DebugSessionBuilder::set_execution` takes — the execution
/// options. `exec.parallelism` doubles as the session's admission weight.
struct SessionSpec {
  std::string dataset;
  std::string ranker = "holistic";
  int top_k_per_iter = 10;
  int max_deletions = 100;
  int max_iterations = 10000;
  bool stop_when_resolved = true;
  ExecutionOptions exec;
  /// Empty: the dataset's `default_workload`.
  std::vector<QueryComplaints> workload;
};

enum class SessionState : uint8_t {
  kIdle = 0,  // open, no turn queued or running
  kQueued,    // waiting in the turn queue
  kRunning,   // a driver is inside DebugSession::Step
  kFinished,  // reached a terminal StepStatus (still open for status/report)
};

const char* SessionStateName(SessionState state);

/// Snapshot of one hosted session, readable at any time (counters come
/// from a metrics observer with atomic fields, so GetStatus never touches
/// session internals a driver may be mutating).
struct SessionStatus {
  uint64_t sid = 0;
  std::string dataset;
  SessionState state = SessionState::kIdle;
  int iterations_started = 0;
  size_t deletions = 0;
  bool finished = false;
  bool resolved = false;
  /// Meaningful when `finished`.
  StepStatus finish_status = StepStatus::kAlreadyFinished;
};

/// Result of one `Step(sid, n)` request: up to n iterations, stopping
/// early at any terminal status.
struct StepOutcome {
  StepStatus last_status = StepStatus::kAlreadyFinished;
  int steps_run = 0;
  std::vector<size_t> new_deletions;
  size_t total_deletions = 0;
  bool finished = false;
  bool resolved = false;
};

/// \brief Debug-as-a-service: hosts many concurrent `DebugSession`s over
/// shared immutable datasets.
///
/// Three mechanisms make multi-tenancy safe and fair:
///
///  - **Copy-on-write datasets.** Sessions get `Dataset::View()`s of one
///    registered training set; only active masks are per-session.
///  - **Admission control.** `Open` acquires `exec.parallelism` shares
///    from an `AdmissionController` sized from the global `ThreadPool`;
///    when shares (or `max_sessions`) run out it refuses with
///    `Status::kResourceExhausted` instead of degrading everyone.
///  - **Round-robin turns.** Step requests enter one FIFO; a driver pops
///    the front request, runs exactly ONE train-rank-fix iteration, and
///    re-enqueues the remainder at the tail — so an 8-iteration request
///    cannot starve a 1-iteration request behind it.
///
/// Every hosted session's cancellation token is a child of the service
/// root token (via `ExecutionOptions::parent_cancel`), so `Shutdown`
/// stops all sessions mid-phase while per-session `Cancel`/deadlines
/// stay independent. Because each session owns its pipeline and the
/// deterministic-chunk contract fixes per-session results as a function
/// of its own `parallelism` knob, a hosted session's deletion sequence is
/// bitwise-identical to running the same spec standalone — regardless of
/// pool size, driver count, or what other tenants do.
///
/// All public methods are thread-safe.
class DebugService {
 public:
  explicit DebugService(ServiceOptions options = ServiceOptions());
  ~DebugService();

  DebugService(const DebugService&) = delete;
  DebugService& operator=(const DebugService&) = delete;

  /// Registers a dataset bundle; kAlreadyExists on duplicate names,
  /// kInvalidArgument on missing pieces (name, model factory).
  Status RegisterDataset(HostedDataset dataset);
  std::vector<std::string> dataset_names() const;

  /// Admits and builds a session. Errors: kNotFound (unknown dataset),
  /// kResourceExhausted (session cap or admission shares), plus anything
  /// `DebugSessionBuilder::Build` reports (e.g. unknown ranker).
  Result<uint64_t> Open(const SessionSpec& spec);

  /// Enqueues up to `steps` iterations for `sid`; resolves when the
  /// session finished, the budget was used, or a turn failed. Turns from
  /// concurrent requests interleave round-robin (see class comment).
  Future<Result<StepOutcome>> StepAsync(uint64_t sid, int steps);
  /// Blocking form of `StepAsync`.
  Result<StepOutcome> Step(uint64_t sid, int steps);

  Result<SessionStatus> GetStatus(uint64_t sid) const;

  /// Appends complaints to the session's workload (between turns only:
  /// kInvalidArgument while queued/running).
  Status Complain(uint64_t sid, QueryComplaints batch);

  /// Applies a delta batch — label edits, row activation flips, workload
  /// mutations — via `DebugSession::ApplyUpdate` (between turns only:
  /// kInvalidArgument while queued/running). A non-empty batch reopens a
  /// finished-resolved session, so subsequent `Step`s re-debug the
  /// post-update state, incrementally when the policy allows.
  Result<UpdateReport> Update(uint64_t sid, const UpdateBatch& batch,
                              const UpdateOptions& options = UpdateOptions());

  /// Requests cancellation; safe while the session is mid-step.
  Status Cancel(uint64_t sid);

  /// Closes the session and releases its admission shares. A queued or
  /// running session is cancelled and reaped by the driver when its turn
  /// ends.
  Status Close(uint64_t sid);

  /// Full report; kInvalidArgument while a turn is queued or running.
  Result<DebugReport> Report(uint64_t sid) const;

  /// Cancels the root token, fails pending turns, joins drivers, closes
  /// every session. Idempotent; the destructor calls it.
  void Shutdown();

  /// The sids of turns run so far (requires `record_turn_log`); take it
  /// when no turns are in flight for a stable view.
  std::vector<uint64_t> turn_log() const;

  const CancellationToken& root_token() const { return root_token_; }
  int admission_capacity() const { return admission_.capacity(); }
  int admission_acquired() const { return admission_.acquired(); }
  size_t num_open_sessions() const;

 private:
  /// Streams per-session progress into atomics `GetStatus` can read while
  /// a driver is stepping. Registering it is safe by the DebugObserver
  /// re-entrancy contract (it never calls back into the session).
  class MetricsObserver : public DebugObserver {
   public:
    void OnIterationStart(int iteration, const DebugReport&) override {
      iterations_started_.store(iteration + 1, std::memory_order_relaxed);
    }
    void OnDeletion(int, size_t, double) override {
      deletions_.fetch_add(1, std::memory_order_relaxed);
    }
    int iterations_started() const {
      return iterations_started_.load(std::memory_order_relaxed);
    }
    size_t deletions() const {
      return deletions_.load(std::memory_order_relaxed);
    }

   private:
    std::atomic<int> iterations_started_{0};
    std::atomic<size_t> deletions_{0};
  };

  struct Hosted {
    uint64_t sid = 0;
    std::string dataset;
    std::unique_ptr<Query2Pipeline> pipeline;
    std::unique_ptr<MetricsObserver> metrics;
    std::unique_ptr<DebugSession> session;
    /// Admission shares held (the spec's parallelism, clamped >= 1).
    int weight = 1;
    SessionState state = SessionState::kIdle;
    /// Step requests not yet resolved (queued turns count once each).
    int pending_turns = 0;
    bool close_requested = false;
  };

  /// One queued step request; `remaining` counts down as its turns run.
  struct Turn {
    uint64_t sid = 0;
    int remaining = 0;
    StepOutcome acc;
    Promise<Result<StepOutcome>> promise;
  };

  void DriverLoop();
  /// Releases shares and erases; caller holds mu_.
  void ReapLocked(std::map<uint64_t, Hosted>::iterator it);
  Hosted* FindLocked(uint64_t sid);
  const Hosted* FindLocked(uint64_t sid) const;

  const ServiceOptions options_;
  CancellationToken root_token_;
  AdmissionController admission_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  uint64_t next_sid_ = 1;
  std::map<uint64_t, Hosted> sessions_;
  std::map<std::string, HostedDataset> datasets_;
  std::deque<Turn> queue_;
  std::vector<uint64_t> turn_log_;
  std::vector<std::thread> drivers_;
};

}  // namespace serve
}  // namespace rain

#endif  // RAIN_SERVE_DEBUG_SERVICE_H_
