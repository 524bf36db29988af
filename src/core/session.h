#ifndef RAIN_CORE_SESSION_H_
#define RAIN_CORE_SESSION_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "core/complaint.h"
#include "core/debugger.h"
#include "core/pipeline.h"
#include "core/ranker.h"
#include "incremental/update.h"

namespace rain {

/// The phases of one train-rank-fix iteration (Section 5.1), in execution
/// order. Cancellation and deadlines are checked at every phase boundary
/// and additionally polled *inside* the long train / rank loops (one poll
/// per Newton or L-BFGS iteration, per CG Hessian-vector product, and
/// per scored record), so a stuck solve no longer delays a stop by a
/// whole phase.
enum class DebugPhase : uint8_t { kTrain = 0, kBind, kRank, kFix };

/// Human-readable phase name ("train", "bind", "rank", "fix").
const char* DebugPhaseName(DebugPhase phase);

/// Outcome of one `DebugSession::Step()` call.
enum class StepStatus : uint8_t {
  /// A full train-rank-fix iteration ran and the session can continue.
  kIterated,
  /// Every complaint holds and `stop_when_resolved` is set; terminal.
  kResolved,
  /// The ranking produced nothing deletable (training set exhausted);
  /// terminal.
  kNoProgress,
  /// `max_deletions` records have been deleted; terminal.
  kBudgetExhausted,
  /// `max_iterations` iterations have run; terminal.
  kIterationLimit,
  /// `Cancel()` was observed at a phase boundary (or inside a phase loop);
  /// terminal. The report so far (including the partially timed
  /// iteration) remains valid.
  kCancelled,
  /// The deadline passed at a phase boundary; terminal like kCancelled,
  /// but reopened by `set_deadline` with a future deadline.
  kDeadlineExceeded,
  /// `Step()` on an already-finished session: a no-op.
  kAlreadyFinished,
};

/// Human-readable status name (e.g. "iterated", "resolved").
const char* StepStatusName(StepStatus status);

/// Result of one `Step()`: what happened, the iteration's phase timings,
/// and the records deleted by this step (also appended to the session
/// report's cumulative deletion sequence).
struct StepResult {
  StepStatus status = StepStatus::kAlreadyFinished;
  IterationStats stats;
  std::vector<size_t> new_deletions;
  /// True when the step's bind phase found every complaint satisfied.
  bool complaints_resolved = false;

  /// True when the step completed a full train-rank-fix iteration.
  /// Interrupted steps (kCancelled / kDeadlineExceeded) may still have
  /// recorded a partial iteration in the session report; no-op steps
  /// recorded nothing.
  bool advanced() const {
    return status == StepStatus::kIterated || status == StepStatus::kResolved ||
           status == StepStatus::kNoProgress;
  }
};

/// Streaming progress interface. Callbacks fire synchronously on the
/// thread calling `Step()` / `RunToCompletion()`, in deterministic phase
/// order within an iteration. Delivery is serialized under a
/// session-level mutex. Observers are borrowed and must outlive the
/// session.
///
/// ## Re-entrancy contract (enforced)
///
/// Observers must NOT re-enter the session from inside a callback: the
/// callback already runs under the session's observer mutex on the
/// stepping thread, so a nested `Step()` / `RunToCompletion()` /
/// `AddComplaints()` / `RemoveQuery()` / `set_deadline()` would deadlock
/// or corrupt in-flight phase state. The session asserts (RAIN_CHECK,
/// fatal in every build mode) that these entry points are never called
/// from the notifying thread while a callback is being delivered — which
/// is what makes service-side per-session metrics observers safe to
/// register unconditionally. The one sanctioned re-entry is
/// `DebugSession::Cancel()` (it only sets a flag); reading `report()`
/// state already handed to the callback is likewise fine.
class DebugObserver {
 public:
  virtual ~DebugObserver() = default;
  /// An iteration is about to run; `report` is the state so far.
  virtual void OnIterationStart(int iteration, const DebugReport& report) {
    (void)iteration;
    (void)report;
  }
  /// A phase finished. `seconds` is the phase wall time (for kFix the
  /// deletion bookkeeping time, not part of the Fig. 5 breakdown).
  virtual void OnPhaseComplete(int iteration, DebugPhase phase, double seconds) {
    (void)iteration;
    (void)phase;
    (void)seconds;
  }
  /// A training record was deleted during the fix phase, with the removal
  /// score that ranked it.
  virtual void OnDeletion(int iteration, size_t record, double score) {
    (void)iteration;
    (void)record;
    (void)score;
  }
};

/// \brief The execution-resource knobs of a debug session, collected into
/// one value, so the same value configures a standalone
/// `DebugSessionBuilder` (via `set_execution`) and a `DebugService`
/// session admission verbatim.
///
/// All fields are plain data; the fluent setters let call sites chain.
struct ExecutionOptions {
  /// Worker count applied end-to-end across an iteration (see
  /// `DebugConfig::parallelism` for the inheritance rule).
  int parallelism = 1;
  /// Absolute deadline checked between phases and inside phase loops.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Relative deadline in seconds from Build() time; combines with
  /// `deadline` by taking the earlier of the two.
  std::optional<double> timeout_seconds;
  /// Optional parent cancellation token: the session's own token becomes
  /// a child of it, so cancelling the parent (a service shutting down, a
  /// client connection dying) stops the session — while the session's
  /// `Cancel()` still stops only itself. Borrowed; must outlive Build().
  const CancellationToken* parent_cancel = nullptr;
  /// Streaming observers (borrowed; must outlive the session).
  std::vector<DebugObserver*> observers;

  ExecutionOptions& set_parallelism(int v) {
    parallelism = v;
    return *this;
  }
  ExecutionOptions& set_deadline(std::chrono::steady_clock::time_point tp) {
    deadline = tp;
    return *this;
  }
  ExecutionOptions& set_timeout_seconds(double seconds) {
    timeout_seconds = seconds;
    return *this;
  }
  ExecutionOptions& set_parent_cancel(const CancellationToken* token) {
    parent_cancel = token;
    return *this;
  }
  ExecutionOptions& add_observer(DebugObserver* obs) {
    if (obs != nullptr) observers.push_back(obs);
    return *this;
  }
};

/// Extra stop predicate for `RunToCompletion`: checked after every
/// iteration; returning true pauses the run (the session itself is NOT
/// finished and can be stepped or resumed later).
using StopCondition = std::function<bool(const DebugReport&)>;

/// A StopCondition pausing after `n` more iterations.
StopCondition StopAfterIterations(int n);
/// A StopCondition pausing once the cumulative explanation reaches `n`
/// deletions.
StopCondition StopAfterDeletions(size_t n);

/// \brief Batched multi-query bind (Section 6.5): executes every
/// complained-about query in debug mode and binds all complaints against
/// the fresh provenance, dispatching the per-query work across
/// `parallelism` workers.
///
/// Each query captures provenance into a thread-local staging `PolyArena`
/// (sharing only the read-only catalog and prediction views), then the
/// staging arenas are spliced into the pipeline's shared arena in workload
/// order with a single ordered pass (`PolyArena::Splice`). The resulting
/// arena, the order of the returned `BoundComplaint`s, and their remapped
/// `poly` ids are therefore bitwise-identical to sequential execution for
/// every `parallelism` value — multi-complaint workloads share one
/// provenance pass without giving up determinism.
///
/// Does not reset the pipeline's debug state; callers that want a fresh
/// arena (as `DebugSession::BindPhase` does each iteration) call
/// `Query2Pipeline::ResetDebugState` first. On error, the first failing
/// workload entry (in workload order) wins, regardless of scheduling.
///
/// \param pipeline the trained pipeline whose shared arena receives the
///        spliced provenance.
/// \param workload one entry per query with its complaints; entries with a
///        null `query` bind point complaints only.
/// \param parallelism worker count; <= 1 runs inline on the calling thread.
/// \return all bound complaints, in workload order (complaint order within
///         an entry preserved).
Result<std::vector<BoundComplaint>> BindWorkload(
    Query2Pipeline* pipeline, const std::vector<QueryComplaints>& workload,
    int parallelism);

/// `BindWorkload`, but keeping the per-entry grouping: element i holds the
/// bound complaints of workload[i] (ids remapped into the shared arena).
/// Concatenating the entries reproduces `BindWorkload`'s flat result
/// exactly. This is the primitive behind the session's bind cache: a
/// delta bind runs it over just the stale entries and splices their
/// staging arenas append-only into the persistent arena.
Result<std::vector<std::vector<BoundComplaint>>> BindWorkloadEntries(
    Query2Pipeline* pipeline, const std::vector<QueryComplaints>& workload,
    int parallelism);

/// Cumulative bind/encode cache counters for one session (see
/// docs/architecture.md, "Incremental engine").
struct BindCacheStats {
  /// Workload entries executed + bound (full binds count every entry).
  size_t entries_rebound = 0;
  /// Workload entries served from the cache (concrete values refreshed by
  /// re-evaluating their polynomials, no query execution).
  size_t entries_reused = 0;
  /// Full rebinds: the initial priming bind and arena compactions.
  size_t full_binds = 0;
  /// Bound complaints retracted by RemoveQuery / remove_queries deltas
  /// (their arena nodes are tombstoned in place).
  size_t tombstoned_complaints = 0;
};

/// \brief A resumable train-rank-fix debugging session (Section 5.1).
///
/// The loop is a first-class object:
///
///   - `Step()` runs exactly one train-rank-fix iteration and reports what
///     happened; stepping a finished session is a safe no-op.
///   - `RunToCompletion()` drives `Step()` until a terminal state (or an
///     optional `StopCondition` pauses it).
///   - `Cancel()` (thread-safe) and deadlines stop the loop at the next
///     phase boundary — or mid-phase, via the cancellation token plumbed
///     into the training and CG loops — leaving a valid partial
///     `DebugReport`.
///   - `DebugObserver`s stream per-phase progress (the Fig. 5/12 timing
///     breakdowns) while the loop runs.
///   - `AddComplaints` / `RemoveQuery` / `ApplyUpdate` mutate the workload
///     and training data between steps, so Section 6.5 multi-complaint
///     workloads can be grown incrementally instead of re-run from
///     scratch.
///
/// An iteration is the strict sequence the paper describes: train on the
/// active training set (fresh model parameters and prediction views),
/// bind the workload's complaints to the queries' provenance under those
/// predictions, rank the training records, and fix by deleting the top-k
/// (which the next train then sees).
///
/// Sessions are created by `DebugSessionBuilder`. The pipeline is borrowed
/// and must outlive the session; the session owns its ranker.
class DebugSession {
 public:
  DebugSession(const DebugSession&) = delete;
  DebugSession& operator=(const DebugSession&) = delete;

  /// Runs one train-rank-fix iteration: train -> bind -> rank -> fix, with
  /// observer callbacks after each phase and cancellation/deadline checks
  /// at every phase boundary. Returns an error Status only on pipeline /
  /// ranker failures; loop-control outcomes (converged, cancelled,
  /// budget) are reported through `StepResult::status`.
  Result<StepResult> Step();

  /// Steps until the session finishes or `stop` (if provided) returns
  /// true. Returns a copy of the report so far; the session stays usable
  /// (resume by calling again, or mutate the workload in between).
  Result<DebugReport> RunToCompletion(const StopCondition& stop = StopCondition());

  /// Requests cancellation; safe to call from any thread or from observer
  /// callbacks. Observed at the next phase boundary, and inside the
  /// train / rank loops within one optimizer iteration / CG product.
  void Cancel() { cancel_token_.Cancel(); }
  bool cancel_requested() const { return cancel_token_.cancelled(); }
  /// The session's cancellation token (the one handed to phase kernels).
  const CancellationToken& cancel_token() const { return cancel_token_; }

  /// Sets / replaces the deadline. A future deadline reopens a session
  /// that finished with kDeadlineExceeded. Like the workload mutators,
  /// must not be called while another thread steps the session (use
  /// `Cancel()` for cross-thread interruption).
  void set_deadline(std::chrono::steady_clock::time_point deadline);
  void clear_deadline();

  /// Appends a query+complaints batch to the workload, returning its slot
  /// index. Reopens a session that finished with kResolved (the new
  /// complaints may be violated).
  size_t AddComplaints(QueryComplaints batch);
  /// Removes the workload entry at `index` (later slots shift down by
  /// one). Returns false when out of range.
  bool RemoveQuery(size_t index);
  const std::vector<QueryComplaints>& workload() const { return workload_; }

  /// \brief Applies a batch of deltas (label edits, row activation flips,
  /// workload mutations) and prepares the session for an O(delta)
  /// redebug (src/incremental/update.h).
  ///
  /// On the incremental path the session keeps its provenance arena, bind
  /// cache, encode cache, and warm model parameters: the next `Step()`
  /// re-executes only workload entries the batch invalidated, refreshes
  /// cached complaints by re-evaluating their polynomials, and retrains
  /// warm from the current parameters. On the full path every cache is
  /// dropped, the arena is reset, and the model is restored to the
  /// parameters captured at session construction (a cold retrain — the
  /// exact from-scratch baseline the equivalence tests compare against).
  /// `UpdateOptions::policy` picks the path; kAuto thresholds on the
  /// touched-row fraction.
  ///
  /// Determinism contract: for a given post-update state, the incremental
  /// path's redebug is bitwise-identical at every worker count (the
  /// standard session discipline). Incremental vs full converge to the
  /// same deletion sequence; their floating-point trajectories may differ
  /// because warm- and cold-started retrains legitimately take different
  /// paths to the same optimum (see docs/architecture.md).
  ///
  /// Reopens a session that finished kResolved when the batch is
  /// non-empty. Like the other mutators: must not be called while another
  /// thread steps the session, nor from an observer callback. Errors
  /// (out-of-range rows/labels/indices) leave the session unchanged.
  Result<UpdateReport> ApplyUpdate(const UpdateBatch& batch,
                                   const UpdateOptions& options = UpdateOptions());

  /// Append-only journal of every delta applied (`AddComplaints`,
  /// `RemoveQuery`, `ApplyUpdate`).
  const DeltaLog& delta_log() const { return delta_log_; }
  /// Cumulative bind-cache counters (the satellite regression tests
  /// assert bind work proportional to the delta through these).
  const BindCacheStats& bind_cache_stats() const { return bind_cache_stats_; }
  /// Rank turns that reused the cached relaxed-poly batch structure.
  size_t encode_reuses() const { return encode_cache_.reuses; }

  /// The cumulative report: deletion sequence (explanation D), one
  /// IterationStats per (possibly partial) iteration, resolution flag.
  const DebugReport& report() const { return report_; }
  /// The resolved configuration (after parallelism inheritance).
  const DebugConfig& config() const { return config_; }
  /// True once a terminal StepStatus was reached.
  bool finished() const { return finished_; }
  /// The terminal status; kAlreadyFinished until `finished()`.
  StepStatus finish_status() const { return finish_status_; }
  int iterations_completed() const { return iterations_completed_; }
  const Ranker& ranker() const { return *ranker_; }
  Query2Pipeline* pipeline() { return pipeline_; }

 private:
  friend class DebugSessionBuilder;

  /// `exec` is the RESOLVED execution bundle: `Build()` has already folded
  /// `timeout_seconds` into `deadline` and copied parallelism into
  /// `config`; the ctor consumes only deadline, parent_cancel, observers.
  DebugSession(Query2Pipeline* pipeline, std::unique_ptr<Ranker> ranker,
               DebugConfig config, std::vector<QueryComplaints> workload,
               ExecutionOptions exec);

  // --- The four phases of one iteration, run in order by Step().
  /// (Re)trains on surviving records, warm start.
  Status TrainPhase(IterationStats* stats);
  /// Re-runs every complained-about query in debug mode and binds all
  /// complaints to the provenance (through the bind cache when enabled).
  /// The per-query executions are batched through `BindWorkloadEntries`
  /// at the session's parallelism; results are bitwise-independent of
  /// the worker count.
  Result<std::vector<BoundComplaint>> BindPhase(IterationStats* stats);
  /// Ranks training records with the configured approach.
  Result<RankOutput> RankPhase(const std::vector<BoundComplaint>& bound,
                               IterationStats* stats);
  /// Deletes the top-k active records by score; returns the count removed
  /// and streams OnDeletion callbacks.
  int FixPhase(const RankOutput& ranked, int iteration, StepResult* result);

  /// Appends `stats` to the report as one (possibly partial) iteration and
  /// copies it into `result`.
  void RecordIteration(IterationStats* stats, StepResult* result);
  /// Cancel/deadline check at a phase boundary. When interrupted
  /// mid-iteration, records the partial stats (note says after which
  /// phase) and finishes the session; returns true if interrupted.
  bool CheckInterrupted(DebugPhase last_phase, IterationStats* stats,
                        StepResult* result);
  bool DeadlinePassed() const {
    // The token check also picks up a deadline armed on a PARENT token
    // (a service-wide quota), which the session's own deadline_ mirror
    // cannot see.
    return (deadline_.has_value() &&
            std::chrono::steady_clock::now() >= *deadline_) ||
           cancel_token_.deadline_passed();
  }

  void Finish(StepStatus status);

  void NotifyIterationStart(int iteration);
  void NotifyPhaseComplete(int iteration, DebugPhase phase, double seconds);
  void NotifyDeletion(int iteration, size_t record, double score);
  /// Enforces the DebugObserver re-entrancy contract: fatal (RAIN_CHECK)
  /// when `entry` is invoked from inside an observer callback on the
  /// notifying thread.
  void CheckNotInObserverCallback(const char* entry) const;

  Query2Pipeline* pipeline_;
  std::unique_ptr<Ranker> ranker_;
  DebugConfig config_;
  std::vector<QueryComplaints> workload_;
  std::vector<DebugObserver*> observers_;
  std::mutex observer_mu_;
  /// The thread currently delivering observer callbacks (default id =
  /// none); what CheckNotInObserverCallback tests against.
  std::atomic<std::thread::id> observer_thread_{std::thread::id{}};
  std::optional<std::chrono::steady_clock::time_point> deadline_;

  DebugReport report_;
  int iterations_completed_ = 0;
  bool finished_ = false;
  StepStatus finish_status_ = StepStatus::kAlreadyFinished;
  CancellationToken cancel_token_;

  // --- Incremental engine state (src/incremental/update.h;
  // docs/architecture.md, "Incremental engine").
  /// One cache slot per workload entry, index-parallel to `workload_`.
  struct BindCacheEntry {
    /// The cached `bound` (and its arena nodes) reflect the entry; false
    /// forces a re-execute + re-bind on the next bind phase.
    bool valid = false;
    /// False when the entry's provenance structure may depend on the
    /// model (a model-dependent plan under Sort/Limit): such entries
    /// re-execute every iteration instead of refreshing from the cache.
    bool cacheable = true;
    std::vector<BoundComplaint> bound;
  };
  /// Re-evaluates every valid cache entry's complaints against the
  /// current predictions (concrete assignment + polynomial evaluation —
  /// bitwise the values a re-execution would produce).
  void RefreshCachedComplaints();
  /// Drops every bind-cache entry and the encode cache (the next bind
  /// phase resets the arena and rebinds everything).
  void InvalidateBindCache();
  std::vector<BindCacheEntry> bind_cache_;
  /// True once the cache holds a full bind of the current workload (the
  /// arena is persistent from then on until invalidated).
  bool bind_cache_primed_ = false;
  BindCacheStats bind_cache_stats_;
  /// Arena node count right after the last full bind; when delta splices
  /// and tombstones grow the arena past kArenaCompactFactor times this,
  /// the next bind phase compacts (full reset + rebind).
  size_t arena_nodes_after_full_bind_ = 0;
  /// Bumped whenever the persistent arena changes (reset or splice);
  /// gates the encode cache.
  uint64_t arena_generation_ = 0;
  RankContext::EncodeCache encode_cache_;
  /// Exact train-skip memo: true while the model parameters are a
  /// converged optimum for the CURRENT training data (set by a converged
  /// uninterrupted train, cleared by deletions / data deltas). Skipping
  /// is bitwise-exact: Newton or L-BFGS re-entered at a converged point
  /// returns the parameters untouched, and the prediction refresh
  /// recomputes the identical matrix.
  bool train_memo_valid_ = false;
  /// The last train's converged pass (TrainReport::pass, empty unless
  /// Newton converged) and the rows FixPhase and ApplyUpdate flipped or
  /// relabelled since: the next retrain starts from it. While
  /// train_memo_valid_ holds nothing changed since the pass, and the rank
  /// phase hands its Hessian data term to the scorer.
  NewtonStart newton_start_;
  /// Model parameters at session construction — the cold-start point the
  /// full-recompute path restores.
  Vec initial_params_;
  DeltaLog delta_log_;
};

/// \brief Fluent constructor for `DebugSession`.
///
/// Replaces the flat `DebugConfig` field soup at call sites:
///
///   RAIN_ASSIGN_OR_RETURN(auto session,
///       DebugSessionBuilder(&pipeline)
///           .ranker("holistic")
///           .top_k_per_iter(10)
///           .max_deletions(100)
///           .set_execution(ExecutionOptions().set_parallelism(8))
///           .workload({qc})
///           .Build());
///   RAIN_ASSIGN_OR_RETURN(DebugReport report, session->RunToCompletion());
///
/// `Build()` is also the single place where the session-level
/// `parallelism` value is inherited by the finer-grained knobs: it fans
/// out to the pipeline's TrainConfig (via `Query2Pipeline::set_parallelism`)
/// and to `InfluenceOptions::parallelism`, the latter only when it was
/// left at its default of 1.
class DebugSessionBuilder {
 public:
  explicit DebugSessionBuilder(Query2Pipeline* pipeline) : pipeline_(pipeline) {}

  /// The ranking strategy (required).
  DebugSessionBuilder& ranker(std::unique_ptr<Ranker> ranker) {
    ranker_ = std::move(ranker);
    ranker_status_ = Status::OK();  // installing a ranker supersedes a
                                    // failed ranker(name) attempt
    return *this;
  }
  /// Convenience: ranker by factory name ("loss", "infloss", "twostep",
  /// "holistic", "auto"); unknown names surface as a Build() error.
  DebugSessionBuilder& ranker(const std::string& name);
  /// Records removed per train-rank-fix iteration (paper: 10).
  DebugSessionBuilder& top_k_per_iter(int v) {
    config_.top_k_per_iter = v;
    return *this;
  }
  /// Total explanation size |D| to produce.
  DebugSessionBuilder& max_deletions(int v) {
    config_.max_deletions = v;
    return *this;
  }
  DebugSessionBuilder& max_iterations(int v) {
    config_.max_iterations = v;
    return *this;
  }
  /// Stop as soon as every complaint holds.
  DebugSessionBuilder& stop_when_resolved(bool v = true) {
    config_.stop_when_resolved = v;
    return *this;
  }
  /// \brief All execution-resource knobs in one value: worker count,
  /// deadline/timeout, parent cancellation token, observers.
  ///
  /// This is the one knob surface shared with the serve layer — a
  /// `DebugService` admits sessions from exactly this struct. Field
  /// semantics:
  ///
  ///   - `parallelism` overwrites `DebugConfig::parallelism` (the same
  ///     slot `config()` writes, so the later call wins). `Build()` then
  ///     resolves inheritance; see the class comment and
  ///     `DebugConfig::parallelism`.
  ///   - `deadline` / `timeout_seconds` / `parent_cancel` / `observers`
  ///     REPLACE any previously supplied execution bundle wholesale.
  DebugSessionBuilder& set_execution(ExecutionOptions exec) {
    config_.parallelism = exec.parallelism;
    exec_ = std::move(exec);
    return *this;
  }

  DebugSessionBuilder& influence(const InfluenceOptions& v) {
    config_.influence = v;
    return *this;
  }
  DebugSessionBuilder& ilp(const IlpSolveOptions& v) {
    config_.ilp = v;
    return *this;
  }
  /// Holistic relaxation rule (ablation knob).
  DebugSessionBuilder& relax_mode(RelaxMode v) {
    config_.relax_mode = v;
    return *this;
  }
  /// TwoStep q encoding over every ILP-touched row (ablation knob).
  DebugSessionBuilder& twostep_encode_all(bool v = true) {
    config_.twostep_encode_all = v;
    return *this;
  }
  /// Bulk import of a whole `DebugConfig` (config-sweeping benches);
  /// individual setters may refine it after.
  DebugSessionBuilder& config(const DebugConfig& c) {
    config_ = c;
    return *this;
  }

  /// Replaces the initial workload.
  DebugSessionBuilder& workload(std::vector<QueryComplaints> w) {
    workload_ = std::move(w);
    return *this;
  }
  /// Appends one query+complaints batch to the initial workload.
  DebugSessionBuilder& add_complaints(QueryComplaints batch) {
    workload_.push_back(std::move(batch));
    return *this;
  }

  /// Validates the configuration, resolves parallelism inheritance, and
  /// installs the session-level worker count on the pipeline.
  Result<std::unique_ptr<DebugSession>> Build();

 private:
  Query2Pipeline* pipeline_;
  std::unique_ptr<Ranker> ranker_;
  Status ranker_status_;  // deferred error from ranker(name)
  DebugConfig config_;
  std::vector<QueryComplaints> workload_;
  /// The execution bundle handed to the session. `parallelism` is
  /// mirrored into `config_` at setter time (so `set_execution` and
  /// `config()` interleave with last-write-wins semantics); Build() reads
  /// deadline/timeout/parent_cancel/observers from here.
  ExecutionOptions exec_;
};

}  // namespace rain

#endif  // RAIN_CORE_SESSION_H_
