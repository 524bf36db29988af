#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "relational/plan.h"

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace rain {

const char* DebugPhaseName(DebugPhase phase) {
  switch (phase) {
    case DebugPhase::kTrain:
      return "train";
    case DebugPhase::kBind:
      return "bind";
    case DebugPhase::kRank:
      return "rank";
    case DebugPhase::kFix:
      return "fix";
  }
  return "?";
}

const char* StepStatusName(StepStatus status) {
  switch (status) {
    case StepStatus::kIterated:
      return "iterated";
    case StepStatus::kResolved:
      return "resolved";
    case StepStatus::kNoProgress:
      return "no-progress";
    case StepStatus::kBudgetExhausted:
      return "budget-exhausted";
    case StepStatus::kIterationLimit:
      return "iteration-limit";
    case StepStatus::kCancelled:
      return "cancelled";
    case StepStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case StepStatus::kAlreadyFinished:
      return "already-finished";
  }
  return "?";
}

StopCondition StopAfterIterations(int n) {
  // Baselined on first evaluation, so the same condition object pauses
  // again immediately if re-used on a resumed run.
  return [n, baseline = std::optional<size_t>()](const DebugReport& report) mutable {
    if (!baseline.has_value()) baseline = report.iterations.size();
    return report.iterations.size() >= *baseline + static_cast<size_t>(n);
  };
}

StopCondition StopAfterDeletions(size_t n) {
  return [n](const DebugReport& report) { return report.deletions.size() >= n; };
}

namespace {

void AppendNote(IterationStats* stats, const std::string& note) {
  if (!stats->note.empty()) stats->note += "; ";
  stats->note += note;
}

}  // namespace

DebugSession::DebugSession(Query2Pipeline* pipeline, std::unique_ptr<Ranker> ranker,
                           DebugConfig config,
                           std::vector<QueryComplaints> workload,
                           ExecutionOptions exec)
    : pipeline_(pipeline),
      ranker_(std::move(ranker)),
      config_(config),
      workload_(std::move(workload)),
      observers_(std::move(exec.observers)),
      deadline_(exec.deadline) {
  RAIN_CHECK(pipeline_ != nullptr && ranker_ != nullptr);
  // Re-root the token below the parent FIRST, so the session deadline
  // armed next lands on the session's own state — a hosted session's
  // deadline must never leak to siblings sharing the service root token.
  if (exec.parent_cancel != nullptr) {
    cancel_token_ = exec.parent_cancel->MakeChild();
  }
  // The session token reaches into every long phase loop: the trainer's
  // Newton / L-BFGS iterations (through Query2Pipeline::Train), and the
  // influence / CG kernels and TwoStep's ILP search (through the options
  // the rank context copies).
  if (deadline_.has_value()) cancel_token_.set_deadline(*deadline_);
  if (config_.influence.cancel == nullptr) {
    config_.influence.cancel = &cancel_token_;
  }
  if (config_.ilp.cancel == nullptr) config_.ilp.cancel = &cancel_token_;
  // The cold-start point the full-recompute path of ApplyUpdate restores;
  // captured before any warm retrain mutates the model.
  initial_params_ = pipeline_->model()->params();
  bind_cache_.resize(workload_.size());
}

void DebugSession::set_deadline(std::chrono::steady_clock::time_point deadline) {
  CheckNotInObserverCallback("DebugSession::set_deadline");
  deadline_ = deadline;
  cancel_token_.set_deadline(deadline);
  if (finished_ && finish_status_ == StepStatus::kDeadlineExceeded &&
      std::chrono::steady_clock::now() < deadline) {
    finished_ = false;
    finish_status_ = StepStatus::kAlreadyFinished;
  }
}

void DebugSession::clear_deadline() {
  CheckNotInObserverCallback("DebugSession::clear_deadline");
  deadline_.reset();
  cancel_token_.clear_deadline();
  if (finished_ && finish_status_ == StepStatus::kDeadlineExceeded) {
    finished_ = false;
    finish_status_ = StepStatus::kAlreadyFinished;
  }
}

size_t DebugSession::AddComplaints(QueryComplaints batch) {
  CheckNotInObserverCallback("DebugSession::AddComplaints");
  DeltaLogEntry log;
  log.batch.add_queries.push_back(batch);
  workload_.push_back(std::move(batch));
  // Delta path: only the new entry is stale — the next bind phase
  // executes and splices just this one, everything else refreshes from
  // the cache.
  bind_cache_.emplace_back();
  log.incremental = bind_cache_primed_;
  delta_log_.Append(std::move(log));
  // New complaints may be violated: a resolved session has work again.
  if (finished_ && finish_status_ == StepStatus::kResolved) {
    finished_ = false;
    finish_status_ = StepStatus::kAlreadyFinished;
  }
  return workload_.size() - 1;
}

bool DebugSession::RemoveQuery(size_t index) {
  CheckNotInObserverCallback("DebugSession::RemoveQuery");
  if (index >= workload_.size()) return false;
  // Tombstone: the entry's arena nodes stay in place (orphaned roots are
  // unreachable from every surviving complaint, so they are score-neutral
  // — dense gradients give them exact 0.0 and the weight accumulation
  // skips zeros); the arena compaction threshold reclaims them
  // eventually.
  if (index < bind_cache_.size()) {
    bind_cache_stats_.tombstoned_complaints += bind_cache_[index].bound.size();
    bind_cache_.erase(bind_cache_.begin() + static_cast<ptrdiff_t>(index));
  }
  workload_.erase(workload_.begin() + static_cast<ptrdiff_t>(index));
  DeltaLogEntry log;
  log.batch.remove_queries.push_back(index);
  log.incremental = bind_cache_primed_;
  delta_log_.Append(std::move(log));
  if (finished_ && finish_status_ == StepStatus::kResolved) {
    finished_ = false;
    finish_status_ = StepStatus::kAlreadyFinished;
  }
  return true;
}

Result<UpdateReport> DebugSession::ApplyUpdate(const UpdateBatch& batch,
                                               const UpdateOptions& options) {
  CheckNotInObserverCallback("DebugSession::ApplyUpdate");
  Timer timer;
  Dataset* train = pipeline_->train_data();
  const size_t n = train->size();
  const int num_classes = train->num_classes();

  // Validate everything before mutating anything: a failed update leaves
  // the session exactly as it was.
  for (const LabelEdit& e : batch.label_edits) {
    if (e.row >= n) {
      return Status::InvalidArgument("ApplyUpdate: label edit row " +
                                     std::to_string(e.row) + " out of range (" +
                                     std::to_string(n) + " training rows)");
    }
    if (e.new_label < 0 || e.new_label >= num_classes) {
      return Status::InvalidArgument(
          "ApplyUpdate: label " + std::to_string(e.new_label) +
          " out of range (" + std::to_string(num_classes) + " classes)");
    }
  }
  for (size_t r : batch.deactivate_rows) {
    if (r >= n) {
      return Status::InvalidArgument("ApplyUpdate: deactivate row " +
                                     std::to_string(r) + " out of range");
    }
  }
  for (size_t r : batch.reactivate_rows) {
    if (r >= n) {
      return Status::InvalidArgument("ApplyUpdate: reactivate row " +
                                     std::to_string(r) + " out of range");
    }
  }
  // Removals are indices into the CURRENT workload (before this batch's
  // add_queries), applied descending so each index means what the caller
  // saw.
  std::vector<size_t> removals = batch.remove_queries;
  std::sort(removals.begin(), removals.end(), std::greater<size_t>());
  removals.erase(std::unique(removals.begin(), removals.end()), removals.end());
  for (size_t idx : removals) {
    if (idx >= workload_.size()) {
      return Status::InvalidArgument("ApplyUpdate: remove_queries index " +
                                     std::to_string(idx) + " out of range (" +
                                     std::to_string(workload_.size()) +
                                     " workload entries)");
    }
  }

  UpdateReport rep;
  rep.touched_rows = batch.touched_rows();
  switch (options.policy) {
    case UpdatePolicy::kIncremental:
      rep.incremental = true;
      break;
    case UpdatePolicy::kFull:
      rep.incremental = false;
      break;
    case UpdatePolicy::kAuto:
      rep.incremental = static_cast<double>(rep.touched_rows) <=
                        options.incremental_threshold *
                            static_cast<double>(std::max<size_t>(n, 1));
      break;
  }

  // --- Data deltas. Label edits detach the COW storage on first write
  // (sibling tenants sharing it are unaffected).
  for (const LabelEdit& e : batch.label_edits) {
    if (train->label(e.row) != e.new_label) newton_start_.RecordRelabel(e.row);
    train->set_label(e.row, e.new_label);
  }
  for (size_t r : batch.deactivate_rows) {
    if (train->active(r)) newton_start_.RecordFlip(r);
    train->Deactivate(r);
  }
  for (size_t r : batch.reactivate_rows) {
    if (!train->active(r)) newton_start_.RecordFlip(r);
    train->Reactivate(r);
  }
  if (batch.touches_data()) train_memo_valid_ = false;

  // --- Workload deltas. Data deltas never invalidate bind-cache entries:
  // queries read catalog tables, not the training set, and the provenance
  // structure is prediction-independent — only the polynomials' values
  // change, which the next bind phase refreshes for free.
  for (size_t idx : removals) {
    if (idx < bind_cache_.size()) {
      rep.tombstoned_complaints += bind_cache_[idx].bound.size();
      bind_cache_.erase(bind_cache_.begin() + static_cast<ptrdiff_t>(idx));
    }
    workload_.erase(workload_.begin() + static_cast<ptrdiff_t>(idx));
  }
  bind_cache_stats_.tombstoned_complaints += rep.tombstoned_complaints;
  for (const QueryComplaints& qc : batch.add_queries) {
    workload_.push_back(qc);
    bind_cache_.emplace_back();
  }

  if (!rep.incremental) {
    // Full recompute: drop every cache, reset the provenance arena, and
    // restore the cold-start parameters so the next turn retrains from
    // scratch — the exact from-scratch baseline.
    InvalidateBindCache();
    pipeline_->ResetDebugState();
    ++arena_generation_;
    pipeline_->AdoptModelParams(initial_params_);
    train_memo_valid_ = false;
    newton_start_.Reset();
    rep.note = "full recompute: caches dropped, cold parameters restored";
  }

  for (const BindCacheEntry& e : bind_cache_) {
    if (e.valid) {
      ++rep.entries_cached;
    } else {
      ++rep.entries_invalidated;
    }
  }

  if (finished_ && finish_status_ == StepStatus::kResolved && !batch.empty()) {
    finished_ = false;
    finish_status_ = StepStatus::kAlreadyFinished;
    rep.reopened = true;
  }

  rep.seconds = timer.ElapsedSeconds();
  DeltaLogEntry log;
  log.batch = batch;
  log.incremental = rep.incremental;
  log.touched_rows = rep.touched_rows;
  log.seconds = rep.seconds;
  delta_log_.Append(std::move(log));
  return rep;
}

namespace {

/// RAII tag marking the thread currently delivering observer callbacks,
/// so re-entering entry points can detect themselves (the enforcement
/// behind the DebugObserver re-entrancy contract).
class ObserverDispatchScope {
 public:
  explicit ObserverDispatchScope(std::atomic<std::thread::id>* slot) : slot_(slot) {
    slot_->store(std::this_thread::get_id(), std::memory_order_release);
  }
  ~ObserverDispatchScope() {
    slot_->store(std::thread::id{}, std::memory_order_release);
  }
  ObserverDispatchScope(const ObserverDispatchScope&) = delete;
  ObserverDispatchScope& operator=(const ObserverDispatchScope&) = delete;

 private:
  std::atomic<std::thread::id>* slot_;
};

}  // namespace

void DebugSession::CheckNotInObserverCallback(const char* entry) const {
  RAIN_CHECK(observer_thread_.load(std::memory_order_acquire) !=
             std::this_thread::get_id())
      << entry
      << ": re-entered from a DebugObserver callback; observers must not "
         "call back into the session (see the DebugObserver re-entrancy "
         "contract; Cancel() is the one sanctioned exception)";
}

void DebugSession::NotifyIterationStart(int iteration) {
  std::lock_guard<std::mutex> lock(observer_mu_);
  ObserverDispatchScope in_callback(&observer_thread_);
  for (DebugObserver* obs : observers_) obs->OnIterationStart(iteration, report_);
}

void DebugSession::NotifyPhaseComplete(int iteration, DebugPhase phase,
                                       double seconds) {
  std::lock_guard<std::mutex> lock(observer_mu_);
  ObserverDispatchScope in_callback(&observer_thread_);
  for (DebugObserver* obs : observers_) obs->OnPhaseComplete(iteration, phase, seconds);
}

void DebugSession::NotifyDeletion(int iteration, size_t record, double score) {
  std::lock_guard<std::mutex> lock(observer_mu_);
  ObserverDispatchScope in_callback(&observer_thread_);
  for (DebugObserver* obs : observers_) obs->OnDeletion(iteration, record, score);
}

void DebugSession::Finish(StepStatus status) {
  finished_ = true;
  finish_status_ = status;
}

void DebugSession::RecordIteration(IterationStats* stats, StepResult* result) {
  stats->deletions_after = report_.deletions.size();
  report_.iterations.push_back(*stats);
  ++iterations_completed_;
  result->stats = *stats;
}

bool DebugSession::CheckInterrupted(DebugPhase last_phase, IterationStats* stats,
                                    StepResult* result) {
  StepStatus status;
  if (cancel_requested()) {
    status = StepStatus::kCancelled;
  } else if (DeadlinePassed()) {
    status = StepStatus::kDeadlineExceeded;
  } else {
    return false;
  }
  // Record the partially completed iteration so the report stays a
  // faithful account of the work actually done.
  AppendNote(stats, std::string(StepStatusName(status)) + " after " +
                        DebugPhaseName(last_phase) + " phase");
  RecordIteration(stats, result);
  Finish(status);
  result->status = status;
  return true;
}

// --------------------------------------------------------------- stages

Status DebugSession::TrainPhase(IterationStats* stats) {
  if (train_memo_valid_) {
    // Exact skip: the parameters are already a converged optimum for the
    // current training data (nothing changed since the train that set the
    // memo). Re-running would be a no-op — the optimizer re-entered at a
    // converged point returns the parameters untouched and the prediction
    // refresh recomputes the identical matrix — so skipping is
    // bitwise-neutral, not an approximation.
    stats->train_seconds = 0.0;
    stats->train_converged = true;
    stats->train_grad_norm = 0.0;
    return Status::OK();
  }
  Timer timer;
  RAIN_ASSIGN_OR_RETURN(TrainReport trained,
                        pipeline_->Train(&cancel_token_, &newton_start_));
  stats->train_seconds = timer.ElapsedSeconds();
  stats->train_iterations = trained.iterations;
  stats->train_evaluations = trained.evaluations;
  stats->train_converged = trained.converged;
  stats->train_grad_norm = trained.grad_norm;
  train_memo_valid_ = trained.converged && !trained.interrupted;
  newton_start_.Reset(std::move(trained.pass));
  if (trained.interrupted) {
    // The boundary check right after this phase turns the partial model
    // into a recorded partial iteration; the note pins down where.
    AppendNote(stats, "train stopped mid-optimization after " +
                          std::to_string(trained.iterations) +
                          " optimizer iterations");
  }
  return Status::OK();
}

Result<std::vector<std::vector<BoundComplaint>>> BindWorkloadEntries(
    Query2Pipeline* pipeline, const std::vector<QueryComplaints>& workload,
    int parallelism) {
  /// Per-query staging state: a private arena plus the complaints bound
  /// against it (their `poly` ids are staging-local until the splice).
  struct Staged {
    std::unique_ptr<PolyArena> arena;
    std::vector<BoundComplaint> bound;
    Status status = Status::OK();
  };
  std::vector<Staged> staged(workload.size());
  ParallelForEach(parallelism, workload.size(), [&](size_t i) {
    Staged& s = staged[i];
    s.arena = std::make_unique<PolyArena>();
    const QueryComplaints& qc = workload[i];
    ExecResult result;  // empty placeholder for point-only workloads
    if (qc.query != nullptr) {
      auto exec = pipeline->ExecuteInto(qc.query, s.arena.get(), /*debug=*/true);
      if (!exec.ok()) {
        s.status = exec.status();
        return;
      }
      result = std::move(*exec);
    }
    for (const ComplaintSpec& spec : qc.complaints) {
      auto bc = BindComplaint(spec, result, s.arena.get(), pipeline->predictions(),
                              pipeline->catalog());
      if (!bc.ok()) {
        s.status = bc.status();
        return;
      }
      s.bound.insert(s.bound.end(), bc->begin(), bc->end());
    }
  });

  // Surface the first error in workload order BEFORE touching the shared
  // arena, so a failed bind leaves the pipeline's debug state unchanged.
  for (const Staged& s : staged) RAIN_RETURN_NOT_OK(s.status);

  // Single ordered splice into the shared arena: workload order, never
  // completion order, so the bound entries and the arena are
  // bitwise-stable. The splice is append-only, which is what lets the
  // session's bind cache keep earlier entries' ids valid across delta
  // binds.
  std::vector<std::vector<BoundComplaint>> entries;
  entries.reserve(staged.size());
  PolyArena* arena = pipeline->arena();
  for (Staged& s : staged) {
    const PolyArena::SpliceMap map = arena->Splice(*s.arena);
    std::vector<BoundComplaint> bound;
    bound.reserve(s.bound.size());
    for (BoundComplaint c : s.bound) {
      if (c.poly != kInvalidPoly) c.poly = map.node_map[c.poly];
      bound.push_back(c);
    }
    entries.push_back(std::move(bound));
  }
  return entries;
}

Result<std::vector<BoundComplaint>> BindWorkload(
    Query2Pipeline* pipeline, const std::vector<QueryComplaints>& workload,
    int parallelism) {
  RAIN_ASSIGN_OR_RETURN(std::vector<std::vector<BoundComplaint>> entries,
                        BindWorkloadEntries(pipeline, workload, parallelism));
  std::vector<BoundComplaint> bound;
  for (std::vector<BoundComplaint>& e : entries) {
    bound.insert(bound.end(), e.begin(), e.end());
  }
  return bound;
}

namespace {

bool PlanHasSortOrLimit(const PlanPtr& plan) {
  if (plan == nullptr) return false;
  if (plan->kind == PlanKind::kSort || plan->kind == PlanKind::kLimit) return true;
  for (const PlanPtr& child : plan->children) {
    if (PlanHasSortOrLimit(child)) return true;
  }
  return false;
}

bool PlanIsModelDependent(const PlanPtr& plan) {
  if (plan == nullptr) return false;
  if (plan->predicate != nullptr && plan->predicate->IsModelDependent()) return true;
  for (const ExprPtr& e : plan->exprs) {
    if (e != nullptr && e->IsModelDependent()) return true;
  }
  for (const ExprPtr& e : plan->group_by) {
    if (e != nullptr && e->IsModelDependent()) return true;
  }
  for (const AggSpec& agg : plan->aggs) {
    if (agg.arg != nullptr && agg.arg->IsModelDependent()) return true;
  }
  for (const PlanPtr& child : plan->children) {
    if (PlanIsModelDependent(child)) return true;
  }
  return false;
}

/// The bind cache relies on the provenance STRUCTURE of a debug-mode
/// execution being a pure function of (tables, workload) — independent of
/// the model's predictions, which only flow into the polynomials'
/// *values*. That holds for the paper's SPJA query class (debug mode
/// keeps candidate rows behind model-dependent filters/joins and expands
/// model-dependent GROUP BY keys one candidate per class). The one way
/// predictions could reorder or drop output rows structurally is a Sort /
/// Limit wrapper over model-dependent results, so such plans are binned
/// as uncacheable and re-execute every iteration.
bool PlanStructureCacheable(const PlanPtr& plan) {
  return !(PlanHasSortOrLimit(plan) && PlanIsModelDependent(plan));
}

bool EntryBindable(const std::vector<BoundComplaint>& bound) {
  for (const BoundComplaint& c : bound) {
    if (c.poly == kInvalidPoly) return false;  // nothing to re-evaluate
  }
  return true;
}

/// Arena growth factor (relative to the node count right after the last
/// full bind) past which the bind phase compacts: tombstoned provenance
/// from removed queries and repeated uncacheable-entry splices is
/// reclaimed by a full reset + rebind.
constexpr size_t kArenaCompactFactor = 4;

}  // namespace

void DebugSession::InvalidateBindCache() {
  for (BindCacheEntry& e : bind_cache_) {
    e.valid = false;
    e.bound.clear();
  }
  bind_cache_primed_ = false;
  encode_cache_.encoding.reset();
  encode_cache_.roots.clear();
}

void DebugSession::RefreshCachedComplaints() {
  // One concrete assignment and one ascending pass over the persistent
  // arena, shared by every cached complaint: current = values[poly]
  // reproduces the executor's concrete cell bitwise (the pass mirrors the
  // executor's summation order and zero-denominator guard), and violated
  // re-derives through the binder's own predicate.
  if (std::none_of(bind_cache_.begin(), bind_cache_.end(),
                   [](const BindCacheEntry& e) { return e.valid; })) {
    return;
  }
  const PolyArena* arena = pipeline_->arena();
  const Vec values =
      arena->EvaluateAll(pipeline_->predictions().ConcreteAssignment(*arena));
  for (BindCacheEntry& e : bind_cache_) {
    if (!e.valid) continue;
    for (BoundComplaint& c : e.bound) {
      if (c.poly == kInvalidPoly) continue;
      c.current = values[c.poly];
      c.violated = ComplaintViolated(c.op, c.current, c.target);
    }
  }
}

Result<std::vector<BoundComplaint>> DebugSession::BindPhase(IterationStats* stats) {
  Timer timer;
  RAIN_CHECK(bind_cache_.size() == workload_.size());
  const PolyArena* arena = pipeline_->arena();
  const bool compact =
      bind_cache_primed_ &&
      arena->num_nodes() >
          kArenaCompactFactor * std::max<size_t>(arena_nodes_after_full_bind_, 1);

  if (!bind_cache_primed_ || compact) {
    // Full bind: one fresh arena shared by every query so multi-query
    // complaints combine (Section 6.5). The arena then PERSISTS across
    // iterations (primed below).
    pipeline_->ResetDebugState();
    RAIN_ASSIGN_OR_RETURN(
        std::vector<std::vector<BoundComplaint>> entries,
        BindWorkloadEntries(pipeline_, workload_, config_.parallelism));
    ++arena_generation_;
    encode_cache_.encoding.reset();
    std::vector<BoundComplaint> bound;
    for (size_t i = 0; i < entries.size(); ++i) {
      BindCacheEntry& e = bind_cache_[i];
      e.bound = std::move(entries[i]);
      e.cacheable =
          PlanStructureCacheable(workload_[i].query) && EntryBindable(e.bound);
      e.valid = e.cacheable;
      bound.insert(bound.end(), e.bound.begin(), e.bound.end());
    }
    bind_cache_primed_ = true;
    arena_nodes_after_full_bind_ = pipeline_->arena()->num_nodes();
    bind_cache_stats_.entries_rebound += workload_.size();
    ++bind_cache_stats_.full_binds;
    stats->query_seconds = timer.ElapsedSeconds();
    for (const BoundComplaint& c : bound) stats->violated_complaints += c.violated;
    return bound;
  }

  // Delta bind: execute + bind only stale entries (new / invalidated /
  // uncacheable), splicing their staging arenas append-only into the
  // persistent arena; every other entry refreshes its concrete values by
  // re-evaluating cached polynomials under the fresh predictions — no
  // query execution, O(cached provenance) instead of O(dataset).
  std::vector<size_t> stale;
  for (size_t i = 0; i < bind_cache_.size(); ++i) {
    if (!bind_cache_[i].valid) stale.push_back(i);
  }
  if (!stale.empty()) {
    std::vector<QueryComplaints> sub;
    sub.reserve(stale.size());
    for (size_t i : stale) sub.push_back(workload_[i]);
    RAIN_ASSIGN_OR_RETURN(
        std::vector<std::vector<BoundComplaint>> entries,
        BindWorkloadEntries(pipeline_, sub, config_.parallelism));
    ++arena_generation_;
    for (size_t j = 0; j < stale.size(); ++j) {
      BindCacheEntry& e = bind_cache_[stale[j]];
      e.bound = std::move(entries[j]);
      e.cacheable = PlanStructureCacheable(workload_[stale[j]].query) &&
                    EntryBindable(e.bound);
      e.valid = e.cacheable;
    }
    bind_cache_stats_.entries_rebound += stale.size();
  }
  bind_cache_stats_.entries_reused += workload_.size() - stale.size();
  RefreshCachedComplaints();

  std::vector<BoundComplaint> bound;
  for (const BindCacheEntry& e : bind_cache_) {
    bound.insert(bound.end(), e.bound.begin(), e.bound.end());
  }
  stats->query_seconds = timer.ElapsedSeconds();
  for (const BoundComplaint& c : bound) stats->violated_complaints += c.violated;
  return bound;
}

Result<RankOutput> DebugSession::RankPhase(const std::vector<BoundComplaint>& bound,
                                           IterationStats* stats) {
  RankContext ctx;
  ctx.model = pipeline_->model();
  ctx.train = pipeline_->train_data();
  ctx.catalog = &pipeline_->catalog();
  ctx.arena = pipeline_->arena();
  ctx.predictions = &pipeline_->predictions();
  ctx.complaints = &bound;
  ctx.influence = config_.influence;
  ctx.ilp = config_.ilp;
  ctx.relax_mode = config_.relax_mode;
  ctx.twostep_encode_all = config_.twostep_encode_all;
  // Incremental re-encode: while the arena generation and root set are
  // unchanged, the ranker replays the cached relaxed-poly batch structure
  // instead of rebuilding its topological order (values are recomputed
  // from the fresh predictions either way — bitwise-neutral).
  ctx.encode_cache = &encode_cache_;
  ctx.arena_generation = arena_generation_;
  // The converged retrain's pass describes the current parameters and
  // active rows only while the train memo holds; every data change clears
  // the memo.
  Matrix data_hessian;
  if (train_memo_valid_ && !newton_start_.pass.empty()) {
    data_hessian = newton_start_.pass.DataHessian();
    ctx.data_hessian = &data_hessian;
  }
  RAIN_ASSIGN_OR_RETURN(RankOutput ranked, ranker_->Rank(ctx));
  // FixPhase indexes scores by row and orders them: a short vector or a
  // NaN (no strict weak ordering) from a custom ranker must not reach it.
  if (ranked.scores.size() != ctx.train->size()) {
    return Status::InvalidArgument(
        "ranker '" + ranker_->name() + "' returned " +
        std::to_string(ranked.scores.size()) + " scores for " +
        std::to_string(ctx.train->size()) + " training rows");
  }
  for (size_t i = 0; i < ranked.scores.size(); ++i) {
    if (ctx.train->active(i) && !std::isfinite(ranked.scores[i])) {
      return Status::InvalidArgument(
          "ranker '" + ranker_->name() + "' returned a non-finite score for "
          "active training row " + std::to_string(i));
    }
  }
  stats->encode_seconds = ranked.encode_seconds;
  stats->rank_seconds = ranked.rank_seconds;
  stats->ilp_nodes = ranked.ilp_nodes;
  stats->ilp_optimal = ranked.ilp_optimal;
  stats->ilp_warm_start_used = ranked.ilp_warm_start_used;
  if (!ranked.note.empty()) AppendNote(stats, ranked.note);
  return ranked;
}

int DebugSession::FixPhase(const RankOutput& ranked, int iteration,
                           StepResult* result) {
  Dataset* train = pipeline_->train_data();
  const int budget =
      std::min(config_.top_k_per_iter,
               config_.max_deletions - static_cast<int>(report_.deletions.size()));
  // The `budget` best active rows by (score desc, index asc) — the order a
  // stable descending sort of every row visits them in — kept in a bounded
  // heap whose top is the worst survivor, in one scan: O(n log k).
  const auto before = [&ranked](size_t a, size_t b) {
    const double sa = ranked.scores[a];
    const double sb = ranked.scores[b];
    return sa > sb || (sa == sb && a < b);
  };
  const size_t k = static_cast<size_t>(std::max(budget, 0));
  std::vector<size_t> order;
  order.reserve(std::min(k, train->num_active()));
  for (size_t i = 0; k > 0 && i < train->size(); ++i) {
    if (!train->active(i)) continue;
    if (order.size() < k) {
      order.push_back(i);
      std::push_heap(order.begin(), order.end(), before);
    } else if (before(i, order.front())) {
      std::pop_heap(order.begin(), order.end(), before);
      order.back() = i;
      std::push_heap(order.begin(), order.end(), before);
    }
  }
  std::sort_heap(order.begin(), order.end(), before);
  int removed = 0;
  for (size_t idx : order) {
    train->Deactivate(idx);
    newton_start_.RecordFlip(idx);
    report_.deletions.push_back(idx);
    result->new_deletions.push_back(idx);
    ++removed;
    NotifyDeletion(iteration, idx, ranked.scores[idx]);
  }
  // Deletions change the training data: the current parameters are no
  // longer its optimum.
  if (removed > 0) train_memo_valid_ = false;
  return removed;
}

// ---------------------------------------------------------- step driving

Result<StepResult> DebugSession::Step() {
  CheckNotInObserverCallback("DebugSession::Step");
  StepResult result;
  if (finished_) {
    result.status = StepStatus::kAlreadyFinished;
    result.complaints_resolved = report_.complaints_resolved;
    return result;
  }
  if (static_cast<int>(report_.deletions.size()) >= config_.max_deletions) {
    Finish(StepStatus::kBudgetExhausted);
    result.status = StepStatus::kBudgetExhausted;
    return result;
  }
  if (iterations_completed_ >= config_.max_iterations) {
    Finish(StepStatus::kIterationLimit);
    result.status = StepStatus::kIterationLimit;
    return result;
  }
  // Interruption before any phase ran: nothing to record.
  if (cancel_requested()) {
    Finish(StepStatus::kCancelled);
    result.status = StepStatus::kCancelled;
    return result;
  }
  if (DeadlinePassed()) {
    Finish(StepStatus::kDeadlineExceeded);
    result.status = StepStatus::kDeadlineExceeded;
    return result;
  }

  const int iteration = iterations_completed_;
  IterationStats stats;
  NotifyIterationStart(iteration);

  RAIN_RETURN_NOT_OK(TrainPhase(&stats));
  NotifyPhaseComplete(iteration, DebugPhase::kTrain, stats.train_seconds);
  if (CheckInterrupted(DebugPhase::kTrain, &stats, &result)) return result;

  RAIN_ASSIGN_OR_RETURN(std::vector<BoundComplaint> bound, BindPhase(&stats));
  NotifyPhaseComplete(iteration, DebugPhase::kBind, stats.query_seconds);
  result.complaints_resolved = stats.violated_complaints == 0;
  report_.complaints_resolved = result.complaints_resolved;
  if (result.complaints_resolved && config_.stop_when_resolved) {
    RecordIteration(&stats, &result);
    Finish(StepStatus::kResolved);
    result.status = StepStatus::kResolved;
    return result;
  }
  if (CheckInterrupted(DebugPhase::kBind, &stats, &result)) return result;

  Result<RankOutput> ranked = RankPhase(bound, &stats);
  if (!ranked.ok()) {
    // In-loop cancellation inside the solve: wind down as an interruption
    // after the last *completed* phase.
    if (ranked.status().IsCancelled() &&
        CheckInterrupted(DebugPhase::kBind, &stats, &result)) {
      return result;
    }
    return ranked.status();
  }
  NotifyPhaseComplete(iteration, DebugPhase::kRank,
                      stats.encode_seconds + stats.rank_seconds);
  if (CheckInterrupted(DebugPhase::kRank, &stats, &result)) return result;

  Timer fix_timer;
  const int removed = FixPhase(*ranked, iteration, &result);
  NotifyPhaseComplete(iteration, DebugPhase::kFix, fix_timer.ElapsedSeconds());
  RecordIteration(&stats, &result);
  if (removed == 0) {  // nothing left to delete
    Finish(StepStatus::kNoProgress);
    result.status = StepStatus::kNoProgress;
  } else {
    result.status = StepStatus::kIterated;
  }
  return result;
}

Result<DebugReport> DebugSession::RunToCompletion(const StopCondition& stop) {
  CheckNotInObserverCallback("DebugSession::RunToCompletion");
  // The stop condition is consulted BEFORE each step: resuming with an
  // already-satisfied condition must not run (and irreversibly delete
  // records in) an extra iteration.
  while (!finished_) {
    if (stop && stop(report_)) break;
    RAIN_ASSIGN_OR_RETURN(StepResult step, Step());
    if (step.status != StepStatus::kIterated) break;
  }
  return report_;
}

// ---------------------------------------------------------------- builder

DebugSessionBuilder& DebugSessionBuilder::ranker(const std::string& name) {
  auto made = MakeRanker(name);
  if (made.ok()) {
    ranker_ = std::move(*made);
    ranker_status_ = Status::OK();
  } else {
    ranker_status_ = made.status();
  }
  return *this;
}

Result<std::unique_ptr<DebugSession>> DebugSessionBuilder::Build() {
  if (pipeline_ == nullptr) {
    return Status::InvalidArgument("DebugSessionBuilder: pipeline is required");
  }
  RAIN_RETURN_NOT_OK(ranker_status_);
  if (ranker_ == nullptr) {
    return Status::InvalidArgument(
        "DebugSessionBuilder: a ranker is required (use .ranker(...))");
  }

  // The single place where the session-level parallelism fans out: the
  // pipeline's TrainConfig always tracks it (so 1 restores the exact
  // sequential path), while the influence-level knob inherits it only
  // when left at its default of 1.
  DebugConfig resolved = config_;
  resolved.parallelism = pipeline_->set_parallelism(resolved.parallelism);
  if (resolved.influence.parallelism <= 1) {
    resolved.influence.parallelism = resolved.parallelism;
  }

  // Resolve the execution bundle: fold the relative timeout into the
  // absolute deadline (earlier wins) and mirror the resolved parallelism
  // back so the session ctor receives one coherent value.
  ExecutionOptions exec = std::move(exec_);
  exec.parallelism = resolved.parallelism;
  if (exec.timeout_seconds.has_value()) {
    const auto timeout_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(*exec.timeout_seconds));
    if (!exec.deadline.has_value() || timeout_deadline < *exec.deadline) {
      exec.deadline = timeout_deadline;
    }
    exec.timeout_seconds.reset();
  }

  return std::unique_ptr<DebugSession>(
      new DebugSession(pipeline_, std::move(ranker_), resolved,
                       std::move(workload_), std::move(exec)));
}

}  // namespace rain
