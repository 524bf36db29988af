#include "influence/influence.h"

#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace rain {

namespace {

/// Minimum records per scoring chunk: one record's work is a single
/// example-gradient + dot product, far below a fork/join handshake, so
/// tiny score vectors run in fewer, fuller chunks. Per-record scores are
/// slot writes with no cross-record reduction, so the grain (like the
/// worker count) can never change a score bitwise.
constexpr size_t kScoreGrain = 256;

}  // namespace

InfluenceScorer::InfluenceScorer(const Model* model, const Dataset* train,
                                 InfluenceOptions options)
    : model_(model), train_(train), options_(options) {
  RAIN_CHECK(model_ != nullptr && train_ != nullptr);
  // A single parallelism knob is the common case: let it drive the CG
  // solver's vector kernels too unless the caller tuned them separately.
  cg_parallelism_inherited_ = options_.cg.parallelism <= 1;
  if (cg_parallelism_inherited_) options_.cg.parallelism = options_.parallelism;
  // Same rule for the stop handle: one token normally covers the whole
  // scorer, CG solves included.
  if (options_.cg.cancel == nullptr) options_.cg.cancel = options_.cancel;
  if (options_.shards != nullptr) {
    RAIN_CHECK(&options_.shards->base() == train_)
        << "InfluenceOptions::shards must view the scorer's training set";
    // Sharding's bitwise contract is worker-invariant; chunked CG vector
    // kernels would break it, so pin them to the sequential path.
    options_.cg.parallelism = 1;
  }
}

void InfluenceScorer::Hvp(const Vec& v, Vec* out, ShardScratch* scratch) const {
  if (options_.shards != nullptr) {
    model_->ShardedHessianVectorProduct(*options_.shards, v, options_.l2, out,
                                        options_.cancel, scratch);
  } else {
    model_->HessianVectorProduct(*train_, v, options_.l2, out);
  }
  if (options_.damping != 0.0) vec::Axpy(options_.damping, v, out);
}

Status InfluenceScorer::Prepare(const Vec& q_grad) {
  if (q_grad.size() != model_->num_params()) {
    return Status::InvalidArgument("q gradient size does not match model parameters");
  }
  // One CG solve = one sequential chain of HVPs: lend it one scratch so
  // the per-shard coefficient buffers are allocated once, not per
  // iteration. The scratch is local to this activation — a member would
  // be shared with the concurrent CG solves SelfInfluenceAll runs.
  ShardScratch scratch;
  LinearOperator op = [this, &scratch](const Vec& v, Vec* out) {
    Hvp(v, out, &scratch);
  };
  RAIN_ASSIGN_OR_RETURN(CgReport report, ConjugateGradient(op, q_grad, options_.cg));
  s_ = std::move(report.x);
  cg_iterations_ = report.iterations;
  prepared_ = true;
  return Status::OK();
}

double InfluenceScorer::Score(size_t i) const {
  RAIN_CHECK(prepared_) << "Prepare() must be called first";
  if (i >= train_->size() || !train_->active(i)) return 0.0;
  Vec grad(model_->num_params(), 0.0);
  model_->AddExampleLossGradient(train_->row(i), train_->label(i), &grad);
  return -vec::Dot(s_, grad);
}

bool InfluenceScorer::ScoreRange(size_t begin, size_t end,
                                 std::vector<double>* scores) const {
  Vec grad(model_->num_params(), 0.0);
  for (size_t i = begin; i < end; ++i) {
    if (options_.cancel != nullptr && options_.cancel->ShouldStop()) return false;
    if (!train_->active(i)) continue;
    grad.assign(model_->num_params(), 0.0);
    model_->AddExampleLossGradient(train_->row(i), train_->label(i), &grad);
    (*scores)[i] = -vec::Dot(s_, grad);
  }
  return true;
}

std::vector<double> InfluenceScorer::ScoreAll() const {
  RAIN_CHECK(prepared_) << "Prepare() must be called first";
  std::vector<double> scores(train_->size(), 0.0);
  // Embarrassingly parallel: each record's grad l(z, θ*)ᵀ s is independent,
  // so any partition yields scores bitwise identical to the sequential
  // loop. A stop request makes every chunk/shard bail within one record;
  // the partial scores are only ever seen by callers that check
  // interruption before acting on them (DebugSession checks at the rank
  // boundary).
  if (options_.shards != nullptr) {
    // Shards fan out through ParallelForCancellable. Each shard writes its
    // slice of the score vector — the per-shard vectors are "merged" in
    // shard order by construction — and the chunk count
    // min(parallelism, num_shards) bounds in-flight shards. The token is
    // polled per shard and per record (ScoreRange); results are
    // slice-disjoint either way.
    const ShardedDataset& shards = *options_.shards;
    ParallelForCancellable(
        options_.parallelism, shards.num_shards(), options_.cancel,
        [this, &scores, &shards](size_t begin, size_t end, size_t) {
          for (size_t s = begin; s < end; ++s) {
            if (options_.cancel != nullptr && options_.cancel->ShouldStop()) return;
            const ShardPlan::Range range = shards.shard_range(s);
            if (!ScoreRange(range.begin, range.end, &scores)) return;
          }
        });
    return scores;
  }
  ParallelForCancellable(options_.parallelism, train_->size(), kScoreGrain,
                         options_.cancel,
                         [this, &scores](size_t begin, size_t end, size_t) {
                           (void)ScoreRange(begin, end, &scores);
                         });
  return scores;
}

Status InfluenceScorer::SelfInfluenceRange(size_t begin, size_t end,
                                           const LinearOperator& op,
                                           std::vector<double>* scores) const {
  Vec grad(model_->num_params(), 0.0);
  for (size_t i = begin; i < end; ++i) {
    // Per-record poll: each record is a full CG solve, so this is
    // the coarsest check that still stops "within one solve" (the
    // solve itself polls per HVP through options_.cg.cancel).
    if (options_.cancel != nullptr && options_.cancel->ShouldStop()) {
      return Status::Cancelled("self-influence scoring interrupted");
    }
    if (!train_->active(i)) continue;
    grad.assign(model_->num_params(), 0.0);
    model_->AddExampleLossGradient(train_->row(i), train_->label(i), &grad);
    Result<CgReport> report = ConjugateGradient(op, grad, options_.cg);
    if (!report.ok()) return report.status();
    (*scores)[i] = -vec::Dot(grad, report->x);
  }
  return Status::OK();
}

Result<std::vector<double>> InfluenceScorer::SelfInfluenceAll() const {
  std::vector<double> scores(train_->size(), 0.0);
  // One CG solve per active record (the quadratic InfLoss bottleneck);
  // solves are independent, so partition records across workers — by
  // shard (fanned out through ParallelForCancellable, as in ScoreAll)
  // when a shard plan is installed, by deterministic chunk otherwise.
  // Each partition owns its own Hessian operator + ShardScratch (its CG
  // chain is sequential, but partitions run concurrently, so the scratch
  // cannot be shared) and stops at its first failing solve, recording the
  // status; the lowest-partition (i.e. lowest-record-index) failure is
  // reported, so the returned status matches the sequential loop's
  // regardless of scheduling.
  if (options_.shards != nullptr) {
    const ShardedDataset& shards = *options_.shards;
    std::vector<Status> shard_status(shards.num_shards(), Status::OK());
    const bool complete = ParallelForCancellable(
        options_.parallelism, shards.num_shards(), options_.cancel,
        [&](size_t begin, size_t end, size_t) {
          ShardScratch scratch;
          LinearOperator op = [this, &scratch](const Vec& v, Vec* out) {
            Hvp(v, out, &scratch);
          };
          for (size_t s = begin; s < end; ++s) {
            if (options_.cancel != nullptr && options_.cancel->ShouldStop()) {
              shard_status[s] = Status::Cancelled("self-influence scoring interrupted");
              return;
            }
            const ShardPlan::Range range = shards.shard_range(s);
            shard_status[s] = SelfInfluenceRange(range.begin, range.end, op, &scores);
            if (!shard_status[s].ok()) return;
          }
        });
    for (const Status& status : shard_status) {
      if (!status.ok()) return status;
    }
    if (!complete) return Status::Cancelled("self-influence scoring interrupted");
    return scores;
  }
  const size_t max_chunks =
      options_.parallelism < 1 ? 1 : static_cast<size_t>(options_.parallelism);
  std::vector<Status> chunk_status(max_chunks, Status::OK());
  const bool complete = ParallelForCancellable(
      options_.parallelism, train_->size(), options_.cancel,
      [&](size_t begin, size_t end, size_t chunk) {
        ShardScratch scratch;
        LinearOperator op = [this, &scratch](const Vec& v, Vec* out) {
          Hvp(v, out, &scratch);
        };
        chunk_status[chunk] = SelfInfluenceRange(begin, end, op, &scores);
      });
  for (const Status& status : chunk_status) {
    if (!status.ok()) return status;
  }
  if (!complete) return Status::Cancelled("self-influence scoring interrupted");
  return scores;
}

}  // namespace rain
