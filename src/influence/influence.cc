#include "influence/influence.h"

#include <algorithm>
#include <atomic>
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

/// Folds one CG outcome into a running summary: the largest iteration
/// count and residual, converged only while every solve converged.
void FoldCgReport(const CgReport& report, CgReport* summary) {
  summary->iterations = std::max(summary->iterations, report.iterations);
  summary->residual_norm = std::max(summary->residual_norm, report.residual_norm);
  summary->converged = summary->converged && report.converged;
}

/// A handed-in Hessian data term must be num_params x num_params.
Status CheckHessianShape(const Matrix* data_hessian, size_t num_params) {
  if (data_hessian != nullptr &&
      (data_hessian->rows() != num_params || data_hessian->cols() != num_params)) {
    return Status::InvalidArgument("Hessian shape does not match model parameters");
  }
  return Status::OK();
}

}  // namespace

InfluenceScorer::InfluenceScorer(const Model* model, const Dataset* train,
                                 InfluenceOptions options)
    : model_(model), train_(train), options_(options) {
  RAIN_CHECK(model_ != nullptr && train_ != nullptr);
  // One stop handle normally covers the whole scorer, CG solves included.
  if (options_.cg.cancel == nullptr) options_.cg.cancel = options_.cancel;
}

void InfluenceScorer::Hvp(const Vec& v, Vec* out) const {
  model_->HessianVectorProduct(*train_, v, options_.l2, out);
  if (options_.damping != 0.0) vec::Axpy(options_.damping, v, out);
}

const Matrix* InfluenceScorer::HookDataHessian(const Matrix* handed,
                                               Matrix* formed) const {
  if (!model_->DenseHessianFits(*train_)) return nullptr;
  if (handed != nullptr) return handed;
  double loss = 0.0;
  Vec grad;
  return model_->MeanLossGradientHessian(*train_, options_.l2, &loss, &grad, formed)
             ? formed
             : nullptr;
}

Status InfluenceScorer::FactorRegularized(const Matrix& data_hessian,
                                          Matrix* lower) const {
  // The diagonal shift in the order the Hessian-vector product applies
  // it: the regularization first, then the damping.
  Matrix regularized = data_hessian;
  for (size_t j = 0; j < regularized.rows(); ++j) {
    regularized.At(j, j) += 2.0 * options_.l2;
    if (options_.damping != 0.0) regularized.At(j, j) += options_.damping;
  }
  if (!CholeskyFactor(regularized, lower)) {
    return Status::Internal(
        "influence Hessian is not positive definite (Cholesky pivot <= 0); "
        "increase damping");
  }
  return Status::OK();
}

Status InfluenceScorer::Prepare(const Vec& q_grad, const Matrix* data_hessian) {
  if (q_grad.size() != model_->num_params()) {
    return Status::InvalidArgument("q gradient size does not match model parameters");
  }
  RAIN_RETURN_NOT_OK(CheckHessianShape(data_hessian, model_->num_params()));
  Matrix formed;
  if (const Matrix* h = HookDataHessian(data_hessian, &formed)) {
    if (options_.cg.cancel != nullptr && options_.cg.cancel->ShouldStop()) {
      return Status::Cancelled("influence solve interrupted");
    }
    Matrix lower;
    RAIN_RETURN_NOT_OK(FactorRegularized(*h, &lower));
    s_ = q_grad;
    ForwardSubstitute(lower, &s_);
    BackSubstitute(lower, &s_);
    cg_iterations_ = 0;
    cg_residual_norm_ = 0.0;
    cg_converged_ = true;
    prepared_ = true;
    return Status::OK();
  }
  LinearOperator op = [this](const Vec& v, Vec* out) { Hvp(v, out); };
  RAIN_ASSIGN_OR_RETURN(CgReport report, ConjugateGradient(op, q_grad, options_.cg));
  s_ = std::move(report.x);
  cg_iterations_ = report.iterations;
  cg_residual_norm_ = report.residual_norm;
  cg_converged_ = report.converged;
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

bool InfluenceScorer::ScoreRange(size_t begin, size_t end, const RowScore& row_score,
                                 std::vector<double>* scores) const {
  Vec grad(model_->num_params(), 0.0);
  for (size_t i = begin; i < end; ++i) {
    if (options_.cancel != nullptr && options_.cancel->ShouldStop()) return false;
    if (!train_->active(i)) continue;
    grad.assign(model_->num_params(), 0.0);
    model_->AddExampleLossGradient(train_->row(i), train_->label(i), &grad);
    (*scores)[i] = row_score(&grad);
  }
  return true;
}

bool InfluenceScorer::ScoreRows(const RowScore& row_score,
                                std::vector<double>* scores) const {
  // Embarrassingly parallel: each record's score is a pure function of its
  // own gradient and read-only scorer state, so any partition yields
  // scores bitwise identical to the sequential loop. A stop request makes
  // every chunk bail within one record.
  std::atomic<bool> interrupted{false};
  const bool complete = ParallelForCancellable(
      options_.parallelism, train_->size(), kScoreGrain, options_.cancel,
      [&](size_t begin, size_t end, size_t) {
        if (!ScoreRange(begin, end, row_score, scores)) interrupted = true;
      });
  return complete && !interrupted;
}

std::vector<double> InfluenceScorer::ScoreAll() const {
  RAIN_CHECK(prepared_) << "Prepare() must be called first";
  std::vector<double> scores(train_->size(), 0.0);
  // Partial scores after a stop request are only ever seen by callers
  // that check interruption before acting on them (DebugSession checks at
  // the rank boundary).
  (void)ScoreRows([this](Vec* grad) { return -vec::Dot(s_, *grad); }, &scores);
  return scores;
}

Result<std::vector<double>> InfluenceScorer::DenseSelfInfluenceAll(
    const Matrix& data_hessian) const {
  const Status cancelled = Status::Cancelled("self-influence scoring interrupted");
  if (options_.cancel != nullptr && options_.cancel->ShouldStop()) return cancelled;
  Matrix lower;
  RAIN_RETURN_NOT_OK(FactorRegularized(data_hessian, &lower));
  // grad^T (L L^T)^{-1} grad = ||L^{-1} grad||^2. The factor is read-only
  // from here on, shared by every worker.
  std::vector<double> scores(train_->size(), 0.0);
  const bool complete = ScoreRows(
      [&lower](Vec* grad) {
        ForwardSubstitute(lower, grad);
        return -vec::NormSq(*grad);
      },
      &scores);
  if (!complete) return cancelled;
  return scores;
}

Status InfluenceScorer::SelfInfluenceRange(size_t begin, size_t end,
                                           const LinearOperator& op,
                                           std::vector<double>* scores,
                                           CgReport* summary) const {
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
    FoldCgReport(*report, summary);
  }
  return Status::OK();
}

Result<std::vector<double>> InfluenceScorer::SelfInfluenceAll(
    const Matrix* data_hessian) {
  RAIN_RETURN_NOT_OK(CheckHessianShape(data_hessian, model_->num_params()));
  Matrix formed;
  if (const Matrix* h = HookDataHessian(data_hessian, &formed)) {
    return DenseSelfInfluenceAll(*h);
  }
  std::vector<double> scores(train_->size(), 0.0);
  // One CG solve per active record; solves are independent, so partition
  // records across deterministic chunks. Each chunk owns its CG summary
  // and stops at its first failing solve, recording the status; the
  // lowest-chunk (i.e. lowest-record-index) failure is reported, so the
  // returned status matches the sequential loop's regardless of
  // scheduling.
  CgReport empty;
  empty.converged = true;
  const size_t partitions =
      options_.parallelism < 1 ? 1 : static_cast<size_t>(options_.parallelism);
  std::vector<Status> status(partitions, Status::OK());
  std::vector<CgReport> summary(partitions, empty);
  const LinearOperator op = [this](const Vec& v, Vec* out) { Hvp(v, out); };
  const bool complete = ParallelForCancellable(
      options_.parallelism, train_->size(), options_.cancel,
      [&](size_t begin, size_t end, size_t partition) {
        status[partition] =
            SelfInfluenceRange(begin, end, op, &scores, &summary[partition]);
      });
  for (const Status& s : status) {
    if (!s.ok()) return s;
  }
  if (!complete) return Status::Cancelled("self-influence scoring interrupted");
  CgReport total = empty;
  for (const CgReport& r : summary) FoldCgReport(r, &total);
  cg_iterations_ = total.iterations;
  cg_residual_norm_ = total.residual_norm;
  cg_converged_ = total.converged;
  return scores;
}

}  // namespace rain
