#ifndef RAIN_INFLUENCE_INFLUENCE_H_
#define RAIN_INFLUENCE_INFLUENCE_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "influence/conjugate_gradient.h"
#include "ml/model.h"

namespace rain {

struct InfluenceOptions {
  /// Damping added to the Hessian (H + damping*I); required for positive
  /// definiteness on non-convex models (Appendix D / Koh & Liang).
  double damping = 0.0;
  /// L2 strength used during training (the Hessian includes 2*l2*I).
  double l2 = 1e-3;
  CgOptions cg;
  /// Worker count for per-record scoring (ScoreAll / SelfInfluenceAll):
  /// training records are partitioned across this many chunks, each worker
  /// computing its grad l(z, θ*)ᵀ s dot products independently. Per-record
  /// scores have no cross-record reduction, so parallel ScoreAll is bitwise
  /// identical to sequential for any value.
  int parallelism = 1;
  /// Optional cooperative stop handle (borrowed; must outlive any call
  /// made with these options). Polled per record inside ScoreAll /
  /// SelfInfluenceAll and inherited by `cg.cancel` when that was left
  /// unset, so a stop request also aborts the Hessian solve mid-CG.
  const CancellationToken* cancel = nullptr;
};

/// \brief Influence-function scorer (paper Section 4.1, Equation 4).
///
/// Given a trained model and a differentiable complaint encoding q(theta),
/// computes per-training-record removal scores
///     score(z) = -grad q(theta*)^T  H^{-1}  grad l(z, theta*).
/// Removing a record with a large positive score is predicted to decrease
/// q the most (i.e., to best address the user complaints). H is the
/// Hessian of the regularized mean training loss over active records.
///
/// Dense path: when the model has the one-pass Hessian hook
/// (Model::MeanLossGradientHessian) and the size rule holds
/// (Model::DenseHessianFits), Prepare and SelfInfluenceAll Cholesky-factor
/// H_data + (2 l2 + damping) I once and solve from the factor. Otherwise
/// both solve Hessian-free with conjugate gradient. The two calls pick
/// their path by the same rule, HookDataHessian.
class InfluenceScorer {
 public:
  /// Neither pointer is owned; both must outlive the scorer. `train` rows
  /// that are inactive are excluded from the Hessian and receive score 0.
  InfluenceScorer(const Model* model, const Dataset* train,
                  InfluenceOptions options = InfluenceOptions());

  /// Solves (H + damping I) s = q_grad once. Must be called before
  /// Score()/ScoreAll(). q_grad is grad_theta q(theta*).
  ///
  /// `data_hessian`, when given, is the Hessian data term at the model's
  /// current parameters over the scorer's active rows (a converged Newton
  /// retrain's TrainReport::pass.DataHessian()); the dense path then
  /// factors it instead of forming its own. It is ignored off the dense
  /// path. A factor that is not positive definite fails with
  /// Status::Internal.
  Status Prepare(const Vec& q_grad, const Matrix* data_hessian = nullptr);

  /// Removal score of training record i (0 for inactive records).
  double Score(size_t i) const;

  /// Scores for every training record (inactive rows get 0).
  std::vector<double> ScoreAll() const;

  /// CG accounting of the last solving call: Prepare's one solve, or the
  /// per-record solves of a CG-path SelfInfluenceAll (then the largest
  /// iteration count and residual over them, converged only when every
  /// solve converged). A dense-path Prepare runs no CG: it reads 0
  /// iterations, residual 0 and converged. The dense SelfInfluenceAll path
  /// leaves these unchanged. A solve that stops at cg.max_iters above
  /// tolerance still returns its iterate; rankers flag it in their note.
  int cg_iterations() const { return cg_iterations_; }
  bool cg_converged() const { return cg_converged_; }
  /// Final absolute residual norm ||b - A x||.
  double cg_residual_norm() const { return cg_residual_norm_; }

  /// \brief Self-influence scores for the InfLoss baseline [35]:
  ///     self(z) = -grad l(z)^T H^{-1} grad l(z)   (always <= 0).
  /// Records whose removal *increases their own loss* the most (largest
  /// negative value) rank at the top, so the baseline sorts ascending.
  ///
  /// Dense path, taken by the rule Prepare uses (the one-pass hook under
  /// num_params^2 <= num_active * num_features): takes the Hessian data
  /// term from `data_hessian` or the hook, Cholesky-factors it plus
  /// (2 l2 + damping) I once (L L^T), and scores each record as
  /// -||L^{-1} grad l(z)||^2 with one forward substitution. A Hessian that
  /// is not positive definite fails with Status::Internal. The factor is
  /// read-only while rows are scored, so scores are bitwise invariant to
  /// the worker count.
  ///
  /// Otherwise (softmax, the MLP, a logistic model over the size rule) it
  /// runs one CG solve per active record: the per-record-solve cost the
  /// paper reports for InfLoss (46s/iter vs ~1s) shows only on these
  /// models.
  Result<std::vector<double>> SelfInfluenceAll(const Matrix* data_hessian = nullptr);

 private:
  /// (H + damping I) v.
  void Hvp(const Vec& v, Vec* out) const;
  /// Per-record score from the record's loss gradient; may overwrite
  /// the gradient (it is scratch owned by the calling partition).
  using RowScore = std::function<double(Vec* grad)>;
  /// Writes row_score(grad l(z_i)) into (*scores)[i] for every active row,
  /// partitioned across workers in kScoreGrain chunks and polling the
  /// cancel token per record. Returns false when a stop request
  /// interrupted scoring.
  bool ScoreRows(const RowScore& row_score, std::vector<double>* scores) const;
  /// ScoreRows over rows [begin, end); returns false when interrupted.
  bool ScoreRange(size_t begin, size_t end, const RowScore& row_score,
                  std::vector<double>* scores) const;
  /// The Hessian data term of the one-pass hook under the size rule:
  /// `handed` when non-null, else `*formed` filled by the hook. Null when
  /// the rule fails or the model has no hook.
  const Matrix* HookDataHessian(const Matrix* handed, Matrix* formed) const;
  /// Cholesky factor of data_hessian + (2 l2 + damping) I; only the
  /// lower triangle of `data_hessian` is read.
  Status FactorRegularized(const Matrix& data_hessian, Matrix* lower) const;
  /// Dense SelfInfluenceAll over the Hessian data term `data_hessian`:
  /// one Cholesky factor, a triangular solve per row.
  Result<std::vector<double>> DenseSelfInfluenceAll(const Matrix& data_hessian) const;
  /// Self-influence scores of rows [begin, end) (one CG solve each) into
  /// `scores`; stops at the first failing solve or stop request. Folds
  /// each solve's iterations/residual/convergence into `summary`.
  Status SelfInfluenceRange(size_t begin, size_t end, const LinearOperator& op,
                            std::vector<double>* scores, CgReport* summary) const;

  const Model* model_;
  const Dataset* train_;
  InfluenceOptions options_;
  Vec s_;  // (H + damping)^-1 grad q
  bool prepared_ = false;
  int cg_iterations_ = 0;
  double cg_residual_norm_ = 0.0;
  bool cg_converged_ = true;
};

}  // namespace rain

#endif  // RAIN_INFLUENCE_INFLUENCE_H_
