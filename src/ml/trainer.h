#ifndef RAIN_ML_TRAINER_H_
#define RAIN_ML_TRAINER_H_

#include "common/result.h"
#include "ml/lbfgs.h"
#include "ml/model.h"

namespace rain {

/// Training configuration shared by all experiments.
struct TrainConfig {
  /// L2 regularization strength lambda in L = (1/n) sum l + lambda ||theta||^2.
  double l2 = 1e-3;
  int max_iters = 300;
  double grad_tol = 1e-6;
  int lbfgs_memory = 10;
  /// Data-parallel worker count for loss/gradient evaluation during
  /// training (and for the trained model's subsequent batch operations —
  /// TrainModel installs it on the model via Model::set_parallelism).
  /// 1 = exact sequential arithmetic.
  int parallelism = 1;
  /// Optional cooperative stop handle (borrowed; must outlive the call),
  /// polled once per Newton or L-BFGS iteration. On a stop request
  /// training returns the last accepted iterate with
  /// `TrainReport::interrupted = true` instead of erroring.
  const CancellationToken* cancel = nullptr;
};

struct TrainReport {
  /// Optimizer iterations: Newton's, plus L-BFGS's when it took over.
  int iterations = 0;
  /// Objective evaluations: one fused data pass each (loss and gradient,
  /// plus the Hessian on the Newton path), line-search trials included.
  int evaluations = 0;
  double final_loss = 0.0;
  double grad_norm = 0.0;
  bool converged = false;
  /// Training stopped on a cancellation/deadline; the model holds the
  /// last accepted (partial) parameters.
  bool interrupted = false;
  /// The Hessian data term (Model::MeanLossGradientHessian) at the
  /// returned parameters when Newton converged; empty otherwise. Its
  /// consumer (InfluenceScorer::Prepare) may reuse it only while the
  /// parameters and the active rows are unchanged.
  Matrix hessian;
};

/// \brief Trains `model` on the active rows of `data` by minimizing the
/// regularized mean cross-entropy.
///
/// A model with the one-pass Hessian hook under the size rule
/// (Model::DenseHessianFits) trains by Newton's method: one fused
/// loss/gradient/Hessian pass per iteration and per line-search trial. It
/// continues with L-BFGS from the current iterate when the Hessian factor
/// fails (l2 = 0 on separable data) or the line search stalls. Every
/// other model trains with L-BFGS. Both stop on the infinity norm of the
/// gradient (grad_tol).
///
/// The model's current parameters are the starting point, so the
/// debugger's train-rank-fix loop gets warm-start retraining for free
/// (Appendix D notes the paper does the same).
Result<TrainReport> TrainModel(Model* model, const Dataset& data,
                               const TrainConfig& config = TrainConfig());

}  // namespace rain

#endif  // RAIN_ML_TRAINER_H_
