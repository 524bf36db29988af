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
  /// forwarded to the L-BFGS loop and polled once per optimizer
  /// iteration. On a stop request training returns the best iterate so
  /// far with `TrainReport::interrupted = true` instead of erroring.
  const CancellationToken* cancel = nullptr;
};

struct TrainReport {
  int iterations = 0;
  /// Objective evaluations (one fused loss-and-gradient data pass each).
  int evaluations = 0;
  double final_loss = 0.0;
  double grad_norm = 0.0;
  bool converged = false;
  /// Training stopped on a cancellation/deadline; the model holds the
  /// last accepted (partial) parameters.
  bool interrupted = false;
};

/// \brief Trains `model` on the active rows of `data` by minimizing the
/// regularized mean cross-entropy with L-BFGS.
///
/// The model's current parameters are the starting point, so the
/// debugger's train-rank-fix loop gets warm-start retraining for free
/// (Appendix D notes the paper does the same).
Result<TrainReport> TrainModel(Model* model, const Dataset& data,
                               const TrainConfig& config = TrainConfig());

}  // namespace rain

#endif  // RAIN_ML_TRAINER_H_
