#ifndef RAIN_ML_TRAINER_H_
#define RAIN_ML_TRAINER_H_

#include <utility>
#include <vector>

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
  /// The full pass that confirmed convergence when Newton converged: the
  /// raw sums over the active rows at the returned parameters; empty
  /// otherwise. `pass.DataHessian()` is bitwise the Hessian data term
  /// Model::MeanLossGradientHessian returns there, which InfluenceScorer
  /// may reuse while the parameters and the active rows are unchanged;
  /// a NewtonStart holding the pass starts the next retrain.
  HessianPass pass;
};

/// \brief Where a warm Newton retrain starts instead of its first full
/// pass: the last converged pass and the training-data changes since it
/// ran. TrainModel moves the pass to the current active rows by
/// subtracting the terms of rows that became inactive and adding those of
/// rows that became active (DowndatePass).
struct NewtonStart {
  /// TrainReport::pass of the last converged train; empty = no start.
  HessianPass pass;
  /// Every row whose active flag flipped since `pass` ran, once per flip
  /// in any order (a row flipped twice is back where it was).
  std::vector<size_t> flipped;
  /// Every row whose label was overwritten since `pass` ran.
  std::vector<size_t> relabelled;

  /// Starts over from `converged` (empty: no start).
  void Reset(HessianPass converged = HessianPass()) {
    pass = std::move(converged);
    flipped.clear();
    relabelled.clear();
  }
  /// Records a change while a pass is held; without one there is nothing
  /// to downdate.
  void RecordFlip(size_t row) {
    if (!pass.empty()) flipped.push_back(row);
  }
  void RecordRelabel(size_t row) {
    if (!pass.empty()) relabelled.push_back(row);
  }
};

/// \brief Writes into `pass` the start's pass moved to the active rows of
/// `data`: minus the terms of rows that became inactive since, plus the
/// terms of rows that became active (Model::AddRowTerms). Returns false
/// when a full pass has to run instead: the start is empty or its
/// parameters are not bitwise the model's, a relabelled row was active in
/// the pass (its old term is unknown), the changed rows are not fewer than
/// the active rows, the pass's row count plus the recorded changes does
/// not give the active count, or the model has no one-pass Hessian.
bool DowndatePass(const Model& model, const Dataset& data, const NewtonStart& start,
                  HessianPass* pass);

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
/// (Appendix D notes the paper does the same). Given a `start` that
/// DowndatePass accepts, Newton's first iteration runs on the downdated
/// pass instead of a full one; convergence is still accepted only on a
/// full pass, so TrainReport::pass is always a fresh one.
///
/// Newton also stops, unconverged and without L-BFGS, when a line-search
/// step's predicted decrease falls below the rounding level of the loss:
/// past that point the loss is flat to working precision (the clamped
/// loss on separable data at l2 = 0) and neither method can make
/// measurable progress.
Result<TrainReport> TrainModel(Model* model, const Dataset& data,
                               const TrainConfig& config = TrainConfig(),
                               const NewtonStart* start = nullptr);

}  // namespace rain

#endif  // RAIN_ML_TRAINER_H_
