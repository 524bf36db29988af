#ifndef RAIN_ML_LBFGS_H_
#define RAIN_ML_LBFGS_H_

#include <functional>

#include "common/cancellation.h"
#include "tensor/vector_ops.h"

namespace rain {

/// Objective callback: returns f(x) and writes the gradient into *grad
/// (grad is pre-sized to x.size()).
using Objective = std::function<double(const Vec& x, Vec* grad)>;

struct LbfgsOptions {
  int max_iters = 500;
  /// Convergence on the infinity norm of the gradient.
  double grad_tol = 1e-7;
  /// History size for the two-loop recursion.
  int memory = 10;
  /// Armijo sufficient-decrease constant.
  double armijo_c1 = 1e-4;
  /// Backtracking shrink factor.
  double backtrack = 0.5;
  /// Give up on the line search below this step.
  double min_step = 1e-20;
  /// Optional cooperative stop handle (borrowed; must outlive the call).
  /// Polled once per L-BFGS iteration: a stop request ends the minimize
  /// within one iteration, returning the best iterate so far with
  /// `interrupted = true`. Never changes results when it does not fire.
  const CancellationToken* cancel = nullptr;
};

struct LbfgsResult {
  Vec x;
  double fx = 0.0;
  double grad_norm = 0.0;  // infinity norm at the final point
  int iterations = 0;
  /// Objective calls, line-search trials included.
  int evaluations = 0;
  bool converged = false;
  /// True when the run ended on a cancellation/deadline rather than on
  /// convergence or the iteration cap; `x` is the last accepted iterate.
  bool interrupted = false;
};

/// \brief Limited-memory BFGS with Armijo backtracking line search.
///
/// This is the optimizer used for all model training in Rain (the paper
/// trains with L-BFGS in TensorFlow). Curvature pairs with non-positive
/// s.y are skipped to keep the implicit Hessian approximation positive
/// definite, which also makes the routine usable on the (non-convex) MLP.
LbfgsResult LbfgsMinimize(const Objective& objective, Vec x0,
                          const LbfgsOptions& options = LbfgsOptions());

}  // namespace rain

#endif  // RAIN_ML_LBFGS_H_
