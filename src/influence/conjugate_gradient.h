#ifndef RAIN_INFLUENCE_CONJUGATE_GRADIENT_H_
#define RAIN_INFLUENCE_CONJUGATE_GRADIENT_H_

#include <functional>

#include "common/cancellation.h"
#include "common/result.h"
#include "tensor/vector_ops.h"

namespace rain {

/// Linear operator v -> A v (A symmetric positive definite).
using LinearOperator = std::function<void(const Vec& v, Vec* out)>;

struct CgOptions {
  int max_iters = 200;
  /// Relative residual tolerance ||r|| <= tol * ||b||.
  double tol = 1e-8;
  /// Optional cooperative stop handle (borrowed; must outlive the call).
  /// Polled once per CG iteration — i.e. once per Hessian-vector
  /// product, the unit of work that dominates a solve — so a stuck solve
  /// stops within one HVP. A stop request surfaces as
  /// `Status::Cancelled`; when it does not fire, results are untouched.
  const CancellationToken* cancel = nullptr;
};

struct CgReport {
  Vec x;
  int iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
};

/// \brief Conjugate gradient solve of A x = b using only matrix-vector
/// products.
///
/// This is the Hessian-free machinery of Martens [51] / Koh & Liang [35]:
/// the influence-function Hessian inverse is never materialized; CG only
/// needs HVPs, so time and space scale linearly in the parameter count.
Result<CgReport> ConjugateGradient(const LinearOperator& op, const Vec& b,
                                   const CgOptions& options = CgOptions());

}  // namespace rain

#endif  // RAIN_INFLUENCE_CONJUGATE_GRADIENT_H_
