#include "influence/conjugate_gradient.h"

#include <cmath>
#include <string>

namespace rain {

Result<CgReport> ConjugateGradient(const LinearOperator& op, const Vec& b,
                                   const CgOptions& options) {
  if (b.empty()) return Status::InvalidArgument("CG with empty right-hand side");

  CgReport report;
  report.x.assign(b.size(), 0.0);
  Vec r = b;  // r = b - A*0
  Vec p = r;
  Vec ap(b.size(), 0.0);

  double rs = vec::NormSq(r);
  const double b_norm = std::sqrt(vec::NormSq(b));
  if (b_norm == 0.0) {
    report.converged = true;
    return report;
  }
  const double threshold = options.tol * b_norm;

  for (int iter = 0; iter < options.max_iters; ++iter) {
    report.iterations = iter;
    if (std::sqrt(rs) <= threshold) {
      report.converged = true;
      report.residual_norm = std::sqrt(rs);
      return report;
    }
    // One poll per HVP bounds cancellation latency to a single product.
    if (options.cancel != nullptr && options.cancel->ShouldStop()) {
      return Status::Cancelled("CG solve interrupted after " +
                               std::to_string(iter) + " iterations");
    }
    op(p, &ap);
    const double pap = vec::Dot(p, ap);
    if (pap <= 0.0 || !std::isfinite(pap)) {
      return Status::Internal(
          "CG encountered a non-positive-definite operator (p^T A p <= 0); "
          "increase damping");
    }
    const double alpha = rs / pap;
    vec::Axpy(alpha, p, &report.x);
    vec::Axpy(-alpha, ap, &r);
    const double rs_new = vec::NormSq(r);
    const double beta = rs_new / rs;
    for (size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
    rs = rs_new;
  }
  report.iterations = options.max_iters;
  report.residual_norm = std::sqrt(rs);
  report.converged = std::sqrt(rs) <= threshold;
  return report;
}

}  // namespace rain
