#include "ml/lbfgs.h"

#include <cmath>
#include <deque>

#include "common/logging.h"

namespace rain {

LbfgsResult LbfgsMinimize(const Objective& objective, Vec x0,
                          const LbfgsOptions& options) {
  const size_t n = x0.size();
  LbfgsResult result;
  result.x = std::move(x0);

  Vec grad(n, 0.0);
  double fx = objective(result.x, &grad);
  result.evaluations = 1;

  struct Pair {
    Vec s, y;
    double rho;
  };
  std::deque<Pair> history;

  for (int iter = 0; iter < options.max_iters; ++iter) {
    result.iterations = iter;
    result.fx = fx;
    result.grad_norm = vec::InfNorm(grad);
    if (result.grad_norm <= options.grad_tol) {
      result.converged = true;
      return result;
    }
    // Cooperative cancellation: one poll per iteration bounds the stop
    // latency to a single (objective + line search) round.
    if (options.cancel != nullptr && options.cancel->ShouldStop()) {
      result.interrupted = true;
      return result;
    }

    // Two-loop recursion: d = -H_k grad.
    Vec q = grad;
    std::vector<double> alpha(history.size());
    for (size_t i = history.size(); i-- > 0;) {
      const Pair& p = history[i];
      alpha[i] = p.rho * vec::Dot(p.s, q);
      vec::Axpy(-alpha[i], p.y, &q);
    }
    if (!history.empty()) {
      const Pair& last = history.back();
      const double gamma =
          vec::Dot(last.s, last.y) / vec::Dot(last.y, last.y);
      vec::Scale(gamma, &q);
    }
    for (size_t i = 0; i < history.size(); ++i) {
      const Pair& p = history[i];
      const double beta = p.rho * vec::Dot(p.y, q);
      vec::Axpy(alpha[i] - beta, p.s, &q);
    }
    Vec direction = q;
    vec::Scale(-1.0, &direction);

    double dg = vec::Dot(direction, grad);
    if (dg >= 0.0) {
      // Not a descent direction (can happen with stale curvature on
      // non-convex objectives): fall back to steepest descent.
      direction = grad;
      vec::Scale(-1.0, &direction);
      dg = -vec::NormSq(grad);
      history.clear();
    }

    // Backtracking Armijo line search.
    double step = (iter == 0 && history.empty())
                      ? 1.0 / std::max(1.0, vec::Norm2(grad))
                      : 1.0;
    Vec x_new(n);
    Vec grad_new(n, 0.0);
    double fx_new = fx;
    bool accepted = false;
    while (step >= options.min_step) {
      x_new = result.x;
      vec::Axpy(step, direction, &x_new);
      fx_new = objective(x_new, &grad_new);
      ++result.evaluations;
      if (std::isfinite(fx_new) && fx_new <= fx + options.armijo_c1 * step * dg) {
        accepted = true;
        break;
      }
      step *= options.backtrack;
    }
    if (!accepted) {
      // Line search failed; we are at (numerical) stationarity.
      return result;
    }

    Pair pair;
    pair.s = vec::Sub(x_new, result.x);
    pair.y = vec::Sub(grad_new, grad);
    const double sy = vec::Dot(pair.s, pair.y);
    if (sy > 1e-12) {
      pair.rho = 1.0 / sy;
      history.push_back(std::move(pair));
      if (static_cast<int>(history.size()) > options.memory) history.pop_front();
    }

    result.x = std::move(x_new);
    grad = std::move(grad_new);
    fx = fx_new;
  }
  result.fx = fx;
  result.grad_norm = vec::InfNorm(grad);
  result.iterations = options.max_iters;
  return result;
}

}  // namespace rain
