#include "ml/trainer.h"

#include <cmath>
#include <utility>

namespace rain {
namespace {

/// Newton's method on the model's one-pass Hessian, from its current
/// parameters. Each iteration factors H_data + 2 l2 I, steps along the
/// Newton direction and backtracks with the L-BFGS line search's Armijo
/// constants; every trial is one fused loss/gradient/Hessian pass, and an
/// accepted trial's gradient and Hessian drive the next iteration. So the
/// pass that confirms convergence yields the Hessian at the returned
/// parameters, which lands in report->hessian.
///
/// Returns false when L-BFGS has to take over from the model's current
/// (last accepted) parameters: the model has no hook, the factor is not
/// positive definite (l2 = 0 on separable data), or the line search
/// stalled. report->iterations/evaluations then hold the Newton work done.
bool NewtonMinimize(Model* model, const Dataset& data, const TrainConfig& config,
                    TrainReport* report) {
  const LbfgsOptions line_search;
  double fx = 0.0;
  Vec grad;
  Matrix hessian;
  if (!model->MeanLossGradientHessian(data, config.l2, &fx, &grad, &hessian)) {
    return false;
  }
  report->evaluations = 1;
  Vec theta = model->params();
  Vec theta_new, grad_new, direction;
  Matrix hessian_new, regularized, lower;
  for (int iter = 0; iter < config.max_iters; ++iter) {
    report->iterations = iter;
    report->final_loss = fx;
    report->grad_norm = vec::InfNorm(grad);
    if (report->grad_norm <= config.grad_tol) {
      report->converged = true;
      report->hessian = std::move(hessian);
      return true;
    }
    if (config.cancel != nullptr && config.cancel->ShouldStop()) {
      report->interrupted = true;
      return true;
    }

    regularized = hessian;
    for (size_t j = 0; j < regularized.rows(); ++j) {
      regularized.At(j, j) += 2.0 * config.l2;
    }
    if (!CholeskyFactor(regularized, &lower)) return false;
    direction = grad;
    ForwardSubstitute(lower, &direction);
    BackSubstitute(lower, &direction);
    vec::Scale(-1.0, &direction);
    const double dg = vec::Dot(direction, grad);

    // Armijo backtracking. Near the optimum the predicted decrease sinks
    // below the loss's rounding, so a trial whose gradient already passes
    // grad_tol is accepted as well.
    double fx_new = fx;
    bool accepted = false;
    for (double step = 1.0; step >= line_search.min_step;
         step *= line_search.backtrack) {
      theta_new = theta;
      vec::Axpy(step, direction, &theta_new);
      model->set_params(theta_new);
      model->MeanLossGradientHessian(data, config.l2, &fx_new, &grad_new,
                                     &hessian_new);
      ++report->evaluations;
      if (std::isfinite(fx_new) &&
          (fx_new <= fx + line_search.armijo_c1 * step * dg ||
           vec::InfNorm(grad_new) <= config.grad_tol)) {
        accepted = true;
        break;
      }
    }
    // A trial too short to move theta cannot make progress either.
    if (!accepted || theta_new == theta) {
      model->set_params(theta);
      return false;
    }
    std::swap(theta, theta_new);
    std::swap(grad, grad_new);
    std::swap(hessian, hessian_new);
    fx = fx_new;
  }
  report->iterations = config.max_iters;
  report->final_loss = fx;
  report->grad_norm = vec::InfNorm(grad);
  return true;
}

}  // namespace

Result<TrainReport> TrainModel(Model* model, const Dataset& data,
                               const TrainConfig& config) {
  if (model == nullptr) return Status::InvalidArgument("model is null");
  if (data.num_active() == 0) {
    return Status::InvalidArgument("cannot train on an empty (fully deleted) dataset");
  }
  if (data.num_features() != model->num_features()) {
    return Status::InvalidArgument("feature dimensionality mismatch");
  }
  if (data.num_classes() != model->num_classes()) {
    return Status::InvalidArgument("class count mismatch");
  }

  model->set_parallelism(config.parallelism);

  TrainReport report;
  if (model->DenseHessianFits(data) && NewtonMinimize(model, data, config, &report)) {
    return report;
  }

  Objective objective = [&](const Vec& theta, Vec* grad) {
    model->set_params(theta);
    return model->MeanLossAndGradient(data, config.l2, grad);
  };

  LbfgsOptions opts;
  opts.max_iters = config.max_iters;
  opts.grad_tol = config.grad_tol;
  opts.memory = config.lbfgs_memory;
  opts.cancel = config.cancel;

  LbfgsResult res = LbfgsMinimize(objective, model->params(), opts);
  model->set_params(res.x);

  report.iterations += res.iterations;
  report.evaluations += res.evaluations;
  report.final_loss = res.fx;
  report.grad_norm = res.grad_norm;
  report.converged = res.converged;
  report.interrupted = res.interrupted;
  return report;
}

}  // namespace rain
