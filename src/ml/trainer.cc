#include "ml/trainer.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace rain {

bool DowndatePass(const Model& model, const Dataset& data, const NewtonStart& start,
                  HessianPass* pass) {
  const size_t p = model.num_params();
  if (start.pass.sums.size() != p + p * p || start.pass.theta != model.params()) {
    return false;
  }
  // A row's active flag changed iff it flipped an odd number of times.
  std::vector<size_t> flips = start.flipped;
  std::sort(flips.begin(), flips.end());
  std::vector<size_t> gone, came;
  for (size_t k = 0; k < flips.size();) {
    const size_t row = flips[k];
    size_t next = k + 1;
    while (next < flips.size() && flips[next] == row) ++next;
    if (row >= data.size()) return false;
    if ((next - k) % 2 == 1) (data.active(row) ? came : gone).push_back(row);
    k = next;
  }
  for (size_t row : start.relabelled) {
    if (row >= data.size()) return false;
    const bool changed = std::binary_search(gone.begin(), gone.end(), row) ||
                         std::binary_search(came.begin(), came.end(), row);
    if (data.active(row) != changed) return false;  // active in the pass
  }
  if (gone.size() + came.size() >= data.num_active() ||
      start.pass.num_rows + came.size() != data.num_active() + gone.size()) {
    return false;
  }
  HessianPass gone_terms, came_terms;
  gone_terms.sums.assign(p + p * p, 0.0);
  came_terms.sums.assign(p + p * p, 0.0);
  if (!model.AddRowTerms(data, gone, &gone_terms) ||
      !model.AddRowTerms(data, came, &came_terms)) {
    return false;
  }
  *pass = start.pass;
  pass->num_rows = data.num_active();
  pass->loss = pass->loss - gone_terms.loss + came_terms.loss;
  for (size_t k = 0; k < pass->sums.size(); ++k) {
    pass->sums[k] = pass->sums[k] - gone_terms.sums[k] + came_terms.sums[k];
  }
  return true;
}

namespace {

/// Newton's method on the model's one-pass Hessian, from its current
/// parameters. Each iteration factors H_data + 2 l2 I, steps along the
/// Newton direction and backtracks with the L-BFGS line search's Armijo
/// constants; every trial is one full loss/gradient/Hessian pass, and an
/// accepted trial's gradient and Hessian drive the next iteration.
///
/// The first iteration runs on `start` downdated to the current rows when
/// DowndatePass accepts it, otherwise on a full pass. Convergence is
/// accepted only on a full pass: a downdated start that already meets
/// grad_tol is confirmed by one at the same parameters. So the pass that
/// confirms convergence is a fresh one at the returned parameters, and it
/// lands in report->pass; downdate rounding never carries into the next
/// retrain.
///
/// Returns false when L-BFGS has to take over from the model's current
/// (last accepted) parameters: the model has no hook, the factor is not
/// positive definite (l2 = 0 on separable data), or the line search
/// stalled. report->iterations/evaluations then hold the Newton work done.
bool NewtonMinimize(Model* model, const Dataset& data, const TrainConfig& config,
                    const NewtonStart* start, TrainReport* report) {
  const LbfgsOptions line_search;
  HessianPass pass;
  const bool downdated = start != nullptr && DowndatePass(*model, data, *start, &pass);
  if (!downdated) {
    if (!model->SumLossGradientHessian(data, &pass)) return false;
    report->evaluations = 1;
  }
  double fx = 0.0;
  Vec grad;
  Matrix hessian;
  pass.Finish(config.l2, &fx, &grad, &hessian);
  if (downdated && vec::InfNorm(grad) <= config.grad_tol) {
    model->SumLossGradientHessian(data, &pass);
    ++report->evaluations;
    pass.Finish(config.l2, &fx, &grad, &hessian);
  }
  Vec theta = model->params();
  Vec theta_new, grad_new, direction;
  HessianPass pass_new;
  Matrix hessian_new, regularized, lower;
  for (int iter = 0; iter < config.max_iters; ++iter) {
    report->iterations = iter;
    report->final_loss = fx;
    report->grad_norm = vec::InfNorm(grad);
    if (report->grad_norm <= config.grad_tol) {
      report->converged = true;
      report->pass = std::move(pass);
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
      // A step whose predicted decrease is below the rounding level of
      // |fx| cannot show a sufficient decrease, only noise: the loss is
      // flat to working precision. Stop unconverged; L-BFGS would stall
      // on the same flat loss.
      if (fx + line_search.armijo_c1 * step * dg >= fx) {
        model->set_params(theta);
        return true;
      }
      theta_new = theta;
      vec::Axpy(step, direction, &theta_new);
      model->set_params(theta_new);
      model->SumLossGradientHessian(data, &pass_new);
      pass_new.Finish(config.l2, &fx_new, &grad_new, &hessian_new);
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
    std::swap(pass, pass_new);
    fx = fx_new;
  }
  report->iterations = config.max_iters;
  report->final_loss = fx;
  report->grad_norm = vec::InfNorm(grad);
  return true;
}

}  // namespace

Result<TrainReport> TrainModel(Model* model, const Dataset& data,
                               const TrainConfig& config, const NewtonStart* start) {
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
  if (model->DenseHessianFits(data) && NewtonMinimize(model, data, config, start, &report)) {
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
