#include "ml/trainer.h"

namespace rain {

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

  TrainReport report;
  report.iterations = res.iterations;
  report.evaluations = res.evaluations;
  report.final_loss = res.fx;
  report.grad_norm = res.grad_norm;
  report.converged = res.converged;
  report.interrupted = res.interrupted;
  return report;
}

}  // namespace rain
