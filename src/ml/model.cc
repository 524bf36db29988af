#include "ml/model.h"

#include "common/logging.h"
#include "common/thread_pool.h"

namespace rain {

int Model::PredictClass(const double* x) const {
  const int c = num_classes();
  std::vector<double> probs(c);
  PredictProba(x, probs.data());
  int best = 0;
  for (int j = 1; j < c; ++j) {
    if (probs[j] > probs[best]) best = j;
  }
  return best;
}

Matrix Model::PredictProbaMatrix(const Dataset& data) const {
  Matrix out(data.size(), static_cast<size_t>(num_classes()));
  ParallelFor(RowParallelism(data.size()), data.size(),
              [this, &data, &out](size_t begin, size_t end, size_t) {
                for (size_t i = begin; i < end; ++i) {
                  PredictProba(data.row(i), out.Row(i));
                }
              });
  return out;
}

double Model::AddExampleLossAndGradient(const double* x, int y, Vec* grad) const {
  const double loss = ExampleLoss(x, y);
  AddExampleLossGradient(x, y, grad);
  return loss;
}

double Model::AddRangeLossAndGradient(const Dataset& data, size_t begin, size_t end,
                                      Vec* grad) const {
  double loss = 0.0;
  for (size_t i = begin; i < end; ++i) {
    if (!data.active(i)) continue;
    loss += AddExampleLossAndGradient(data.row(i), data.label(i), grad);
  }
  return loss;
}

double Model::MeanLossAndGradient(const Dataset& data, double l2, Vec* grad) const {
  RAIN_CHECK(data.num_active() > 0) << "loss over empty dataset";
  grad->assign(num_params(), 0.0);
  const double loss = vec::ParallelAccumulate(
      RowParallelism(data.size()), data.size(), grad,
      [this, &data](size_t begin, size_t end, Vec* acc) {
        return AddRangeLossAndGradient(data, begin, end, acc);
      });
  return FinishMeanLossAndGradient(data, l2, loss, grad);
}

double Model::FinishMeanLossAndGradient(const Dataset& data, double l2,
                                        double loss_sum, Vec* grad) const {
  const double inv_n = 1.0 / static_cast<double>(data.num_active());
  for (double& g : *grad) g *= inv_n;
  vec::Axpy(2.0 * l2, params(), grad);
  double loss = loss_sum / static_cast<double>(data.num_active());
  loss += l2 * vec::NormSq(params());
  return loss;
}

bool Model::MeanLossGradientHessian(const Dataset&, double, double*, Vec*,
                                    Matrix*) const {
  return false;
}

}  // namespace rain
