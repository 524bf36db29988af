#include "ml/model.h"

#include <cstddef>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace rain {
namespace {

/// The scaling MeanLossAndGradient applies after its pass: turns the
/// summed losses of `num_rows` rows and their summed gradient in `grad`
/// into the regularized mean loss at `theta` (returned) and its gradient.
double FinishMeanLoss(size_t num_rows, const Vec& theta, double l2, double loss_sum,
                      Vec* grad) {
  const double inv_n = 1.0 / static_cast<double>(num_rows);
  for (double& g : *grad) g *= inv_n;
  vec::Axpy(2.0 * l2, theta, grad);
  double loss = loss_sum / static_cast<double>(num_rows);
  loss += l2 * vec::NormSq(theta);
  return loss;
}

}  // namespace

void HessianPass::Finish(double l2, double* mean_loss, Vec* grad,
                         Matrix* data_hessian) const {
  const size_t p = theta.size();
  grad->assign(sums.begin(), sums.begin() + static_cast<ptrdiff_t>(p));
  *mean_loss = FinishMeanLoss(num_rows, theta, l2, loss, grad);
  *data_hessian = DataHessian();
}

Matrix HessianPass::DataHessian() const {
  const size_t p = theta.size();
  const double inv_n = 1.0 / static_cast<double>(num_rows);
  Matrix h(p, p);
  for (size_t f = 0; f < p; ++f) {
    for (size_t g = f; g < p; ++g) {
      const double v = sums[p + f * p + g] * inv_n;
      h.At(f, g) = v;
      h.At(g, f) = v;
    }
  }
  return h;
}

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
  return FinishMeanLoss(data.num_active(), params(), l2, loss, grad);
}

bool Model::MeanLossGradientHessian(const Dataset& data, double l2, double* loss,
                                    Vec* grad, Matrix* data_hessian) const {
  HessianPass pass;
  if (!SumLossGradientHessian(data, &pass)) return false;
  pass.Finish(l2, loss, grad, data_hessian);
  return true;
}

bool Model::SumLossGradientHessian(const Dataset&, HessianPass*) const { return false; }

bool Model::AddRowTerms(const Dataset&, const std::vector<size_t>&, HessianPass*) const {
  return false;
}

}  // namespace rain
