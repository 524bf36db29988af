#include "ml/logistic_regression.h"

#include <cmath>

#include "common/logging.h"
#include "tensor/vector_ops.h"

namespace rain {

double Sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

namespace {
// Floor probabilities away from 0/1 so -log p stays finite.
constexpr double kProbEps = 1e-12;

double ClampProb(double p) {
  if (p < kProbEps) return kProbEps;
  if (p > 1.0 - kProbEps) return 1.0 - kProbEps;
  return p;
}
}  // namespace

LogisticRegression::LogisticRegression(size_t num_features, bool fit_intercept)
    : d_(num_features),
      fit_intercept_(fit_intercept),
      theta_(num_features + (fit_intercept ? 1 : 0), 0.0) {}

void LogisticRegression::set_params(const Vec& theta) {
  RAIN_CHECK(theta.size() == theta_.size()) << "param size mismatch";
  theta_ = theta;
}

double LogisticRegression::Margin(const double* x) const {
  // Every margin consumer (loss, gradients, the HVP body) routes through
  // this one helper, so the SIMD reduction stays consistent across paired
  // code paths.
  const double z = vec::simd::Dot(theta_.data(), x, d_);
  return fit_intercept_ ? z + theta_[d_] : z;
}

void LogisticRegression::PredictProba(const double* x, double* probs) const {
  const double p1 = Sigmoid(Margin(x));
  probs[0] = 1.0 - p1;
  probs[1] = p1;
}

double LogisticRegression::ExampleLoss(const double* x, int y) const {
  const double p1 = Sigmoid(Margin(x));
  const double py = ClampProb(y == 1 ? p1 : 1.0 - p1);
  return -std::log(py);
}

void LogisticRegression::AddExampleLossGradient(const double* x, int y,
                                                Vec* grad) const {
  // d l / d theta = (p1 - y) * [x; 1]
  const double coef = Sigmoid(Margin(x)) - static_cast<double>(y);
  vec::simd::MulAdd(coef, x, grad->data(), d_);
  if (fit_intercept_) (*grad)[d_] += coef;
}

double LogisticRegression::LossAndGradientAtMargin(double margin, const double* x,
                                                   int y, Vec* grad) const {
  // The statements of ExampleLoss and AddExampleLossGradient, sharing one
  // sigmoid.
  const double p1 = Sigmoid(margin);
  const double coef = p1 - static_cast<double>(y);
  vec::simd::MulAdd(coef, x, grad->data(), d_);
  if (fit_intercept_) (*grad)[d_] += coef;
  return -std::log(ClampProb(y == 1 ? p1 : 1.0 - p1));
}

double LogisticRegression::AddExampleLossAndGradient(const double* x, int y,
                                                     Vec* grad) const {
  return LossAndGradientAtMargin(Margin(x), x, y, grad);
}

double LogisticRegression::AddRangeLossAndGradient(const Dataset& data, size_t begin,
                                                   size_t end, Vec* grad) const {
  // Runs of consecutive active rows batch their margins into one Gemv, as
  // the HVP body does; every Gemv element is the Dot kernel behind Margin,
  // so each row's loss and gradient keep their bits.
  constexpr size_t kBlock = 64;
  double z_blk[kBlock];
  double loss = 0.0;
  size_t i = begin;
  while (i < end) {
    if (!data.active(i)) {
      ++i;
      continue;
    }
    size_t r1 = i;
    while (r1 < end && r1 - i < kBlock && data.active(r1)) ++r1;
    const size_t nb = r1 - i;
    const double* xb = data.row(i);
    vec::simd::Gemv(xb, nb, d_, theta_.data(), z_blk);
    for (size_t r = 0; r < nb; ++r) {
      const double margin = fit_intercept_ ? z_blk[r] + theta_[d_] : z_blk[r];
      loss += LossAndGradientAtMargin(margin, xb + r * d_, data.label(i + r), grad);
    }
    i = r1;
  }
  return loss;
}

void LogisticRegression::AddProbaGradient(const double* x, const Vec& class_weights,
                                          Vec* grad) const {
  RAIN_CHECK(class_weights.size() == 2) << "binary model expects 2 class weights";
  // d p1/d theta = p1 (1-p1) [x; 1]; d p0/d theta is its negation.
  const double p1 = Sigmoid(Margin(x));
  const double coef = (class_weights[1] - class_weights[0]) * p1 * (1.0 - p1);
  if (coef == 0.0) return;
  // ELEMENTWISE MulAdd keeps the per-row addend bitwise identical across
  // backends, so the q-gradient is one bit pattern on every SIMD tier.
  vec::simd::MulAdd(coef, x, grad->data(), d_);
  if (fit_intercept_) (*grad)[d_] += coef;
}

void LogisticRegression::HessianVectorProduct(const Dataset& data, const Vec& v,
                                              double l2, Vec* out) const {
  RAIN_CHECK(v.size() == theta_.size()) << "HVP size mismatch";
  RAIN_CHECK(data.num_active() > 0) << "HVP over empty dataset";
  out->assign(theta_.size(), 0.0);
  vec::ParallelAccumulate(
      RowParallelism(data.size()), data.size(), out,
      [this, &data, &v](size_t begin, size_t end, Vec* acc) {
        // Runs of consecutive active rows form contiguous feature blocks,
        // so the two per-row dots batch into Gemv calls over the run.
        // Every Gemv element is the Dot kernel (with the operand order
        // commuted — per-element products are rounding-identical), so the
        // bits match the former per-row Margin / dot calls exactly.
        constexpr size_t kHvpBlock = 64;
        double z_blk[kHvpBlock];
        double xv_blk[kHvpBlock];
        size_t i = begin;
        while (i < end) {
          if (!data.active(i)) {
            ++i;
            continue;
          }
          size_t r1 = i;
          while (r1 < end && r1 - i < kHvpBlock && data.active(r1)) ++r1;
          const size_t nb = r1 - i;
          const double* xb = data.row(i);
          vec::simd::Gemv(xb, nb, d_, theta_.data(), z_blk);
          vec::simd::Gemv(xb, nb, d_, v.data(), xv_blk);
          for (size_t r = 0; r < nb; ++r) {
            const double* x = xb + r * d_;
            const double margin =
                fit_intercept_ ? z_blk[r] + theta_[d_] : z_blk[r];
            const double p1 = Sigmoid(margin);
            const double s = p1 * (1.0 - p1);
            double xv = xv_blk[r];
            if (fit_intercept_) xv += v[d_];
            const double coef = s * xv;
            vec::simd::MulAdd(coef, x, acc->data(), d_);
            if (fit_intercept_) (*acc)[d_] += coef;
          }
          i = r1;
        }
        return 0.0;
      });
  const double inv_n = 1.0 / static_cast<double>(data.num_active());
  for (double& o : *out) o *= inv_n;
  vec::Axpy(2.0 * l2, v, out);
}

}  // namespace rain
