#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

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

double LogisticRegression::LossAndGradientAtProb(double p1, const double* x, int y,
                                                 Vec* grad) const {
  // The statements of ExampleLoss and AddExampleLossGradient, sharing one
  // sigmoid.
  const double coef = p1 - static_cast<double>(y);
  vec::simd::MulAdd(coef, x, grad->data(), d_);
  if (fit_intercept_) (*grad)[d_] += coef;
  return -std::log(ClampProb(y == 1 ? p1 : 1.0 - p1));
}

double LogisticRegression::AddExampleLossAndGradient(const double* x, int y,
                                                     Vec* grad) const {
  return LossAndGradientAtProb(Sigmoid(Margin(x)), x, y, grad);
}

double LogisticRegression::AddRangeLossAndGradient(const Dataset& data, size_t begin,
                                                   size_t end, Vec* grad) const {
  return AddRangeTerms(data, begin, end, grad, nullptr);
}

template <typename NextRun>
double LogisticRegression::AddRunTerms(const Dataset& data, NextRun next_run,
                                       Vec* grad, double* hessian) const {
  // Each run batches its margins into Gemvs of up to kBlock rows; every
  // Gemv element is the Dot kernel behind Margin (operands commuted, so
  // each product rounds the same), so each row's loss and gradient keep
  // their bits however the rows are grouped.
  constexpr size_t kBlock = 64;
  double z_blk[kBlock];
  // The Hessian scratch: up to kGramBlock rows' x~, transposed (row f
  // holds feature f of every buffered row), the same scaled by p (1 - p),
  // and one output row. Longer buffers than the margin blocks make fewer,
  // longer Gram dot products.
  constexpr size_t kGramBlock = 128;
  const size_t p = theta_.size();
  std::vector<double> xt, wxt, gram_row;
  if (hessian != nullptr) {
    xt.assign(p * kGramBlock, 0.0);
    wxt.assign(p * kGramBlock, 0.0);
    gram_row.assign(p, 0.0);
  }
  size_t buffered = 0;
  // Adds the buffered rows' weighted Gram matrix into the upper triangle:
  // row f is dot(x~ column f, p (1 - p) x~ column g) for g >= f.
  const auto flush_gram = [&] {
    for (size_t f = 0; f < p; ++f) {
      vec::simd::GemmNT(xt.data() + f * kGramBlock, 1, kGramBlock,
                        wxt.data() + f * kGramBlock, p - f, kGramBlock, buffered,
                        gram_row.data(), p);
      double* out = hessian + f * p + f;
      for (size_t g = 0; g < p - f; ++g) out[g] += gram_row[g];
    }
    buffered = 0;
  };
  double loss = 0.0;
  size_t r0 = 0, r1 = 0;
  while (next_run(&r0, &r1)) {
    for (size_t i = r0; i < r1; i += kBlock) {
      const size_t nb = std::min(kBlock, r1 - i);
      const double* xb = data.row(i);
      vec::simd::Gemv(xb, nb, d_, theta_.data(), z_blk);
      for (size_t r = 0; r < nb; ++r) {
        const double* x = xb + r * d_;
        const double margin = fit_intercept_ ? z_blk[r] + theta_[d_] : z_blk[r];
        const double p1 = Sigmoid(margin);
        loss += LossAndGradientAtProb(p1, x, data.label(i + r), grad);
        if (hessian == nullptr) continue;
        const double w = p1 * (1.0 - p1);
        for (size_t f = 0; f < d_; ++f) {
          xt[f * kGramBlock + buffered] = x[f];
          wxt[f * kGramBlock + buffered] = w * x[f];
        }
        if (fit_intercept_) {
          xt[d_ * kGramBlock + buffered] = 1.0;
          wxt[d_ * kGramBlock + buffered] = w;
        }
        if (++buffered == kGramBlock) flush_gram();
      }
    }
  }
  if (buffered > 0) flush_gram();
  return loss;
}

double LogisticRegression::AddRangeTerms(const Dataset& data, size_t begin,
                                         size_t end, Vec* grad,
                                         double* hessian) const {
  size_t i = begin;
  const auto next_active_run = [&data, &i, end](size_t* r0, size_t* r1) {
    while (i < end && !data.active(i)) ++i;
    if (i == end) return false;
    *r0 = i;
    while (i < end && data.active(i)) ++i;
    *r1 = i;
    return true;
  };
  return AddRunTerms(data, next_active_run, grad, hessian);
}

bool LogisticRegression::SumLossGradientHessian(const Dataset& data,
                                                HessianPass* pass) const {
  RAIN_CHECK(data.num_active() > 0) << "loss over empty dataset";
  // One accumulator holds [gradient | Hessian upper triangle]: the chunk
  // partials of the gradient reduce exactly as MeanLossAndGradient's do.
  const size_t p = theta_.size();
  pass->theta = theta_;
  pass->num_rows = data.num_active();
  pass->sums.assign(p + p * p, 0.0);
  pass->loss = vec::ParallelAccumulate(
      RowParallelism(data.size()), data.size(), &pass->sums,
      [this, &data, p](size_t begin, size_t end, Vec* chunk) {
        return AddRangeTerms(data, begin, end, chunk, chunk->data() + p);
      });
  return true;
}

bool LogisticRegression::AddRowTerms(const Dataset& data,
                                     const std::vector<size_t>& rows,
                                     HessianPass* pass) const {
  const size_t p = theta_.size();
  RAIN_CHECK(pass->sums.size() == p + p * p) << "pass size mismatch";
  size_t k = 0;
  const auto next_listed_run = [&rows, &k](size_t* r0, size_t* r1) {
    if (k == rows.size()) return false;
    *r0 = rows[k];
    *r1 = rows[k] + 1;
    while (++k < rows.size() && rows[k] == *r1) ++*r1;
    return true;
  };
  pass->loss += AddRunTerms(data, next_listed_run, &pass->sums, pass->sums.data() + p);
  return true;
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
        for (size_t i = begin; i < end; ++i) {
          if (!data.active(i)) continue;
          const double* x = data.row(i);
          const double p1 = Sigmoid(Margin(x));
          const double s = p1 * (1.0 - p1);
          double xv = vec::simd::Dot(x, v.data(), d_);
          if (fit_intercept_) xv += v[d_];
          const double coef = s * xv;
          vec::simd::MulAdd(coef, x, acc->data(), d_);
          if (fit_intercept_) (*acc)[d_] += coef;
        }
        return 0.0;
      });
  const double inv_n = 1.0 / static_cast<double>(data.num_active());
  for (double& o : *out) o *= inv_n;
  vec::Axpy(2.0 * l2, v, out);
}

}  // namespace rain
