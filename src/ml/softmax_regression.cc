#include "ml/softmax_regression.h"

#include <cmath>

#include "common/logging.h"
#include "tensor/vector_ops.h"

namespace rain {

namespace {

/// w . x over d features plus the trailing intercept — the one dot
/// sequence shared by Logits and the HVP body (paired paths must round
/// identically).
inline double DotIntercept(const double* w, const double* x, size_t d,
                           bool fit_intercept) {
  const double z = vec::simd::Dot(w, x, d);
  return fit_intercept ? z + w[d] : z;
}

}  // namespace

void SoftmaxInPlace(double* z, int k) {
  double m = z[0];
  for (int i = 1; i < k; ++i) m = std::max(m, z[i]);
  double sum = 0.0;
  for (int i = 0; i < k; ++i) {
    z[i] = std::exp(z[i] - m);
    sum += z[i];
  }
  const double inv = 1.0 / sum;
  for (int i = 0; i < k; ++i) z[i] *= inv;
}

SoftmaxRegression::SoftmaxRegression(size_t num_features, int num_classes,
                                     bool fit_intercept)
    : d_(num_features),
      c_(num_classes),
      fit_intercept_(fit_intercept),
      theta_(static_cast<size_t>(num_classes) * (num_features + (fit_intercept ? 1 : 0)),
             0.0) {
  RAIN_CHECK(num_classes >= 2);
}

void SoftmaxRegression::set_params(const Vec& theta) {
  RAIN_CHECK(theta.size() == theta_.size()) << "param size mismatch";
  theta_ = theta;
}

void SoftmaxRegression::Logits(const double* x, double* logits) const {
  const size_t bs = BlockSize();
  for (int c = 0; c < c_; ++c) {
    const double* w = theta_.data() + static_cast<size_t>(c) * bs;
    logits[c] = DotIntercept(w, x, d_, fit_intercept_);
  }
}

void SoftmaxRegression::PredictProba(const double* x, double* probs) const {
  Logits(x, probs);
  SoftmaxInPlace(probs, c_);
}

double SoftmaxRegression::ExampleLoss(const double* x, int y) const {
  std::vector<double> p(c_);
  PredictProba(x, p.data());
  const double py = std::max(p[y], 1e-12);
  return -std::log(py);
}

void SoftmaxRegression::AddExampleLossGradient(const double* x, int y,
                                               Vec* grad) const {
  AddExampleLossAndGradient(x, y, grad);
}

double SoftmaxRegression::LossAndGradientInto(const double* x, int y, double* probs,
                                              Vec* grad) const {
  PredictProba(x, probs);
  const size_t bs = BlockSize();
  for (int c = 0; c < c_; ++c) {
    const double coef = probs[c] - (c == y ? 1.0 : 0.0);
    double* g = grad->data() + static_cast<size_t>(c) * bs;
    vec::simd::MulAdd(coef, x, g, d_);
    if (fit_intercept_) g[d_] += coef;
  }
  return -std::log(std::max(probs[y], 1e-12));
}

double SoftmaxRegression::AddExampleLossAndGradient(const double* x, int y,
                                                    Vec* grad) const {
  std::vector<double> p(c_);
  return LossAndGradientInto(x, y, p.data(), grad);
}

double SoftmaxRegression::AddRangeLossAndGradient(const Dataset& data, size_t begin,
                                                  size_t end, Vec* grad) const {
  std::vector<double> p(c_);  // chunk-local: no per-row allocation
  double loss = 0.0;
  for (size_t i = begin; i < end; ++i) {
    if (!data.active(i)) continue;
    loss += LossAndGradientInto(data.row(i), data.label(i), p.data(), grad);
  }
  return loss;
}

void SoftmaxRegression::AddProbaGradient(const double* x, const Vec& class_weights,
                                         Vec* grad) const {
  RAIN_CHECK(static_cast<int>(class_weights.size()) == c_);
  std::vector<double> p(c_);
  PredictProba(x, p.data());
  // d/dW_c sum_j w_j p_j = p_c (w_c - sum_j w_j p_j) x~
  double wp = 0.0;
  for (int j = 0; j < c_; ++j) wp += class_weights[j] * p[j];
  const size_t bs = BlockSize();
  for (int c = 0; c < c_; ++c) {
    const double coef = p[c] * (class_weights[c] - wp);
    if (coef == 0.0) continue;
    double* g = grad->data() + static_cast<size_t>(c) * bs;
    // ELEMENTWISE MulAdd: the per-row addend stays bitwise identical
    // across backends, so the q-gradient is too.
    vec::simd::MulAdd(coef, x, g, d_);
    if (fit_intercept_) g[d_] += coef;
  }
}

void SoftmaxRegression::HessianVectorProduct(const Dataset& data, const Vec& v,
                                             double l2, Vec* out) const {
  RAIN_CHECK(v.size() == theta_.size()) << "HVP size mismatch";
  RAIN_CHECK(data.num_active() > 0) << "HVP over empty dataset";
  out->assign(theta_.size(), 0.0);
  const size_t bs = BlockSize();
  vec::ParallelAccumulate(
      RowParallelism(data.size()), data.size(), out,
      [this, &data, &v, bs](size_t begin, size_t end, Vec* acc) {
        // Runs of consecutive active rows batch the per-row logits and
        // V-projections into two GemmNT calls over the run (a = feature
        // rows, b = per-class weight rows with stride bs). Every GemmNT
        // element is the Dot kernel behind DotIntercept (operand order
        // commuted — per-element products are rounding-identical), and
        // the intercept add happens afterwards in the same position, so
        // the bits match the former per-row calls exactly.
        constexpr size_t kHvpRows = 32;
        const size_t cc = static_cast<size_t>(c_);
        std::vector<double> logit_blk(kHvpRows * cc);
        std::vector<double> a_blk(kHvpRows * cc);
        std::vector<double> p(cc);
        std::vector<double> a(cc);
        size_t i = begin;
        while (i < end) {
          if (!data.active(i)) {
            ++i;
            continue;
          }
          size_t r1 = i;
          while (r1 < end && r1 - i < kHvpRows && data.active(r1)) ++r1;
          const size_t nb = r1 - i;
          const double* xb = data.row(i);
          vec::simd::GemmNT(xb, nb, d_, theta_.data(), cc, bs, d_,
                            logit_blk.data(), cc);
          vec::simd::GemmNT(xb, nb, d_, v.data(), cc, bs, d_, a_blk.data(), cc);
          for (size_t r = 0; r < nb; ++r) {
            const double* x = xb + r * d_;
            for (int c = 0; c < c_; ++c) {
              const double z = logit_blk[r * cc + c];
              p[c] = fit_intercept_
                         ? z + theta_[static_cast<size_t>(c) * bs + d_]
                         : z;
              const double az = a_blk[r * cc + c];
              a[c] = fit_intercept_ ? az + v[static_cast<size_t>(c) * bs + d_]
                                    : az;
            }
            SoftmaxInPlace(p.data(), c_);
            double s = 0.0;
            for (int c = 0; c < c_; ++c) s += p[c] * a[c];
            // Row c of (d^2 l) V = p_c (a_c - s) x~
            for (int c = 0; c < c_; ++c) {
              const double coef = p[c] * (a[c] - s);
              double* o = acc->data() + static_cast<size_t>(c) * bs;
              vec::simd::MulAdd(coef, x, o, d_);
              if (fit_intercept_) o[d_] += coef;
            }
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
