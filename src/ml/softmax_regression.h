#ifndef RAIN_ML_SOFTMAX_REGRESSION_H_
#define RAIN_ML_SOFTMAX_REGRESSION_H_

#include <memory>

#include "ml/model.h"

namespace rain {

/// \brief Multiclass softmax (multinomial logistic) regression.
///
/// p_c(x) = softmax(W x + b)_c with W in R^{C x d}. Parameters are stored
/// row-major: [W_0 | b_0 | W_1 | b_1 | ...] (per-class blocks, bias last
/// within each block when fit_intercept).
class SoftmaxRegression : public Model {
 public:
  SoftmaxRegression(size_t num_features, int num_classes, bool fit_intercept = true);

  int num_classes() const override { return c_; }
  size_t num_features() const override { return d_; }
  size_t num_params() const override { return theta_.size(); }

  const Vec& params() const override { return theta_; }
  void set_params(const Vec& theta) override;

  void PredictProba(const double* x, double* probs) const override;
  double ExampleLoss(const double* x, int y) const override;
  void AddExampleLossGradient(const double* x, int y, Vec* grad) const override;
  double AddExampleLossAndGradient(const double* x, int y, Vec* grad) const override;
  void AddProbaGradient(const double* x, const Vec& class_weights,
                        Vec* grad) const override;
  void HessianVectorProduct(const Dataset& data, const Vec& v, double l2,
                            Vec* out) const override;

 protected:
  double AddRangeLossAndGradient(const Dataset& data, size_t begin, size_t end,
                                 Vec* grad) const override;

 private:
  size_t BlockSize() const { return d_ + (fit_intercept_ ? 1 : 0); }
  /// logits[c] = W_c . x + b_c
  void Logits(const double* x, double* logits) const;
  /// AddExampleLossAndGradient with `probs` (c_ doubles) as scratch for
  /// the row's class probabilities.
  double LossAndGradientInto(const double* x, int y, double* probs,
                             Vec* grad) const;

  size_t d_;
  int c_;
  bool fit_intercept_;
  Vec theta_;
};

/// In-place softmax over `z` (k values), numerically stable.
void SoftmaxInPlace(double* z, int k);

}  // namespace rain

#endif  // RAIN_ML_SOFTMAX_REGRESSION_H_
