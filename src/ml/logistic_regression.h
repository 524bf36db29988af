#ifndef RAIN_ML_LOGISTIC_REGRESSION_H_
#define RAIN_ML_LOGISTIC_REGRESSION_H_

#include <memory>
#include <vector>

#include "ml/model.h"

namespace rain {

/// \brief Binary logistic regression: p_1(x) = sigmoid(w . x + b).
///
/// Parameters are [w_0..w_{d-1}, b] (bias last, omitted when
/// fit_intercept=false — the theory experiments of Appendices A/C use
/// bias-free models to preserve feature orthogonality).
class LogisticRegression : public Model {
 public:
  explicit LogisticRegression(size_t num_features, bool fit_intercept = true);

  int num_classes() const override { return 2; }
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
  /// A row's Hessian data term is p (1 - p) x~ x~^T with x~ = [x; 1]
  /// (x~ = x without an intercept), summed per block of up to 128 rows as
  /// one weighted Gram product.
  bool SumLossGradientHessian(const Dataset& data, HessianPass* pass) const override;
  bool AddRowTerms(const Dataset& data, const std::vector<size_t>& rows,
                   HessianPass* pass) const override;

  bool fit_intercept() const { return fit_intercept_; }

 protected:
  double AddRangeLossAndGradient(const Dataset& data, size_t begin, size_t end,
                                 Vec* grad) const override;

 private:
  /// w . x + b
  double Margin(const double* x) const;
  /// AddExampleLossAndGradient given the row's p_1.
  double LossAndGradientAtProb(double p1, const double* x, int y, Vec* grad) const;
  /// Adds the loss gradients of the rows `next_run` yields to `grad` and
  /// returns the sum of their losses, added in row order; when `hessian`
  /// is non-null it also adds the rows' unscaled Hessian data term into
  /// its upper triangle (row-major, num_params x num_params). `next_run`
  /// writes the next run of consecutive rows [*r0, *r1) in ascending order
  /// and returns false after the last. The one per-row body behind the
  /// fused training pass, the Hessian pass and AddRowTerms.
  template <typename NextRun>
  double AddRunTerms(const Dataset& data, NextRun next_run, Vec* grad,
                     double* hessian) const;
  /// AddRunTerms over the active rows in [begin, end).
  double AddRangeTerms(const Dataset& data, size_t begin, size_t end, Vec* grad,
                       double* hessian) const;

  size_t d_;
  bool fit_intercept_;
  Vec theta_;
};

/// Numerically stable sigmoid.
double Sigmoid(double z);

}  // namespace rain

#endif  // RAIN_ML_LOGISTIC_REGRESSION_H_
