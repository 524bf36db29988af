#ifndef RAIN_ML_MLP_H_
#define RAIN_ML_MLP_H_

#include <memory>

#include "common/rng.h"
#include "ml/model.h"

namespace rain {

/// \brief One-hidden-layer MLP with ReLU activation and softmax output.
///
/// Stand-in for the convolutional network of the paper's Appendix D (see
/// DESIGN.md substitutions): non-convex, influence analysis approximated
/// locally, Hessian solve dominated by HVP cost.
///
/// Architecture: z1 = W1 x + b1; a1 = relu(z1); z2 = W2 a1 + b2;
/// p = softmax(z2). Parameter layout (flattened, in order):
/// [W1 (h x d, row-major), b1 (h), W2 (C x h, row-major), b2 (C)].
///
/// Hessian-vector products are exact Gauss-free Pearlmutter R-operator
/// products (forward-over-reverse); ReLU contributes no second-order term
/// almost everywhere.
class Mlp : public Model {
 public:
  /// Weights are He-initialized from `seed` (biases zero).
  Mlp(size_t num_features, size_t hidden_units, int num_classes,
      uint64_t seed = 42);

  int num_classes() const override { return c_; }
  size_t num_features() const override { return d_; }
  size_t num_params() const override { return theta_.size(); }
  size_t hidden_units() const { return h_; }

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

 private:
  struct Forward {
    Vec z1, a1, z2, p;  // pre/post hidden, logits, probabilities
  };

  // Parameter block offsets into theta_.
  size_t OffW1() const { return 0; }
  size_t OffB1() const { return h_ * d_; }
  size_t OffW2() const { return h_ * d_ + h_; }
  size_t OffB2() const { return h_ * d_ + h_ + static_cast<size_t>(c_) * h_; }

  void RunForward(const double* x, Forward* f) const;
  /// Backprop from dL/dz2 seed into parameter gradient (+=) and returns
  /// dz1 via `dz1_out` when non-null (needed by the R-op).
  void Backprop(const double* x, const Forward& f, const Vec& dz2, Vec* grad,
                Vec* dz1_out = nullptr) const;

  size_t d_;
  size_t h_;
  int c_;
  Vec theta_;
};

}  // namespace rain

#endif  // RAIN_ML_MLP_H_
