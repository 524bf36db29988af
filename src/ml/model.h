#ifndef RAIN_ML_MODEL_H_
#define RAIN_ML_MODEL_H_

#include <memory>
#include <vector>

#include "ml/dataset.h"
#include "tensor/vector_ops.h"

namespace rain {

/// \brief The raw sums one Hessian-hook pass leaves over a set of rows at
/// parameters `theta`: the summed losses, gradients and Hessian data terms,
/// unscaled and unregularized. Model::MeanLossGradientHessian is a pass
/// over the active rows normalized by Finish; a warm Newton retrain
/// (TrainModel) moves a kept pass to new active rows by subtracting and
/// adding the terms of the rows that changed (Model::AddRowTerms).
struct HessianPass {
  /// The parameters every term was evaluated at.
  Vec theta;
  /// Rows summed.
  size_t num_rows = 0;
  /// Sum of the rows' losses.
  double loss = 0.0;
  /// [sum of gradients (num_params) | sum of Hessian data terms, upper
  /// triangle of the row-major num_params x num_params matrix]; the
  /// strict lower triangle stays zero. Empty: no pass.
  Vec sums;

  bool empty() const { return sums.empty(); }
  /// The regularized mean loss and its gradient, and the Hessian data term
  /// divided by num_rows as a symmetric matrix: exactly the outputs of
  /// Model::MeanLossGradientHessian for the same rows and parameters.
  void Finish(double l2, double* mean_loss, Vec* grad, Matrix* data_hessian) const;
  /// The data_hessian output of Finish alone.
  Matrix DataHessian() const;
};


/// \brief Differentiable classification model.
///
/// This is the contract the influence-function machinery (Section 4.1 of
/// the paper) needs from a model:
///   * class probabilities p_c(x; theta) for relaxed provenance
///     polynomials,
///   * per-example loss gradients grad_theta l(z, theta),
///   * Hessian-vector products of the regularized mean training loss
///     L(theta) = (1/n) sum_i l(z_i, theta) + l2 * ||theta||^2,
///   * reverse-mode "probability gradients": given per-class weights w,
///     accumulate grad_theta sum_c w_c p_c(x; theta) (the chain-rule seed
///     arriving from a relaxed provenance polynomial).
///
/// Implementations: binary logistic regression, multiclass softmax
/// regression (both convex), and a one-hidden-layer MLP (non-convex,
/// Appendix D stand-in for the CNN).
class Model {
 public:
  virtual ~Model() = default;

  /// Below this many rows the data-parallel model loops run sequentially:
  /// per-row kernel work would not amortize the fork/join handshake and the
  /// per-chunk gradient buffers. Determinism is unaffected (results remain
  /// a pure function of dataset size and the parallelism knob).
  static constexpr size_t kMinParallelRows = 64;

  /// Worker count for data-parallel loops (loss, gradient, HVP, batch
  /// prediction): partitions active rows into this many deterministic
  /// chunks on the shared thread pool. 1 (the default) is the exact
  /// sequential code path. Plumbed from TrainConfig / DebugConfig by the
  /// trainer, pipeline, and debug session.
  int parallelism() const { return parallelism_; }
  void set_parallelism(int parallelism) {
    parallelism_ = parallelism < 1 ? 1 : parallelism;
  }

  /// The effective chunk count for a loop over n data rows.
  int RowParallelism(size_t n) const {
    return n >= kMinParallelRows ? parallelism_ : 1;
  }

  virtual int num_classes() const = 0;
  virtual size_t num_features() const = 0;
  virtual size_t num_params() const = 0;

  virtual const Vec& params() const = 0;
  virtual void set_params(const Vec& theta) = 0;

  /// Writes p_0..p_{C-1} for feature row `x` into `probs` (C doubles).
  virtual void PredictProba(const double* x, double* probs) const = 0;

  /// argmax_c p_c(x).
  int PredictClass(const double* x) const;

  /// Cross-entropy loss of one example: -log p_y(x).
  virtual double ExampleLoss(const double* x, int y) const = 0;

  /// grad += grad_theta of ExampleLoss(x, y).
  virtual void AddExampleLossGradient(const double* x, int y, Vec* grad) const = 0;

  /// grad += grad_theta of ExampleLoss(x, y); returns ExampleLoss(x, y).
  /// The per-row hook of the fused training pass: overrides run the
  /// forward pass once for both, and must reproduce the two separate
  /// calls' bits. The default makes those two calls.
  virtual double AddExampleLossAndGradient(const double* x, int y, Vec* grad) const;

  /// grad += grad_theta sum_c class_weights[c] * p_c(x; theta).
  virtual void AddProbaGradient(const double* x, const Vec& class_weights,
                                Vec* grad) const = 0;

  /// out = H(theta) v where H is the Hessian of the regularized mean loss
  /// over the *active* rows of `data` with L2 strength `l2` (the 2*l2*I
  /// term included). `out` is overwritten.
  virtual void HessianVectorProduct(const Dataset& data, const Vec& v, double l2,
                                    Vec* out) const = 0;

  /// Convenience: n x C probability matrix over every row of `data`
  /// (active or not; querying sets have no active mask semantics).
  Matrix PredictProbaMatrix(const Dataset& data) const;

  /// Regularized mean loss over active rows, L = (1/n) sum_i l(z_i) +
  /// l2 ||theta||^2, returned; its gradient overwrites `grad`. One chunked
  /// pass over the data: per-chunk losses and gradients are reduced in
  /// chunk order (vec::ParallelAccumulate), so the result is a pure
  /// function of (data, params, parallelism).
  double MeanLossAndGradient(const Dataset& data, double l2, Vec* grad) const;

  /// grad_theta of the regularized mean loss; overwrites `grad`.
  void MeanLossGradient(const Dataset& data, double l2, Vec* grad) const {
    MeanLossAndGradient(data, l2, grad);
  }

  /// \brief Dense Hessian in one pass. Writes the regularized mean loss
  /// and its gradient exactly as MeanLossAndGradient does (same bits),
  /// plus the data term of the Hessian, (1/n) sum_i d^2 l(z_i)/d theta^2
  /// over the active rows, as a symmetric num_params x num_params matrix.
  /// The 2*l2*I term is NOT included: each caller adds its own
  /// regularization (and damping) to the diagonal.
  ///
  /// SumLossGradientHessian followed by HessianPass::Finish. Returns
  /// false, writing nothing, when the model has no one-pass Hessian;
  /// callers then keep their Hessian-vector-product paths. Like
  /// MeanLossAndGradient, the result is a pure function of (data, params,
  /// parallelism).
  bool MeanLossGradientHessian(const Dataset& data, double l2, double* loss,
                               Vec* grad, Matrix* data_hessian) const;

  /// \brief The one-pass Hessian hook: overwrites `pass` with the raw sums
  /// over the active rows of `data` at params(), accumulated in one chunked
  /// pass (the gradient part reduces exactly as MeanLossAndGradient's
  /// does). Returns false, writing nothing, when the model has none.
  virtual bool SumLossGradientHessian(const Dataset& data, HessianPass* pass) const;

  /// \brief Adds the terms of `rows` (ascending, distinct, active or not)
  /// at params() to pass->loss and pass->sums (sized num_params +
  /// num_params^2); the per-row arithmetic is SumLossGradientHessian's.
  /// Returns false, adding nothing, when the model has no one-pass
  /// Hessian.
  virtual bool AddRowTerms(const Dataset& data, const std::vector<size_t>& rows,
                           HessianPass* pass) const;

  /// The dense-Hessian size rule: num_params^2 <= num_active *
  /// num_features, i.e. the Hessian is no larger than the active feature
  /// rows one pass over `data` reads. Influence solves and training form
  /// the Hessian only under it.
  bool DenseHessianFits(const Dataset& data) const {
    return num_params() * num_params() <= data.num_active() * data.num_features();
  }

 protected:
  /// grad += the loss gradients of the active rows in [begin, end); returns
  /// the sum of their losses, added in row order. One chunk of
  /// MeanLossAndGradient. The default calls AddExampleLossAndGradient per
  /// row; batched overrides must keep every per-row value's bits.
  virtual double AddRangeLossAndGradient(const Dataset& data, size_t begin,
                                         size_t end, Vec* grad) const;

 private:
  int parallelism_ = 1;
};

}  // namespace rain

#endif  // RAIN_ML_MODEL_H_
