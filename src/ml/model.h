#ifndef RAIN_ML_MODEL_H_
#define RAIN_ML_MODEL_H_

#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "ml/dataset.h"
#include "ml/sharded_dataset.h"
#include "tensor/vector_ops.h"

namespace rain {

/// \brief Reusable per-shard buffers for the Sharded* kernels.
///
/// Every sharded evaluation allocates one Vec per shard for losses or
/// coefficient blocks; in hot loops (the L-BFGS objective, every CG
/// iteration's HVP) those allocations are pure fixed cost. A caller that
/// owns a scratch and passes it to consecutive calls keeps the buffers
/// warm — results are bitwise-unchanged because the kernels fully
/// overwrite every slot they later read (losses are assign()ed; the
/// coefficient pass writes exactly the active-row blocks the ordered
/// replay reads back).
///
/// Not thread-safe and not re-entrant: a scratch must be live in at most
/// one kernel call at a time. In particular, the kernels themselves never
/// fall back to a hidden thread_local/member scratch — pool-draining
/// waits can re-enter them on the calling thread (a blocked ParallelFor
/// helps run queued tasks, which may themselves score/solve), so
/// ownership has to sit with a caller who can see its own call nesting.
struct ShardScratch {
  std::vector<Vec> loss;
  std::vector<Vec> grad;
  std::vector<Vec> hvp;
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

  /// Regularized mean loss over active rows.
  double MeanLoss(const Dataset& data, double l2) const;

  /// grad_theta of MeanLoss; overwrites `grad`.
  void MeanLossGradient(const Dataset& data, double l2, Vec* grad) const;

  // ----------------------------------------------------------------------
  // Shard-exact per-row kernels (see docs/architecture.md, "Shard plan").
  //
  // A data-loop body splits into an expensive nonlinear part (forward
  // passes, softmax, backprop intermediates) and a cheap rank-structured
  // accumulation (`grad[j] += coef * x[j]`-shaped multiply-adds, each
  // gradient element touched exactly once per row). The *Coeffs kernels
  // compute the nonlinear part per row into a compact coefficient block;
  // the Apply* kernels replay the accumulation from those coefficients,
  // performing exactly the multiply-add sequence of the sequential loop.
  // Sharded drivers run the coefficient pass one shard at a time across
  // workers and replay in global row order, so their results are
  // bitwise-identical to the `parallelism = 1` unsharded loops at every
  // shard count x worker count.
  // ----------------------------------------------------------------------

  /// Doubles per row in the compact loss-gradient coefficient block;
  /// 0 means the model does not implement the shard-exact kernels (the
  /// sharded drivers then fall back to the sequential loop).
  virtual size_t loss_grad_coeff_size() const { return 0; }
  /// Doubles per row in the compact HVP coefficient block (0 = see above).
  virtual size_t hvp_coeff_size() const { return 0; }

  /// Writes the loss-gradient coefficients of example (x, y) into
  /// `coeffs` (loss_grad_coeff_size() doubles).
  virtual void LossGradCoeffs(const double* x, int y, double* coeffs) const;
  /// grad += the exact addend sequence AddExampleLossGradient(x, y, grad)
  /// would have applied, reconstructed from `coeffs`.
  virtual void ApplyLossGradCoeffs(const double* x, const double* coeffs,
                                   Vec* grad) const;
  /// Writes the HVP coefficients of example (x, y) along direction `v`
  /// into `coeffs` (hvp_coeff_size() doubles).
  virtual void HvpCoeffs(const double* x, int y, const Vec& v,
                         double* coeffs) const;
  /// out += the exact addend sequence the sequential HVP row body would
  /// have applied, reconstructed from `coeffs`.
  virtual void ApplyHvpCoeffs(const double* x, const double* coeffs,
                              Vec* out) const;

  /// Shard-parallel regularized mean loss over active rows:
  /// bitwise-identical to `MeanLoss` at parallelism 1 for every shard
  /// count and worker count. `cancel` (borrowed, may be null) is polled
  /// once per shard; on a stop request the result is meaningless and the
  /// caller must discard it at its own interruption check. `scratch`
  /// (borrowed, may be null) lends reusable per-shard buffers — see
  /// ShardScratch for the aliasing rules; results are bitwise-identical
  /// with or without it.
  double ShardedMeanLoss(const ShardedDataset& data, double l2,
                         const CancellationToken* cancel = nullptr,
                         ShardScratch* scratch = nullptr) const;
  /// Shard-parallel grad of ShardedMeanLoss; overwrites `grad`. Same
  /// bitwise, cancellation, and scratch contract as ShardedMeanLoss.
  void ShardedMeanLossGradient(const ShardedDataset& data, double l2, Vec* grad,
                               const CancellationToken* cancel = nullptr,
                               ShardScratch* scratch = nullptr) const;
  /// Shard-parallel Hessian-vector product over active rows; overwrites
  /// `out`. Same bitwise, cancellation, and scratch contract as
  /// ShardedMeanLoss.
  void ShardedHessianVectorProduct(const ShardedDataset& data, const Vec& v,
                                   double l2, Vec* out,
                                   const CancellationToken* cancel = nullptr,
                                   ShardScratch* scratch = nullptr) const;

 private:
  int parallelism_ = 1;
};

}  // namespace rain

#endif  // RAIN_ML_MODEL_H_
