#ifndef RAIN_RELAX_RELAXED_POLY_H_
#define RAIN_RELAX_RELAXED_POLY_H_

#include <vector>

#include "provenance/poly.h"
#include "tensor/vector_ops.h"

namespace rain {

/// How disjunctions are relaxed.
enum class RelaxMode : uint8_t {
  /// The paper's independent-product rule: OR -> 1 - prod(1 - c).
  kIndependent,
  /// Naive linearization ablation: OR -> sum(c) (no clipping; a union
  /// bound rather than a probability). Used by bench_ablation_relaxation
  /// to quantify the value of the probabilistic rule.
  kLinearOr,
};

/// \brief Differentiable relaxation of one or more provenance polynomials
/// (Section 5.3.1).
///
/// Prediction variables are interpreted as class probabilities and the
/// Boolean operators are replaced by their independent-product
/// relaxations:
///     x AND y -> x * y,   x OR y -> 1 - (1-x)(1-y),   NOT x -> 1 - x.
///
/// The class pre-computes a single topological order of the nodes
/// reachable from the root set, after which:
///   - `Evaluate` / `Gradient` serve the classic single-root case (a
///     forward sweep, resp. a forward+reverse sweep yielding
///     d(root)/d(var) for every prediction variable);
///   - `EvaluateBatch` / `SeededGradient` serve a whole complaint set at
///     once: node values come from ONE shared forward sweep (a node
///     feeding five complaints is evaluated once, not five times), and the
///     gradient of any weighted sum of the roots, Σₖ seedₖ · rootₖ, comes
///     from ONE reverse sweep seeded at every root. `HolisticRanker` seeds
///     root k with 2(rqₖ − Xₖ), so one sweep yields the gradient of the
///     paper's q = Σₖ (rqₖ − Xₖ)² for every prediction variable.
class RelaxedPoly {
 public:
  /// Single-root relaxation. `arena` must outlive this object and must not
  /// grow between construction and the last Evaluate/Gradient call.
  RelaxedPoly(const PolyArena* arena, PolyId root,
              RelaxMode mode = RelaxMode::kIndependent);

  /// \brief Batched relaxation over many complaint roots sharing one
  /// topological order (the batched encode phase).
  ///
  /// Roots are deduplicated structurally by the DFS (shared nodes are
  /// ordered once) but kept positionally: batch entry `k` always refers to
  /// `roots[k]`. An empty root set is valid (all batch calls return empty).
  RelaxedPoly(const PolyArena* arena, std::vector<PolyId> roots,
              RelaxMode mode = RelaxMode::kIndependent);

  /// Forward value of the first root under `var_values`
  /// (size >= arena->num_vars()).
  double Evaluate(const Vec& var_values) const;

  /// Writes d(first root)/d(var_values[v]) into (*var_grad)[v] for every
  /// variable (zero for unreachable ones) and returns the forward value.
  /// var_grad is resized to arena->num_vars(). Runs the same reverse sweep
  /// as `SeededGradient` with seed 1 on the first root, so on the same
  /// object the two are bitwise equal.
  double Gradient(const Vec& var_values, Vec* var_grad) const;

  /// \brief Forward values of every root under `var_values`, from one
  /// shared sweep over the union of reachable nodes.
  ///
  /// Entry `k` is bitwise-identical to `RelaxedPoly(arena, roots[k],
  /// mode).Evaluate(var_values)`: node values depend only on child values,
  /// never on sweep order. When `node_values` is non-null it receives the
  /// value of every tape node, the input `SeededGradient` differentiates
  /// at (opaque to callers; valid for this object only).
  std::vector<double> EvaluateBatch(const Vec& var_values,
                                    Vec* node_values = nullptr) const;

  /// \brief Gradient of Σₖ seeds[k] · roots[k] with respect to every
  /// prediction variable, by one seeded reverse sweep.
  ///
  /// `node_values` is the `EvaluateBatch` output of the point to
  /// differentiate at; `seeds` has one entry per root. The sweep seeds
  /// adjoint[root_k] += seeds[k] (duplicate roots accumulate in root
  /// order; a root nested under another root also receives its parent's
  /// adjoint), computes every tape edge's local derivative once, fills
  /// adjoint[i] by one descending GatherDot over the CSR parent list, and
  /// writes the var-node adjoints into `var_grad` (resized dense to
  /// arena->num_vars(); zero for unreached variables) by Gather +
  /// ScatterAxpy. Zero seeds add nothing, and all-zero or empty seeds
  /// yield an all-zero gradient. Every kernel on the path has one scalar
  /// body, so the bits are the same on every SIMD tier.
  void SeededGradient(const Vec& node_values, const std::vector<double>& seeds,
                      Vec* var_grad) const;

  /// The root set, in construction order.
  const std::vector<PolyId>& roots() const { return roots_; }
  size_t num_roots() const { return roots_.size(); }

  /// Distinct variables any root actually depends on (sorted).
  const std::vector<VarId>& variables() const { return variables_; }
  size_t num_reachable_nodes() const { return order_.size(); }

 private:
  void Forward(const Vec& var_values, Vec* values) const;
  /// Writes the local derivative d(node)/d(child) of every tape edge into
  /// `w_csr`, ordered by the CSR *parent* layout (entry e weights the
  /// edge (parent_node_[e] -> its child)). `values` is a Forward()
  /// result. Root-independent: computed once per reverse sweep.
  void ComputeEdgeWeights(const Vec& values, Vec* w_csr) const;
  /// Reverse sweep seeded with seeds[j] at tape index roots_local[j]
  /// (j < count): descending over the tape from the highest seeded root to
  /// the lowest index any seeded root reaches, adjoint[i] += GatherDot(
  /// adjoint, parents(i), w) — parents always have higher tape indices in
  /// the children-first order — then the var-node adjoints are written
  /// back into `var_grad` (assigned dense-zero first) via Gather +
  /// ScatterAxpy. `values` is a Forward() result.
  void ReverseSweep(const Vec& values, const int32_t* roots_local,
                    const double* seeds, size_t count, Vec* var_grad) const;

  const PolyArena* arena_;
  std::vector<PolyId> roots_;
  RelaxMode mode_;
  /// Union of reachable nodes in topological (children-first) order.
  std::vector<PolyId> order_;
  /// Dense local index per arena node (-1 = unreachable).
  std::vector<int32_t> local_;
  std::vector<VarId> variables_;

  /// Flattened execution tape over `order_`: per-node op plus payload
  /// (kConst value / kVar id) and a contiguous int32 child-index array,
  /// so the sweeps never chase arena pointers and the n-ary ops can run
  /// through the vec::simd gather kernels (one four-lane scalar body:
  /// bitwise identical across backends for a given child sequence).
  std::vector<uint8_t> tape_op_;
  std::vector<double> tape_const_;
  std::vector<VarId> tape_var_;
  /// Children of tape node i live at child_idx_[child_start_[i] ..
  /// child_start_[i+1]) as local (tape) indices.
  std::vector<int32_t> child_start_;
  std::vector<int32_t> child_idx_;
  /// CSR *parent* index over the same edges, built once at flatten time:
  /// the parents of tape node i live at parent_node_[parent_start_[i] ..
  /// parent_start_[i+1]), and parent_wpos_[e] is the position of edge e
  /// in the child_idx_ layout (where ComputeEdgeWeights produces the
  /// weight before it is permuted into parent order). This is what turns
  /// the reverse sweep's per-node scatter into level-batched gathers.
  std::vector<int32_t> parent_start_;
  std::vector<int32_t> parent_node_;
  std::vector<int32_t> parent_wpos_;
  /// Tape indices of kVar nodes (ascending) and their VarIds as int32,
  /// for the Gather + ScatterAxpy gradient writeback.
  std::vector<int32_t> var_nodes_;
  std::vector<int32_t> var_ids_;
  /// minreach_[i] = smallest tape index reachable from node i. Every
  /// descendant of i lies in [minreach_[i], i], so a reverse sweep stops
  /// at the smallest minreach_ of its seeded roots instead of scanning
  /// to 0.
  std::vector<int32_t> minreach_;
};

}  // namespace rain

#endif  // RAIN_RELAX_RELAXED_POLY_H_
