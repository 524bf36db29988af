#ifndef RAIN_PROVENANCE_POLY_H_
#define RAIN_PROVENANCE_POLY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/vector_ops.h"

namespace rain {

/// Index of a polynomial node inside a PolyArena.
using PolyId = int32_t;
/// Index of a prediction variable inside the arena's variable registry.
using VarId = int32_t;

constexpr PolyId kInvalidPoly = -1;

/// \brief A prediction variable v(table, row, class): the Boolean
/// indicator that the model predicts class `cls` on row `row` of queried
/// base table `table`. These are the unknowns of both the TwoStep ILP and
/// the Holistic relaxation (where they become probabilities p(row, cls)).
struct PredVar {
  int32_t table_id = 0;
  int64_t row = 0;
  int32_t cls = 0;

  bool operator==(const PredVar& o) const {
    return table_id == o.table_id && row == o.row && cls == o.cls;
  }
};

/// Node operator of a provenance polynomial.
///
/// The same DAG supports two interpretations:
///  * Boolean/arithmetic (concrete execution): variables are 0/1
///    indicators of the actual model predictions;
///  * relaxed/probabilistic (Holistic, Section 5.3.1): variables are class
///    probabilities, AND -> product, OR -> 1-(1-x)(1-y), NOT -> 1-x.
/// Because the relaxation rules coincide with ordinary arithmetic on
/// 0/1 inputs, a single evaluator serves both.
enum class PolyOp : uint8_t {
  kConst,  // leaf: numeric constant (0/1 encode false/true)
  kVar,    // leaf: prediction variable
  kAnd,    // n-ary conjunction (relaxes to product)
  kOr,     // n-ary disjunction (relaxes to 1 - prod(1 - c))
  kNot,    // unary negation (relaxes to 1 - c)
  kAdd,    // n-ary arithmetic sum (aggregation)
  kMul,    // n-ary arithmetic product (weights x conditions)
  kDiv,    // binary ratio (AVG over model-dependent groups)
};

struct PolyNode {
  PolyOp op = PolyOp::kConst;
  double value = 0.0;       // kConst payload
  VarId var = -1;           // kVar payload
  std::vector<PolyId> children;
};

/// \brief Arena of provenance polynomial nodes plus the prediction
/// variable registry.
///
/// All builders constant-fold aggressively (AND with a false child folds
/// to false, OR absorbs true, constants combine), which keeps the DAGs
/// produced by large joins compact. Shared subexpressions are represented
/// by sharing PolyIds; the arena is append-only.
class PolyArena {
 public:
  PolyArena();

  /// --- variable registry ---
  /// Returns the id for v(table, row, cls), creating it on first use.
  VarId GetOrCreateVar(const PredVar& v);
  /// Looks up without creating; returns -1 if absent.
  VarId FindVar(const PredVar& v) const;
  const PredVar& var(VarId id) const { return vars_[id]; }
  size_t num_vars() const { return vars_.size(); }

  /// --- node builders (with constant folding) ---
  PolyId Const(double value);
  PolyId True() { return true_; }
  PolyId False() { return false_; }
  PolyId Var(const PredVar& v);
  PolyId VarById(VarId id);
  PolyId And(std::vector<PolyId> children);
  PolyId Or(std::vector<PolyId> children);
  PolyId Not(PolyId child);
  PolyId Add(std::vector<PolyId> children);
  PolyId Mul(std::vector<PolyId> children);
  PolyId Div(PolyId numerator, PolyId denominator);

  const PolyNode& node(PolyId id) const { return nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }

  /// Id remapping produced by `Splice`: `node_map[i]` / `var_map[v]` are
  /// the ids in the destination arena of staging node `i` / staging
  /// variable `v`.
  struct SpliceMap {
    std::vector<PolyId> node_map;
    std::vector<VarId> var_map;
  };

  /// \brief Appends every node and variable of `staging` to this arena,
  /// returning the id remapping.
  ///
  /// Variables are registered through `GetOrCreateVar` in `staging`'s
  /// first-use order, so variables already known to this arena keep their
  /// ids and new ones are numbered exactly as a sequential build would
  /// have numbered them. Nodes are appended in `staging` order with
  /// children/var ids rewritten (the true/false singletons map onto this
  /// arena's singletons).
  ///
  /// Because builders never share non-singleton nodes across independent
  /// build sequences (constant folding is content-driven and `Var` always
  /// appends a fresh node), splicing staging arenas in a fixed order
  /// reproduces, bit for bit, the arena that the same build sequences
  /// would have produced appended directly in that order. This is the
  /// contract the batched `BindWorkload` relies on: per-query provenance
  /// is captured into thread-local staging arenas in parallel, then
  /// spliced in workload order, and the merged arena is indistinguishable
  /// from sequential capture.
  SpliceMap Splice(const PolyArena& staging);

  /// True if the node is a constant (possibly after folding).
  bool IsConst(PolyId id) const { return nodes_[id].op == PolyOp::kConst; }
  double ConstValue(PolyId id) const { return nodes_[id].value; }

  /// \brief Evaluates every node of the arena under the given per-variable
  /// assignment (size num_vars()) in one ascending pass; `result[id]` is
  /// node `id`'s value. With 0/1 assignments this computes the exact
  /// Boolean/arithmetic semantics, folding children in their stored order
  /// (the order the executor visits a group's members in); with
  /// probabilities it computes the Section 5.3.1 relaxation. The arena is
  /// append-only and children always precede their parents, so one pass
  /// over the node array suffices.
  Vec EvaluateAll(const Vec& var_values) const;

  /// The value of one node: `EvaluateAll(var_values)[root]`. Callers
  /// reading several nodes under one assignment call EvaluateAll once.
  double Evaluate(PolyId root, const Vec& var_values) const;

  /// Collects the distinct variables reachable from `root`.
  std::vector<VarId> ReachableVars(PolyId root) const;

  /// Debug rendering, e.g. "(v(0,3,1) & !v(1,2,0)) + 2".
  std::string ToString(PolyId root) const;

 private:
  PolyId Append(PolyNode node);

  std::vector<PolyNode> nodes_;
  std::vector<PredVar> vars_;
  std::unordered_map<uint64_t, std::vector<VarId>> var_index_;
  PolyId true_ = kInvalidPoly;
  PolyId false_ = kInvalidPoly;
};

}  // namespace rain

#endif  // RAIN_PROVENANCE_POLY_H_
