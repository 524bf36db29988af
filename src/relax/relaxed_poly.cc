#include "relax/relaxed_poly.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace rain {

RelaxedPoly::RelaxedPoly(const PolyArena* arena, PolyId root, RelaxMode mode)
    : RelaxedPoly(arena, std::vector<PolyId>{root}, mode) {}

RelaxedPoly::RelaxedPoly(const PolyArena* arena, std::vector<PolyId> roots,
                         RelaxMode mode)
    : arena_(arena), roots_(std::move(roots)), mode_(mode) {
  RAIN_CHECK(arena_ != nullptr);
  local_.assign(arena_->num_nodes(), -1);

  // Iterative post-order DFS producing a children-first topological order
  // over the union of nodes reachable from any root. Roots are visited in
  // order, so the layout is a pure function of (arena, roots); a root
  // already covered by an earlier root adds nothing.
  std::vector<uint8_t> visited(arena_->num_nodes(), 0);  // 0=new,1=open,2=done
  std::vector<std::pair<PolyId, size_t>> stack;
  for (const PolyId root : roots_) {
    RAIN_CHECK(root >= 0 && static_cast<size_t>(root) < arena_->num_nodes());
    if (visited[root] != 0) continue;
    stack.emplace_back(root, 0);
    visited[root] = 1;
    while (!stack.empty()) {
      auto& [id, child_idx] = stack.back();
      const PolyNode& n = arena_->node(id);
      if (child_idx < n.children.size()) {
        const PolyId c = n.children[child_idx++];
        if (visited[c] == 0) {
          visited[c] = 1;
          stack.emplace_back(c, 0);
        }
        continue;
      }
      visited[id] = 2;
      local_[id] = static_cast<int32_t>(order_.size());
      order_.push_back(id);
      if (n.op == PolyOp::kVar) variables_.push_back(n.var);
      stack.pop_back();
    }
  }
  // Deduplicate variables (a var node is unique per (var) only if the
  // arena happened to share them; be safe).
  std::sort(variables_.begin(), variables_.end());
  variables_.erase(std::unique(variables_.begin(), variables_.end()),
                   variables_.end());

  // Flatten the reachable nodes into the execution tape so the sweeps
  // run over contiguous arrays instead of arena nodes.
  const size_t m = order_.size();
  tape_op_.resize(m);
  tape_const_.assign(m, 0.0);
  tape_var_.assign(m, 0);
  child_start_.assign(m + 1, 0);
  size_t total_children = 0;
  for (size_t i = 0; i < m; ++i) {
    total_children += arena_->node(order_[i]).children.size();
  }
  child_idx_.reserve(total_children);
  for (size_t i = 0; i < m; ++i) {
    const PolyNode& n = arena_->node(order_[i]);
    tape_op_[i] = static_cast<uint8_t>(n.op);
    if (n.op == PolyOp::kConst) tape_const_[i] = n.value;
    if (n.op == PolyOp::kVar) tape_var_[i] = n.var;
    for (const PolyId c : n.children) child_idx_.push_back(local_[c]);
    child_start_[i + 1] = static_cast<int32_t>(child_idx_.size());
  }

  // Invert the child index into the CSR parent index the reverse sweep
  // gathers over. Edge order within a node's parent list is ascending
  // (parent, child-position) — a pure function of the tape layout — so
  // the GatherDot lane shape per node is deterministic.
  const size_t num_edges = child_idx_.size();
  parent_start_.assign(m + 1, 0);
  for (const int32_t c : child_idx_) parent_start_[c + 1]++;
  for (size_t i = 0; i < m; ++i) parent_start_[i + 1] += parent_start_[i];
  parent_node_.resize(num_edges);
  parent_wpos_.resize(num_edges);
  std::vector<int32_t> fill(parent_start_.begin(), parent_start_.end() - 1);
  for (size_t i = 0; i < m; ++i) {
    for (int32_t p = child_start_[i]; p < child_start_[i + 1]; ++p) {
      const int32_t child = child_idx_[p];
      const int32_t e = fill[child]++;
      parent_node_[e] = static_cast<int32_t>(i);
      parent_wpos_[e] = p;
    }
  }

  // Var-node positions for the gradient writeback (ascending tape order).
  for (size_t i = 0; i < m; ++i) {
    if (static_cast<PolyOp>(tape_op_[i]) == PolyOp::kVar) {
      var_nodes_.push_back(static_cast<int32_t>(i));
      var_ids_.push_back(static_cast<int32_t>(tape_var_[i]));
    }
  }

  // Smallest tape index reachable from each node (children have lower
  // indices, so one ascending pass suffices). Bounds the reverse sweep.
  minreach_.resize(m);
  for (size_t i = 0; i < m; ++i) {
    int32_t mr = static_cast<int32_t>(i);
    for (int32_t p = child_start_[i]; p < child_start_[i + 1]; ++p) {
      mr = std::min(mr, minreach_[child_idx_[p]]);
    }
    minreach_[i] = mr;
  }
}

void RelaxedPoly::Forward(const Vec& var_values, Vec* values) const {
  const size_t m = tape_op_.size();
  values->resize(m);
  double* vals = values->data();
  // The n-ary ops (AND/MUL/OR/ADD) run through the four-lane gather
  // kernels: the result depends only on the child-value sequence,
  // never on the sweep order or backend, so batch entries stay bitwise
  // identical to single-root sweeps.
  for (size_t i = 0; i < m; ++i) {
    const int32_t* kids = child_idx_.data() + child_start_[i];
    const size_t k = static_cast<size_t>(child_start_[i + 1] - child_start_[i]);
    double v = 0.0;
    switch (static_cast<PolyOp>(tape_op_[i])) {
      case PolyOp::kConst:
        v = tape_const_[i];
        break;
      case PolyOp::kVar:
        v = var_values[tape_var_[i]];
        break;
      case PolyOp::kAnd:
      case PolyOp::kMul:
        v = vec::simd::GatherProd(vals, kids, k);
        break;
      case PolyOp::kOr:
        if (mode_ == RelaxMode::kLinearOr) {
          v = vec::simd::GatherSum(vals, kids, k);
        } else {
          v = 1.0 - vec::simd::GatherProdOneMinus(vals, kids, k);
        }
        break;
      case PolyOp::kNot:
        v = 1.0 - vals[kids[0]];
        break;
      case PolyOp::kAdd:
        v = vec::simd::GatherSum(vals, kids, k);
        break;
      case PolyOp::kDiv: {
        const double den = vals[kids[1]];
        v = den == 0.0 ? 0.0 : vals[kids[0]] / den;
        break;
      }
    }
    vals[i] = v;
  }
}

void RelaxedPoly::ComputeEdgeWeights(const Vec& values, Vec* w_csr) const {
  const size_t m = tape_op_.size();
  const size_t num_edges = child_idx_.size();
  // Weights are produced in child_idx_ layout (where a node's edges are
  // contiguous) and permuted into parent order at the end; both layouts
  // are per-call scratch.
  Vec w(num_edges, 0.0);
  Vec cvals, prefix, suffix;
  for (size_t i = 0; i < m; ++i) {
    const int32_t cs = child_start_[i];
    const int32_t* kids = child_idx_.data() + cs;
    const size_t k = static_cast<size_t>(child_start_[i + 1] - cs);
    if (k == 0) continue;
    double* wi = w.data() + cs;
    switch (static_cast<PolyOp>(tape_op_[i])) {
      case PolyOp::kConst:
      case PolyOp::kVar:
        break;
      case PolyOp::kAnd:
      case PolyOp::kMul: {
        // d(prod c)/d(c_j) = prefix[j] * suffix[j+1] — leave-one-out
        // products, correct even when child values are exactly zero.
        cvals.resize(k);
        vec::simd::Gather(values.data(), kids, cvals.data(), k);
        prefix.resize(k + 1);
        suffix.resize(k + 1);
        vec::simd::PrefixSuffixProducts(cvals.data(), k, prefix.data(),
                                        suffix.data());
        vec::simd::Mul(prefix.data(), suffix.data() + 1, wi, k);
        break;
      }
      case PolyOp::kOr: {
        if (mode_ == RelaxMode::kLinearOr) {
          for (size_t j = 0; j < k; ++j) wi[j] = 1.0;
          break;
        }
        // out = 1 - prod(1 - c_j); d out/d c_j = prod_{m!=j} (1 - c_m).
        cvals.resize(k);
        vec::simd::Gather(values.data(), kids, cvals.data(), k);
        for (size_t j = 0; j < k; ++j) cvals[j] = 1.0 - cvals[j];
        prefix.resize(k + 1);
        suffix.resize(k + 1);
        vec::simd::PrefixSuffixProducts(cvals.data(), k, prefix.data(),
                                        suffix.data());
        vec::simd::Mul(prefix.data(), suffix.data() + 1, wi, k);
        break;
      }
      case PolyOp::kNot:
        wi[0] = -1.0;
        break;
      case PolyOp::kAdd:
        for (size_t j = 0; j < k; ++j) wi[j] = 1.0;
        break;
      case PolyOp::kDiv: {
        const double num = values[kids[0]];
        const double den = values[kids[1]];
        if (den != 0.0) {
          wi[0] = 1.0 / den;
          wi[1] = -(num / (den * den));
        }
        // den == 0: weights stay 0 (the forward value is pinned to 0
        // there, matching the pre-tape sweep's skip).
        break;
      }
    }
  }
  // Permute into CSR parent order so each node's incoming weights are
  // contiguous for the GatherDot sweep.
  w_csr->resize(num_edges);
  vec::simd::Gather(w.data(), parent_wpos_.data(), w_csr->data(), num_edges);
}

void RelaxedPoly::ReverseSweep(const Vec& values, const int32_t* roots_local,
                               const double* seeds, size_t count,
                               Vec* var_grad) const {
  var_grad->assign(arena_->num_vars(), 0.0);
  // The sweep covers [lo, hi]: nothing above the highest seeded root has a
  // nonzero adjoint, and nothing below the lowest index a seeded root
  // reaches can receive one.
  int32_t hi = -1;
  int32_t lo = 0;
  for (size_t j = 0; j < count; ++j) {
    if (seeds[j] == 0.0) continue;
    const int32_t r = roots_local[j];
    lo = hi < 0 ? minreach_[r] : std::min(lo, minreach_[r]);
    hi = std::max(hi, r);
  }
  if (hi < 0) return;
  Vec w_csr;
  ComputeEdgeWeights(values, &w_csr);
  Vec adjoint(tape_op_.size(), 0.0);
  for (size_t j = 0; j < count; ++j) adjoint[roots_local[j]] += seeds[j];
  // Children-first topological order puts every parent at a higher tape
  // index than its child, so one descending pass sees all of a node's
  // parent adjoints before it fills the node: adjoint[i] is a single
  // batched gather over the CSR parent list instead of k scatters from
  // each parent. The gather adds onto the node's own seed, so a root
  // nested under another root gets both. Unseeded nodes start at 0 and
  // 0 + x == x, so a single seeded root gives the plain single-root bits.
  const double* w = w_csr.data();
  for (size_t i = static_cast<size_t>(hi); i-- > static_cast<size_t>(lo);) {
    const int32_t ps = parent_start_[i];
    const size_t np = static_cast<size_t>(parent_start_[i + 1] - ps);
    if (np == 0) continue;
    adjoint[i] += vec::simd::GatherDot(adjoint.data(), parent_node_.data() + ps,
                                       w + ps, np);
  }
  // Writeback: gather the var-node adjoints into a contiguous block, then
  // scatter-add onto the dense gradient (+= 1.0 * adjoint is exact, and
  // duplicate VarIds accumulate in ascending tape order).
  const size_t nv = var_nodes_.size();
  if (nv == 0) return;
  Vec vadj(nv);
  vec::simd::Gather(adjoint.data(), var_nodes_.data(), vadj.data(), nv);
  vec::simd::ScatterAxpy(1.0, vadj.data(), var_ids_.data(), var_grad->data(), nv);
}

double RelaxedPoly::Evaluate(const Vec& var_values) const {
  RAIN_CHECK(!roots_.empty());
  RAIN_CHECK(var_values.size() >= arena_->num_vars());
  Vec values;
  Forward(var_values, &values);
  return values[local_[roots_[0]]];
}

double RelaxedPoly::Gradient(const Vec& var_values, Vec* var_grad) const {
  RAIN_CHECK(!roots_.empty());
  RAIN_CHECK(var_values.size() >= arena_->num_vars());
  Vec values;
  Forward(var_values, &values);
  const int32_t root = local_[roots_[0]];
  const double seed = 1.0;
  ReverseSweep(values, &root, &seed, 1, var_grad);
  return values[root];
}

std::vector<double> RelaxedPoly::EvaluateBatch(const Vec& var_values,
                                               Vec* node_values) const {
  RAIN_CHECK(var_values.size() >= arena_->num_vars());
  Vec local_values;
  Vec* values = node_values != nullptr ? node_values : &local_values;
  Forward(var_values, values);
  std::vector<double> out(roots_.size());
  for (size_t k = 0; k < roots_.size(); ++k) out[k] = (*values)[local_[roots_[k]]];
  return out;
}

void RelaxedPoly::SeededGradient(const Vec& node_values,
                                 const std::vector<double>& seeds,
                                 Vec* var_grad) const {
  RAIN_CHECK(seeds.size() == roots_.size());
  RAIN_CHECK(node_values.size() == tape_op_.size());
  std::vector<int32_t> roots_local(roots_.size());
  for (size_t k = 0; k < roots_.size(); ++k) roots_local[k] = local_[roots_[k]];
  ReverseSweep(node_values, roots_local.data(), seeds.data(), seeds.size(),
               var_grad);
}

}  // namespace rain
