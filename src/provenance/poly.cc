#include "provenance/poly.h"

#include <cmath>
#include <functional>

#include "common/logging.h"
#include "common/string_util.h"

namespace rain {
namespace {

uint64_t HashVar(const PredVar& v) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  auto mix = [&h](uint64_t x) {
    h ^= x + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<uint64_t>(v.table_id));
  mix(static_cast<uint64_t>(v.row));
  mix(static_cast<uint64_t>(v.cls));
  return h;
}

}  // namespace

PolyArena::PolyArena() {
  PolyNode f;
  f.op = PolyOp::kConst;
  f.value = 0.0;
  false_ = Append(std::move(f));
  PolyNode t;
  t.op = PolyOp::kConst;
  t.value = 1.0;
  true_ = Append(std::move(t));
}

PolyId PolyArena::Append(PolyNode node) {
  // EvaluateAll's single ascending pass depends on this order.
  for (PolyId c : node.children) {
    RAIN_DCHECK(c >= 0 && static_cast<size_t>(c) < nodes_.size())
        << "child " << c << " does not precede its parent";
  }
  nodes_.push_back(std::move(node));
  return static_cast<PolyId>(nodes_.size() - 1);
}

VarId PolyArena::GetOrCreateVar(const PredVar& v) {
  const uint64_t h = HashVar(v);
  auto& bucket = var_index_[h];
  for (VarId id : bucket) {
    if (vars_[id] == v) return id;
  }
  vars_.push_back(v);
  const VarId id = static_cast<VarId>(vars_.size() - 1);
  bucket.push_back(id);
  return id;
}

VarId PolyArena::FindVar(const PredVar& v) const {
  auto it = var_index_.find(HashVar(v));
  if (it == var_index_.end()) return -1;
  for (VarId id : it->second) {
    if (vars_[id] == v) return id;
  }
  return -1;
}

PolyId PolyArena::Const(double value) {
  if (value == 0.0) return false_;
  if (value == 1.0) return true_;
  PolyNode n;
  n.op = PolyOp::kConst;
  n.value = value;
  return Append(std::move(n));
}

PolyId PolyArena::Var(const PredVar& v) { return VarById(GetOrCreateVar(v)); }

PolyId PolyArena::VarById(VarId id) {
  RAIN_CHECK(id >= 0 && static_cast<size_t>(id) < vars_.size());
  PolyNode n;
  n.op = PolyOp::kVar;
  n.var = id;
  return Append(std::move(n));
}

PolyId PolyArena::And(std::vector<PolyId> children) {
  std::vector<PolyId> kept;
  kept.reserve(children.size());
  for (PolyId c : children) {
    if (IsConst(c)) {
      if (ConstValue(c) == 0.0) return false_;
      continue;  // true is the AND identity
    }
    kept.push_back(c);
  }
  if (kept.empty()) return true_;
  if (kept.size() == 1) return kept[0];
  PolyNode n;
  n.op = PolyOp::kAnd;
  n.children = std::move(kept);
  return Append(std::move(n));
}

PolyId PolyArena::Or(std::vector<PolyId> children) {
  std::vector<PolyId> kept;
  kept.reserve(children.size());
  for (PolyId c : children) {
    if (IsConst(c)) {
      if (ConstValue(c) != 0.0) return true_;
      continue;  // false is the OR identity
    }
    kept.push_back(c);
  }
  if (kept.empty()) return false_;
  if (kept.size() == 1) return kept[0];
  PolyNode n;
  n.op = PolyOp::kOr;
  n.children = std::move(kept);
  return Append(std::move(n));
}

PolyId PolyArena::Not(PolyId child) {
  if (IsConst(child)) return Const(ConstValue(child) == 0.0 ? 1.0 : 0.0);
  // Fold double negation.
  if (nodes_[child].op == PolyOp::kNot) return nodes_[child].children[0];
  PolyNode n;
  n.op = PolyOp::kNot;
  n.children = {child};
  return Append(std::move(n));
}

PolyId PolyArena::Add(std::vector<PolyId> children) {
  double const_acc = 0.0;
  std::vector<PolyId> kept;
  kept.reserve(children.size());
  for (PolyId c : children) {
    if (IsConst(c)) {
      const_acc += ConstValue(c);
    } else {
      kept.push_back(c);
    }
  }
  if (kept.empty()) return Const(const_acc);
  if (const_acc != 0.0) kept.push_back(Const(const_acc));
  if (kept.size() == 1) return kept[0];
  PolyNode n;
  n.op = PolyOp::kAdd;
  n.children = std::move(kept);
  return Append(std::move(n));
}

PolyId PolyArena::Mul(std::vector<PolyId> children) {
  double const_acc = 1.0;
  std::vector<PolyId> kept;
  kept.reserve(children.size());
  for (PolyId c : children) {
    if (IsConst(c)) {
      const_acc *= ConstValue(c);
    } else {
      kept.push_back(c);
    }
  }
  if (const_acc == 0.0) return false_;
  if (kept.empty()) return Const(const_acc);
  if (const_acc != 1.0) kept.push_back(Const(const_acc));
  if (kept.size() == 1) return kept[0];
  PolyNode n;
  n.op = PolyOp::kMul;
  n.children = std::move(kept);
  return Append(std::move(n));
}

PolyId PolyArena::Div(PolyId numerator, PolyId denominator) {
  if (IsConst(numerator) && IsConst(denominator) && ConstValue(denominator) != 0.0) {
    return Const(ConstValue(numerator) / ConstValue(denominator));
  }
  PolyNode n;
  n.op = PolyOp::kDiv;
  n.children = {numerator, denominator};
  return Append(std::move(n));
}

PolyArena::SpliceMap PolyArena::Splice(const PolyArena& staging) {
  SpliceMap map;
  map.var_map.resize(staging.vars_.size());
  for (size_t v = 0; v < staging.vars_.size(); ++v) {
    map.var_map[v] = GetOrCreateVar(staging.vars_[v]);
  }
  map.node_map.assign(staging.nodes_.size(), kInvalidPoly);
  map.node_map[staging.false_] = false_;
  map.node_map[staging.true_] = true_;
  for (size_t i = 0; i < staging.nodes_.size(); ++i) {
    if (static_cast<PolyId>(i) == staging.false_ ||
        static_cast<PolyId>(i) == staging.true_) {
      continue;
    }
    PolyNode n = staging.nodes_[i];
    if (n.op == PolyOp::kVar) n.var = map.var_map[n.var];
    for (PolyId& c : n.children) c = map.node_map[c];
    map.node_map[i] = Append(std::move(n));
  }
  return map;
}

Vec PolyArena::EvaluateAll(const Vec& var_values) const {
  RAIN_CHECK(var_values.size() >= vars_.size()) << "missing variable assignments";
  // One ascending pass: Append guarantees children precede parents, so
  // every child's value is final when its parent is reached. Children are
  // folded in their stored order, which is the executor's summation order.
  Vec values(nodes_.size());
  for (size_t id = 0; id < nodes_.size(); ++id) {
    const PolyNode& n = nodes_[id];
    double v = 0.0;
    switch (n.op) {
      case PolyOp::kConst:
        v = n.value;
        break;
      case PolyOp::kVar:
        v = var_values[n.var];
        break;
      case PolyOp::kAnd:
      case PolyOp::kMul: {
        v = 1.0;
        for (PolyId c : n.children) v *= values[c];
        break;
      }
      case PolyOp::kOr: {
        double prod = 1.0;
        for (PolyId c : n.children) prod *= (1.0 - values[c]);
        v = 1.0 - prod;
        break;
      }
      case PolyOp::kNot:
        v = 1.0 - values[n.children[0]];
        break;
      case PolyOp::kAdd: {
        for (PolyId c : n.children) v += values[c];
        break;
      }
      case PolyOp::kDiv: {
        const double den = values[n.children[1]];
        v = den == 0.0 ? 0.0 : values[n.children[0]] / den;
        break;
      }
    }
    values[id] = v;
  }
  return values;
}

double PolyArena::Evaluate(PolyId root, const Vec& var_values) const {
  RAIN_CHECK(root >= 0 && static_cast<size_t>(root) < nodes_.size());
  return EvaluateAll(var_values)[root];
}

std::vector<VarId> PolyArena::ReachableVars(PolyId root) const {
  std::vector<VarId> out;
  std::vector<uint8_t> seen_node(nodes_.size(), 0);
  std::vector<uint8_t> seen_var(vars_.size(), 0);
  std::vector<PolyId> stack = {root};
  while (!stack.empty()) {
    const PolyId id = stack.back();
    stack.pop_back();
    if (seen_node[id]) continue;
    seen_node[id] = 1;
    const PolyNode& n = nodes_[id];
    if (n.op == PolyOp::kVar) {
      if (!seen_var[n.var]) {
        seen_var[n.var] = 1;
        out.push_back(n.var);
      }
      continue;
    }
    for (PolyId c : n.children) stack.push_back(c);
  }
  return out;
}

std::string PolyArena::ToString(PolyId root) const {
  const PolyNode& n = nodes_[root];
  switch (n.op) {
    case PolyOp::kConst:
      return StrFormat("%g", n.value);
    case PolyOp::kVar: {
      const PredVar& v = vars_[n.var];
      return StrFormat("v(%d,%lld,%d)", v.table_id, static_cast<long long>(v.row),
                       v.cls);
    }
    case PolyOp::kNot:
      return "!" + ToString(n.children[0]);
    default: {
      const char* sep = n.op == PolyOp::kAnd   ? " & "
                        : n.op == PolyOp::kOr  ? " | "
                        : n.op == PolyOp::kAdd ? " + "
                        : n.op == PolyOp::kMul ? " * "
                                               : " / ";
      std::string out = "(";
      for (size_t i = 0; i < n.children.size(); ++i) {
        if (i > 0) out += sep;
        out += ToString(n.children[i]);
      }
      return out + ")";
    }
  }
}

}  // namespace rain
