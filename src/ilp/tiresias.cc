#include "ilp/tiresias.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <unordered_map>

#include "common/logging.h"

namespace rain {
namespace {

constexpr double kEps = 1e-6;

/// Affine expression over ILP variables: sum coef*var + constant.
struct Aff {
  std::vector<LinearTerm> terms;
  double constant = 0.0;
  /// Provably 0/1-valued (single binary var, Tseitin auxiliary, 0/1 const).
  bool is_binary = false;

  bool IsConstant() const { return terms.empty(); }
};

class Encoder {
 public:
  Encoder(PolyArena* arena, const PredictionStore& predictions,
          TiresiasEncoding* out)
      : arena_(arena), preds_(predictions), out_(out) {}

  Status Run(const std::vector<IlpComplaint>& complaints) {
    // Pass 1: collect queried rows reachable from any complaint poly and
    // create per-class prediction variables with one-hot constraints.
    std::map<std::pair<int32_t, int64_t>, size_t> row_index;
    for (const IlpComplaint& c : complaints) {
      if (c.poly == kInvalidPoly) {
        return Status::InvalidArgument("complaint has no provenance polynomial");
      }
      for (VarId v : arena_->ReachableVars(c.poly)) {
        const PredVar& pv = arena_->var(v);
        row_index.emplace(std::make_pair(pv.table_id, pv.row), row_index.size());
      }
    }
    out_->rows.resize(row_index.size());
    for (const auto& [key, idx] : row_index) {
      TiresiasEncoding::RowVars rv;
      rv.table_id = key.first;
      rv.row = key.second;
      rv.current_class = preds_.PredictedClass(key.first, key.second);
      const int num_classes = preds_.NumClasses(key.first);
      std::vector<int> one_hot;
      for (int c = 0; c < num_classes; ++c) {
        const double cost = c == rv.current_class ? 0.0 : 1.0;
        const int var = out_->problem.AddVar(cost);
        rv.class_vars.push_back(var);
        one_hot.push_back(var);
        // Remember the mapping for arena variables of this (row, class).
        const VarId av = arena_->GetOrCreateVar(PredVar{key.first, key.second, c});
        if (static_cast<size_t>(av) >= out_->ilp_var_of.size()) {
          out_->ilp_var_of.resize(av + 1, -1);
        }
        out_->ilp_var_of[av] = var;
      }
      out_->problem.AddCardinality(one_hot, ConstraintSense::kEq, 1.0);
      out_->rows[idx] = std::move(rv);
    }

    // Pass 2: lower each complaint polynomial to a linear constraint.
    for (const IlpComplaint& c : complaints) {
      RAIN_ASSIGN_OR_RETURN(Aff e, Encode(c.poly));
      LinearConstraint lc;
      lc.terms = e.terms;
      lc.sense = c.sense;
      lc.rhs = c.rhs - e.constant;
      NormalizeIntegral(&lc);
      out_->problem.AddConstraint(std::move(lc));
      const int ci = static_cast<int>(out_->problem.num_constraints() - 1);
      out_->complaint_constraints.push_back(ci);
    }
    return Status::OK();
  }

 private:
  /// If all coefficients share a common scale that makes them integral,
  /// rescale and round the RHS (counts stay exact; AVG complaints with
  /// 1/n coefficients become integral cardinalities, with the fractional
  /// target rounded to the nearest achievable integer).
  void NormalizeIntegral(LinearConstraint* c) const {
    if (c->terms.empty()) return;
    double smallest = 0.0;
    for (const LinearTerm& t : c->terms) {
      const double a = std::fabs(t.coef);
      if (a > kEps && (smallest == 0.0 || a < smallest)) smallest = a;
    }
    if (smallest <= kEps) return;
    const double scale = 1.0 / smallest;
    for (const LinearTerm& t : c->terms) {
      const double scaled = t.coef * scale;
      if (std::fabs(scaled - std::llround(scaled)) > kEps) return;  // not integral
    }
    for (LinearTerm& t : c->terms) {
      t.coef = static_cast<double>(std::llround(t.coef * scale));
    }
    c->rhs = c->sense == ConstraintSense::kEq
                 ? static_cast<double>(std::llround(c->rhs * scale))
                 : c->rhs * scale;
  }

  /// Fresh Tseitin auxiliary (objective 0).
  Aff NewAux() {
    Aff a;
    a.terms.push_back(LinearTerm{out_->problem.AddVar(0.0), 1.0});
    a.is_binary = true;
    return a;
  }

  /// z <= e  i.e.  z - e <= 0.
  void AddLe(const Aff& z, const Aff& e) {
    LinearConstraint c;
    c.terms = z.terms;
    for (const LinearTerm& t : e.terms) c.terms.push_back(LinearTerm{t.var, -t.coef});
    c.sense = ConstraintSense::kLe;
    c.rhs = e.constant - z.constant;
    out_->problem.AddConstraint(std::move(c));
  }

  Result<Aff> Encode(PolyId id) {
    auto it = memo_.find(id);
    if (it != memo_.end()) return it->second;
    RAIN_ASSIGN_OR_RETURN(Aff a, EncodeUncached(id));
    memo_.emplace(id, a);
    return a;
  }

  Result<Aff> EncodeUncached(PolyId id) {
    const PolyNode& n = arena_->node(id);
    switch (n.op) {
      case PolyOp::kConst: {
        Aff a;
        a.constant = n.value;
        a.is_binary = n.value == 0.0 || n.value == 1.0;
        return a;
      }
      case PolyOp::kVar: {
        const VarId v = n.var;
        RAIN_CHECK(static_cast<size_t>(v) < out_->ilp_var_of.size() &&
                   out_->ilp_var_of[v] >= 0)
            << "prediction variable missing from encoding";
        Aff a;
        a.terms.push_back(LinearTerm{out_->ilp_var_of[v], 1.0});
        a.is_binary = true;
        return a;
      }
      case PolyOp::kNot: {
        RAIN_ASSIGN_OR_RETURN(Aff c, Encode(n.children[0]));
        if (!c.is_binary) {
          return Status::Unimplemented("NOT of a non-boolean ILP expression");
        }
        Aff a;
        a.constant = 1.0 - c.constant;
        for (const LinearTerm& t : c.terms) {
          a.terms.push_back(LinearTerm{t.var, -t.coef});
        }
        a.is_binary = true;
        return a;
      }
      case PolyOp::kAnd:
        return EncodeAndOr(n, /*is_and=*/true);
      case PolyOp::kOr:
        return EncodeAndOr(n, /*is_and=*/false);
      case PolyOp::kAdd: {
        Aff a;
        for (PolyId cid : n.children) {
          RAIN_ASSIGN_OR_RETURN(Aff c, Encode(cid));
          a.constant += c.constant;
          for (const LinearTerm& t : c.terms) a.terms.push_back(t);
        }
        a.is_binary = false;
        return a;
      }
      case PolyOp::kMul: {
        // Split children into constants and boolean factors.
        double scale = 1.0;
        std::vector<Aff> factors;
        for (PolyId cid : n.children) {
          RAIN_ASSIGN_OR_RETURN(Aff c, Encode(cid));
          if (c.IsConstant()) {
            scale *= c.constant;
          } else {
            factors.push_back(std::move(c));
          }
        }
        if (factors.empty()) {
          Aff a;
          a.constant = scale;
          a.is_binary = scale == 0.0 || scale == 1.0;
          return a;
        }
        Aff product;
        if (factors.size() == 1) {
          product = factors[0];
        } else {
          for (const Aff& f : factors) {
            if (!f.is_binary) {
              return Status::Unimplemented(
                  "product of non-boolean ILP expressions (see Appendix B)");
            }
          }
          product = TseitinAnd(factors);
        }
        if (scale != 1.0) {
          product.constant *= scale;
          for (LinearTerm& t : product.terms) t.coef *= scale;
          product.is_binary = false;
        }
        return product;
      }
      case PolyOp::kDiv: {
        RAIN_ASSIGN_OR_RETURN(Aff num, Encode(n.children[0]));
        RAIN_ASSIGN_OR_RETURN(Aff den, Encode(n.children[1]));
        if (!den.IsConstant() || std::fabs(den.constant) < kEps) {
          return Status::Unimplemented(
              "ratio with a model-dependent denominator cannot be encoded as an "
              "ILP (AVG over a model-filtered group); use Holistic");
        }
        num.constant /= den.constant;
        for (LinearTerm& t : num.terms) t.coef /= den.constant;
        num.is_binary = false;
        return num;
      }
    }
    return Status::Internal("unreachable");
  }

  /// Records z = AND/OR(inputs) for the warm start's evaluation.
  void RecordAux(const Aff& z, bool is_and, const std::vector<Aff>& inputs) {
    TiresiasEncoding::Auxiliary aux;
    aux.var = z.terms[0].var;
    aux.is_and = is_and;
    aux.begin = static_cast<uint32_t>(out_->aux_inputs.size());
    for (const Aff& f : inputs) {
      RAIN_CHECK(f.is_binary && f.terms.size() <= 1) << "non-boolean Tseitin input";
      TiresiasEncoding::AuxInput in;
      in.constant = f.constant;
      if (!f.terms.empty()) {
        in.var = f.terms[0].var;
        in.coef = f.terms[0].coef;
      }
      out_->aux_inputs.push_back(in);
    }
    aux.end = static_cast<uint32_t>(out_->aux_inputs.size());
    out_->auxiliaries.push_back(aux);
  }

  Aff TseitinAnd(const std::vector<Aff>& factors) {
    Aff z = NewAux();
    RecordAux(z, /*is_and=*/true, factors);
    // z <= e_i for all i; z >= sum e_i - (n-1).
    for (const Aff& f : factors) AddLe(z, f);
    LinearConstraint lower;  // sum e_i - z <= n-1
    lower.sense = ConstraintSense::kLe;
    lower.rhs = static_cast<double>(factors.size()) - 1.0;
    for (const Aff& f : factors) {
      for (const LinearTerm& t : f.terms) lower.terms.push_back(t);
      lower.rhs -= f.constant;
    }
    lower.terms.push_back(LinearTerm{z.terms[0].var, -1.0});
    out_->problem.AddConstraint(std::move(lower));
    return z;
  }

  Result<Aff> EncodeAndOr(const PolyNode& n, bool is_and) {
    std::vector<Aff> children;
    children.reserve(n.children.size());
    for (PolyId cid : n.children) {
      RAIN_ASSIGN_OR_RETURN(Aff c, Encode(cid));
      if (!c.is_binary) {
        return Status::Unimplemented("AND/OR over non-boolean ILP expressions");
      }
      children.push_back(std::move(c));
    }
    if (children.size() == 1) return children[0];
    if (is_and) return TseitinAnd(children);
    // OR: z >= e_i (e_i - z <= 0); z <= sum e_i.
    Aff z = NewAux();
    RecordAux(z, /*is_and=*/false, children);
    for (const Aff& f : children) AddLe(f, z);
    LinearConstraint upper;  // z - sum e_i <= 0
    upper.sense = ConstraintSense::kLe;
    upper.rhs = 0.0;
    upper.terms.push_back(LinearTerm{z.terms[0].var, 1.0});
    for (const Aff& f : children) {
      for (const LinearTerm& t : f.terms) {
        upper.terms.push_back(LinearTerm{t.var, -t.coef});
      }
      upper.rhs += f.constant;
    }
    out_->problem.AddConstraint(std::move(upper));
    return z;
  }

  PolyArena* arena_;
  const PredictionStore& preds_;
  TiresiasEncoding* out_;
  std::unordered_map<PolyId, Aff> memo_;
};

}  // namespace

Result<TiresiasEncoding> EncodeTiresias(PolyArena* arena,
                                        const PredictionStore& predictions,
                                        const std::vector<IlpComplaint>& complaints) {
  if (complaints.empty()) {
    return Status::InvalidArgument("no complaints to encode");
  }
  TiresiasEncoding enc;
  Encoder encoder(arena, predictions, &enc);
  RAIN_RETURN_NOT_OK(encoder.Run(complaints));
  return enc;
}

std::vector<uint8_t> BuildTiresiasWarmStart(const TiresiasEncoding& enc, Rng* rng) {
  // Every variable must be a class variable or a recorded auxiliary: the
  // candidate assigns exactly those.
  size_t known_vars = enc.auxiliaries.size();
  for (const auto& rv : enc.rows) known_vars += rv.class_vars.size();
  if (known_vars != enc.problem.num_vars() || enc.rows.empty()) return {};

  const size_t n = enc.problem.num_vars();
  const size_t num_rows = enc.rows.size();
  std::vector<uint8_t> x(n, 0);
  std::vector<int> assigned(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    const auto& rv = enc.rows[r];
    if (rv.current_class < 0 ||
        rv.current_class >= static_cast<int>(rv.class_vars.size())) {
      return {};
    }
    assigned[r] = rv.current_class;
    x[rv.class_vars[rv.current_class]] = 1;
  }

  // Auxiliaries as functions of the class assignment, in creation order.
  const auto& auxes = enc.auxiliaries;
  auto evaluate = [&](const TiresiasEncoding::Auxiliary& a) -> uint8_t {
    for (uint32_t k = a.begin; k < a.end; ++k) {
      const auto& in = enc.aux_inputs[k];
      const bool one = in.constant + (in.var >= 0 && x[in.var] ? in.coef : 0.0) > 0.5;
      if (a.is_and != one) return a.is_and ? 0 : 1;
    }
    return a.is_and ? 1 : 0;
  };
  for (const auto& a : auxes) x[a.var] = evaluate(a);

  // The lists below are flat (one array per relation, indexed by offsets).
  // The auxiliaries reading each variable:
  // readers[reader_begin[v], reader_begin[v + 1]).
  std::vector<uint32_t> reader_begin(n + 1, 0);
  for (const auto& a : auxes) {
    for (uint32_t k = a.begin; k < a.end; ++k) {
      if (enc.aux_inputs[k].var >= 0) ++reader_begin[enc.aux_inputs[k].var + 1];
    }
  }
  std::partial_sum(reader_begin.begin(), reader_begin.end(), reader_begin.begin());
  std::vector<int> readers(reader_begin[n]);
  {
    std::vector<uint32_t> fill(reader_begin.begin(), reader_begin.end() - 1);
    for (size_t a = 0; a < auxes.size(); ++a) {
      for (uint32_t k = auxes[a].begin; k < auxes[a].end; ++k) {
        const int v = enc.aux_inputs[k].var;
        if (v >= 0) readers[fill[v]++] = static_cast<int>(a);
      }
    }
  }
  // The auxiliaries each row feeds, directly or through other
  // auxiliaries, in creation order: fed[fed_begin[r], fed_begin[r + 1]).
  std::vector<uint32_t> fed_begin(num_rows + 1, 0);
  std::vector<int> fed;
  std::vector<uint8_t> seen(auxes.size(), 0);
  std::vector<int> frontier;
  for (size_t r = 0; r < num_rows; ++r) {
    frontier = enc.rows[r].class_vars;
    while (!frontier.empty()) {
      const int v = frontier.back();
      frontier.pop_back();
      for (uint32_t k = reader_begin[v]; k < reader_begin[v + 1]; ++k) {
        const int a = readers[k];
        if (seen[a]) continue;
        seen[a] = 1;
        fed.push_back(a);
        frontier.push_back(auxes[a].var);
      }
    }
    std::sort(fed.begin() + fed_begin[r], fed.end());
    fed_begin[r + 1] = static_cast<uint32_t>(fed.size());
    for (uint32_t k = fed_begin[r]; k < fed_begin[r + 1]; ++k) seen[fed[k]] = 0;
  }

  // Each variable's complaint coefficients, a repeated term folded in:
  // coefs[coef_begin[v], coef_end[v]), and the complaints' activities.
  const auto& ccs = enc.complaint_constraints;
  const size_t m = ccs.size();
  std::vector<uint32_t> coef_begin(n + 1, 0);
  for (const int ci : ccs) {
    if (ci < 0 || static_cast<size_t>(ci) >= enc.problem.num_constraints()) return {};
    for (const LinearTerm& t : enc.problem.constraints()[ci].terms) {
      ++coef_begin[t.var + 1];
    }
  }
  std::partial_sum(coef_begin.begin(), coef_begin.end(), coef_begin.begin());
  std::vector<uint32_t> coef_end(coef_begin.begin(), coef_begin.end() - 1);
  std::vector<std::pair<uint32_t, double>> coefs(coef_begin[n]);
  std::vector<double> act(m, 0.0);
  for (uint32_t i = 0; i < m; ++i) {
    for (const LinearTerm& t : enc.problem.constraints()[ccs[i]].terms) {
      uint32_t& end = coef_end[t.var];
      if (end > coef_begin[t.var] && coefs[end - 1].first == i) {
        coefs[end - 1].second += t.coef;
      } else {
        coefs[end++] = {i, t.coef};
      }
      if (x[t.var]) act[i] += t.coef;
    }
  }
  // The rows that can move each complaint, ascending: a row whose class
  // variables or fed auxiliaries the complaint reads.
  // movers[mover_begin[i], mover_begin[i + 1]).
  std::vector<uint32_t> mover_begin(m + 1, 0);
  std::vector<uint32_t> movers;
  {
    std::vector<int64_t> last_row(m, -1);
    auto for_each_mover = [&](auto&& visit) {
      std::fill(last_row.begin(), last_row.end(), -1);
      auto reach = [&](size_t r, int v) {
        for (uint32_t k = coef_begin[v]; k < coef_end[v]; ++k) {
          const uint32_t i = coefs[k].first;
          if (last_row[i] == static_cast<int64_t>(r)) continue;
          last_row[i] = static_cast<int64_t>(r);
          visit(i, r);
        }
      };
      for (size_t r = 0; r < num_rows; ++r) {
        for (const int v : enc.rows[r].class_vars) reach(r, v);
        for (uint32_t k = fed_begin[r]; k < fed_begin[r + 1]; ++k) {
          reach(r, auxes[fed[k]].var);
        }
      }
    };
    for_each_mover([&](uint32_t i, size_t) { ++mover_begin[i + 1]; });
    std::partial_sum(mover_begin.begin(), mover_begin.end(), mover_begin.begin());
    movers.resize(mover_begin[m]);
    std::vector<uint32_t> fill(mover_begin.begin(), mover_begin.end() - 1);
    for_each_mover([&](uint32_t i, size_t r) {
      movers[fill[i]++] = static_cast<uint32_t>(r);
    });
  }
  auto violation = [&](size_t i, double a) {
    const LinearConstraint& c = enc.problem.constraints()[ccs[i]];
    switch (c.sense) {
      case ConstraintSense::kEq:
        return std::fabs(a - c.rhs);
      case ConstraintSense::kLe:
        return std::max(0.0, a - c.rhs);
      case ConstraintSense::kGe:
        return std::max(0.0, c.rhs - a);
    }
    return 0.0;
  };

  // apply(r, b) moves row r to class b, re-evaluates every auxiliary the
  // row feeds, and leaves the complaint activity changes in `delta`
  // (complaints listed in `touched`); revert() restores the values.
  std::vector<double> delta(m, 0.0);
  std::vector<uint8_t> is_touched(m, 0);
  std::vector<uint32_t> touched;
  std::vector<std::pair<int, uint8_t>> changed;
  auto set_var = [&](int v, uint8_t value) {
    if (x[v] == value) return;
    changed.emplace_back(v, x[v]);
    for (uint32_t k = coef_begin[v]; k < coef_end[v]; ++k) {
      const auto& [i, coef] = coefs[k];
      if (!is_touched[i]) {
        is_touched[i] = 1;
        touched.push_back(i);
      }
      delta[i] += coef * (static_cast<double>(value) - x[v]);
    }
    x[v] = value;
  };
  auto apply = [&](size_t r, int b) {
    changed.clear();
    for (const uint32_t i : touched) {
      delta[i] = 0.0;
      is_touched[i] = 0;
    }
    touched.clear();
    const auto& rv = enc.rows[r];
    set_var(rv.class_vars[assigned[r]], 0);
    set_var(rv.class_vars[b], 1);
    for (uint32_t k = fed_begin[r]; k < fed_begin[r + 1]; ++k) {
      set_var(auxes[fed[k]].var, evaluate(auxes[fed[k]]));
    }
  };
  auto revert = [&]() {
    for (size_t c = changed.size(); c-- > 0;) x[changed[c].first] = changed[c].second;
  };

  // Greedy multi-round repair: flip one row's class at a time toward the
  // violated complaint, preferring flips that leave the other complaints
  // untouched, then flips that cost the least extra objective, then the
  // largest reduction of the violation. With `rng`, the flip is drawn
  // uniformly among those tied on all three, so the seed decides which of
  // several equally cheap repairs (e.g. which row of a join tuple) the
  // warm start, and a search that closes at it, returns.
  const size_t max_flips = 8 * num_rows;
  size_t flips = 0;
  for (int round = 0; round < 4; ++round) {
    bool all_ok = true;
    for (uint32_t i = 0; i < m; ++i) {
      while (violation(i, act[i]) > kEps && flips < max_flips) {
        const double base = violation(i, act[i]);
        double best_harm = 0.0, best_cost = 0.0, best_gain = 0.0;
        size_t best_row = 0;
        int best_class = -1;
        uint64_t ties = 0;
        for (uint32_t k = mover_begin[i]; k < mover_begin[i + 1]; ++k) {
          const size_t r = movers[k];
          const auto& rv = enc.rows[r];
          const int a_cls = assigned[r];
          for (int b = 0; b < static_cast<int>(rv.class_vars.size()); ++b) {
            if (b == a_cls) continue;
            apply(r, b);
            revert();
            const double gain = base - violation(i, act[i] + delta[i]);
            if (gain <= kEps) continue;
            double harm = 0.0;
            for (const uint32_t j : touched) {
              if (j == i) continue;
              harm += violation(j, act[j] + delta[j]) - violation(j, act[j]);
            }
            const double cost =
                (b == rv.current_class ? 0.0 : 1.0) -
                (a_cls == rv.current_class ? 0.0 : 1.0);
            const bool better =
                best_class < 0 || harm < best_harm - kEps ||
                (harm < best_harm + kEps &&
                 (cost < best_cost - kEps ||
                  (cost < best_cost + kEps && gain > best_gain + kEps)));
            if (better) {
              ties = 1;
            } else {
              const bool tie = harm < best_harm + kEps && cost < best_cost + kEps &&
                               gain > best_gain - kEps;
              if (!tie || rng == nullptr || rng->UniformInt(++ties) != 0) continue;
            }
            best_harm = harm;
            best_cost = cost;
            best_gain = gain;
            best_row = r;
            best_class = b;
          }
        }
        if (best_class < 0) break;  // no improving flip
        apply(best_row, best_class);
        for (const uint32_t j : touched) act[j] += delta[j];
        assigned[best_row] = best_class;
        ++flips;
      }
      if (violation(i, act[i]) > kEps) all_ok = false;
    }
    if (all_ok) break;
  }

  if (!enc.problem.IsFeasible(x)) return {};
  return x;
}

std::vector<MarkedPrediction> DecodeMarkedPredictions(const TiresiasEncoding& enc,
                                                      const IlpSolution& solution) {
  std::vector<MarkedPrediction> marked;
  for (const auto& rv : enc.rows) {
    int assigned = -1;
    for (size_t c = 0; c < rv.class_vars.size(); ++c) {
      const int var = rv.class_vars[c];
      if (var >= 0 && static_cast<size_t>(var) < solution.values.size() &&
          solution.values[var]) {
        assigned = static_cast<int>(c);
        break;
      }
    }
    if (assigned >= 0 && assigned != rv.current_class) {
      marked.push_back(MarkedPrediction{rv.table_id, rv.row, assigned});
    }
  }
  return marked;
}

}  // namespace rain
