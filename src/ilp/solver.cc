#include "ilp/solver.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace rain {
namespace {

constexpr double kEps = 1e-6;
// Branch-and-bound nodes between two polls of IlpSolveOptions::cancel.
constexpr int64_t kCancelPollNodes = 1024;

bool IsInt(double v) { return std::fabs(v - std::llround(v)) < kEps; }

// ---------------------------------------------------------------------------
// Decomposition fast path: remove a set of coupling constraints (one
// complaint cardinality, or several overlapping ones), enumerate the
// resulting independent components, group exchangeable components, and DP
// over the joint contribution grid. A COUNT complaint over n rows has two
// groups of interchangeable rows (currently in the counted class or not),
// so the DP runs two stages, not n.
// ---------------------------------------------------------------------------

struct ComponentChoice {
  // One feasible assignment of the component's variables.
  std::vector<uint8_t> assignment;
};

constexpr size_t kMaxComponentVars = 14;
constexpr size_t kReservoirSize = 4;

// One feasible component assignment class: its contribution to each
// coupling plus the minimum cost achieving it (reservoir for tie-breaks).
struct MultiOption {
  std::vector<int64_t> contrib;
  double min_cost = std::numeric_limits<double>::infinity();
  std::vector<ComponentChoice> reservoir;
  size_t min_cost_count = 0;
};

struct MultiComp {
  std::vector<int> vars;
  // Options sorted by contribution vector (canonical order, so identical
  // option tables group together across components).
  std::vector<MultiOption> options;
};

// Sets *too_large when it gives up on a component over kMaxComponentVars.
bool TryDecompositionMulti(const IlpProblem& problem, const std::vector<int>& ks,
                           const IlpSolveOptions& options, Rng* rng,
                           IlpSolution* out, bool* too_large) {
  const size_t nc = problem.num_constraints();
  const size_t num_couplings = ks.size();
  std::vector<uint8_t> is_coupling(nc, 0);
  std::vector<int64_t> target(num_couplings);
  for (size_t j = 0; j < num_couplings; ++j) {
    const int k = ks[j];
    if (k < 0 || static_cast<size_t>(k) >= nc || is_coupling[k]) return false;
    const LinearConstraint& c = problem.constraints()[k];
    // kGe couplings would need saturating-DP backtracking that can land on
    // unreachable predecessor cells (Rain only emits kEq/kLe couplings);
    // coefficients must be small non-negative ints.
    if (c.sense == ConstraintSense::kGe) return false;
    if (!IsInt(c.rhs) || c.rhs < 0) return false;
    for (const LinearTerm& t : c.terms) {
      if (t.coef < 0 || !IsInt(t.coef)) return false;
    }
    is_coupling[k] = 1;
    target[j] = std::llround(c.rhs);
  }

  // Union-find over variables connected by non-coupling constraints.
  const size_t n = problem.num_vars();
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t ci = 0; ci < nc; ++ci) {
    if (is_coupling[ci]) continue;
    const auto& terms = problem.constraints()[ci].terms;
    for (size_t i = 1; i < terms.size(); ++i) {
      parent[find(terms[i - 1].var)] = find(terms[i].var);
    }
  }
  std::unordered_map<int, std::vector<int>> comp_vars;
  for (size_t v = 0; v < n; ++v) comp_vars[find(static_cast<int>(v))].push_back(v);
  std::unordered_map<int, std::vector<int>> comp_cons;
  for (size_t ci = 0; ci < nc; ++ci) {
    if (is_coupling[ci]) continue;
    const auto& terms = problem.constraints()[ci].terms;
    if (terms.empty()) continue;
    comp_cons[find(terms[0].var)].push_back(static_cast<int>(ci));
  }
  // coupling_coef[j][var], integral by the conformance check above.
  std::vector<std::vector<int64_t>> coupling_coef(num_couplings,
                                                  std::vector<int64_t>(n, 0));
  for (size_t j = 0; j < num_couplings; ++j) {
    for (const LinearTerm& t : problem.constraints()[ks[j]].terms) {
      coupling_coef[j][t.var] = std::llround(t.coef);
    }
  }

  // Enumerate each component's feasible assignments into per-contribution
  // options.
  std::vector<MultiComp> comps;
  comps.reserve(comp_vars.size());
  for (auto& [root, vars] : comp_vars) {
    if (vars.size() > kMaxComponentVars) {
      *too_large = true;
      return false;
    }
    MultiComp comp;
    comp.vars = vars;
    const auto& cons = comp_cons[root];
    const size_t m = vars.size();
    std::vector<uint8_t> assign(m);
    std::vector<int64_t> contrib(num_couplings);
    for (uint64_t mask = 0; mask < (1ULL << m); ++mask) {
      for (size_t i = 0; i < m; ++i) assign[i] = (mask >> i) & 1;
      bool ok = true;
      for (int ci : cons) {
        const LinearConstraint& c = problem.constraints()[ci];
        double act = 0.0;
        for (const LinearTerm& t : c.terms) {
          for (size_t i = 0; i < m; ++i) {
            if (comp.vars[i] == t.var) {
              if (assign[i]) act += t.coef;
              break;
            }
          }
        }
        if (c.sense == ConstraintSense::kLe && act > c.rhs + kEps) ok = false;
        if (c.sense == ConstraintSense::kGe && act < c.rhs - kEps) ok = false;
        if (c.sense == ConstraintSense::kEq && std::fabs(act - c.rhs) > kEps) ok = false;
        if (!ok) break;
      }
      if (!ok) continue;
      double cost = 0.0;
      std::fill(contrib.begin(), contrib.end(), 0);
      for (size_t i = 0; i < m; ++i) {
        if (!assign[i]) continue;
        cost += problem.objective_coef(comp.vars[i]);
        for (size_t j = 0; j < num_couplings; ++j) {
          contrib[j] += coupling_coef[j][comp.vars[i]];
        }
      }
      MultiOption* opt = nullptr;
      for (MultiOption& o : comp.options) {
        if (o.contrib == contrib) {
          opt = &o;
          break;
        }
      }
      if (opt == nullptr) {
        comp.options.emplace_back();
        opt = &comp.options.back();
        opt->contrib = contrib;
      }
      if (cost < opt->min_cost - kEps) {
        opt->min_cost = cost;
        opt->reservoir.clear();
        opt->min_cost_count = 0;
      }
      if (cost < opt->min_cost + kEps) {
        ++opt->min_cost_count;
        if (opt->reservoir.size() < kReservoirSize) {
          opt->reservoir.push_back(ComponentChoice{assign});
        } else if (rng != nullptr &&
                   rng->UniformInt(opt->min_cost_count) < kReservoirSize) {
          opt->reservoir[rng->UniformInt(kReservoirSize)] = ComponentChoice{assign};
        }
      }
    }
    if (comp.options.empty()) {
      out->feasible = false;
      out->optimal = true;
      out->used_decomposition = true;
      return true;
    }
    std::sort(comp.options.begin(), comp.options.end(),
              [](const MultiOption& a, const MultiOption& b) {
                return a.contrib < b.contrib;
              });
    comps.push_back(std::move(comp));
  }

  // Group exchangeable components: identical (contrib, min_cost) option
  // tables. Two-option groups transition by "j members take option 1";
  // anything richer stays a singleton stage looping over its options.
  struct Stage {
    std::vector<int> members;  // indices into comps
  };
  auto table_key = [](const MultiComp& c) {
    std::string key;
    for (const MultiOption& o : c.options) {
      for (int64_t v : o.contrib) {
        key.append(reinterpret_cast<const char*>(&v), sizeof(v));
      }
      key.append(reinterpret_cast<const char*>(&o.min_cost), sizeof(double));
    }
    return key;
  };
  std::unordered_map<std::string, size_t> stage_of;
  std::vector<Stage> stages;
  for (size_t i = 0; i < comps.size(); ++i) {
    if (comps[i].options.size() > 2) {
      stages.push_back(Stage{{static_cast<int>(i)}});
      continue;
    }
    const std::string key = table_key(comps[i]);
    auto it = stage_of.find(key);
    if (it == stage_of.end()) {
      stage_of.emplace(key, stages.size());
      stages.push_back(Stage{{static_cast<int>(i)}});
    } else {
      stages[it->second].members.push_back(static_cast<int>(i));
    }
  }

  // Joint contribution grid (mixed radix over per-coupling caps).
  std::vector<int64_t> cap(num_couplings);
  for (size_t j = 0; j < num_couplings; ++j) {
    int64_t max_total = 0;
    for (const MultiComp& c : comps) {
      int64_t best = 0;
      for (const MultiOption& o : c.options) best = std::max(best, o.contrib[j]);
      max_total += best;
    }
    cap[j] = problem.constraints()[ks[j]].sense == ConstraintSense::kLe
                 ? target[j]
                 : std::min(target[j], max_total);
    if (cap[j] < 0) return false;
  }
  int64_t width64 = 1;
  for (size_t j = 0; j < num_couplings; ++j) {
    width64 *= cap[j] + 1;
    if (width64 > 80'000'000 / static_cast<int64_t>(sizeof(float))) return false;
  }
  const size_t width = static_cast<size_t>(width64);
  if (stages.size() * width > 80'000'000 / sizeof(float)) return false;  // memory cap

  auto encode = [&](const std::vector<int64_t>& t) {
    size_t cell = 0;
    for (size_t j = num_couplings; j-- > 0;) {
      cell = cell * static_cast<size_t>(cap[j] + 1) + static_cast<size_t>(t[j]);
    }
    return cell;
  };
  auto decode = [&](size_t cell, std::vector<int64_t>* t) {
    for (size_t j = 0; j < num_couplings; ++j) {
      const size_t radix = static_cast<size_t>(cap[j] + 1);
      (*t)[j] = static_cast<int64_t>(cell % radix);
      cell /= radix;
    }
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dp(width, kInf);
  std::vector<double> next(width, kInf);
  // choice[s][cell]: for a grouped stage, how many members took option 1;
  // for a singleton multi-option stage, the option index.
  std::vector<std::vector<int32_t>> choice(stages.size(),
                                           std::vector<int32_t>(width, -1));
  std::vector<size_t> stage_order(stages.size());
  std::iota(stage_order.begin(), stage_order.end(), size_t{0});
  if (options.randomize && rng != nullptr) rng->Shuffle(&stage_order);

  dp[0] = 0.0;
  std::vector<int64_t> t_coord(num_couplings), nt_coord(num_couplings);
  for (size_t oi = 0; oi < stage_order.size(); ++oi) {
    const Stage& stage = stages[stage_order[oi]];
    const MultiComp& proto = comps[stage.members[0]];
    const size_t g = stage.members.size();
    std::fill(next.begin(), next.end(), kInf);
    auto& ch = choice[oi];
    const bool grouped = proto.options.size() <= 2;
    for (size_t cell = 0; cell < width; ++cell) {
      if (dp[cell] == kInf) continue;
      decode(cell, &t_coord);
      if (grouped) {
        // (g - j) members take option 0, j take option 1.
        const MultiOption& o0 = proto.options[0];
        const MultiOption* o1 = proto.options.size() > 1 ? &proto.options[1] : nullptr;
        const size_t jmax = o1 != nullptr ? g : 0;
        for (size_t j = 0; j <= jmax; ++j) {
          bool fits = true;
          for (size_t d = 0; d < num_couplings; ++d) {
            nt_coord[d] = t_coord[d] +
                          static_cast<int64_t>(g - j) * o0.contrib[d] +
                          (o1 != nullptr ? static_cast<int64_t>(j) * o1->contrib[d]
                                         : 0);
            if (nt_coord[d] > cap[d]) {
              fits = false;
              break;
            }
          }
          if (!fits) continue;
          const size_t nt = encode(nt_coord);
          const double cost = dp[cell] + static_cast<double>(g - j) * o0.min_cost +
                              (o1 != nullptr ? static_cast<double>(j) * o1->min_cost
                                             : 0.0);
          if (cost < next[nt] - kEps ||
              (cost < next[nt] + kEps && options.randomize && rng != nullptr &&
               rng->Bernoulli(0.5))) {
            next[nt] = std::min(next[nt], cost);
            ch[nt] = static_cast<int32_t>(j);
          }
        }
      } else {
        for (size_t o = 0; o < proto.options.size(); ++o) {
          const MultiOption& opt = proto.options[o];
          bool fits = true;
          for (size_t d = 0; d < num_couplings; ++d) {
            nt_coord[d] = t_coord[d] + opt.contrib[d];
            if (nt_coord[d] > cap[d]) {
              fits = false;
              break;
            }
          }
          if (!fits) continue;
          const size_t nt = encode(nt_coord);
          const double cost = dp[cell] + opt.min_cost;
          if (cost < next[nt] - kEps ||
              (cost < next[nt] + kEps && options.randomize && rng != nullptr &&
               rng->Bernoulli(0.5))) {
            next[nt] = std::min(next[nt], cost);
            ch[nt] = static_cast<int32_t>(o);
          }
        }
      }
    }
    dp.swap(next);
  }

  // Pick the best admissible final cell (kEq coordinates pinned to their
  // targets; kLe coordinates free).
  int64_t final_cell = -1;
  double best_cost = kInf;
  for (size_t cell = 0; cell < width; ++cell) {
    if (dp[cell] == kInf) continue;
    decode(cell, &t_coord);
    bool admissible = true;
    for (size_t j = 0; j < num_couplings; ++j) {
      if (problem.constraints()[ks[j]].sense == ConstraintSense::kEq &&
          t_coord[j] != target[j]) {
        admissible = false;
        break;
      }
    }
    if (!admissible) continue;
    if (dp[cell] < best_cost - kEps ||
        (dp[cell] < best_cost + kEps && options.randomize && rng != nullptr &&
         rng->Bernoulli(0.5))) {
      best_cost = std::min(best_cost, dp[cell]);
      final_cell = static_cast<int64_t>(cell);
    }
  }
  out->used_decomposition = true;
  if (final_cell < 0) {
    out->feasible = false;
    out->optimal = true;
    return true;
  }

  // Backtrack through the stages in reverse processing order.
  out->values.assign(n, 0);
  size_t cell = static_cast<size_t>(final_cell);
  for (size_t oi = stage_order.size(); oi-- > 0;) {
    const Stage& stage = stages[stage_order[oi]];
    const MultiComp& proto = comps[stage.members[0]];
    const int32_t pick = choice[oi][cell];
    RAIN_CHECK(pick >= 0) << "multi-coupling DP backtrack inconsistency";
    decode(cell, &t_coord);
    const size_t g = stage.members.size();
    // Which members take which option: randomized split for grouped
    // stages (preserves the solver's uniform-among-optima behaviour).
    std::vector<int> members = stage.members;
    std::vector<size_t> member_opt(g, 0);
    if (proto.options.size() <= 2) {
      if (rng != nullptr) {
        for (size_t i = g; i > 1; --i) {
          std::swap(members[i - 1], members[rng->UniformInt(i)]);
        }
      }
      for (size_t i = 0; i < static_cast<size_t>(pick); ++i) member_opt[i] = 1;
      for (size_t d = 0; d < num_couplings; ++d) {
        t_coord[d] -= static_cast<int64_t>(g - pick) * proto.options[0].contrib[d];
        if (proto.options.size() > 1) {
          t_coord[d] -= static_cast<int64_t>(pick) * proto.options[1].contrib[d];
        }
      }
    } else {
      member_opt[0] = static_cast<size_t>(pick);
      for (size_t d = 0; d < num_couplings; ++d) {
        t_coord[d] -= proto.options[static_cast<size_t>(pick)].contrib[d];
      }
    }
    for (size_t i = 0; i < g; ++i) {
      const MultiComp& comp = comps[members[i]];
      const MultiOption& opt = comp.options[member_opt[i]];
      RAIN_CHECK(!opt.reservoir.empty()) << "empty option reservoir";
      const ComponentChoice& concrete =
          opt.reservoir[rng != nullptr && opt.reservoir.size() > 1
                            ? rng->UniformInt(opt.reservoir.size())
                            : 0];
      for (size_t vi = 0; vi < comp.vars.size(); ++vi) {
        out->values[comp.vars[vi]] = concrete.assignment[vi];
      }
    }
    for (size_t d = 0; d < num_couplings; ++d) {
      RAIN_CHECK(t_coord[d] >= 0) << "multi-coupling DP negative predecessor";
    }
    cell = encode(t_coord);
  }
  out->objective = problem.ObjectiveValue(out->values);
  out->feasible = true;
  out->optimal = true;
  return true;
}

// ---------------------------------------------------------------------------
// Branch-and-bound with bounds propagation.
//
// Rows are the one-hot class choices of an encoding: kEq-1 constraints
// over unit-coefficient variables whose objective coefficients are
// non-negative and which share no variable with another row (Tiresias
// emits one per queried row). The search decides every row first (keep
// its cheapest variable or give it up), then the remaining
// objective-carrying variables (a given-up row's class), and only then
// what propagation left open; Tseitin auxiliaries are functions of the
// rows, so propagation normally fixes them before that. Each node is
// bounded by the assigned cost, plus the cheapest open variable of every
// open row, plus a packing of row-disjoint constraints that the cheapest
// completion of the open rows violates: each packed constraint needs one
// of its open rows to move off its cheapest variable. Only constraints
// whose variables outside the rows are all assigned take part (for a
// tuple complaint, once propagation has fixed its auxiliaries), which
// keeps the per-node cost to the constraints that can be violated.
// ---------------------------------------------------------------------------

class BnbSolver {
 public:
  BnbSolver(const IlpProblem& problem, const IlpSolveOptions& options)
      : p_(problem), opt_(options), rng_(options.seed) {
    const size_t n = p_.num_vars();
    assign_.assign(n, -1);
    // Coefficient-carrying adjacency: TryAssign/UndoTo update constraint
    // activities in O(constraints touching var) without rescanning each
    // constraint's term list (which is O(terms) — ruinous for the
    // thousand-term complaint cardinality couplings).
    var_cons_.resize(n);
    for (size_t ci = 0; ci < p_.num_constraints(); ++ci) {
      for (const LinearTerm& t : p_.constraints()[ci].terms) {
        var_cons_[t.var].emplace_back(static_cast<int>(ci), t.coef);
      }
    }
    min_act_.assign(p_.num_constraints(), 0.0);
    max_act_.assign(p_.num_constraints(), 0.0);
    queued_.assign(p_.num_constraints(), 0);
    for (size_t ci = 0; ci < p_.num_constraints(); ++ci) {
      for (const LinearTerm& t : p_.constraints()[ci].terms) {
        min_act_[ci] += std::min(0.0, t.coef);
        max_act_[ci] += std::max(0.0, t.coef);
      }
    }
    lb_ = 0.0;
    for (size_t v = 0; v < n; ++v) lb_ += std::min(0.0, p_.objective_coef(v));
    FindRows();

    // Branch order: each row's cheapest variable, then the other
    // objective-carrying or row variables, then the rest; shuffled within
    // each tier when randomizing.
    std::vector<int> tiers[3];
    for (size_t v = 0; v < n; ++v) {
      const int r = row_of_[v];
      const int tier = r >= 0 && rows_[r].vars[0] == static_cast<int>(v) ? 0
                       : r >= 0 || p_.objective_coef(v) != 0.0   ? 1
                                                                 : 2;
      tiers[tier].push_back(static_cast<int>(v));
    }
    for (std::vector<int>& tier : tiers) {
      if (opt_.randomize) rng_.Shuffle(&tier);
      branch_order_.insert(branch_order_.end(), tier.begin(), tier.end());
    }
    pos_in_order_.resize(n);
    for (size_t i = 0; i < n; ++i) pos_in_order_[branch_order_[i]] = i;
  }

  IlpSolution Solve() {
    IlpSolution sol;
    // Warm start: seed the incumbent from a feasible candidate so bound
    // pruning is active from the first node and a budget exhaust can still
    // return a usable solution.
    if (opt_.warm_start.size() == p_.num_vars() &&
        p_.IsFeasible(opt_.warm_start)) {
      sol.feasible = true;
      sol.values = opt_.warm_start;
      sol.objective = p_.ObjectiveValue(opt_.warm_start);
      sol.warm_start_used = true;
    }
    std::vector<int> trail;
    if (!Propagate(&trail) || Pruned(sol)) {
      sol.optimal = true;  // infeasible or the warm start is optimal, proven
      return sol;
    }
    // Iterative DFS.
    struct Frame {
      int var;
      int next_value;       // 0,1 index into values[]
      uint8_t values[2];    // branching value order
      size_t trail_start;
    };
    std::vector<Frame> stack;
    const size_t root_trail = trail.size();

    auto push_frame = [&]() -> bool {
      // All assigned? Record solution.
      const int v = PickBranchVar();
      if (v < 0) {
        RecordSolution(&sol);
        return false;
      }
      Frame f;
      f.var = v;
      f.next_value = 0;
      f.values[0] = FirstValue(v);
      f.values[1] = 1 - f.values[0];
      f.trail_start = trail.size();
      stack.push_back(f);
      return true;
    };

    push_frame();
    while (!stack.empty()) {
      if (++sol.nodes_explored > opt_.max_nodes) {
        sol.budget_exhausted = true;
        break;
      }
      if (sol.nodes_explored % kCancelPollNodes == 0 && opt_.cancel != nullptr &&
          opt_.cancel->ShouldStop()) {
        interrupted_ = true;
        break;
      }
      Frame& f = stack.back();
      // Undo to this frame's baseline before trying the next value.
      UndoTo(f.trail_start, &trail);
      if (f.next_value >= 2) {
        stack.pop_back();
        continue;
      }
      const uint8_t val = f.values[f.next_value++];
      bool ok = TryAssign(f.var, val, &trail);
      // Cheap bound check before the (costlier) propagation pass: lb_ is
      // maintained incrementally by TryAssign.
      if (ok && sol.feasible && lb_ >= sol.objective - kEps) ok = false;
      if (ok) ok = Propagate(&trail) && !Pruned(sol);
      if (!ok) continue;
      if (!push_frame()) {
        // Found a (complete) solution; keep searching for better ones.
        continue;
      }
    }
    UndoTo(root_trail, &trail);
    if (!sol.budget_exhausted && !interrupted_) sol.optimal = true;
    return sol;
  }

  /// The cancellation token stopped the search before it finished.
  bool interrupted() const { return interrupted_; }

 private:
  struct Row {
    std::vector<int> vars;  // cheapest first
  };

  void FindRows() {
    row_of_.assign(p_.num_vars(), -1);
    std::vector<uint8_t> is_row_con(p_.num_constraints(), 0);
    for (size_t ci = 0; ci < p_.num_constraints(); ++ci) {
      const LinearConstraint& c = p_.constraints()[ci];
      if (c.sense != ConstraintSense::kEq || std::fabs(c.rhs - 1.0) > kEps ||
          c.terms.size() < 2) {
        continue;
      }
      bool one_hot = true;
      for (const LinearTerm& t : c.terms) {
        one_hot = one_hot && t.coef == 1.0 && p_.objective_coef(t.var) >= 0.0 &&
                  row_of_[t.var] < 0;
      }
      if (!one_hot) continue;
      Row row;
      for (const LinearTerm& t : c.terms) {
        row_of_[t.var] = static_cast<int>(rows_.size());
        row.vars.push_back(t.var);
      }
      std::stable_sort(row.vars.begin(), row.vars.end(), [&](int a, int b) {
        return p_.objective_coef(a) < p_.objective_coef(b);
      });
      rows_.push_back(std::move(row));
      is_row_con[ci] = 1;
    }
    // The constraints a packing may use: every other one that mentions a
    // row, with its row terms listed. One is active while every variable
    // it has outside the rows is assigned; only active ones are packed.
    open_aux_.assign(p_.num_constraints(), 0);
    cand_of_con_.assign(p_.num_constraints(), -1);
    for (size_t ci = 0; ci < p_.num_constraints(); ++ci) {
      PackCandidate cand;
      cand.ci = static_cast<int>(ci);
      for (const LinearTerm& t : p_.constraints()[ci].terms) {
        if (row_of_[t.var] >= 0) {
          cand.row_span += std::fabs(t.coef);
        } else {
          ++open_aux_[ci];
        }
      }
      if (is_row_con[ci] || cand.row_span == 0.0) continue;
      cand_of_con_[ci] = static_cast<int>(candidates_.size());
      if (open_aux_[ci] == 0) active_.push_back(cand_of_con_[ci]);
      candidates_.push_back(cand);
    }
    active_pos_.assign(candidates_.size(), 0);
    for (size_t i = 0; i < active_.size(); ++i) active_pos_[active_[i]] = i;
    row_cheapest_.assign(rows_.size(), -1);
    row_step_.assign(rows_.size(), 0.0);
    row_packed_.assign(rows_.size(), 0);
  }

  // Keep a row's cheapest variable first; otherwise prefer the value that
  // adds no cost, breaking zero-cost ties at random when randomizing.
  uint8_t FirstValue(int v) {
    const int r = row_of_[v];
    if (r >= 0 && rows_[r].vars[0] == v) return 1;
    const double c = p_.objective_coef(v);
    if (c > 0) return 0;
    if (c < 0) return 1;
    return opt_.randomize && rng_.Bernoulli(0.5) ? 1 : 0;
  }

  /// True when the node after propagation cannot beat the incumbent.
  bool Pruned(const IlpSolution& sol) {
    if (!sol.feasible) return false;
    const double cutoff = sol.objective - kEps;
    if (lb_ >= cutoff) return true;
    double bound = lb_;
    // Every open row takes one of its open variables; its cheapest one is
    // the row's default in the completion the packing evaluates.
    for (size_t r = 0; r < rows_.size(); ++r) {
      int cheapest = -1;
      double best = 0.0, second = std::numeric_limits<double>::infinity();
      for (const int v : rows_[r].vars) {
        if (assign_[v] == 1) {
          cheapest = -1;
          break;
        }
        if (assign_[v] != -1) continue;
        if (cheapest < 0) {
          cheapest = v;
          best = p_.objective_coef(v);
        } else {
          second = std::min(second, p_.objective_coef(v));
        }
      }
      row_cheapest_[r] = cheapest;
      if (cheapest < 0) continue;
      bound += best;
      row_step_[r] = second - best;
    }
    if (bound >= cutoff) return true;
    ++pack_stamp_;
    for (const int a : active_) {
      const PackCandidate& cand = candidates_[a];
      const LinearConstraint& c = p_.constraints()[cand.ci];
      double lo = min_act_[cand.ci], hi = max_act_[cand.ci];
      // Each open row term moves lo up and hi down by at most |coef|.
      if ((c.sense == ConstraintSense::kGe || lo + cand.row_span <= c.rhs + kEps) &&
          (c.sense == ConstraintSense::kLe || hi - cand.row_span >= c.rhs - kEps)) {
        continue;
      }
      // An active constraint's variables outside the rows are assigned, so
      // every open term below belongs to a row.
      for (const LinearTerm& t : c.terms) {
        if (assign_[t.var] != -1 || row_cheapest_[row_of_[t.var]] < 0) continue;
        const double x = row_cheapest_[row_of_[t.var]] == t.var ? t.coef : 0.0;
        lo += x - std::min(0.0, t.coef);
        hi += x - std::max(0.0, t.coef);
      }
      const bool violated = (c.sense != ConstraintSense::kGe && lo > c.rhs + kEps) ||
                            (c.sense != ConstraintSense::kLe && hi < c.rhs - kEps);
      if (!violated) continue;
      double step = std::numeric_limits<double>::infinity();
      bool disjoint = true;
      for (const LinearTerm& t : c.terms) {
        const int r = row_of_[t.var];
        if (assign_[t.var] != -1 || row_cheapest_[r] < 0) continue;
        if (row_packed_[r] == pack_stamp_) {
          disjoint = false;
          break;
        }
        step = std::min(step, row_step_[r]);
      }
      if (!disjoint || !std::isfinite(step)) continue;
      for (const LinearTerm& t : c.terms) {
        if (assign_[t.var] == -1) row_packed_[row_of_[t.var]] = pack_stamp_;
      }
      bound += step;
      if (bound >= cutoff) return true;
    }
    return false;
  }

  void RecordSolution(IlpSolution* sol) {
    const double obj = lb_;  // all vars assigned -> lb_ is exact objective
    if (!sol->feasible || obj < sol->objective - kEps) {
      sol->feasible = true;
      sol->objective = obj;
      sol->values.resize(p_.num_vars());
      for (size_t v = 0; v < p_.num_vars(); ++v) sol->values[v] = assign_[v] == 1;
    }
  }

  int PickBranchVar() {
    // Static (optionally shuffled) order, skipping assigned vars. The
    // cursor is rewound on backtracking (see UndoTo), so the scan stays
    // amortized O(1) per node.
    while (order_cursor_ < branch_order_.size() &&
           assign_[branch_order_[order_cursor_]] != -1) {
      ++order_cursor_;
    }
    if (order_cursor_ < branch_order_.size()) return branch_order_[order_cursor_];
    return -1;
  }

  bool TryAssign(int var, uint8_t val, std::vector<int>* trail) {
    if (assign_[var] != -1) return assign_[var] == val;
    assign_[var] = static_cast<int8_t>(val);
    trail->push_back(var);
    const double c_obj = p_.objective_coef(var);
    lb_ += c_obj * val - std::min(0.0, c_obj);
    const bool aux = row_of_[var] < 0;
    for (const auto& [ci, coef] : var_cons_[var]) {
      min_act_[ci] += coef * val - std::min(0.0, coef);
      max_act_[ci] += coef * val - std::max(0.0, coef);
      Enqueue(ci);
      if (aux && --open_aux_[ci] == 0 && cand_of_con_[ci] >= 0) {
        active_pos_[cand_of_con_[ci]] = active_.size();
        active_.push_back(cand_of_con_[ci]);
      }
    }
    return true;
  }

  void UndoTo(size_t mark, std::vector<int>* trail) {
    while (trail->size() > mark) {
      const int var = trail->back();
      trail->pop_back();
      const uint8_t val = static_cast<uint8_t>(assign_[var]);
      assign_[var] = -1;
      const double c_obj = p_.objective_coef(var);
      lb_ -= c_obj * val - std::min(0.0, c_obj);
      const bool aux = row_of_[var] < 0;
      for (const auto& [ci, coef] : var_cons_[var]) {
        min_act_[ci] -= coef * val - std::min(0.0, coef);
        max_act_[ci] -= coef * val - std::max(0.0, coef);
        if (aux && open_aux_[ci]++ == 0 && cand_of_con_[ci] >= 0) {
          // Swap-remove from the active list.
          const int cand = cand_of_con_[ci];
          const int last = active_.back();
          active_[active_pos_[cand]] = last;
          active_pos_[last] = active_pos_[cand];
          active_.pop_back();
        }
      }
      // Rewind the branch cursor so this var is branchable again.
      order_cursor_ = std::min(order_cursor_, pos_in_order_[var]);
    }
    for (const int ci : queue_) queued_[ci] = 0;
    queue_.clear();
  }

  // Each constraint sits in the queue at most once: a thousand-term
  // complaint touched by every auxiliary a branch fixes is scanned once
  // per pass, not once per auxiliary.
  void Enqueue(int ci) {
    if (queued_[ci]) return;
    queued_[ci] = 1;
    queue_.push_back(ci);
  }

  bool Propagate(std::vector<int>* trail) {
    if (queue_.empty()) {
      for (size_t ci = 0; ci < p_.num_constraints(); ++ci) Enqueue(static_cast<int>(ci));
    }
    while (!queue_.empty()) {
      const int ci = queue_.back();
      queue_.pop_back();
      queued_[ci] = 0;
      const LinearConstraint& c = p_.constraints()[ci];
      const bool need_le = c.sense != ConstraintSense::kGe;  // Le or Eq
      const bool need_ge = c.sense != ConstraintSense::kLe;  // Ge or Eq
      if (need_le && min_act_[ci] > c.rhs + kEps) return false;
      if (need_ge && max_act_[ci] < c.rhs - kEps) return false;
      for (const LinearTerm& t : c.terms) {
        if (assign_[t.var] != -1) continue;
        if (need_le) {
          if (t.coef > 0 && min_act_[ci] + t.coef > c.rhs + kEps) {
            if (!TryAssign(t.var, 0, trail)) return false;
            continue;
          }
          if (t.coef < 0 && min_act_[ci] - t.coef > c.rhs + kEps) {
            if (!TryAssign(t.var, 1, trail)) return false;
            continue;
          }
        }
        if (need_ge && assign_[t.var] == -1) {
          if (t.coef > 0 && max_act_[ci] - t.coef < c.rhs - kEps) {
            if (!TryAssign(t.var, 1, trail)) return false;
            continue;
          }
          if (t.coef < 0 && max_act_[ci] + t.coef < c.rhs - kEps) {
            if (!TryAssign(t.var, 0, trail)) return false;
            continue;
          }
        }
      }
    }
    return true;
  }

  const IlpProblem& p_;
  const IlpSolveOptions& opt_;
  Rng rng_;
  std::vector<int8_t> assign_;
  std::vector<std::vector<std::pair<int, double>>> var_cons_;
  std::vector<double> min_act_, max_act_;
  std::vector<int> queue_;
  std::vector<uint8_t> queued_;
  std::vector<int> branch_order_;
  std::vector<size_t> pos_in_order_;
  size_t order_cursor_ = 0;
  double lb_ = 0.0;
  bool interrupted_ = false;

  // Rows and the packing bound's per-node scratch.
  struct PackCandidate {
    int ci = -1;
    double row_span = 0.0;  // sum of |coef| over the row terms
  };
  std::vector<Row> rows_;
  std::vector<int> row_of_;  // var -> row, -1 outside every row
  std::vector<PackCandidate> candidates_;
  std::vector<int> open_aux_;     // constraint -> unassigned non-row vars
  std::vector<int> cand_of_con_;  // constraint -> candidate, -1 if none
  std::vector<int> active_;       // candidates with open_aux_ == 0
  std::vector<size_t> active_pos_;
  std::vector<int> row_cheapest_;  // open row -> its cheapest open var, else -1
  std::vector<double> row_step_;   // open row -> extra cost of leaving it
  std::vector<uint64_t> row_packed_;
  uint64_t pack_stamp_ = 0;
};

}  // namespace

Result<IlpSolution> SolveIlp(const IlpProblem& raw_problem,
                             const IlpSolveOptions& options) {
  if (options.cancel != nullptr && options.cancel->ShouldStop()) {
    return Status::Cancelled("ILP solve interrupted before it started");
  }
  if (raw_problem.num_vars() == 0) {
    IlpSolution sol;
    sol.optimal = true;
    // Constant constraints may still be violated.
    sol.feasible = raw_problem.IsFeasible({});
    if (!sol.feasible) return Status::ResourceExhausted("ILP infeasible (constant)");
    return sol;
  }

  // Activity bookkeeping and the decomposition coupling-coefficient map
  // assume each variable appears once per constraint.
  const IlpProblem problem = raw_problem.Canonicalized();

  Rng rng(options.seed);
  IlpSolution sol;

  // Resolve the coupling set: in-range indices, first occurrence kept.
  std::vector<int> couplings;
  for (const int k : options.coupling_constraints) {
    if (k >= 0 && static_cast<size_t>(k) < problem.num_constraints() &&
        std::find(couplings.begin(), couplings.end(), k) == couplings.end()) {
      couplings.push_back(k);
    }
  }

  bool decomposed = false;
  if (!couplings.empty()) {
    bool too_large = false;
    decomposed =
        TryDecompositionMulti(problem, couplings, options, &rng, &sol, &too_large);
    // If the joint DP is inapplicable (grid too wide, non-conforming
    // coupling), a single removed coupling may still disconnect the rest —
    // unless removing them all left a component too large to enumerate:
    // keeping any of them only merges components.
    if (couplings.size() > 1 && !too_large) {
      for (size_t i = 0; !decomposed && i < couplings.size(); ++i) {
        bool retry_too_large = false;
        decomposed = TryDecompositionMulti(problem, {couplings[i]}, options, &rng, &sol,
                                           &retry_too_large);
      }
    }
  }
  if (decomposed) {
    if (!sol.feasible) {
      return Status::ResourceExhausted("ILP infeasible (decomposition proof)");
    }
    return sol;
  }

  IlpSolveOptions bnb_options = options;
  if (bnb_options.warm_start.empty() && options.build_warm_start) {
    bnb_options.warm_start = options.build_warm_start();
  }
  BnbSolver bnb(problem, bnb_options);
  sol = bnb.Solve();
  if (bnb.interrupted()) {
    return Status::Cancelled("ILP search interrupted after " +
                             std::to_string(sol.nodes_explored) + " nodes");
  }
  if (!sol.feasible) {
    return Status::ResourceExhausted(
        sol.budget_exhausted ? "ILP budget exhausted with no feasible solution"
                             : "ILP infeasible");
  }
  return sol;
}

}  // namespace rain
