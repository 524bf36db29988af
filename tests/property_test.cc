/// Cross-cutting property tests: randomized instances checked against
/// brute-force oracles and internal-consistency invariants.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "common/rng.h"
#include "core/ranker.h"
#include "gtest/gtest.h"
#include "ilp/problem.h"
#include "ilp/solver.h"
#include "provenance/poly.h"
#include "provenance/prediction_store.h"
#include "relational/catalog.h"
#include "relational/executor.h"
#include "relax/relaxed_poly.h"
#include "sql/planner.h"

namespace rain {
namespace {

// ---------------------------------------------------------------------------
// ILP solver vs exhaustive enumeration on random small instances.
// ---------------------------------------------------------------------------

struct BruteResult {
  bool feasible = false;
  double objective = 0.0;
};

BruteResult BruteForce(const IlpProblem& p) {
  BruteResult best;
  const size_t n = p.num_vars();
  std::vector<uint8_t> x(n);
  for (uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    for (size_t i = 0; i < n; ++i) x[i] = (mask >> i) & 1;
    if (!p.IsFeasible(x)) continue;
    const double obj = p.ObjectiveValue(x);
    if (!best.feasible || obj < best.objective) {
      best.feasible = true;
      best.objective = obj;
    }
  }
  return best;
}

class IlpVsBruteForceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IlpVsBruteForceTest, OptimaAgree) {
  Rng rng(GetParam());
  IlpProblem p;
  const size_t n = 4 + rng.UniformInt(8);  // 4..11 vars
  for (size_t v = 0; v < n; ++v) {
    p.AddVar(rng.Uniform(-2.0, 3.0));  // mixed-sign objective
  }
  const size_t m = 2 + rng.UniformInt(5);
  for (size_t c = 0; c < m; ++c) {
    LinearConstraint lc;
    const size_t terms = 1 + rng.UniformInt(std::min<size_t>(n, 4));
    for (size_t t = 0; t < terms; ++t) {
      lc.terms.push_back(LinearTerm{static_cast<int>(rng.UniformInt(n)),
                                    std::floor(rng.Uniform(-3.0, 4.0))});
    }
    lc.sense = static_cast<ConstraintSense>(rng.UniformInt(3));
    lc.rhs = std::floor(rng.Uniform(-2.0, 5.0));
    p.AddConstraint(std::move(lc));
  }

  const BruteResult truth = BruteForce(p);
  IlpSolveOptions opts;
  opts.randomize = GetParam() % 2 == 0;
  opts.seed = GetParam();
  auto sol = SolveIlp(p, opts);
  if (!truth.feasible) {
    EXPECT_FALSE(sol.ok()) << "solver found a solution to an infeasible ILP";
    return;
  }
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_TRUE(sol->optimal);
  EXPECT_NEAR(sol->objective, truth.objective, 1e-6);
  EXPECT_TRUE(p.IsFeasible(sol->values));
}

INSTANTIATE_TEST_SUITE_P(RandomIlps, IlpVsBruteForceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{31}));

// ---------------------------------------------------------------------------
// Decomposition fast path vs B&B on random Tiresias-shaped instances.
// ---------------------------------------------------------------------------

class DecompositionAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecompositionAgreementTest, ObjectiveMatchesBnb) {
  Rng rng(GetParam());
  IlpProblem p;
  const int rows = 4 + static_cast<int>(rng.UniformInt(6));
  const int classes = 2 + static_cast<int>(rng.UniformInt(3));
  std::vector<int> tracked;
  for (int r = 0; r < rows; ++r) {
    const int cur = static_cast<int>(rng.UniformInt(classes));
    std::vector<int> one_hot;
    for (int c = 0; c < classes; ++c) {
      one_hot.push_back(p.AddVar(c == cur ? 0.0 : 1.0));
    }
    p.AddCardinality(one_hot, ConstraintSense::kEq, 1.0);
    tracked.push_back(one_hot[1]);  // count class-1 assignments
  }
  const double target = static_cast<double>(rng.UniformInt(rows + 1));
  p.AddCardinality(tracked, ConstraintSense::kEq, target);
  const int coupling = static_cast<int>(p.num_constraints()) - 1;

  IlpSolveOptions fast_opts;
  fast_opts.randomize = true;
  fast_opts.seed = GetParam();
  fast_opts.coupling_constraints = {coupling};
  auto fast = SolveIlp(p, fast_opts);

  IlpSolveOptions slow_opts;
  slow_opts.randomize = false;
  auto slow = SolveIlp(p, slow_opts);

  ASSERT_EQ(fast.ok(), slow.ok());
  if (!fast.ok()) return;
  EXPECT_TRUE(fast->used_decomposition);
  EXPECT_NEAR(fast->objective, slow->objective, 1e-6);
  EXPECT_TRUE(p.IsFeasible(fast->values));
}

INSTANTIATE_TEST_SUITE_P(RandomCardinality, DecompositionAgreementTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

// ---------------------------------------------------------------------------
// One-pass evaluation: PolyArena::EvaluateAll against a depth-first
// reference, on random DAGs, spliced arenas and zero denominators.
// ---------------------------------------------------------------------------

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// Depth-first evaluation of one node with a per-call memo: the arithmetic
/// the node operators document, children folded in stored order.
double ReferenceValue(const PolyArena& a, PolyId id, const Vec& vars,
                      std::vector<std::optional<double>>* memo) {
  if ((*memo)[id].has_value()) return *(*memo)[id];
  const PolyNode& n = a.node(id);
  auto child = [&](size_t k) { return ReferenceValue(a, n.children[k], vars, memo); };
  double v = 0.0;
  switch (n.op) {
    case PolyOp::kConst:
      v = n.value;
      break;
    case PolyOp::kVar:
      v = vars[n.var];
      break;
    case PolyOp::kAnd:
    case PolyOp::kMul:
      v = 1.0;
      for (size_t k = 0; k < n.children.size(); ++k) v *= child(k);
      break;
    case PolyOp::kOr: {
      double prod = 1.0;
      for (size_t k = 0; k < n.children.size(); ++k) prod *= 1.0 - child(k);
      v = 1.0 - prod;
      break;
    }
    case PolyOp::kNot:
      v = 1.0 - child(0);
      break;
    case PolyOp::kAdd:
      for (size_t k = 0; k < n.children.size(); ++k) v += child(k);
      break;
    case PolyOp::kDiv: {
      const double den = child(1);
      v = den == 0.0 ? 0.0 : child(0) / den;
      break;
    }
  }
  (*memo)[id] = v;
  return v;
}

/// Appends `steps` random nodes over `num_vars` variables of table
/// `table_id`, every operator included, with explicit zero denominators.
void BuildRandomDag(PolyArena* a, Rng* rng, int table_id, int num_vars, int steps) {
  std::vector<PolyId> pool = {a->True(), a->False()};
  for (int v = 0; v < num_vars; ++v) {
    pool.push_back(a->Var(PredVar{table_id, v, static_cast<int32_t>(v % 3)}));
  }
  auto pick = [&] { return pool[rng->UniformInt(pool.size())]; };
  auto picks = [&] {
    std::vector<PolyId> c(1 + rng->UniformInt(4));
    for (PolyId& id : c) id = pick();
    return c;
  };
  for (int step = 0; step < steps; ++step) {
    switch (rng->UniformInt(9)) {
      case 0:
        pool.push_back(a->And(picks()));
        break;
      case 1:
        pool.push_back(a->Or(picks()));
        break;
      case 2:
        pool.push_back(a->Not(pick()));
        break;
      case 3:
        pool.push_back(a->Add(picks()));
        break;
      case 4:
        pool.push_back(a->Mul(picks()));
        break;
      case 5:
        pool.push_back(a->Div(pick(), pick()));
        break;
      case 6:
        pool.push_back(a->Div(pick(), a->False()));  // constant zero denominator
        break;
      case 7:
        pool.push_back(a->Const(rng->Uniform(-3.0, 3.0)));
        break;
      default:
        pool.push_back(a->Var(PredVar{table_id, static_cast<int64_t>(rng->UniformInt(
                                                    num_vars + 2)),
                                      1}));
        break;
    }
  }
}

/// 0/1 indicators, probabilities and exact zeros (zero denominators).
Vec RandomAssignment(size_t num_vars, Rng* rng) {
  Vec vals(num_vars);
  for (double& v : vals) {
    switch (rng->UniformInt(3)) {
      case 0:
        v = static_cast<double>(rng->UniformInt(2));
        break;
      case 1:
        v = rng->Uniform();
        break;
      default:
        v = 0.0;
        break;
    }
  }
  return vals;
}

void ExpectMatchesReference(const PolyArena& a, const Vec& vars) {
  const Vec values = a.EvaluateAll(vars);
  ASSERT_EQ(values.size(), a.num_nodes());
  std::vector<std::optional<double>> memo(a.num_nodes());
  for (size_t id = 0; id < a.num_nodes(); ++id) {
    const PolyId pid = static_cast<PolyId>(id);
    ASSERT_EQ(Bits(values[id]), Bits(ReferenceValue(a, pid, vars, &memo))) << "node " << id;
    ASSERT_EQ(Bits(a.Evaluate(pid, vars)), Bits(values[id])) << "node " << id;
  }
}

class OnePassEvaluationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OnePassEvaluationTest, RandomDagsMatchTheReferenceBitwise) {
  Rng rng(GetParam());
  PolyArena a;
  BuildRandomDag(&a, &rng, 0, 6, 80);
  for (int trial = 0; trial < 8; ++trial) {
    ExpectMatchesReference(a, RandomAssignment(a.num_vars(), &rng));
  }
}

TEST_P(OnePassEvaluationTest, SplicedArenasKeepEveryStagingValueBitwise) {
  Rng rng(GetParam() + 1000);
  PolyArena merged;
  BuildRandomDag(&merged, &rng, 0, 4, 20);  // nodes already in place
  std::vector<PolyArena> staging(3);
  std::vector<PolyArena::SpliceMap> maps;
  for (size_t s = 0; s < staging.size(); ++s) {
    // Table 0 variables are shared with the merged arena, table s + 1's
    // are new to it.
    BuildRandomDag(&staging[s], &rng, static_cast<int>(s % 2 == 0 ? 0 : s + 1), 5, 40);
    maps.push_back(merged.Splice(staging[s]));
  }
  for (int trial = 0; trial < 4; ++trial) {
    const Vec merged_vars = RandomAssignment(merged.num_vars(), &rng);
    ExpectMatchesReference(merged, merged_vars);
    const Vec merged_values = merged.EvaluateAll(merged_vars);
    for (size_t s = 0; s < staging.size(); ++s) {
      Vec staging_vars(staging[s].num_vars());
      for (size_t v = 0; v < staging_vars.size(); ++v) {
        staging_vars[v] = merged_vars[maps[s].var_map[v]];
      }
      const Vec staging_values = staging[s].EvaluateAll(staging_vars);
      for (size_t id = 0; id < staging_values.size(); ++id) {
        ASSERT_EQ(Bits(merged_values[maps[s].node_map[id]]), Bits(staging_values[id]))
            << "staging " << s << " node " << id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomArenas, OnePassEvaluationTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

TEST(OnePassDivisionTest, ZeroDenominatorsEvaluateToZero) {
  PolyArena a;
  const PolyId x = a.Var(PredVar{0, 0, 1});
  const PolyId y = a.Var(PredVar{0, 1, 1});
  const PolyId by_const = a.Div(a.Const(3.0), a.False());
  const PolyId by_var = a.Div(x, y);
  const PolyId by_sum = a.Div(x, a.Add({y, a.Not(x)}));
  ASSERT_EQ(a.node(by_const).op, PolyOp::kDiv);
  const Vec values = a.EvaluateAll({1.0, 0.0});
  EXPECT_EQ(Bits(values[by_const]), Bits(0.0));
  EXPECT_EQ(Bits(values[by_var]), Bits(0.0));
  EXPECT_EQ(Bits(values[by_sum]), Bits(0.0));  // y + (1 - x) = 0
  EXPECT_EQ(a.EvaluateAll({0.5, 0.25})[by_var], 2.0);
}

// ---------------------------------------------------------------------------
// Executor invariant: the concrete rows of a debug-mode run equal the
// non-debug output, and in one EvaluateAll pass under the current
// predictions every row condition is its concrete bit and every aggregate
// polynomial its concrete cell, bitwise.
// ---------------------------------------------------------------------------

class DebugConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DebugConsistencyTest, ConcreteRowsMatchAndCondsAgree) {
  Rng rng(GetParam());
  // Random small catalog: one predictable table, one plain table.
  const size_t n = 6 + rng.UniformInt(8);
  Table items(Schema({Field{"id", DataType::kInt64, ""},
                      Field{"grp", DataType::kInt64, ""},
                      Field{"val", DataType::kDouble, ""}}));
  Matrix feats(n, 3);
  std::vector<int> labels(n);
  Matrix probs(n, 3);
  for (size_t i = 0; i < n; ++i) {
    items.AppendRowUnchecked({Value(static_cast<int64_t>(i)),
                              Value(static_cast<int64_t>(rng.UniformInt(3))),
                              Value(rng.Uniform())});
    for (int f = 0; f < 3; ++f) feats.At(i, f) = rng.Gaussian();
    labels[i] = static_cast<int>(rng.UniformInt(3));
    double a = rng.Uniform(0.05, 1.0), b = rng.Uniform(0.05, 1.0),
           c = rng.Uniform(0.05, 1.0);
    const double s = a + b + c;
    probs.SetRow(i, {a / s, b / s, c / s});
  }
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("items", std::move(items),
                               Dataset(std::move(feats), std::move(labels), 3))
                  .ok());
  PredictionStore preds;
  preds.SetPredictions(0, std::move(probs));

  const char* queries[] = {
      "SELECT COUNT(*) AS c FROM items WHERE predict(*) = 1",
      "SELECT COUNT(*) AS c FROM items WHERE predict(*) = 1 OR grp = 0",
      "SELECT grp, COUNT(*) AS c FROM items WHERE predict(*) <> 2 GROUP BY grp",
      "SELECT SUM(val) AS s FROM items WHERE predict(*) >= 1",
      "SELECT * FROM items A, items B WHERE predict(A.*) = predict(B.*) "
      "AND A.id < B.id",
      "SELECT AVG(predict(*)) AS a FROM items GROUP BY grp",
      "SELECT predict(*), COUNT(*) AS c FROM items GROUP BY predict(*)",
  };
  for (const char* q : queries) {
    auto plan = sql::PlanQuery(q, catalog);
    ASSERT_TRUE(plan.ok()) << q << ": " << plan.status().ToString();

    PolyArena arena;
    Executor debug_exec(&catalog, &preds, &arena);
    ExecOptions debug_opts;
    debug_opts.debug_mode = true;
    auto debug_run = debug_exec.Run(*plan, debug_opts);
    ASSERT_TRUE(debug_run.ok()) << q << ": " << debug_run.status().ToString();

    Executor plain_exec(&catalog, &preds, nullptr);
    auto plain_run = plain_exec.Run(*plan, ExecOptions{});
    ASSERT_TRUE(plain_run.ok()) << q;

    // Concrete rows of debug mode == plain output rows (as multisets of
    // stringified rows).
    auto stringify = [](const ExecTable& t, bool only_concrete) {
      std::vector<std::string> rows;
      for (size_t r = 0; r < t.num_rows(); ++r) {
        if (only_concrete && !t.concrete[r]) continue;
        std::string s;
        for (const Value& v : t.rows[r]) s += v.ToString() + "|";
        rows.push_back(std::move(s));
      }
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    EXPECT_EQ(stringify(debug_run->table, true), stringify(plain_run->table, true))
        << q;

    // Under the concrete prediction assignment, the one-pass values of
    // the row conditions are the concrete bits, and those of the
    // aggregate polynomials are the concrete cells, bitwise.
    const Vec values = arena.EvaluateAll(preds.ConcreteAssignment(arena));
    for (size_t r = 0; r < debug_run->table.num_rows(); ++r) {
      const PolyId cond = debug_run->table.cond[r];
      if (cond == kInvalidPoly) continue;
      EXPECT_EQ(Bits(values[cond]), Bits(debug_run->table.concrete[r] ? 1.0 : 0.0))
          << q << " row " << r;
    }
    if (debug_run->is_aggregate) {
      for (size_t r = 0; r < debug_run->table.num_rows(); ++r) {
        if (!debug_run->table.concrete[r]) continue;
        for (size_t a = 0; a < debug_run->agg_polys[r].size(); ++a) {
          const double cell = *debug_run->table.rows[r]
                                   [debug_run->num_group_cols + a]
                                       .ToNumeric();
          EXPECT_EQ(Bits(values[debug_run->agg_polys[r][a]]), Bits(cell))
              << q << " row " << r << " agg " << a;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCatalogs, DebugConsistencyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// ---------------------------------------------------------------------------
// Relaxation invariants.
// ---------------------------------------------------------------------------

TEST(RelaxModeTest, LinearOrDiffersOnlyOnDisjunction) {
  PolyArena a;
  const PolyId x = a.Var(PredVar{0, 0, 1});
  const PolyId y = a.Var(PredVar{0, 1, 1});
  const Vec vals{0.5, 0.5};
  {
    RelaxedPoly ind(&a, a.And({x, y}), RelaxMode::kIndependent);
    RelaxedPoly lin(&a, a.And({x, y}), RelaxMode::kLinearOr);
    EXPECT_DOUBLE_EQ(ind.Evaluate(vals), lin.Evaluate(vals));
  }
  {
    RelaxedPoly ind(&a, a.Or({x, y}), RelaxMode::kIndependent);
    RelaxedPoly lin(&a, a.Or({x, y}), RelaxMode::kLinearOr);
    EXPECT_DOUBLE_EQ(ind.Evaluate(vals), 0.75);
    EXPECT_DOUBLE_EQ(lin.Evaluate(vals), 1.0);  // unclipped union bound
  }
}

TEST(RelaxModeTest, BoundedInUnitCubeForBooleanPolys) {
  // The independent-product relaxation of any AND/OR/NOT formula over
  // probabilities stays in [0, 1].
  Rng rng(77);
  PolyArena a;
  std::vector<PolyId> pool;
  for (int v = 0; v < 5; ++v) pool.push_back(a.Var(PredVar{0, v, 1}));
  for (int step = 0; step < 30; ++step) {
    const PolyId c1 = pool[rng.UniformInt(pool.size())];
    const PolyId c2 = pool[rng.UniformInt(pool.size())];
    switch (rng.UniformInt(3)) {
      case 0:
        pool.push_back(a.And({c1, c2}));
        break;
      case 1:
        pool.push_back(a.Or({c1, c2}));
        break;
      default:
        pool.push_back(a.Not(c1));
        break;
    }
  }
  RelaxedPoly poly(&a, pool.back());
  for (int trial = 0; trial < 50; ++trial) {
    Vec vals(5);
    for (double& v : vals) v = rng.Uniform();
    const double out = poly.Evaluate(vals);
    EXPECT_GE(out, -1e-12);
    EXPECT_LE(out, 1.0 + 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Auto ranker (Section 5.1 optimizer heuristic).
// ---------------------------------------------------------------------------

TEST(AutoRankerTest, FactoryAndName) {
  auto r = MakeRanker("auto");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->name(), "auto");
}

}  // namespace
}  // namespace rain
