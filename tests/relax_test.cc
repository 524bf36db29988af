#include <cmath>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "provenance/poly.h"
#include "relax/relaxed_poly.h"

namespace rain {
namespace {

TEST(RelaxedPolyTest, AndRelaxesToProduct) {
  PolyArena a;
  const PolyId x = a.Var(PredVar{0, 0, 1});
  const PolyId y = a.Var(PredVar{0, 1, 1});
  RelaxedPoly p(&a, a.And({x, y}));
  EXPECT_DOUBLE_EQ(p.Evaluate({0.3, 0.5}), 0.15);
}

TEST(RelaxedPolyTest, OrRelaxesToComplementProduct) {
  PolyArena a;
  const PolyId x = a.Var(PredVar{0, 0, 1});
  const PolyId y = a.Var(PredVar{0, 1, 1});
  RelaxedPoly p(&a, a.Or({x, y}));
  EXPECT_DOUBLE_EQ(p.Evaluate({0.3, 0.5}), 1.0 - 0.7 * 0.5);
}

TEST(RelaxedPolyTest, NotRelaxesToComplement) {
  PolyArena a;
  const PolyId x = a.Var(PredVar{0, 0, 1});
  RelaxedPoly p(&a, a.Not(x));
  EXPECT_DOUBLE_EQ(p.Evaluate({0.25}), 0.75);
}

TEST(RelaxedPolyTest, SingleOccurrenceMatchesExactExpectation) {
  // When every variable appears once, the relaxation equals the true
  // expectation (Section 5.3.1 / [29]). E[x AND (y OR NOT z)] with
  // independent Bernoulli variables:
  PolyArena a;
  const PolyId x = a.Var(PredVar{0, 0, 1});
  const PolyId y = a.Var(PredVar{0, 1, 1});
  const PolyId z = a.Var(PredVar{0, 2, 1});
  const PolyId expr = a.And({x, a.Or({y, a.Not(z)})});
  RelaxedPoly p(&a, expr);
  const double px = 0.4, py = 0.6, pz = 0.2;
  // Exact: px * (1 - (1-py) * pz).
  const double expected = px * (1.0 - (1.0 - py) * pz);
  EXPECT_NEAR(p.Evaluate({px, py, pz}), expected, 1e-12);
  // Brute-force expectation over the 8 boolean assignments.
  double brute = 0.0;
  for (int xb = 0; xb <= 1; ++xb) {
    for (int yb = 0; yb <= 1; ++yb) {
      for (int zb = 0; zb <= 1; ++zb) {
        const double prob = (xb ? px : 1 - px) * (yb ? py : 1 - py) * (zb ? pz : 1 - pz);
        const bool val = xb && (yb || !zb);
        brute += prob * (val ? 1.0 : 0.0);
      }
    }
  }
  EXPECT_NEAR(p.Evaluate({px, py, pz}), brute, 1e-12);
}

TEST(RelaxedPolyTest, BooleanInputsRecoverExactSemantics) {
  PolyArena a;
  const PolyId x = a.Var(PredVar{0, 0, 1});
  const PolyId y = a.Var(PredVar{0, 1, 1});
  const PolyId expr = a.Add({a.And({x, y}), a.Not(x), a.Or({x, y})});
  RelaxedPoly p(&a, expr);
  for (int xb = 0; xb <= 1; ++xb) {
    for (int yb = 0; yb <= 1; ++yb) {
      const double expect = (xb && yb ? 1 : 0) + (xb ? 0 : 1) + (xb || yb ? 1 : 0);
      EXPECT_DOUBLE_EQ(
          p.Evaluate({static_cast<double>(xb), static_cast<double>(yb)}), expect);
    }
  }
}

TEST(RelaxedPolyTest, DivNode) {
  PolyArena a;
  const PolyId x = a.Var(PredVar{0, 0, 1});
  const PolyId y = a.Var(PredVar{0, 1, 1});
  RelaxedPoly p(&a, a.Div(a.Add({x, y}), a.Const(2.0)));
  EXPECT_DOUBLE_EQ(p.Evaluate({0.2, 0.6}), 0.4);
}

TEST(RelaxedPolyTest, GradientOfProduct) {
  PolyArena a;
  const PolyId x = a.Var(PredVar{0, 0, 1});
  const PolyId y = a.Var(PredVar{0, 1, 1});
  RelaxedPoly p(&a, a.And({x, y}));
  Vec grad;
  const double v = p.Gradient({0.3, 0.5}, &grad);
  EXPECT_DOUBLE_EQ(v, 0.15);
  EXPECT_DOUBLE_EQ(grad[0], 0.5);  // d(xy)/dx = y
  EXPECT_DOUBLE_EQ(grad[1], 0.3);
}

TEST(RelaxedPolyTest, GradientWithZeroFactorUsesPrefixSuffix) {
  // d(xyz)/dx at y=0 must still be y*z = 0, but d/dy = x*z must survive
  // the zero (naive value/child division would produce NaN).
  PolyArena a;
  const PolyId x = a.Var(PredVar{0, 0, 1});
  const PolyId y = a.Var(PredVar{0, 1, 1});
  const PolyId z = a.Var(PredVar{0, 2, 1});
  RelaxedPoly p(&a, a.And({x, y, z}));
  Vec grad;
  p.Gradient({0.5, 0.0, 0.8}, &grad);
  EXPECT_DOUBLE_EQ(grad[0], 0.0);
  EXPECT_DOUBLE_EQ(grad[1], 0.4);  // x*z
  EXPECT_DOUBLE_EQ(grad[2], 0.0);
  for (double g : grad) EXPECT_TRUE(std::isfinite(g));
}

TEST(RelaxedPolyTest, GradientOfOrAtSaturation) {
  // OR with one input at 1: derivative w.r.t. the other inputs is 0.
  PolyArena a;
  const PolyId x = a.Var(PredVar{0, 0, 1});
  const PolyId y = a.Var(PredVar{0, 1, 1});
  RelaxedPoly p(&a, a.Or({x, y}));
  Vec grad;
  p.Gradient({1.0, 0.5}, &grad);
  EXPECT_DOUBLE_EQ(grad[1], 0.0);
  EXPECT_DOUBLE_EQ(grad[0], 0.5);  // 1 - y
}

TEST(RelaxedPolyTest, SharedSubexpressionAccumulatesAdjoint) {
  // f = x + x*y: df/dx = 1 + y.
  PolyArena a;
  const PolyId x = a.Var(PredVar{0, 0, 1});
  const PolyId y = a.Var(PredVar{0, 1, 1});
  RelaxedPoly p(&a, a.Add({x, a.Mul({x, y})}));
  Vec grad;
  p.Gradient({0.2, 0.7}, &grad);
  EXPECT_DOUBLE_EQ(grad[0], 1.7);
  EXPECT_DOUBLE_EQ(grad[1], 0.2);
}

/// Grows a random polynomial DAG over `nv` variables (plus one constant)
/// for `steps` steps; returns every node in creation order.
std::vector<PolyId> GrowRandomDag(Rng* rng, PolyArena* a, int nv, int steps) {
  std::vector<PolyId> pool;
  for (int v = 0; v < nv; ++v) pool.push_back(a->Var(PredVar{0, v, 1}));
  pool.push_back(a->Const(0.5));
  for (int step = 0; step < steps; ++step) {
    const int op = static_cast<int>(rng->UniformInt(5));
    const PolyId c1 = pool[rng->UniformInt(pool.size())];
    const PolyId c2 = pool[rng->UniformInt(pool.size())];
    switch (op) {
      case 0:
        pool.push_back(a->And({c1, c2}));
        break;
      case 1:
        pool.push_back(a->Or({c1, c2}));
        break;
      case 2:
        pool.push_back(a->Not(c1));
        break;
      case 3:
        pool.push_back(a->Add({c1, c2}));
        break;
      case 4:
        pool.push_back(a->Mul({c1, c2}));
        break;
    }
  }
  return pool;
}

/// Builds a random polynomial DAG over `nv` variables and checks the
/// reverse-mode gradient against central finite differences — the
/// property-based sweep for the AD engine.
class RelaxGradientPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RelaxGradientPropertyTest, MatchesFiniteDifference) {
  Rng rng(GetParam());
  PolyArena a;
  const int nv = 6;
  const PolyId root = GrowRandomDag(&rng, &a, nv, 25).back();
  RelaxedPoly p(&a, root);

  Vec vals(nv);
  for (double& v : vals) v = rng.Uniform(0.05, 0.95);
  Vec grad;
  p.Gradient(vals, &grad);

  const double eps = 1e-6;
  for (int v = 0; v < nv; ++v) {
    Vec vp = vals, vm = vals;
    vp[v] += eps;
    vm[v] -= eps;
    const double fd = (p.Evaluate(vp) - p.Evaluate(vm)) / (2 * eps);
    EXPECT_NEAR(grad[v], fd, 1e-5 * std::max(1.0, std::fabs(fd))) << "var " << v;
  }
}

TEST_P(RelaxGradientPropertyTest, SeededGradientIsSeedWeightedSumOfRootGradients) {
  // One seeded reverse sweep must equal sum_k seed_k * Gradient(root_k),
  // each Gradient from its own single-root tape. The root set covers a
  // duplicated root, a root nested under another root (a child of the
  // last node), a zero seed, and otherwise random tail nodes.
  Rng rng(GetParam());
  PolyArena a;
  const int nv = 6;
  const std::vector<PolyId> pool = GrowRandomDag(&rng, &a, nv, 25);
  std::vector<PolyId> roots = {pool.back()};
  const std::vector<PolyId>& kids = a.node(pool.back()).children;
  roots.push_back(kids.empty() ? pool.back() : kids[0]);
  for (int r = 0; r < 4; ++r) {
    roots.push_back(pool[pool.size() - 1 - static_cast<size_t>(rng.UniformInt(10))]);
  }
  roots.push_back(roots[2]);
  std::vector<double> seeds(roots.size());
  for (double& s : seeds) s = rng.Uniform(-2.0, 2.0);
  seeds[3] = 0.0;

  Vec vals(nv);
  for (double& v : vals) v = rng.Uniform(0.05, 0.95);
  RelaxedPoly batch(&a, roots);
  Vec node_values;
  const std::vector<double> rq = batch.EvaluateBatch(vals, &node_values);
  Vec grad;
  batch.SeededGradient(node_values, seeds, &grad);
  ASSERT_EQ(grad.size(), a.num_vars());

  Vec expect(a.num_vars(), 0.0);
  Vec scale(a.num_vars(), 0.0);  // sum of |term|: the rounding scale
  for (size_t k = 0; k < roots.size(); ++k) {
    RelaxedPoly single(&a, roots[k]);
    Vec g;
    EXPECT_EQ(single.Gradient(vals, &g), rq[k]) << "root " << k;
    for (size_t v = 0; v < g.size(); ++v) {
      expect[v] += seeds[k] * g[v];
      scale[v] += std::fabs(seeds[k] * g[v]);
    }
  }
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_NEAR(grad[v], expect[v], 1e-12 * scale[v]) << "var " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, RelaxGradientPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

TEST(RelaxedPolyTest, VariablesListsReachableOnly) {
  PolyArena a;
  const PolyId x = a.Var(PredVar{0, 0, 1});
  a.Var(PredVar{0, 1, 1});  // in arena but not in the poly
  RelaxedPoly p(&a, a.Not(x));
  EXPECT_EQ(p.variables().size(), 1u);
}

TEST(RelaxedPolyTest, ConstantPolyHasZeroGradient) {
  PolyArena a;
  RelaxedPoly p(&a, a.Const(3.0));
  Vec grad;
  EXPECT_DOUBLE_EQ(p.Gradient({}, &grad), 3.0);
}

// ------------------------------------------------------------- batch API

/// A random multi-root DAG sharing subexpressions across roots, plus a
/// random assignment — the shape of a multi-complaint encode phase.
struct BatchCase {
  PolyArena arena;
  std::vector<PolyId> roots;
  Vec vals;
};

BatchCase MakeBatchCase(uint64_t seed, int nv = 8, int num_roots = 5) {
  BatchCase c;
  Rng rng(seed);
  std::vector<PolyId> pool;
  for (int v = 0; v < nv; ++v) pool.push_back(c.arena.Var(PredVar{0, v, 1}));
  pool.push_back(c.arena.Const(0.5));
  for (int step = 0; step < 40; ++step) {
    const int op = static_cast<int>(rng.UniformInt(5));
    const PolyId c1 = pool[rng.UniformInt(pool.size())];
    const PolyId c2 = pool[rng.UniformInt(pool.size())];
    switch (op) {
      case 0:
        pool.push_back(c.arena.And({c1, c2}));
        break;
      case 1:
        pool.push_back(c.arena.Or({c1, c2}));
        break;
      case 2:
        pool.push_back(c.arena.Not(c1));
        break;
      case 3:
        pool.push_back(c.arena.Add({c1, c2}));
        break;
      case 4:
        pool.push_back(c.arena.Mul({c1, c2}));
        break;
    }
  }
  for (int r = 0; r < num_roots; ++r) {
    c.roots.push_back(pool[pool.size() - 1 - static_cast<size_t>(rng.UniformInt(10))]);
  }
  c.vals.resize(static_cast<size_t>(nv));
  for (double& v : c.vals) v = rng.Uniform(0.05, 0.95);
  return c;
}

TEST(RelaxedPolyBatchTest, EvaluateBatchMatchesSingleRootBitwise) {
  // Forward values depend only on child values, never on sweep order, so
  // the shared-sweep batch is bitwise-identical to per-root evaluation.
  for (uint64_t seed : {21u, 22u, 23u}) {
    BatchCase c = MakeBatchCase(seed);
    RelaxedPoly batch(&c.arena, c.roots);
    const std::vector<double> vals = batch.EvaluateBatch(c.vals);
    ASSERT_EQ(vals.size(), c.roots.size());
    for (size_t k = 0; k < c.roots.size(); ++k) {
      RelaxedPoly single(&c.arena, c.roots[k]);
      EXPECT_EQ(vals[k], single.Evaluate(c.vals)) << "seed " << seed << " root " << k;
    }
  }
}

TEST(RelaxedPolyBatchTest, LinearOrModeAppliesToBatch) {
  PolyArena a;
  const PolyId x = a.Var(PredVar{0, 0, 1});
  const PolyId y = a.Var(PredVar{0, 1, 1});
  RelaxedPoly batch(&a, std::vector<PolyId>{a.Or({x, y}), a.And({x, y})},
                    RelaxMode::kLinearOr);
  const std::vector<double> vals = batch.EvaluateBatch({0.3, 0.5});
  EXPECT_DOUBLE_EQ(vals[0], 0.8);  // linear OR: x + y
  EXPECT_DOUBLE_EQ(vals[1], 0.15);
}

TEST(RelaxedPolyBatchTest, EmptyAndDuplicateRoots) {
  PolyArena a;
  const PolyId x = a.Var(PredVar{0, 0, 1});
  RelaxedPoly empty(&a, std::vector<PolyId>{});
  Vec empty_values;
  EXPECT_TRUE(empty.EvaluateBatch({0.5}, &empty_values).empty());
  EXPECT_EQ(empty.num_reachable_nodes(), 0u);
  Vec grad = {7.0};
  empty.SeededGradient(empty_values, {}, &grad);
  EXPECT_EQ(grad, Vec({0.0}));

  // Duplicate roots stay positional: both entries carry the full result,
  // and their seeds accumulate.
  RelaxedPoly dup(&a, std::vector<PolyId>{x, x});
  Vec values;
  const std::vector<double> vals = dup.EvaluateBatch({0.25}, &values);
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0], vals[1]);
  dup.SeededGradient(values, {1.5, 0.25}, &grad);
  EXPECT_EQ(grad, Vec({1.75}));
  dup.SeededGradient(values, {0.0, 0.0}, &grad);
  EXPECT_EQ(grad, Vec({0.0}));
}

TEST(RelaxedPolyBatchTest, SeededGradientBitwiseAcrossBackends) {
  // The seeded sweep — shared forward sweep, edge-weight pass, GatherDot
  // reverse sweep, Gather + ScatterAxpy writeback — runs only the
  // single-body relax-layer kernels, so the result is one bit pattern on
  // every SIMD tier.
  for (uint64_t seed : {51u, 52u}) {
    BatchCase c = MakeBatchCase(seed, /*nv=*/8, /*num_roots=*/7);
    RelaxedPoly batch(&c.arena, c.roots);
    std::vector<double> seeds(c.roots.size());
    for (size_t k = 0; k < seeds.size(); ++k) seeds[k] = 0.5 - 0.3 * static_cast<double>(k);
    auto run = [&] {
      Vec values, grad;
      batch.EvaluateBatch(c.vals, &values);
      batch.SeededGradient(values, seeds, &grad);
      return grad;
    };
    const Vec ref = run();
    for (const char* tier : {"scalar", "avx2", "avx512"}) {
      if (!vec::simd::ForceBackend(tier)) continue;
      EXPECT_EQ(run(), ref) << tier;
    }
    vec::simd::ForceBackend(nullptr);
  }
}

TEST(RelaxedPolyBatchTest, GradientEqualsUnitSeedOnFirstRoot) {
  // Gradient runs the seeded sweep with seed 1 on the first root, so on
  // the SAME object it is bitwise equal to SeededGradient with seeds
  // (1, 0, ..., 0) (a separately constructed single-root tape has
  // narrower parent lists and is only 1e-12-near; the RandomDags property
  // test covers that).
  for (uint64_t seed : {55u, 56u, 57u}) {
    BatchCase c = MakeBatchCase(seed);
    RelaxedPoly batch(&c.arena, c.roots);
    Vec values, seeded;
    const std::vector<double> vals = batch.EvaluateBatch(c.vals, &values);
    std::vector<double> seeds(c.roots.size(), 0.0);
    seeds[0] = 1.0;
    batch.SeededGradient(values, seeds, &seeded);
    Vec g;
    const double v = batch.Gradient(c.vals, &g);
    EXPECT_EQ(v, vals[0]) << "seed " << seed;
    EXPECT_EQ(g, seeded) << "seed " << seed;
  }
}

TEST(RelaxedPolyBatchTest, Fig5CountWorkloadSeededGradient) {
  // The Fig. 5 DBLP encode shape: COUNT(*) complaints relax to ADD over
  // per-row prediction vars, several complaints sharing rows. The seeded
  // gradient of ADD roots is, per row, the sum of the seeds of the
  // queries whose window holds it (small integers: exact).
  PolyArena a;
  std::vector<PolyId> vars;
  for (int64_t r = 0; r < 300; ++r) {
    vars.push_back(a.Var(PredVar{0, r, 1}));
  }
  std::vector<PolyId> roots;
  std::vector<double> seeds;
  for (int q = 0; q < 6; ++q) {
    // Query q counts rows [25*q, 25*q + 150): adjacent queries overlap.
    std::vector<PolyId> terms(vars.begin() + 25 * q,
                              vars.begin() + 25 * q + 150);
    roots.push_back(a.Add(std::move(terms)));
    seeds.push_back(static_cast<double>(q + 1));
  }
  RelaxedPoly batch(&a, roots);
  Rng rng(58);
  Vec vals(a.num_vars());
  for (double& v : vals) v = rng.Uniform(0.05, 0.95);
  Vec values, grad;
  const std::vector<double> sums = batch.EvaluateBatch(vals, &values);
  batch.SeededGradient(values, seeds, &grad);
  ASSERT_EQ(sums.size(), roots.size());
  for (int q = 0; q < 6; ++q) {
    double expect = 0.0;
    for (int r = 25 * q; r < 25 * q + 150; ++r) expect += vals[static_cast<size_t>(r)];
    EXPECT_NEAR(sums[static_cast<size_t>(q)], expect, 1e-9) << "query " << q;
  }
  for (int r = 0; r < 300; ++r) {
    double expect = 0.0;
    for (int q = 0; q < 6; ++q) {
      if (r >= 25 * q && r < 25 * q + 150) expect += seeds[static_cast<size_t>(q)];
    }
    EXPECT_EQ(grad[static_cast<size_t>(r)], expect) << "row " << r;
  }
}

}  // namespace
}  // namespace rain
