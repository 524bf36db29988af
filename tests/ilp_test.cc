#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <utility>

#include "common/cancellation.h"
#include "common/rng.h"
#include "common/timer.h"
#include "gtest/gtest.h"
#include "ilp/problem.h"
#include "ilp/solver.h"
#include "ilp/tiresias.h"
#include "provenance/poly.h"
#include "provenance/prediction_store.h"

namespace rain {
namespace {

IlpSolveOptions NoRandom() {
  IlpSolveOptions o;
  o.randomize = false;
  return o;
}

TEST(IlpProblemTest, ObjectiveAndFeasibility) {
  IlpProblem p;
  const int a = p.AddVar(1.0);
  const int b = p.AddVar(2.0);
  p.AddCardinality({a, b}, ConstraintSense::kGe, 1.0);
  EXPECT_EQ(p.num_vars(), 2u);
  EXPECT_DOUBLE_EQ(p.ObjectiveValue({1, 1}), 3.0);
  EXPECT_TRUE(p.IsFeasible({1, 0}));
  EXPECT_FALSE(p.IsFeasible({0, 0}));
}

TEST(IlpSolverTest, PicksCheapestCover) {
  // min a + 2b st a + b >= 1 -> a=1, b=0.
  IlpProblem p;
  const int a = p.AddVar(1.0);
  const int b = p.AddVar(2.0);
  p.AddCardinality({a, b}, ConstraintSense::kGe, 1.0);
  auto sol = SolveIlp(p, NoRandom());
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->optimal);
  EXPECT_DOUBLE_EQ(sol->objective, 1.0);
  EXPECT_EQ(sol->values[a], 1);
  EXPECT_EQ(sol->values[b], 0);
}

TEST(IlpSolverTest, EqualityCardinality) {
  IlpProblem p;
  std::vector<int> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(p.AddVar(1.0));
  p.AddCardinality(vars, ConstraintSense::kEq, 3.0);
  auto sol = SolveIlp(p, NoRandom());
  ASSERT_TRUE(sol.ok());
  int ones = 0;
  for (auto v : sol->values) ones += v;
  EXPECT_EQ(ones, 3);
  EXPECT_DOUBLE_EQ(sol->objective, 3.0);
}

TEST(IlpSolverTest, InfeasibleReported) {
  IlpProblem p;
  const int a = p.AddVar(1.0);
  p.AddCardinality({a}, ConstraintSense::kGe, 2.0);  // impossible
  auto sol = SolveIlp(p, NoRandom());
  EXPECT_FALSE(sol.ok());
  EXPECT_TRUE(sol.status().IsResourceExhausted());
}

TEST(IlpSolverTest, NegativeCoefficients) {
  // min x st x - y >= 0, y = 1 -> x = 1.
  IlpProblem p;
  const int x = p.AddVar(1.0);
  const int y = p.AddVar(0.0);
  LinearConstraint c;
  c.terms = {{x, 1.0}, {y, -1.0}};
  c.sense = ConstraintSense::kGe;
  c.rhs = 0.0;
  p.AddConstraint(c);
  p.AddCardinality({y}, ConstraintSense::kEq, 1.0);
  auto sol = SolveIlp(p, NoRandom());
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->values[x], 1);
}

TEST(IlpSolverTest, PropagationFixesChain) {
  // z = AND(a, b) forced to 1 by constraint -> a = b = z = 1.
  IlpProblem p;
  const int a = p.AddVar(1.0);
  const int b = p.AddVar(1.0);
  const int z = p.AddVar(0.0);
  // z <= a; z <= b; z >= a + b - 1.
  p.AddConstraint({{{z, 1.0}, {a, -1.0}}, ConstraintSense::kLe, 0.0});
  p.AddConstraint({{{z, 1.0}, {b, -1.0}}, ConstraintSense::kLe, 0.0});
  p.AddConstraint({{{a, 1.0}, {b, 1.0}, {z, -1.0}}, ConstraintSense::kLe, 1.0});
  p.AddCardinality({z}, ConstraintSense::kEq, 1.0);
  auto sol = SolveIlp(p, NoRandom());
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->values[a], 1);
  EXPECT_EQ(sol->values[b], 1);
}

TEST(IlpSolverTest, BudgetExhaustionWithoutSolutionIsError) {
  // A deliberately thorny infeasible-ish instance with a 0-node budget.
  IlpProblem p;
  std::vector<int> vars;
  for (int i = 0; i < 30; ++i) vars.push_back(p.AddVar(1.0));
  for (int i = 0; i + 1 < 30; ++i) {
    p.AddConstraint({{{vars[i], 1.0}, {vars[i + 1], 1.0}}, ConstraintSense::kEq, 1.0});
  }
  p.AddCardinality(vars, ConstraintSense::kEq, 14.0);  // parity conflict
  IlpSolveOptions opts = NoRandom();
  opts.max_nodes = 100000;
  auto sol = SolveIlp(p, opts);
  // Alternating chain forces 15 ones; Eq 14 is infeasible.
  EXPECT_FALSE(sol.ok());
}

/// Pigeonhole: `holes + 1` pigeons, each in exactly one of `holes` holes,
/// at most one per hole. Infeasible, and bounds propagation only finds
/// that out after trying the hole orderings: an exponentially long search.
IlpProblem Pigeonhole(int holes) {
  IlpProblem p;
  std::vector<std::vector<int>> in(holes + 1);
  for (int i = 0; i <= holes; ++i) {
    for (int h = 0; h < holes; ++h) in[i].push_back(p.AddVar(0.0));
    p.AddCardinality(in[i], ConstraintSense::kEq, 1.0);
  }
  for (int h = 0; h < holes; ++h) {
    std::vector<int> hole;
    for (int i = 0; i <= holes; ++i) hole.push_back(in[i][h]);
    p.AddCardinality(hole, ConstraintSense::kLe, 1.0);
  }
  return p;
}

TEST(IlpSolverTest, CancelledTokenStopsEverySolvePath) {
  CancellationToken token;
  token.Cancel();
  // Decomposition path.
  IlpProblem cover;
  std::vector<int> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(cover.AddVar(1.0));
  cover.AddCardinality(vars, ConstraintSense::kEq, 3.0);
  IlpSolveOptions opts = NoRandom();
  opts.coupling_constraints = {0};
  opts.cancel = &token;
  auto decomposed = SolveIlp(cover, opts);
  EXPECT_TRUE(decomposed.status().IsCancelled()) << decomposed.status().ToString();
  // Branch-and-bound path, with a feasible warm start it could return.
  opts.coupling_constraints.clear();
  opts.warm_start = {1, 1, 1, 0, 0, 0};
  auto searched = SolveIlp(cover, opts);
  EXPECT_TRUE(searched.status().IsCancelled()) << searched.status().ToString();
}

TEST(IlpSolverTest, DeadlineInterruptsLongSearch) {
  // Without a stop this search runs far past any test timeout; the
  // deadline must end it at a node poll with Cancelled, not with an
  // incumbent or a budget exhaust.
  const IlpProblem p = Pigeonhole(12);
  CancellationToken token;
  token.set_deadline(std::chrono::steady_clock::now() + std::chrono::milliseconds(50));
  IlpSolveOptions opts = NoRandom();
  opts.max_nodes = std::numeric_limits<int64_t>::max();
  opts.cancel = &token;
  Timer timer;
  auto sol = SolveIlp(p, opts);
  EXPECT_TRUE(sol.status().IsCancelled()) << sol.status().ToString();
  EXPECT_LT(timer.ElapsedSeconds(), 30.0);

  // The same search under a node budget exhausts it instead.
  opts.cancel = nullptr;
  opts.max_nodes = 20'000;
  auto budgeted = SolveIlp(p, opts);
  ASSERT_FALSE(budgeted.ok());
  EXPECT_FALSE(budgeted.status().IsCancelled()) << budgeted.status().ToString();
}

TEST(IlpSolverTest, DecompositionMatchesBnbOptimum) {
  // Independent per-row one-hots + a coupling cardinality — exactly the
  // Tiresias COUNT shape. The decomposition fast path and plain B&B must
  // agree on the optimal objective.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    IlpProblem p;
    std::vector<int> class1;
    const int rows = 12;
    for (int r = 0; r < rows; ++r) {
      const int cur = static_cast<int>(rng.UniformInt(2));
      const int v0 = p.AddVar(cur == 0 ? 0.0 : 1.0);
      const int v1 = p.AddVar(cur == 1 ? 0.0 : 1.0);
      p.AddCardinality({v0, v1}, ConstraintSense::kEq, 1.0);
      class1.push_back(v1);
    }
    p.AddCardinality(class1, ConstraintSense::kEq, 7.0);
    const int coupling = static_cast<int>(p.num_constraints()) - 1;

    IlpSolveOptions with_decomp = NoRandom();
    with_decomp.coupling_constraints = {coupling};
    auto fast = SolveIlp(p, with_decomp);
    ASSERT_TRUE(fast.ok());
    EXPECT_TRUE(fast->used_decomposition);

    auto slow = SolveIlp(p, NoRandom());
    ASSERT_TRUE(slow.ok());
    EXPECT_DOUBLE_EQ(fast->objective, slow->objective) << "seed " << seed;
    EXPECT_TRUE(p.IsFeasible(fast->values));
    EXPECT_TRUE(p.IsFeasible(slow->values));
  }
}

TEST(IlpSolverTest, RandomizationSamplesDifferentOptima) {
  // 6 identical rows, flip 3: many optima; randomized runs should not all
  // return the same solution.
  IlpProblem p;
  std::vector<int> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(p.AddVar(1.0));
  p.AddCardinality(vars, ConstraintSense::kEq, 3.0);
  std::set<std::vector<uint8_t>> seen;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    IlpSolveOptions opts;
    opts.randomize = true;
    opts.seed = seed;
    opts.coupling_constraints = {0};
    auto sol = SolveIlp(p, opts);
    ASSERT_TRUE(sol.ok());
    EXPECT_DOUBLE_EQ(sol->objective, 3.0);
    seen.insert(sol->values);
  }
  EXPECT_GT(seen.size(), 1u) << "randomized solver must sample distinct optima";
}

/// Tiresias COUNT shape: `g` rows predicted class 0 and `h` predicted
/// class 1, one-hot over {class 0, class 1}, and the count of class-1 rows
/// pinned to h + k, so an optimal repair flips exactly k of the g rows.
/// Returns the coupling constraint's index; (*flip_vars)[i] is row i's
/// class-1 variable.
int CountShape(int g, int h, int k, IlpProblem* p, std::vector<int>* flip_vars) {
  std::vector<int> class1;
  for (int r = 0; r < g + h; ++r) {
    const bool counted = r >= g;
    const int v0 = p->AddVar(counted ? 1.0 : 0.0);
    const int v1 = p->AddVar(counted ? 0.0 : 1.0);
    p->AddCardinality({v0, v1}, ConstraintSense::kEq, 1.0);
    class1.push_back(v1);
    if (!counted) flip_vars->push_back(v1);
  }
  p->AddCardinality(class1, ConstraintSense::kEq, static_cast<double>(h + k));
  return static_cast<int>(p->num_constraints()) - 1;
}

TEST(IlpSolverTest, SingleCouplingDecompositionFlipsUniformly) {
  // Every k-subset of the g interchangeable rows is an optimal repair;
  // the decomposition should pick each row with probability k/g.
  constexpr int kG = 12, kH = 3, kK = 4, kTrials = 400;
  IlpProblem p;
  std::vector<int> flip_vars;
  const int coupling = CountShape(kG, kH, kK, &p, &flip_vars);
  std::vector<int> flips(kG, 0);
  IlpSolveOptions opts;
  opts.coupling_constraints.push_back(coupling);
  for (uint64_t seed = 0; seed < kTrials; ++seed) {
    opts.seed = seed;
    auto sol = SolveIlp(p, opts);
    ASSERT_TRUE(sol.ok());
    ASSERT_TRUE(sol->used_decomposition);
    ASSERT_TRUE(sol->optimal);
    ASSERT_DOUBLE_EQ(sol->objective, kK);
    ASSERT_TRUE(p.IsFeasible(sol->values));
    for (int i = 0; i < kG; ++i) flips[i] += sol->values[flip_vars[i]];
  }
  const double q = static_cast<double>(kK) / kG;
  const double mean = kTrials * q;
  const double sd = std::sqrt(kTrials * q * (1.0 - q));
  for (int i = 0; i < kG; ++i) {
    EXPECT_NEAR(flips[i], mean, 4.0 * sd) << "row " << i;
  }
}

TEST(IlpSolverTest, SingleCouplingDecompositionReachesEveryOptimum) {
  // g = 5, k = 2: all C(5, 2) = 10 optimal repairs appear.
  IlpProblem p;
  std::vector<int> flip_vars;
  const int coupling = CountShape(5, 2, 2, &p, &flip_vars);
  std::set<std::vector<uint8_t>> subsets;
  IlpSolveOptions opts;
  opts.coupling_constraints.push_back(coupling);
  for (uint64_t seed = 0; seed < 200; ++seed) {
    opts.seed = seed;
    auto sol = SolveIlp(p, opts);
    ASSERT_TRUE(sol.ok());
    ASSERT_TRUE(sol->used_decomposition);
    ASSERT_DOUBLE_EQ(sol->objective, 2.0);
    std::vector<uint8_t> subset;
    for (int v : flip_vars) subset.push_back(sol->values[v]);
    subsets.insert(subset);
  }
  EXPECT_EQ(subsets.size(), 10u);
}

// ---------------------------------------------------------------------------
// Warm starts.
// ---------------------------------------------------------------------------

/// Chain cover: x_i + x_{i+1} >= 1, alternating costs. Big enough that
/// branch-and-bound does real work.
IlpProblem ChainCover(int n) {
  IlpProblem p;
  std::vector<int> vars;
  for (int i = 0; i < n; ++i) {
    vars.push_back(p.AddVar(i % 2 == 0 ? 1.1 : 1.0));
  }
  for (int i = 0; i + 1 < n; ++i) {
    p.AddCardinality({vars[i], vars[i + 1]}, ConstraintSense::kGe, 1.0);
  }
  return p;
}

TEST(IlpSolverTest, WarmStartSameOptimumFewerNodes) {
  const IlpProblem p = ChainCover(16);
  auto cold = SolveIlp(p, NoRandom());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(cold->optimal);
  EXPECT_FALSE(cold->warm_start_used);

  IlpSolveOptions opts = NoRandom();
  opts.warm_start = cold->values;
  auto warm = SolveIlp(p, opts);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->optimal);
  EXPECT_TRUE(warm->warm_start_used);
  EXPECT_DOUBLE_EQ(warm->objective, cold->objective);
  // Seeding the incumbent can only tighten the bound pruning.
  EXPECT_LE(warm->nodes_explored, cold->nodes_explored);
}

TEST(IlpSolverTest, WarmStartSurvivesBudgetExhaustion) {
  // 3000 vars, exactly 1500 ones: the cheap-first dive assigns zeros and
  // cannot reach a leaf within one node, so a 1-node budget starves the
  // cold solver.
  IlpProblem p;
  std::vector<int> vars;
  for (int i = 0; i < 3000; ++i) vars.push_back(p.AddVar(1.0));
  p.AddCardinality(vars, ConstraintSense::kEq, 1500.0);
  IlpSolveOptions opts = NoRandom();
  opts.max_nodes = 1;
  auto starved = SolveIlp(p, opts);
  EXPECT_FALSE(starved.ok()) << "no incumbent within budget must error";

  // A feasible warm start turns the same starved run into a usable
  // anytime answer.
  opts.warm_start.assign(p.num_vars(), 0);
  for (int i = 0; i < 1500; ++i) opts.warm_start[i] = 1;
  auto warm = SolveIlp(p, opts);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->feasible);
  EXPECT_TRUE(warm->warm_start_used);
  EXPECT_FALSE(warm->optimal);
  EXPECT_DOUBLE_EQ(warm->objective, p.ObjectiveValue(opts.warm_start));
}

TEST(IlpSolverTest, WarmStartBuiltOnlyForBranchAndBound) {
  IlpProblem p;
  std::vector<int> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(p.AddVar(1.0));
  p.AddCardinality(vars, ConstraintSense::kEq, 3.0);
  int builds = 0;
  IlpSolveOptions opts = NoRandom();
  opts.build_warm_start = [&builds] {
    ++builds;
    return std::vector<uint8_t>{1, 1, 1, 0, 0, 0};
  };
  opts.coupling_constraints = {0};
  auto decomposed = SolveIlp(p, opts);
  ASSERT_TRUE(decomposed.ok());
  EXPECT_TRUE(decomposed->used_decomposition);
  EXPECT_EQ(builds, 0);

  opts.coupling_constraints.clear();
  auto searched = SolveIlp(p, opts);
  ASSERT_TRUE(searched.ok());
  EXPECT_EQ(builds, 1);
  EXPECT_TRUE(searched->warm_start_used);
}

TEST(IlpSolverTest, InfeasibleOrWrongSizeWarmStartIgnored) {
  const IlpProblem p = ChainCover(8);
  IlpSolveOptions opts = NoRandom();
  opts.warm_start.assign(p.num_vars(), 0);  // violates every cover
  auto sol = SolveIlp(p, opts);
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->warm_start_used);
  EXPECT_TRUE(sol->optimal);

  opts.warm_start.assign(p.num_vars() + 3, 1);  // wrong size
  auto sol2 = SolveIlp(p, opts);
  ASSERT_TRUE(sol2.ok());
  EXPECT_FALSE(sol2->warm_start_used);
  EXPECT_DOUBLE_EQ(sol2->objective, sol->objective);
}

// ---------------------------------------------------------------------------
// Multi-coupling decomposition.
// ---------------------------------------------------------------------------

/// Fig. 8 "both"-shaped instance: one-hot binary rows plus two
/// overlapping cardinality couplings over the class-1 vars. Current
/// prediction is class 0 everywhere, so flipping row r costs 1.
struct BothShaped {
  IlpProblem p;
  std::vector<int> cls1;  // class-1 var of each row
  int c1 = -1, c2 = -1;   // coupling constraint indices
};

BothShaped MakeBothShaped(double rhs2 = 2.0) {
  BothShaped b;
  for (int r = 0; r < 8; ++r) {
    const int v0 = b.p.AddVar(0.0);
    const int v1 = b.p.AddVar(1.0);
    b.p.AddCardinality({v0, v1}, ConstraintSense::kEq, 1.0);
    b.cls1.push_back(v1);
  }
  // Coupling 1: rows 0..5 contribute 3; coupling 2: rows 3..7 contribute 2.
  // With a/b/c counts in {0..2}/{3..5}/{6..7}: a+b=3, b+c=2, cost 5-b,
  // so the optimum takes b=2 -> cost 3.
  b.p.AddCardinality({b.cls1[0], b.cls1[1], b.cls1[2], b.cls1[3], b.cls1[4],
                      b.cls1[5]},
                     ConstraintSense::kEq, 3.0);
  b.c1 = static_cast<int>(b.p.num_constraints()) - 1;
  b.p.AddCardinality({b.cls1[3], b.cls1[4], b.cls1[5], b.cls1[6], b.cls1[7]},
                     ConstraintSense::kEq, rhs2);
  b.c2 = static_cast<int>(b.p.num_constraints()) - 1;
  return b;
}

TEST(IlpSolverTest, MultiCouplingDecompositionMatchesBnb) {
  BothShaped b = MakeBothShaped();
  auto bnb = SolveIlp(b.p, NoRandom());
  ASSERT_TRUE(bnb.ok());
  ASSERT_TRUE(bnb->optimal);
  EXPECT_DOUBLE_EQ(bnb->objective, 3.0);

  IlpSolveOptions opts = NoRandom();
  opts.coupling_constraints = {b.c1, b.c2};
  auto dec = SolveIlp(b.p, opts);
  ASSERT_TRUE(dec.ok());
  EXPECT_TRUE(dec->optimal);
  EXPECT_TRUE(dec->used_decomposition);
  EXPECT_DOUBLE_EQ(dec->objective, 3.0);
  EXPECT_TRUE(b.p.IsFeasible(dec->values));
}

TEST(IlpSolverTest, MultiCouplingInfeasibleTargetDetected) {
  // Coupling 2 demands more class-1 rows than its 5 members can supply.
  BothShaped b = MakeBothShaped(/*rhs2=*/6.0);
  IlpSolveOptions opts = NoRandom();
  opts.coupling_constraints = {b.c1, b.c2};
  auto dec = SolveIlp(b.p, opts);
  // Infeasibility surfaces as an error, matching the BnB convention.
  ASSERT_FALSE(dec.ok());
  EXPECT_TRUE(dec.status().IsResourceExhausted());
}

TEST(IlpSolverTest, MultiCouplingRandomizedSamplesDistinctOptima) {
  std::set<std::vector<uint8_t>> seen;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    BothShaped b = MakeBothShaped();
    IlpSolveOptions opts;
    opts.randomize = true;
    opts.seed = seed;
    opts.coupling_constraints = {b.c1, b.c2};
    auto sol = SolveIlp(b.p, opts);
    ASSERT_TRUE(sol.ok());
    EXPECT_DOUBLE_EQ(sol->objective, 3.0);
    EXPECT_TRUE(b.p.IsFeasible(sol->values));
    seen.insert(sol->values);
  }
  EXPECT_GT(seen.size(), 1u) << "multi-coupling DP must sample distinct optima";
}

// ---------------------------------------------------------------------------
// Tiresias encoding tests.
// ---------------------------------------------------------------------------

struct TiresiasFixture : public ::testing::Test {
  void SetUp() override {
    // 4 queried rows, binary model; rows 1, 2 predicted class 1.
    Matrix probs(4, 2);
    probs.SetRow(0, {0.8, 0.2});
    probs.SetRow(1, {0.3, 0.7});
    probs.SetRow(2, {0.1, 0.9});
    probs.SetRow(3, {0.6, 0.4});
    preds.SetPredictions(0, std::move(probs));
  }
  PolyArena arena;
  PredictionStore preds;
};

TEST_F(TiresiasFixture, CountComplaintEncodesEquationFive) {
  // count = sum_r v(r, 1); complaint count = 3 while current count is 2.
  std::vector<PolyId> terms;
  for (int64_t r = 0; r < 4; ++r) terms.push_back(arena.Var(PredVar{0, r, 1}));
  const PolyId count = arena.Add(terms);

  auto enc = EncodeTiresias(&arena, preds, {{count, ConstraintSense::kEq, 3.0}});
  ASSERT_TRUE(enc.ok());
  // 4 rows x 2 classes variables + one-hots + complaint constraint.
  EXPECT_EQ(enc->problem.num_vars(), 8u);
  EXPECT_EQ(enc->problem.num_constraints(), 5u);
  ASSERT_EQ(enc->complaint_constraints.size(), 1u);

  IlpSolveOptions opts;
  opts.randomize = false;
  opts.coupling_constraints = enc->complaint_constraints;
  auto sol = SolveIlp(enc->problem, opts);
  ASSERT_TRUE(sol.ok());
  EXPECT_DOUBLE_EQ(sol->objective, 1.0);  // one flip

  auto marked = DecodeMarkedPredictions(*enc, *sol);
  ASSERT_EQ(marked.size(), 1u);
  EXPECT_EQ(marked[0].assigned_class, 1);
  // The flipped row must be one currently predicted 0 (rows 0 or 3).
  EXPECT_TRUE(marked[0].row == 0 || marked[0].row == 3);
}

TEST_F(TiresiasFixture, TupleComplaintForcesRepair) {
  // Join tuple (row 1, row 2) exists because both predict class 1;
  // complaint: should not exist. Minimal repair flips one of them.
  const PolyId both = arena.And(
      {arena.Var(PredVar{0, 1, 1}), arena.Var(PredVar{0, 2, 1})});
  auto enc = EncodeTiresias(&arena, preds, {{both, ConstraintSense::kEq, 0.0}});
  ASSERT_TRUE(enc.ok());
  auto sol = SolveIlp(enc->problem, NoRandom());
  ASSERT_TRUE(sol.ok());
  EXPECT_DOUBLE_EQ(sol->objective, 1.0);
  auto marked = DecodeMarkedPredictions(*enc, *sol);
  ASSERT_EQ(marked.size(), 1u);
  EXPECT_TRUE(marked[0].row == 1 || marked[0].row == 2);
  EXPECT_EQ(marked[0].assigned_class, 0);
}

TEST_F(TiresiasFixture, MultiClassJoinEquality) {
  // 10-class predictions for two rows of table 1; complaint: the join
  // tuple OR_c(v_l,c AND v_r,c) should not exist.
  Matrix probs(2, 10, 0.05);
  probs.At(0, 1) = 0.55;  // row 0 predicted 1
  probs.At(1, 1) = 0.55;  // row 1 predicted 1
  preds.SetPredictions(1, std::move(probs));
  std::vector<PolyId> ors;
  for (int c = 0; c < 10; ++c) {
    ors.push_back(arena.And(
        {arena.Var(PredVar{1, 0, c}), arena.Var(PredVar{1, 1, c})}));
  }
  const PolyId tuple = arena.Or(ors);
  auto enc = EncodeTiresias(&arena, preds, {{tuple, ConstraintSense::kEq, 0.0}});
  ASSERT_TRUE(enc.ok());
  auto sol = SolveIlp(enc->problem, NoRandom());
  ASSERT_TRUE(sol.ok());
  EXPECT_DOUBLE_EQ(sol->objective, 1.0);  // flip one of the two rows
  auto marked = DecodeMarkedPredictions(*enc, *sol);
  ASSERT_EQ(marked.size(), 1u);
  EXPECT_NE(marked[0].assigned_class, 1);
}

TEST_F(TiresiasFixture, WeightedSumComplaintNormalizes) {
  // AVG-style polynomial: (v0 + v1 + v2 + v3) / 4 = 0.75 -> cardinality 3.
  std::vector<PolyId> terms;
  for (int64_t r = 0; r < 4; ++r) terms.push_back(arena.Var(PredVar{0, r, 1}));
  const PolyId avg = arena.Div(arena.Add(terms), arena.Const(4.0));
  auto enc = EncodeTiresias(&arena, preds, {{avg, ConstraintSense::kEq, 0.75}});
  ASSERT_TRUE(enc.ok());
  auto sol = SolveIlp(enc->problem, NoRandom());
  ASSERT_TRUE(sol.ok());
  EXPECT_DOUBLE_EQ(sol->objective, 1.0);
}

TEST_F(TiresiasFixture, InfeasibleComplaintSurfaces) {
  std::vector<PolyId> terms;
  for (int64_t r = 0; r < 4; ++r) terms.push_back(arena.Var(PredVar{0, r, 1}));
  const PolyId count = arena.Add(terms);
  auto enc = EncodeTiresias(&arena, preds, {{count, ConstraintSense::kEq, 9.0}});
  ASSERT_TRUE(enc.ok());
  EXPECT_FALSE(SolveIlp(enc->problem, NoRandom()).ok());
}

TEST_F(TiresiasFixture, RatioWithModelDenominatorUnsupported) {
  const PolyId num = arena.Var(PredVar{0, 0, 1});
  const PolyId den = arena.Add({arena.Var(PredVar{0, 1, 1}), arena.True()});
  const PolyId avg = arena.Div(num, den);
  EXPECT_FALSE(EncodeTiresias(&arena, preds, {{avg, ConstraintSense::kEq, 0.5}}).ok());
}

TEST_F(TiresiasFixture, EmptyComplaintListRejected) {
  EXPECT_FALSE(EncodeTiresias(&arena, preds, {}).ok());
}

TEST_F(TiresiasFixture, ComplaintConstraintsRecordedAndWarmStartFeasible) {
  // count = 3 while current count is 2: the greedy repair must reach a
  // feasible candidate (one flip), which the solver then uses to seed
  // its incumbent.
  std::vector<PolyId> terms;
  for (int64_t r = 0; r < 4; ++r) terms.push_back(arena.Var(PredVar{0, r, 1}));
  const PolyId count = arena.Add(terms);
  auto enc = EncodeTiresias(&arena, preds, {{count, ConstraintSense::kEq, 3.0}});
  ASSERT_TRUE(enc.ok());
  ASSERT_EQ(enc->complaint_constraints.size(), 1u);
  // The complaint constraint is lowered after every one-hot.
  EXPECT_EQ(enc->complaint_constraints[0],
            static_cast<int>(enc->problem.num_constraints()) - 1);

  const std::vector<uint8_t> warm = BuildTiresiasWarmStart(*enc);
  ASSERT_EQ(warm.size(), enc->problem.num_vars());
  EXPECT_TRUE(enc->problem.IsFeasible(warm));

  IlpSolveOptions opts = NoRandom();
  opts.warm_start = warm;
  auto sol = SolveIlp(enc->problem, opts);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->warm_start_used);
  EXPECT_DOUBLE_EQ(sol->objective, 1.0);
}

/// Join tuple complaint over rows 1 and 2, both predicted class 1: the
/// tuple exists while they agree, OR(AND(v1,0, v2,0), AND(v1,1, v2,1)).
PolyId AgreementTuple(PolyArena* arena) {
  return arena->Or(
      {arena->And({arena->Var(PredVar{0, 1, 0}), arena->Var(PredVar{0, 2, 0})}),
       arena->And({arena->Var(PredVar{0, 1, 1}), arena->Var(PredVar{0, 2, 1})})});
}

TEST_F(TiresiasFixture, WarmStartEvaluatesAuxiliaries) {
  // The complaint "this tuple should not exist" reads only the three
  // Tseitin auxiliaries. The warm start evaluates them from its repaired
  // class assignment, so it is a complete feasible candidate, and
  // branch-and-bound proves it optimal without leaving the root.
  auto enc = EncodeTiresias(&arena, preds,
                            {{AgreementTuple(&arena), ConstraintSense::kEq, 0.0}});
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->auxiliaries.size(), 3u);

  const std::vector<uint8_t> warm = BuildTiresiasWarmStart(*enc);
  ASSERT_EQ(warm.size(), enc->problem.num_vars());
  EXPECT_TRUE(enc->problem.IsFeasible(warm));

  IlpSolveOptions opts = NoRandom();
  opts.warm_start = warm;
  auto sol = SolveIlp(enc->problem, opts);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->warm_start_used);
  EXPECT_TRUE(sol->optimal);
  EXPECT_EQ(sol->nodes_explored, 0);
  EXPECT_DOUBLE_EQ(sol->objective, 1.0);  // one row of the tuple
}

TEST_F(TiresiasFixture, SeedPicksAmongMinimalRepairsThatCloseAtTheRoot) {
  // Two minimal repairs: flip row 1 or flip row 2. Branch-and-bound closes
  // at the warm start, so the seeded repair is what the solve returns,
  // and different seeds must reach both optima.
  auto enc = EncodeTiresias(&arena, preds,
                            {{AgreementTuple(&arena), ConstraintSense::kEq, 0.0}});
  ASSERT_TRUE(enc.ok());
  std::set<int64_t> flipped;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    IlpSolveOptions opts;
    opts.seed = seed;
    Rng rng(seed);
    opts.warm_start = BuildTiresiasWarmStart(*enc, &rng);
    auto sol = SolveIlp(enc->problem, opts);
    ASSERT_TRUE(sol.ok());
    EXPECT_TRUE(sol->warm_start_used);
    EXPECT_TRUE(sol->optimal);
    EXPECT_DOUBLE_EQ(sol->objective, 1.0);
    const auto marked = DecodeMarkedPredictions(*enc, *sol);
    ASSERT_EQ(marked.size(), 1u);
    flipped.insert(marked[0].row);
  }
  EXPECT_EQ(flipped, (std::set<int64_t>{1, 2}));
}

// ---------------------------------------------------------------------------
// Optimality on two-sided tuple complaints.
// ---------------------------------------------------------------------------

/// Rows of two tables and the complained join tuples between them, each
/// an edge (left row, right row) between rows predicted the same class.
struct TwoSidedInstance {
  int left = 0;
  int right = 0;
  std::vector<std::pair<int, int>> edges;
};

/// Minimum vertex cover by enumeration (left rows are bits 0..left-1).
int BruteForceCover(const TwoSidedInstance& inst) {
  const int n = inst.left + inst.right;
  int best = n;
  for (uint32_t s = 0; s < (1u << n); ++s) {
    const int size = __builtin_popcount(s);
    if (size >= best) continue;
    bool covers = true;
    for (const auto& [l, r] : inst.edges) {
      if (!((s >> l) & 1u) && !((s >> (inst.left + r)) & 1u)) {
        covers = false;
        break;
      }
    }
    if (covers) best = size;
  }
  return best;
}

/// Maximum bipartite matching by augmenting paths.
int MaxMatching(const TwoSidedInstance& inst) {
  std::vector<std::vector<int>> adj(inst.left);
  for (const auto& [l, r] : inst.edges) adj[l].push_back(r);
  std::vector<int> match_of_right(inst.right, -1);
  std::vector<uint8_t> visited;
  std::function<bool(int)> augment = [&](int l) {
    for (const int r : adj[l]) {
      if (visited[r]) continue;
      visited[r] = 1;
      if (match_of_right[r] < 0 || augment(match_of_right[r])) {
        match_of_right[r] = l;
        return true;
      }
    }
    return false;
  };
  int size = 0;
  for (int l = 0; l < inst.left; ++l) {
    visited.assign(inst.right, 0);
    size += augment(l) ? 1 : 0;
  }
  return size;
}

TEST(IlpOptimalityTest, TwoSidedTupleComplaintsReachMinimumCover) {
  // Random join complaints over at most 20 rows and three or four
  // classes: flipping a row removes every complained tuple it is in, and
  // two flipped neighbours can always take different classes, so the
  // minimal repair is a minimum vertex cover of the complaint graph —
  // by Koenig's theorem, the size of a maximum matching.
  constexpr int kTrials = 40;
  int solved = 0;
  for (uint64_t seed = 1; seed <= kTrials; ++seed) {
    Rng rng(seed);
    TwoSidedInstance inst;
    inst.left = 2 + static_cast<int>(rng.UniformInt(9));
    inst.right = 2 + static_cast<int>(rng.UniformInt(19 - inst.left));
    const int classes = 3 + static_cast<int>(rng.UniformInt(2));
    const double density = rng.Uniform(0.2, 0.8);

    PolyArena arena;
    PredictionStore preds;
    std::vector<int> cls[2];
    for (int table = 0; table < 2; ++table) {
      const int n = table == 0 ? inst.left : inst.right;
      Matrix probs(n, classes, 0.1 / classes);
      for (int row = 0; row < n; ++row) {
        // Two classes only, so most pairs agree and the graph is dense.
        cls[table].push_back(static_cast<int>(rng.UniformInt(2)));
        probs.At(row, cls[table].back()) = 0.9;
      }
      preds.SetPredictions(table, std::move(probs));
    }
    std::vector<IlpComplaint> complaints;
    for (int l = 0; l < inst.left; ++l) {
      for (int r = 0; r < inst.right; ++r) {
        if (cls[0][l] != cls[1][r] || !rng.Bernoulli(density)) continue;
        inst.edges.emplace_back(l, r);
        std::vector<PolyId> same_class;
        for (int c = 0; c < classes; ++c) {
          same_class.push_back(
              arena.And({arena.Var(PredVar{0, l, c}), arena.Var(PredVar{1, r, c})}));
        }
        complaints.push_back({arena.Or(same_class), ConstraintSense::kEq, 0.0});
      }
    }
    if (complaints.empty()) continue;
    ++solved;
    const int cover = BruteForceCover(inst);
    ASSERT_EQ(cover, MaxMatching(inst)) << "seed " << seed;

    auto enc = EncodeTiresias(&arena, preds, complaints);
    ASSERT_TRUE(enc.ok()) << enc.status().ToString();
    // Cold branch-and-bound, then TwoStep's configuration: every complaint
    // offered as a coupling and the Tiresias warm start.
    IlpSolveOptions cold;
    cold.seed = seed;
    IlpSolveOptions twostep = cold;
    twostep.coupling_constraints = enc->complaint_constraints;
    Rng repair_rng(seed);
    twostep.warm_start = BuildTiresiasWarmStart(*enc, &repair_rng);
    EXPECT_FALSE(twostep.warm_start.empty()) << "seed " << seed;
    for (const IlpSolveOptions& opts : {cold, twostep}) {
      auto sol = SolveIlp(enc->problem, opts);
      ASSERT_TRUE(sol.ok()) << "seed " << seed << ": " << sol.status().ToString();
      EXPECT_TRUE(sol->optimal) << "seed " << seed;
      EXPECT_DOUBLE_EQ(sol->objective, cover) << "seed " << seed;
      EXPECT_TRUE(enc->problem.IsFeasible(sol->values)) << "seed " << seed;
      EXPECT_EQ(DecodeMarkedPredictions(*enc, *sol).size(), static_cast<size_t>(cover))
          << "seed " << seed;
    }
  }
  EXPECT_GT(solved, kTrials / 2);
}

}  // namespace
}  // namespace rain
