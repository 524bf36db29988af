#include <atomic>
#include <cmath>
#include <string>

#include "common/logging.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "influence/conjugate_gradient.h"
#include "influence/influence.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/softmax_regression.h"
#include "ml/trainer.h"

namespace rain {
namespace {

TEST(ConjugateGradientTest, SolvesDiagonalSystem) {
  // A = diag(1..5), b = ones.
  LinearOperator op = [](const Vec& v, Vec* out) {
    out->resize(v.size());
    for (size_t i = 0; i < v.size(); ++i) (*out)[i] = static_cast<double>(i + 1) * v[i];
  };
  auto r = ConjugateGradient(op, Vec(5, 1.0));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  for (size_t i = 0; i < 5; ++i) EXPECT_NEAR(r->x[i], 1.0 / (i + 1), 1e-8);
}

TEST(ConjugateGradientTest, SolvesDenseSpdSystem) {
  // A = M^T M + I for random M: SPD.
  Rng rng(3);
  const size_t n = 8;
  std::vector<Vec> m(n, Vec(n));
  for (auto& row : m) {
    for (double& v : row) v = rng.Gaussian();
  }
  auto apply = [&](const Vec& v, Vec* out) {
    Vec mv(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) mv[i] += m[i][j] * v[j];
    }
    out->assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) (*out)[j] += m[i][j] * mv[i];
      (*out)[i] += v[i];
    }
  };
  Vec b(n);
  for (double& v : b) v = rng.Gaussian();
  auto r = ConjugateGradient(LinearOperator(apply), b);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->converged);
  // Verify residual directly.
  Vec ax;
  apply(r->x, &ax);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-6);
}

TEST(ConjugateGradientTest, ZeroRhsReturnsZero) {
  LinearOperator op = [](const Vec& v, Vec* out) { *out = v; };
  auto r = ConjugateGradient(op, Vec(3, 0.0));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  for (double v : r->x) EXPECT_EQ(v, 0.0);
}

TEST(ConjugateGradientTest, RejectsIndefiniteOperator) {
  LinearOperator op = [](const Vec& v, Vec* out) {
    *out = v;
    for (double& x : *out) x = -x;
  };
  auto r = ConjugateGradient(op, Vec(3, 1.0));
  EXPECT_FALSE(r.ok());
}

TEST(ConjugateGradientTest, EmptyRhsIsError) {
  LinearOperator op = [](const Vec& v, Vec* out) { *out = v; };
  EXPECT_FALSE(ConjugateGradient(op, Vec{}).ok());
}

/// Builds a small trained logistic model for influence checks.
struct TrainedSetup {
  Dataset train;
  LogisticRegression model{0};
  double l2 = 1e-2;
};

TrainedSetup MakeTrained(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, d);
  std::vector<int> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < d; ++f) x.At(i, f) = rng.Gaussian();
    double s = 0.0;
    for (size_t f = 0; f < d; ++f) s += x.At(i, f);
    y[i] = s + 0.5 * rng.Gaussian() > 0 ? 1 : 0;
  }
  TrainedSetup setup{Dataset(std::move(x), std::move(y), 2), LogisticRegression(d)};
  TrainConfig cfg;
  cfg.l2 = setup.l2;
  cfg.grad_tol = 1e-10;
  cfg.max_iters = 2000;
  RAIN_CHECK(TrainModel(&setup.model, setup.train, cfg).ok());
  return setup;
}

TEST(InfluenceTest, PrepareRequiresMatchingSize) {
  TrainedSetup s = MakeTrained(30, 3, 7);
  InfluenceScorer scorer(&s.model, &s.train);
  EXPECT_FALSE(scorer.Prepare(Vec(2, 1.0)).ok());
}

TEST(InfluenceTest, ScoresApproximateLeaveOneOutEffect) {
  // q(theta) = p_1(x_q; theta) for a probe point. The influence
  // prediction of removing record z is (1/n) * score contribution;
  // compare its *sign and ranking* against true leave-one-out retraining.
  TrainedSetup s = MakeTrained(60, 3, 9);
  Rng rng(10);
  Vec xq{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};

  auto q_value = [&](const Model& m) {
    double p[2];
    m.PredictProba(xq.data(), p);
    return p[1];
  };

  InfluenceOptions opts;
  opts.l2 = s.l2;
  InfluenceScorer scorer(&s.model, &s.train, opts);
  Vec q_grad(s.model.num_params(), 0.0);
  s.model.AddProbaGradient(xq.data(), Vec{0.0, 1.0}, &q_grad);
  ASSERT_TRUE(scorer.Prepare(q_grad).ok());

  const double q0 = q_value(s.model);
  const double n = static_cast<double>(s.train.num_active());
  TrainConfig cfg;
  cfg.l2 = s.l2;
  cfg.grad_tol = 1e-10;
  cfg.max_iters = 2000;

  double corr_num = 0.0, pred_sq = 0.0, true_sq = 0.0;
  for (size_t i = 0; i < 12; ++i) {
    const double predicted_delta = scorer.Score(i) / n;  // score = -grad q H^-1 grad l
    LogisticRegression retrained(3);
    Dataset copy = s.train;
    copy.Deactivate(i);
    ASSERT_TRUE(TrainModel(&retrained, copy, cfg).ok());
    const double true_delta = -(q_value(retrained) - q0);
    corr_num += predicted_delta * true_delta;
    pred_sq += predicted_delta * predicted_delta;
    true_sq += true_delta * true_delta;
  }
  const double corr = corr_num / std::sqrt(pred_sq * true_sq + 1e-30);
  EXPECT_GT(corr, 0.9) << "influence predictions should correlate with true LOO";
}

TEST(InfluenceTest, InactiveRecordsScoreZero) {
  TrainedSetup s = MakeTrained(20, 3, 11);
  s.train.Deactivate(5);
  InfluenceOptions opts;
  opts.l2 = s.l2;
  InfluenceScorer scorer(&s.model, &s.train, opts);
  Vec grad(s.model.num_params(), 0.5);
  ASSERT_TRUE(scorer.Prepare(grad).ok());
  auto scores = scorer.ScoreAll();
  EXPECT_EQ(scores[5], 0.0);
}

TEST(InfluenceTest, SelfInfluenceIsNonPositive) {
  TrainedSetup s = MakeTrained(25, 3, 13);
  InfluenceOptions opts;
  opts.l2 = s.l2;
  InfluenceScorer scorer(&s.model, &s.train, opts);
  auto self = scorer.SelfInfluenceAll();
  ASSERT_TRUE(self.ok());
  for (size_t i = 0; i < s.train.size(); ++i) {
    EXPECT_LE((*self)[i], 1e-9) << "self influence must be <= 0 (PSD Hessian)";
  }
}

TEST(InfluenceTest, ParallelScoreAllIsBitwiseIdenticalToSequential) {
  TrainedSetup s = MakeTrained(200, 4, 17);
  s.train.Deactivate(3);
  s.train.Deactivate(77);
  Vec q_grad(s.model.num_params(), 0.0);
  Rng rng(18);
  for (double& g : q_grad) g = rng.Gaussian();
  InfluenceOptions opts;
  opts.l2 = s.l2;
  auto score_all = [&](int parallelism) {
    opts.parallelism = parallelism;
    InfluenceScorer scorer(&s.model, &s.train, opts);
    EXPECT_TRUE(scorer.Prepare(q_grad).ok());
    return scorer.ScoreAll();
  };

  const std::vector<double> sequential = score_all(1);
  for (int par : {2, 4, 8}) {
    const std::vector<double> parallel = score_all(par);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
      // Per-record scores involve no cross-record reduction, so the
      // parallel partition reproduces the sequential result exactly.
      EXPECT_EQ(parallel[i], sequential[i]) << "parallelism=" << par << " i=" << i;
    }
  }
  EXPECT_EQ(sequential[3], 0.0);
  EXPECT_EQ(sequential[77], 0.0);
}

TEST(InfluenceTest, ParallelSelfInfluenceMatchesSequential) {
  TrainedSetup s = MakeTrained(40, 3, 19);
  InfluenceOptions opts;
  opts.l2 = s.l2;
  InfluenceScorer sequential_scorer(&s.model, &s.train, opts);
  auto sequential = sequential_scorer.SelfInfluenceAll();
  ASSERT_TRUE(sequential.ok());

  for (int par : {1, 2, 4, 8}) {
    opts.parallelism = par;
    InfluenceScorer parallel_scorer(&s.model, &s.train, opts);
    auto parallel = parallel_scorer.SelfInfluenceAll();
    ASSERT_TRUE(parallel.ok());
    // 4 parameters over 40 rows: the dense path. Every worker reads the
    // same Cholesky factor, so the partition cannot change a score.
    EXPECT_EQ(*parallel, *sequential) << "parallelism=" << par;
  }
}

/// Self-influence from one CG solve per active row over the model's
/// Hessian-vector product plus damping: the per-row reference.
std::vector<double> CgSelfInfluence(const Model& model, const Dataset& train,
                                    double l2, double damping,
                                    const CgOptions& cg) {
  LinearOperator op = [&](const Vec& v, Vec* out) {
    model.HessianVectorProduct(train, v, l2, out);
    if (damping != 0.0) vec::Axpy(damping, v, out);
  };
  std::vector<double> self(train.size(), 0.0);
  for (size_t i = 0; i < train.size(); ++i) {
    if (!train.active(i)) continue;
    Vec grad(model.num_params(), 0.0);
    model.AddExampleLossGradient(train.row(i), train.label(i), &grad);
    auto report = ConjugateGradient(op, grad, cg);
    RAIN_CHECK(report.ok()) << report.status().ToString();
    self[i] = -vec::Dot(grad, report->x);
  }
  return self;
}

Dataset RandomDataset(size_t n, size_t d, int classes, uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, d);
  std::vector<int> y(n);
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (size_t f = 0; f < d; ++f) {
      x.At(i, f) = rng.Gaussian();
      s += static_cast<double>(f + 1) * x.At(i, f);
    }
    y[i] = static_cast<int>(std::fabs(s + 0.5 * rng.Gaussian()) * 2.0) % classes;
  }
  return Dataset(std::move(x), std::move(y), classes);
}

void ExpectRelativelyNear(const std::vector<double>& got,
                          const std::vector<double>& want, double rel) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], rel * std::fabs(want[i])) << "i=" << i;
  }
}

TEST(InfluenceTest, DenseSelfInfluenceMatchesTightCgOnLogistic) {
  TrainedSetup s = MakeTrained(80, 5, 23);
  s.train.Deactivate(4);
  InfluenceOptions opts;
  opts.l2 = s.l2;
  InfluenceScorer scorer(&s.model, &s.train, opts);
  auto dense = scorer.SelfInfluenceAll();
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  EXPECT_EQ((*dense)[4], 0.0);

  CgOptions tight;
  tight.tol = 1e-12;
  tight.max_iters = 1000;
  ExpectRelativelyNear(*dense, CgSelfInfluence(s.model, s.train, s.l2, 0.0, tight),
                       1e-9);
}

/// A small softmax model: under the size rule, but without the one-pass
/// Hessian hook.
struct SoftmaxSetup {
  Dataset train = RandomDataset(90, 3, 3, 24);
  SoftmaxRegression model{3, 3};
  double l2 = 1e-2;
};

SoftmaxSetup MakeTrainedSoftmax() {
  SoftmaxSetup s;
  TrainConfig cfg;
  cfg.l2 = s.l2;
  cfg.max_iters = 100;
  RAIN_CHECK(TrainModel(&s.model, s.train, cfg).ok());
  return s;
}

TEST(InfluenceTest, ModelsOffTheDensePathKeepPerRecordCg) {
  // A logistic model with 13 parameters over 10 rows x 12 features
  // (169 > 120, so the size rule fails), and a softmax model that passes
  // the size rule but has no one-pass hook: every row takes a CG solve.
  TrainedSetup wide = MakeTrained(10, 12, 25);
  ASSERT_GT(wide.model.num_params() * wide.model.num_params(),
            wide.train.num_active() * wide.train.num_features());
  SoftmaxSetup small = MakeTrainedSoftmax();
  ASSERT_LE(small.model.num_params() * small.model.num_params(),
            small.train.num_active() * small.train.num_features());
  struct Input {
    const Model* model;
    const Dataset* train;
    double l2;
    double damping;
  };
  for (const Input& in : {Input{&wide.model, &wide.train, wide.l2, 0.0},
                          Input{&small.model, &small.train, small.l2, 0.01}}) {
    SCOPED_TRACE(in.model->num_params());
    InfluenceOptions opts;
    opts.l2 = in.l2;
    opts.damping = in.damping;
    InfluenceScorer scorer(in.model, in.train, opts);
    auto self = scorer.SelfInfluenceAll();
    ASSERT_TRUE(self.ok()) << self.status().ToString();
    EXPECT_EQ(*self, CgSelfInfluence(*in.model, *in.train, in.l2, in.damping,
                                     CgOptions()));
    EXPECT_TRUE(scorer.cg_converged());
    EXPECT_GT(scorer.cg_iterations(), 0);
  }
}

TEST(InfluenceTest, PrepareAndSelfInfluenceShareThePathRule) {
  // Without the hook both calls solve by CG; with it, neither does.
  SoftmaxSetup hookless = MakeTrainedSoftmax();
  TrainedSetup hooked = MakeTrained(120, 5, 31);
  for (const bool hook : {false, true}) {
    SCOPED_TRACE(hook);
    const Model& model = hook ? static_cast<const Model&>(hooked.model)
                              : static_cast<const Model&>(hookless.model);
    const Dataset& train = hook ? hooked.train : hookless.train;
    InfluenceOptions opts;
    opts.l2 = hook ? hooked.l2 : hookless.l2;
    opts.damping = 0.01;
    InfluenceScorer prepared(&model, &train, opts);
    ASSERT_TRUE(prepared.Prepare(Vec(model.num_params(), 1.0)).ok());
    InfluenceScorer self(&model, &train, opts);
    ASSERT_TRUE(self.SelfInfluenceAll().ok());
    EXPECT_EQ(prepared.cg_iterations() > 0, !hook);
    EXPECT_EQ(self.cg_iterations() > 0, !hook);
  }
}

TEST(InfluenceTest, IndefiniteHessianIsAnErrorNotAnAbort) {
  // An untrained, undamped, unregularized ReLU MLP: its exact Hessian has
  // negative curvature. The MLP has no one-pass hook, so its 17
  // parameters over 200 rows x 2 features take the per-record CG solves,
  // which must refuse rather than abort.
  Dataset train = RandomDataset(200, 2, 2, 26);
  Mlp model(2, 3, 2, /*seed=*/5);
  ASSERT_LE(model.num_params() * model.num_params(),
            train.num_active() * train.num_features());
  InfluenceOptions opts;
  opts.l2 = 0.0;
  InfluenceScorer scorer(&model, &train, opts);
  auto self = scorer.SelfInfluenceAll();
  ASSERT_FALSE(self.ok());
  EXPECT_NE(self.status().message().find("increase damping"), std::string::npos)
      << self.status().ToString();
}

/// Cancels a shared token after a fixed number of per-record gradient
/// evaluations, i.e. part-way through scoring.
class CancelAfterNGradients : public LogisticRegression {
 public:
  CancelAfterNGradients(const LogisticRegression& base, int n,
                        CancellationToken token)
      : LogisticRegression(base), remaining_(n), token_(std::move(token)) {}

  void AddExampleLossGradient(const double* x, int y, Vec* grad) const override {
    if (remaining_.fetch_sub(1) == 1) token_.Cancel();
    LogisticRegression::AddExampleLossGradient(x, y, grad);
  }

 private:
  mutable std::atomic<int> remaining_;
  mutable CancellationToken token_;
};

TEST(InfluenceTest, CancelDuringDenseSelfInfluenceReturnsCancelled) {
  TrainedSetup s = MakeTrained(300, 4, 27);
  for (int par : {1, 4}) {
    CancellationToken token;
    CancelAfterNGradients model(s.model, /*n=*/20, token);
    InfluenceOptions opts;
    opts.l2 = s.l2;
    opts.parallelism = par;
    opts.cancel = &token;
    InfluenceScorer scorer(&model, &s.train, opts);
    auto self = scorer.SelfInfluenceAll();
    ASSERT_FALSE(self.ok()) << "parallelism=" << par;
    EXPECT_TRUE(self.status().IsCancelled()) << self.status().ToString();
  }
}

TEST(InfluenceTest, UnconvergedCgIsReported) {
  // 13 parameters over 10 rows x 12 features: the Hessian is not formed,
  // so Prepare solves with CG.
  TrainedSetup s = MakeTrained(10, 12, 28);
  ASSERT_GT(s.model.num_params() * s.model.num_params(),
            s.train.num_active() * s.train.num_features());
  InfluenceOptions opts;
  opts.l2 = s.l2;
  opts.cg.max_iters = 1;
  InfluenceScorer scorer(&s.model, &s.train, opts);
  Vec q_grad(s.model.num_params(), 0.0);
  Rng rng(29);
  for (double& g : q_grad) g = rng.Gaussian();
  ASSERT_TRUE(scorer.Prepare(q_grad).ok());
  EXPECT_FALSE(scorer.cg_converged());
  EXPECT_EQ(scorer.cg_iterations(), 1);
  EXPECT_GT(scorer.cg_residual_norm(), 0.0);

  opts.cg.max_iters = 200;
  InfluenceScorer converged(&s.model, &s.train, opts);
  ASSERT_TRUE(converged.Prepare(q_grad).ok());
  EXPECT_TRUE(converged.cg_converged());

  // The per-record CG path folds every solve into the same accounting.
  TrainedSetup wide = MakeTrained(10, 12, 30);
  InfluenceOptions wide_opts;
  wide_opts.l2 = wide.l2;
  wide_opts.cg.max_iters = 1;
  InfluenceScorer per_record(&wide.model, &wide.train, wide_opts);
  ASSERT_TRUE(per_record.SelfInfluenceAll().ok());
  EXPECT_FALSE(per_record.cg_converged());
  EXPECT_EQ(per_record.cg_iterations(), 1);
}

TEST(InfluenceTest, CancelMidScoreAllStopsWithinOneRecordPerWorker) {
  TrainedSetup s = MakeTrained(600, 4, 27);
  s.train.Deactivate(11);
  Vec q_grad(s.model.num_params(), 0.0);
  Rng rng(44);
  for (double& g : q_grad) g = rng.Gaussian();

  // Uncancelled reference: every active row scores nonzero for this
  // workload (generic q_grad, no degenerate gradients).
  InfluenceOptions ref_opts;
  ref_opts.l2 = s.l2;
  InfluenceScorer reference(&s.model, &s.train, ref_opts);
  ASSERT_TRUE(reference.Prepare(q_grad).ok());
  const std::vector<double> full = reference.ScoreAll();
  size_t active_nonzero = 0;
  for (size_t i = 0; i < full.size(); ++i) {
    if (s.train.active(i) && full[i] != 0.0) ++active_nonzero;
  }
  ASSERT_EQ(active_nonzero, s.train.num_active());

  constexpr int kGradientsBeforeCancel = 5;
  for (int par : {1, 4}) {
    CancellationToken token;
    CancelAfterNGradients model(s.model, kGradientsBeforeCancel, token);
    InfluenceOptions opts;
    opts.l2 = s.l2;
    opts.parallelism = par;
    opts.cancel = &token;
    InfluenceScorer scorer(&model, &s.train, opts);
    ASSERT_TRUE(scorer.Prepare(q_grad).ok());
    const std::vector<double> partial = scorer.ScoreAll();

    // Every chunk polls per record, so after the token fires each worker
    // finishes at most the record it is on; everything that was scored
    // matches the uncancelled run exactly (per-record independence).
    size_t scored = 0;
    for (size_t i = 0; i < partial.size(); ++i) {
      if (partial[i] != 0.0) {
        EXPECT_EQ(partial[i], full[i]) << "parallelism=" << par << " i=" << i;
        ++scored;
      }
    }
    EXPECT_GE(scored, static_cast<size_t>(kGradientsBeforeCancel))
        << "parallelism=" << par;
    EXPECT_LE(scored, static_cast<size_t>(kGradientsBeforeCancel + par - 1))
        << "parallelism=" << par;

    // A stop request surfaces as Status::Cancelled from the Result-bearing
    // entry point.
    auto self = scorer.SelfInfluenceAll();
    ASSERT_FALSE(self.ok()) << "parallelism=" << par;
    EXPECT_TRUE(self.status().IsCancelled()) << self.status().ToString();
  }
}

TEST(InfluenceTest, DenseSelfInfluenceBitwiseAcrossWorkers) {
  TrainedSetup s = MakeTrained(150, 4, 17);
  s.train.Deactivate(9);
  InfluenceOptions opts;
  opts.l2 = s.l2;
  InfluenceScorer sequential(&s.model, &s.train, opts);
  auto ref = sequential.SelfInfluenceAll();
  ASSERT_TRUE(ref.ok());
  for (int par : {2, 4, 8}) {
    InfluenceOptions par_opts = opts;
    par_opts.parallelism = par;
    InfluenceScorer scorer(&s.model, &s.train, par_opts);
    auto got = scorer.SelfInfluenceAll();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, *ref) << "parallelism=" << par;
  }
}

TEST(InfluenceTest, DampingEnablesNonConvexSolves) {
  // A trained ReLU MLP: 26 parameters over 20 rows x 3 features keep the
  // Hessian-free CG solve, which damping makes well posed.
  Dataset train = RandomDataset(20, 3, 2, 15);
  Mlp model(3, 4, 2, /*seed=*/16);
  ASSERT_GT(model.num_params() * model.num_params(),
            train.num_active() * train.num_features());
  TrainConfig cfg;
  cfg.l2 = 1e-2;
  ASSERT_TRUE(TrainModel(&model, train, cfg).ok());
  InfluenceOptions opts;
  opts.l2 = cfg.l2;
  opts.damping = 0.1;
  InfluenceScorer scorer(&model, &train, opts);
  Vec grad(model.num_params(), 1.0);
  EXPECT_TRUE(scorer.Prepare(grad).ok());
  EXPECT_GT(scorer.cg_iterations(), 0);
}

TEST(InfluenceTest, DensePrepareMatchesTightCg) {
  // 6 parameters over 120 rows x 5 features: Prepare solves from one
  // Cholesky factor and reports no CG work.
  TrainedSetup s = MakeTrained(120, 5, 31);
  s.train.Deactivate(8);
  Vec q_grad(s.model.num_params(), 0.0);
  Rng rng(32);
  for (double& g : q_grad) g = rng.Gaussian();
  for (const double damping : {0.0, 0.05}) {
    InfluenceOptions opts;
    opts.l2 = s.l2;
    opts.damping = damping;
    opts.cg.max_iters = 1;  // unreachable tolerance, were CG to run
    InfluenceScorer scorer(&s.model, &s.train, opts);
    ASSERT_TRUE(scorer.Prepare(q_grad).ok());
    EXPECT_EQ(scorer.cg_iterations(), 0);
    EXPECT_TRUE(scorer.cg_converged());
    EXPECT_EQ(scorer.cg_residual_norm(), 0.0);

    CgOptions tight;
    tight.tol = 1e-12;
    tight.max_iters = 1000;
    LinearOperator op = [&](const Vec& v, Vec* out) {
      s.model.HessianVectorProduct(s.train, v, s.l2, out);
      if (damping != 0.0) vec::Axpy(damping, v, out);
    };
    auto cg = ConjugateGradient(op, q_grad, tight);
    ASSERT_TRUE(cg.ok());
    const std::vector<double> dense = scorer.ScoreAll();
    for (size_t i = 0; i < s.train.size(); ++i) {
      Vec grad(s.model.num_params(), 0.0);
      if (s.train.active(i)) {
        s.model.AddExampleLossGradient(s.train.row(i), s.train.label(i), &grad);
      }
      const double want = -vec::Dot(cg->x, grad);
      EXPECT_NEAR(dense[i], want, 1e-9 * (1.0 + std::fabs(want)))
          << "damping=" << damping << " i=" << i;
    }
  }
}

TEST(InfluenceTest, HandedHessianReproducesTheScorersOwn) {
  TrainedSetup s = MakeTrained(150, 4, 33);
  s.train.Deactivate(2);
  double loss = 0.0;
  Vec grad;
  Matrix data_hessian;
  ASSERT_TRUE(
      s.model.MeanLossGradientHessian(s.train, s.l2, &loss, &grad, &data_hessian));
  Vec q_grad(s.model.num_params(), 0.0);
  Rng rng(34);
  for (double& g : q_grad) g = rng.Gaussian();
  InfluenceOptions opts;
  opts.l2 = s.l2;

  InfluenceScorer own(&s.model, &s.train, opts);
  ASSERT_TRUE(own.Prepare(q_grad).ok());
  InfluenceScorer handed(&s.model, &s.train, opts);
  ASSERT_TRUE(handed.Prepare(q_grad, &data_hessian).ok());
  EXPECT_EQ(handed.ScoreAll(), own.ScoreAll());

  auto own_self = own.SelfInfluenceAll();
  auto handed_self = handed.SelfInfluenceAll(&data_hessian);
  ASSERT_TRUE(own_self.ok() && handed_self.ok());
  EXPECT_EQ(*handed_self, *own_self);

  const Matrix wrong(3, 3);
  EXPECT_TRUE(handed.Prepare(q_grad, &wrong).IsInvalidArgument());
  EXPECT_TRUE(handed.SelfInfluenceAll(&wrong).status().IsInvalidArgument());
}

}  // namespace
}  // namespace rain
