#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "common/cancellation.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "ml/dataset.h"
#include "ml/eval.h"
#include "ml/lbfgs.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/model.h"
#include "ml/softmax_regression.h"
#include "ml/trainer.h"

namespace rain {
namespace {

Dataset RandomDataset(size_t n, size_t d, int classes, uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, d);
  std::vector<int> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < d; ++f) x.At(i, f) = rng.Gaussian();
    y[i] = static_cast<int>(rng.UniformInt(classes));
  }
  return Dataset(std::move(x), std::move(y), classes);
}

void RandomizeParams(Model* model, uint64_t seed, double scale = 0.3) {
  Rng rng(seed);
  Vec theta(model->num_params());
  for (double& t : theta) t = scale * rng.Gaussian();
  model->set_params(theta);
}

/// Finite-difference check of the mean-loss gradient.
void CheckLossGradient(Model* model, const Dataset& data, double l2) {
  const double eps = 1e-6;
  Vec grad, unused;
  model->MeanLossAndGradient(data, l2, &grad);
  Vec theta = model->params();
  for (size_t j = 0; j < theta.size(); j += std::max<size_t>(1, theta.size() / 13)) {
    Vec tp = theta, tm = theta;
    tp[j] += eps;
    tm[j] -= eps;
    model->set_params(tp);
    const double fp = model->MeanLossAndGradient(data, l2, &unused);
    model->set_params(tm);
    const double fm = model->MeanLossAndGradient(data, l2, &unused);
    model->set_params(theta);
    const double fd = (fp - fm) / (2 * eps);
    EXPECT_NEAR(grad[j], fd, 1e-4) << "param " << j;
  }
}

/// Finite-difference check of the HVP: H v vs (g(theta+eps v)-g(theta-eps v))/2eps.
void CheckHvp(Model* model, const Dataset& data, double l2, uint64_t seed) {
  Rng rng(seed);
  Vec v(model->num_params());
  for (double& x : v) x = rng.Gaussian();
  Vec hv;
  model->HessianVectorProduct(data, v, l2, &hv);

  const double eps = 1e-5;
  Vec theta = model->params();
  Vec tp = theta, tm = theta;
  for (size_t j = 0; j < theta.size(); ++j) {
    tp[j] += eps * v[j];
    tm[j] -= eps * v[j];
  }
  Vec gp, gm;
  model->set_params(tp);
  model->MeanLossGradient(data, l2, &gp);
  model->set_params(tm);
  model->MeanLossGradient(data, l2, &gm);
  model->set_params(theta);
  for (size_t j = 0; j < theta.size(); j += std::max<size_t>(1, theta.size() / 17)) {
    const double fd = (gp[j] - gm[j]) / (2 * eps);
    EXPECT_NEAR(hv[j], fd, 1e-3 * std::max(1.0, std::fabs(fd))) << "param " << j;
  }
}

/// Finite-difference check of AddProbaGradient with random class weights.
void CheckProbaGradient(Model* model, const Dataset& data, uint64_t seed) {
  Rng rng(seed);
  const int c = model->num_classes();
  Vec w(c);
  for (double& x : w) x = rng.Gaussian();
  const double* x0 = data.row(0);

  Vec grad(model->num_params(), 0.0);
  model->AddProbaGradient(x0, w, &grad);

  auto weighted = [&]() {
    std::vector<double> p(c);
    model->PredictProba(x0, p.data());
    double s = 0.0;
    for (int k = 0; k < c; ++k) s += w[k] * p[k];
    return s;
  };
  const double eps = 1e-6;
  Vec theta = model->params();
  for (size_t j = 0; j < theta.size(); j += std::max<size_t>(1, theta.size() / 13)) {
    Vec tp = theta, tm = theta;
    tp[j] += eps;
    tm[j] -= eps;
    model->set_params(tp);
    const double fp = weighted();
    model->set_params(tm);
    const double fm = weighted();
    model->set_params(theta);
    EXPECT_NEAR(grad[j], (fp - fm) / (2 * eps), 1e-4) << "param " << j;
  }
}

TEST(DatasetTest, ConstructionAndDeactivation) {
  Dataset d = RandomDataset(10, 3, 2, 1);
  EXPECT_EQ(d.size(), 10u);
  EXPECT_EQ(d.num_active(), 10u);
  d.Deactivate(4);
  d.Deactivate(4);  // idempotent
  EXPECT_EQ(d.num_active(), 9u);
  EXPECT_FALSE(d.active(4));
  auto idx = d.ActiveIndices();
  EXPECT_EQ(idx.size(), 9u);
  EXPECT_EQ(std::count(idx.begin(), idx.end(), 4u), 0);
  d.ReactivateAll();
  EXPECT_EQ(d.num_active(), 10u);
}

TEST(DatasetTest, SetLabel) {
  Dataset d = RandomDataset(5, 2, 3, 2);
  d.set_label(2, 1);
  EXPECT_EQ(d.label(2), 1);
}

TEST(LogisticTest, SigmoidStable) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);
  EXPECT_NEAR(Sigmoid(2.0) + Sigmoid(-2.0), 1.0, 1e-12);
}

TEST(LogisticTest, ProbaSumsToOne) {
  LogisticRegression m(4);
  RandomizeParams(&m, 3);
  Rng rng(4);
  Vec x{rng.Gaussian(), rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
  double p[2];
  m.PredictProba(x.data(), p);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(LogisticTest, GradientMatchesFiniteDifference) {
  Dataset d = RandomDataset(40, 5, 2, 5);
  LogisticRegression m(5);
  RandomizeParams(&m, 6);
  CheckLossGradient(&m, d, 1e-3);
}

TEST(LogisticTest, GradientNoIntercept) {
  Dataset d = RandomDataset(40, 5, 2, 7);
  LogisticRegression m(5, /*fit_intercept=*/false);
  EXPECT_EQ(m.num_params(), 5u);
  RandomizeParams(&m, 8);
  CheckLossGradient(&m, d, 1e-3);
}

TEST(LogisticTest, HvpMatchesFiniteDifference) {
  Dataset d = RandomDataset(30, 4, 2, 9);
  LogisticRegression m(4);
  RandomizeParams(&m, 10);
  CheckHvp(&m, d, 1e-2, 11);
}

TEST(LogisticTest, ProbaGradientMatchesFiniteDifference) {
  Dataset d = RandomDataset(10, 4, 2, 12);
  LogisticRegression m(4);
  RandomizeParams(&m, 13);
  CheckProbaGradient(&m, d, 14);
}

TEST(LogisticTest, HvpRespectsActiveMask) {
  Dataset d = RandomDataset(20, 3, 2, 15);
  LogisticRegression m(3);
  RandomizeParams(&m, 16);
  Vec v(m.num_params(), 1.0);
  Vec hv_full;
  m.HessianVectorProduct(d, v, 0.0, &hv_full);
  for (size_t i = 10; i < 20; ++i) d.Deactivate(i);
  Vec hv_half;
  m.HessianVectorProduct(d, v, 0.0, &hv_half);
  // Different training sets -> different Hessians (almost surely).
  EXPECT_GT(vec::MaxAbsDiff(hv_full, hv_half), 1e-9);
}

/// The Hessian data term assembled column by column from num_params
/// Hessian-vector products at l2 = 0.
Matrix HessianFromHvpColumns(const Model& model, const Dataset& data) {
  const size_t p = model.num_params();
  Matrix h(p, p);
  Vec unit(p, 0.0), column;
  for (size_t j = 0; j < p; ++j) {
    unit[j] = 1.0;
    model.HessianVectorProduct(data, unit, /*l2=*/0.0, &column);
    unit[j] = 0.0;
    for (size_t i = 0; i < p; ++i) h.At(i, j) = column[i];
  }
  return h;
}

TEST(LogisticTest, HessianHookMatchesHvpColumns) {
  for (const bool intercept : {true, false}) {
    Dataset d = RandomDataset(300, 5, 2, 17);
    for (size_t hole : {0u, 6u, 64u, 65u, 130u, 299u}) d.Deactivate(hole);
    LogisticRegression m(5, intercept);
    RandomizeParams(&m, 18);
    double loss = 0.0;
    Vec grad;
    Matrix h;
    ASSERT_TRUE(m.MeanLossGradientHessian(d, 1e-3, &loss, &grad, &h));
    const Matrix want = HessianFromHvpColumns(m, d);
    ASSERT_EQ(h.rows(), m.num_params());
    ASSERT_EQ(h.cols(), m.num_params());
    double scale = 0.0;
    for (double v : want.data()) scale = std::max(scale, std::fabs(v));
    for (size_t i = 0; i < h.rows(); ++i) {
      for (size_t j = 0; j < h.cols(); ++j) {
        EXPECT_NEAR(h.At(i, j), want.At(i, j), 1e-12 * scale)
            << "intercept=" << intercept << " (" << i << ", " << j << ")";
        EXPECT_EQ(h.At(i, j), h.At(j, i)) << "the data term is symmetric";
      }
    }
    // The loss and gradient are MeanLossAndGradient's, bit for bit.
    Vec grad_ref;
    EXPECT_EQ(loss, m.MeanLossAndGradient(d, 1e-3, &grad_ref));
    EXPECT_EQ(grad, grad_ref);
  }
}

TEST(ModelTest, OnlyLogisticHasTheHessianHook) {
  Dataset d = RandomDataset(50, 3, 3, 19);
  SoftmaxRegression softmax(3, 3);
  Mlp mlp(3, 4, 3, /*seed=*/20);
  for (const Model* m : {static_cast<const Model*>(&softmax),
                         static_cast<const Model*>(&mlp)}) {
    double loss = 0.0;
    Vec grad;
    Matrix h;
    EXPECT_FALSE(m->MeanLossGradientHessian(d, 1e-3, &loss, &grad, &h));
    EXPECT_TRUE(grad.empty());
    EXPECT_EQ(h.rows(), 0u);
    HessianPass pass;
    EXPECT_FALSE(m->AddRowTerms(d, {0, 1}, &pass));
    EXPECT_TRUE(pass.empty());
  }
}

/// Runs `fn` while every worker of the global pool is parked on a latch,
/// so each ParallelFor chunk runs on the calling thread: the result of a
/// one-thread pool, whatever RAIN_NUM_THREADS sized this one to.
template <typename Fn>
void WithPoolWorkersParked(Fn&& fn) {
  ThreadPool& pool = ThreadPool::Global();
  std::mutex mu;
  std::condition_variable cv;
  int parked = 0;
  bool release = false;
  for (int w = 0; w < pool.num_threads(); ++w) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++parked;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      --parked;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == pool.num_threads(); });
  }
  fn();
  std::unique_lock<std::mutex> lock(mu);
  release = true;
  cv.notify_all();
  cv.wait(lock, [&] { return parked == 0; });
}

TEST(LogisticTest, HessianHookBitwiseAcrossPoolSizes) {
  Dataset d = RandomDataset(700, 6, 2, 21);
  for (size_t hole : {3u, 64u, 200u, 201u, 699u}) d.Deactivate(hole);
  LogisticRegression m(6);
  RandomizeParams(&m, 22);
  for (int knob : {1, 2, 3, 4, 8}) {
    m.set_parallelism(knob);
    double loss = 0.0, loss_inline = 0.0;
    Vec grad, grad_inline;
    Matrix h, h_inline;
    ASSERT_TRUE(m.MeanLossGradientHessian(d, 1e-3, &loss, &grad, &h));
    WithPoolWorkersParked([&] {
      ASSERT_TRUE(m.MeanLossGradientHessian(d, 1e-3, &loss_inline, &grad_inline,
                                            &h_inline));
    });
    EXPECT_EQ(loss_inline, loss) << "knob=" << knob;
    EXPECT_EQ(grad_inline, grad) << "knob=" << knob;
    EXPECT_EQ(h_inline.data(), h.data()) << "knob=" << knob;
  }
}

TEST(SoftmaxTest, ProbaSumsToOne) {
  SoftmaxRegression m(6, 4);
  RandomizeParams(&m, 20);
  Rng rng(21);
  Vec x(6);
  for (double& v : x) v = rng.Gaussian();
  Vec p(4);
  m.PredictProba(x.data(), p.data());
  double sum = 0.0;
  for (double v : p) {
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SoftmaxTest, GradientMatchesFiniteDifference) {
  Dataset d = RandomDataset(30, 4, 3, 22);
  SoftmaxRegression m(4, 3);
  RandomizeParams(&m, 23);
  CheckLossGradient(&m, d, 1e-3);
}

TEST(SoftmaxTest, HvpMatchesFiniteDifference) {
  Dataset d = RandomDataset(25, 3, 4, 24);
  SoftmaxRegression m(3, 4);
  RandomizeParams(&m, 25);
  CheckHvp(&m, d, 1e-2, 26);
}

TEST(SoftmaxTest, ProbaGradientMatchesFiniteDifference) {
  Dataset d = RandomDataset(10, 3, 5, 27);
  SoftmaxRegression m(3, 5);
  RandomizeParams(&m, 28);
  CheckProbaGradient(&m, d, 29);
}

TEST(SoftmaxTest, BinaryAgreesWithLogisticShape) {
  // A 2-class softmax and binary logistic should produce identical
  // training behaviour on the same data (up to parameterization).
  Dataset d = RandomDataset(60, 4, 2, 30);
  SoftmaxRegression sm(4, 2);
  LogisticRegression lr(4);
  TrainConfig cfg;
  ASSERT_TRUE(TrainModel(&sm, d, cfg).ok());
  ASSERT_TRUE(TrainModel(&lr, d, cfg).ok());
  int agree = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    agree += sm.PredictClass(d.row(i)) == lr.PredictClass(d.row(i));
  }
  EXPECT_GE(agree, static_cast<int>(d.size()) - 3);
}

TEST(MlpTest, GradientMatchesFiniteDifference) {
  Dataset d = RandomDataset(20, 5, 3, 31);
  Mlp m(5, 7, 3, /*seed=*/32);
  CheckLossGradient(&m, d, 1e-3);
}

TEST(MlpTest, PearlmutterHvpMatchesFiniteDifference) {
  Dataset d = RandomDataset(15, 4, 3, 33);
  Mlp m(4, 6, 3, /*seed=*/34);
  CheckHvp(&m, d, 1e-2, 35);
}

TEST(MlpTest, ProbaGradientMatchesFiniteDifference) {
  Dataset d = RandomDataset(8, 4, 3, 36);
  Mlp m(4, 5, 3, /*seed=*/37);
  CheckProbaGradient(&m, d, 38);
}

TEST(LbfgsTest, MinimizesQuadratic) {
  // f(x) = 0.5 (x - a)^T D (x - a), D diagonal positive.
  const Vec a{1.0, -2.0, 3.0};
  const Vec diag{2.0, 5.0, 0.5};
  Objective f = [&](const Vec& x, Vec* g) {
    double fx = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      fx += 0.5 * diag[i] * (x[i] - a[i]) * (x[i] - a[i]);
      (*g)[i] = diag[i] * (x[i] - a[i]);
    }
    return fx;
  };
  LbfgsResult r = LbfgsMinimize(f, Vec{0.0, 0.0, 0.0});
  EXPECT_TRUE(r.converged);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(r.x[i], a[i], 1e-5);
}

TEST(LbfgsTest, MinimizesRosenbrock) {
  Objective f = [](const Vec& x, Vec* g) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    (*g)[0] = -2.0 * a - 400.0 * x[0] * b;
    (*g)[1] = 200.0 * b;
    return a * a + 100.0 * b * b;
  };
  LbfgsOptions opts;
  opts.max_iters = 2000;
  opts.grad_tol = 1e-8;
  LbfgsResult r = LbfgsMinimize(f, Vec{-1.2, 1.0}, opts);
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_NEAR(r.x[1], 1.0, 1e-4);
}

TEST(LbfgsTest, CountsEveryObjectiveEvaluation) {
  int calls = 0;
  Objective f = [&calls](const Vec& x, Vec* g) {
    ++calls;
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    (*g)[0] = -2.0 * a - 400.0 * x[0] * b;
    (*g)[1] = 200.0 * b;
    return a * a + 100.0 * b * b;
  };
  LbfgsOptions opts;
  opts.max_iters = 50;
  LbfgsResult r = LbfgsMinimize(f, Vec{-1.2, 1.0}, opts);
  EXPECT_EQ(r.evaluations, calls);
  // One initial evaluation plus at least one line-search trial per
  // iteration; Rosenbrock's valley forces some backtracking.
  EXPECT_GT(r.evaluations, r.iterations + 1);
}

TEST(TrainerTest, LearnsSeparableProblem) {
  // Linearly separable data: y = [x0 + x1 > 0].
  Rng rng(50);
  Matrix x(200, 2);
  std::vector<int> y(200);
  for (size_t i = 0; i < 200; ++i) {
    x.At(i, 0) = rng.Gaussian();
    x.At(i, 1) = rng.Gaussian();
    y[i] = x.At(i, 0) + x.At(i, 1) > 0 ? 1 : 0;
  }
  Dataset d(std::move(x), std::move(y), 2);
  LogisticRegression m(2);
  TrainConfig cfg;
  cfg.l2 = 1e-4;
  auto report = TrainModel(&m, d, cfg);
  ASSERT_TRUE(report.ok());
  EvalReport eval = Evaluate(m, d);
  EXPECT_GT(eval.accuracy, 0.97);
  EXPECT_GT(eval.f1, 0.97);
}

TEST(TrainerTest, RejectsEmptyTrainingSet) {
  Dataset d = RandomDataset(3, 2, 2, 51);
  for (size_t i = 0; i < 3; ++i) d.Deactivate(i);
  LogisticRegression m(2);
  EXPECT_FALSE(TrainModel(&m, d).ok());
}

TEST(TrainerTest, RejectsShapeMismatch) {
  Dataset d = RandomDataset(10, 3, 2, 52);
  LogisticRegression m(4);
  EXPECT_FALSE(TrainModel(&m, d).ok());
}

TEST(TrainerTest, WarmStartConvergesFasterOrEqual) {
  Dataset d = RandomDataset(100, 4, 2, 53);
  LogisticRegression m(4);
  TrainConfig cfg;
  auto first = TrainModel(&m, d, cfg);
  ASSERT_TRUE(first.ok());
  auto second = TrainModel(&m, d, cfg);
  ASSERT_TRUE(second.ok());
  EXPECT_LE(second->iterations, first->iterations);
}

/// The two calls per row that MeanLossAndGradient fuses: a per-row
/// ExampleLoss sum and AddExampleLossGradient, each chunk of the
/// min(parallelism, n) ParallelAccumulate layout reduced on its own and the
/// chunks added in order, then the same 1/n scaling and L2 terms.
double TwoPassLossAndGradient(const Model& model, const Dataset& data, double l2,
                              Vec* grad) {
  const size_t n = data.size();
  const size_t chunks = ParallelChunkCount(model.RowParallelism(n), n, 1);
  grad->assign(model.num_params(), 0.0);
  double loss = 0.0;
  size_t begin = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t end = begin + n / chunks + (c < n % chunks ? 1 : 0);
    double chunk_loss = 0.0;
    Vec chunk_grad(model.num_params(), 0.0);
    for (size_t i = begin; i < end; ++i) {
      if (!data.active(i)) continue;
      chunk_loss += model.ExampleLoss(data.row(i), data.label(i));
      model.AddExampleLossGradient(data.row(i), data.label(i), &chunk_grad);
    }
    loss += chunk_loss;
    vec::Axpy(1.0, chunk_grad, grad);
    begin = end;
  }
  const double inv_n = 1.0 / static_cast<double>(data.num_active());
  for (double& g : *grad) g *= inv_n;
  vec::Axpy(2.0 * l2, model.params(), grad);
  loss /= static_cast<double>(data.num_active());
  return loss + l2 * vec::NormSq(model.params());
}

/// Parallel loss / gradient / HVP must agree with the sequential path for
/// every model family (deterministic chunked reductions, ε from reordering),
/// and the fused loss and gradient must be bitwise the two-pass reference
/// at every parallelism.
///
/// `data` must have 200 rows. The blocked HVP bodies batch runs of
/// consecutive ACTIVE rows into Gemv/GemmNT projections, so the holes are
/// chosen against their block caps (64 logistic, 32 softmax, 16 MLP): a
/// hole at row 0, a short run, a run of exactly 64, a triple hole, a run
/// longer than every cap (block restarts mid-run), and a hole at the last
/// row.
void CheckParallelMatchesSequential(Model* model, Dataset data, double l2,
                                    uint64_t seed) {
  ASSERT_EQ(data.size(), 200u);
  for (size_t hole : {0u, 5u, 70u, 71u, 72u, 127u, 199u}) data.Deactivate(hole);
  Rng rng(seed);
  Vec v(model->num_params());
  for (double& x : v) x = rng.Gaussian();

  model->set_parallelism(1);
  Vec grad_seq, hvp_seq;
  const double loss_seq = model->MeanLossAndGradient(data, l2, &grad_seq);
  model->HessianVectorProduct(data, v, l2, &hvp_seq);

  for (int par : {1, 2, 3, 4, 8}) {
    model->set_parallelism(par);
    Vec grad_par, grad_ref, hvp_par;
    const double loss_par = model->MeanLossAndGradient(data, l2, &grad_par);
    const double loss_ref = TwoPassLossAndGradient(*model, data, l2, &grad_ref);
    EXPECT_EQ(loss_par, loss_ref) << "parallelism=" << par;
    EXPECT_EQ(grad_par, grad_ref) << "parallelism=" << par;
    EXPECT_NEAR(loss_par, loss_seq, 1e-10) << "parallelism=" << par;
    model->HessianVectorProduct(data, v, l2, &hvp_par);
    EXPECT_LT(vec::MaxAbsDiff(grad_par, grad_seq), 1e-10) << "parallelism=" << par;
    EXPECT_LT(vec::MaxAbsDiff(hvp_par, hvp_seq), 1e-10) << "parallelism=" << par;
  }
  model->set_parallelism(1);
}

TEST(LogisticTest, ParallelKernelsMatchSequential) {
  Dataset d = RandomDataset(200, 5, 2, 61);
  LogisticRegression m(5);
  RandomizeParams(&m, 62);
  CheckParallelMatchesSequential(&m, d, 1e-3, 63);
}

TEST(SoftmaxTest, ParallelKernelsMatchSequential) {
  Dataset d = RandomDataset(200, 5, 3, 67);
  SoftmaxRegression m(5, 3);
  RandomizeParams(&m, 68);
  CheckParallelMatchesSequential(&m, d, 1e-3, 69);
}

TEST(MlpTest, ParallelKernelsMatchSequential) {
  Dataset d = RandomDataset(200, 6, 3, 71);
  Mlp m(6, 8, 3, /*seed=*/72);
  CheckParallelMatchesSequential(&m, d, 1e-3, 73);
}

TEST(TrainerTest, ParallelTrainingReachesSequentialLoss) {
  Dataset d = RandomDataset(200, 4, 2, 79);
  TrainConfig cfg;
  cfg.grad_tol = 1e-8;

  LogisticRegression seq(4);
  auto seq_report = TrainModel(&seq, d, cfg);
  ASSERT_TRUE(seq_report.ok());

  cfg.parallelism = 4;
  LogisticRegression par(4);
  auto par_report = TrainModel(&par, d, cfg);
  ASSERT_TRUE(par_report.ok());
  EXPECT_EQ(par.parallelism(), 4) << "trainer must install the knob on the model";
  EXPECT_NEAR(par_report->final_loss, seq_report->final_loss, 1e-6);
  EXPECT_LT(vec::MaxAbsDiff(par.params(), seq.params()), 1e-4);
}

/// Forwards to an inner model, counting the per-row loss hooks.
class CountingModel : public Model {
 public:
  explicit CountingModel(std::unique_ptr<Model> inner) : inner_(std::move(inner)) {}

  int num_classes() const override { return inner_->num_classes(); }
  size_t num_features() const override { return inner_->num_features(); }
  size_t num_params() const override { return inner_->num_params(); }
  const Vec& params() const override { return inner_->params(); }
  void set_params(const Vec& theta) override { inner_->set_params(theta); }
  void PredictProba(const double* x, double* probs) const override {
    inner_->PredictProba(x, probs);
  }
  double ExampleLoss(const double* x, int y) const override {
    ++loss_calls;
    return inner_->ExampleLoss(x, y);
  }
  void AddExampleLossGradient(const double* x, int y, Vec* grad) const override {
    ++gradient_calls;
    inner_->AddExampleLossGradient(x, y, grad);
  }
  double AddExampleLossAndGradient(const double* x, int y, Vec* grad) const override {
    ++fused_calls;
    return inner_->AddExampleLossAndGradient(x, y, grad);
  }
  void AddProbaGradient(const double* x, const Vec& class_weights,
                        Vec* grad) const override {
    inner_->AddProbaGradient(x, class_weights, grad);
  }
  void HessianVectorProduct(const Dataset& data, const Vec& v, double l2,
                            Vec* out) const override {
    inner_->HessianVectorProduct(data, v, l2, out);
  }

  mutable std::atomic<long> loss_calls{0};
  mutable std::atomic<long> gradient_calls{0};
  mutable std::atomic<long> fused_calls{0};

 private:
  std::unique_ptr<Model> inner_;
};

TEST(TrainerTest, OneFusedDataPassPerEvaluation) {
  Dataset d = RandomDataset(200, 4, 2, 83);
  for (size_t hole : {3u, 50u, 51u, 199u}) d.Deactivate(hole);
  for (int par : {1, 4}) {
    CountingModel m(std::make_unique<LogisticRegression>(4));
    TrainConfig cfg;
    cfg.parallelism = par;
    auto report = TrainModel(&m, d, cfg);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->converged);
    EXPECT_GE(report->evaluations, report->iterations + 1);
    EXPECT_EQ(m.fused_calls.load(),
              static_cast<long>(report->evaluations) *
                  static_cast<long>(d.num_active()))
        << "parallelism=" << par;
    EXPECT_EQ(m.loss_calls.load(), 0) << "parallelism=" << par;
    EXPECT_EQ(m.gradient_calls.load(), 0) << "parallelism=" << par;
  }
}

TEST(TrainerTest, NewtonAndLbfgsReachTheSameOptimum) {
  Dataset d = RandomDataset(300, 5, 2, 85);
  d.Deactivate(7);
  TrainConfig cfg;
  cfg.grad_tol = 1e-9;
  LogisticRegression newton(5);
  auto report = TrainModel(&newton, d, cfg);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->converged);
  EXPECT_LE(report->grad_norm, cfg.grad_tol);
  // The converged pass's Hessian is the hook's at the returned parameters.
  double loss = 0.0;
  Vec grad;
  Matrix h;
  ASSERT_TRUE(newton.MeanLossGradientHessian(d, cfg.l2, &loss, &grad, &h));
  EXPECT_EQ(report->pass.DataHessian().data(), h.data());

  LogisticRegression lbfgs(5);
  Objective objective = [&](const Vec& theta, Vec* g) {
    lbfgs.set_params(theta);
    return lbfgs.MeanLossAndGradient(d, cfg.l2, g);
  };
  LbfgsOptions opts;
  opts.max_iters = cfg.max_iters;
  opts.grad_tol = cfg.grad_tol;
  LbfgsResult res = LbfgsMinimize(objective, lbfgs.params(), opts);
  ASSERT_TRUE(res.converged);
  // Both gradients are within grad_tol of zero, and the objective is
  // strongly convex with modulus 2 * l2, so the optima are that close.
  EXPECT_LT(vec::MaxAbsDiff(newton.params(), res.x),
            cfg.grad_tol * std::sqrt(6.0) / (2.0 * cfg.l2));
  EXPECT_NEAR(report->final_loss, res.fx, 1e-12);
  EXPECT_LT(report->evaluations, res.evaluations);
}

/// Logistic regression that counts its one-pass Hessian calls, records
/// the parameters of the latest one, and cancels `token` on call number
/// `cancel_at` (0 = never).
class HookCountingLogistic : public LogisticRegression {
 public:
  HookCountingLogistic(size_t features, CancellationToken token, int cancel_at)
      : LogisticRegression(features), token_(std::move(token)), cancel_at_(cancel_at) {}

  bool SumLossGradientHessian(const Dataset& data, HessianPass* pass) const override {
    if (++calls == cancel_at_) token_.Cancel();
    last_params = params();
    return LogisticRegression::SumLossGradientHessian(data, pass);
  }

  mutable int calls = 0;
  mutable Vec last_params;

 private:
  mutable CancellationToken token_;
  int cancel_at_;
};

TEST(TrainerTest, NewtonHonoursCancellation) {
  Dataset d = RandomDataset(200, 4, 2, 87);
  CancellationToken token;
  HookCountingLogistic m(4, token, /*cancel_at=*/2);
  TrainConfig cfg;
  cfg.cancel = &token;
  auto report = TrainModel(&m, d, cfg);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->interrupted);
  EXPECT_FALSE(report->converged);
  EXPECT_TRUE(report->pass.empty());
  // The stop lands at the next iteration's poll: the accepted trial of
  // the first step is the last pass, and its parameters are returned.
  EXPECT_EQ(report->iterations, 1);
  EXPECT_EQ(report->evaluations, m.calls);
  EXPECT_EQ(m.params(), m.last_params);
  EXPECT_GT(report->grad_norm, cfg.grad_tol);
}

TEST(TrainerTest, NewtonFallsBackToLbfgsOnASingularHessian) {
  // Separable data at l2 = 0 with a feature that is zero on every row:
  // the Hessian is singular, so the first factor fails and L-BFGS trains
  // from the starting point.
  Rng rng(88);
  Matrix x(200, 3);
  std::vector<int> y(200);
  for (size_t i = 0; i < 200; ++i) {
    x.At(i, 0) = rng.Gaussian();
    x.At(i, 1) = rng.Gaussian();
    y[i] = x.At(i, 0) + x.At(i, 1) > 0 ? 1 : 0;
  }
  Dataset d(std::move(x), std::move(y), 2);
  HookCountingLogistic m(3, CancellationToken(), /*cancel_at=*/0);
  TrainConfig cfg;
  cfg.l2 = 0.0;
  auto report = TrainModel(&m, d, cfg);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(m.calls, 1) << "Newton stops at its first factor";
  EXPECT_GT(report->evaluations, m.calls) << "L-BFGS evaluations follow";
  EXPECT_TRUE(report->pass.empty());
  EXPECT_GT(Evaluate(m, d).accuracy, 0.97);
}

/// Largest |a - b| over the largest |b|.
double RelativeGap(const std::vector<double>& a, const std::vector<double>& b) {
  double scale = 0.0, gap = 0.0;
  for (size_t i = 0; i < b.size(); ++i) {
    scale = std::max(scale, std::fabs(b[i]));
    gap = std::max(gap, std::fabs(a[i] - b[i]));
  }
  return gap / scale;
}

TEST(WarmNewtonTest, DowndatedPassMatchesAFreshOne) {
  const double l2 = 1e-3;
  for (int par : {1, 4}) {
    Dataset d = RandomDataset(400, 5, 2, 91);
    for (size_t hole : {2u, 90u, 91u, 300u}) d.Deactivate(hole);
    LogisticRegression m(5);
    m.set_parallelism(par);
    RandomizeParams(&m, 92);
    NewtonStart start;
    ASSERT_TRUE(m.SumLossGradientHessian(d, &start.pass));
    // Deletions (a run of consecutive rows among them), reactivations of
    // rows inactive in the pass, a row flipped twice, and a relabelled row
    // that was inactive in the pass and is active now.
    for (size_t row : {7u, 8u, 9u, 10u, 150u, 399u, 33u}) {
      d.Deactivate(row);
      start.RecordFlip(row);
    }
    for (size_t row : {90u, 300u, 33u}) {
      d.Reactivate(row);
      start.RecordFlip(row);
    }
    d.set_label(90, 1 - d.label(90));
    start.RecordRelabel(90);

    HessianPass downdated;
    ASSERT_TRUE(DowndatePass(m, d, start, &downdated)) << "parallelism=" << par;
    EXPECT_EQ(downdated.num_rows, d.num_active());
    double loss = 0.0, fresh_loss = 0.0;
    Vec grad, fresh_grad;
    Matrix h, fresh_h;
    downdated.Finish(l2, &loss, &grad, &h);
    ASSERT_TRUE(m.MeanLossGradientHessian(d, l2, &fresh_loss, &fresh_grad, &fresh_h));
    EXPECT_LE(std::fabs(loss - fresh_loss), 1e-12 * std::fabs(fresh_loss));
    EXPECT_LE(RelativeGap(grad, fresh_grad), 1e-12) << "parallelism=" << par;
    EXPECT_LE(RelativeGap(h.data(), fresh_h.data()), 1e-12) << "parallelism=" << par;
  }
}

TEST(WarmNewtonTest, FullPassWhenTheStartCannotBeDowndated) {
  Dataset d = RandomDataset(200, 4, 2, 93);
  d.Deactivate(7);
  LogisticRegression m(4);
  RandomizeParams(&m, 94);
  NewtonStart start;
  ASSERT_TRUE(m.SumLossGradientHessian(d, &start.pass));
  d.Deactivate(5);
  start.RecordFlip(5);
  HessianPass pass;
  ASSERT_TRUE(DowndatePass(m, d, start, &pass));

  // A label edit on a row active in the pass: its old term is unknown.
  NewtonStart relabelled = start;
  d.set_label(6, 1 - d.label(6));
  relabelled.RecordRelabel(6);
  EXPECT_FALSE(DowndatePass(m, d, relabelled, &pass));
  // So on one deleted since: the pass summed it under the old label.
  NewtonStart deleted_relabelled = start;
  d.set_label(5, 1 - d.label(5));
  deleted_relabelled.RecordRelabel(5);
  EXPECT_FALSE(DowndatePass(m, d, deleted_relabelled, &pass));
  // A row inactive in the pass may be relabelled, and reactivated: its
  // term is added under the new label.
  NewtonStart inactive_relabelled = start;
  d.set_label(7, 1 - d.label(7));
  inactive_relabelled.RecordRelabel(7);
  EXPECT_TRUE(DowndatePass(m, d, inactive_relabelled, &pass));
  d.Reactivate(7);
  inactive_relabelled.RecordFlip(7);
  EXPECT_TRUE(DowndatePass(m, d, inactive_relabelled, &pass));
  d.Deactivate(7);

  // Parameters that are not bitwise the pass's.
  Vec theta = m.params();
  theta[0] = std::nextafter(theta[0], 1.0);
  LogisticRegression moved(4);
  moved.set_params(theta);
  EXPECT_FALSE(DowndatePass(moved, d, start, &pass));

  // More changed rows than active rows, then one fewer.
  NewtonStart many = start;
  for (size_t row = 101; row < 200; ++row) {
    d.Deactivate(row);
    many.RecordFlip(row);
  }
  ASSERT_EQ(d.num_active(), 99u);
  EXPECT_FALSE(DowndatePass(m, d, many, &pass)) << "100 changed, 99 active";
  d.Reactivate(199);
  many.RecordFlip(199);
  EXPECT_TRUE(DowndatePass(m, d, many, &pass)) << "99 changed, 100 active";

  // An empty start.
  EXPECT_FALSE(DowndatePass(m, d, NewtonStart(), &pass));
}

TEST(WarmNewtonTest, WarmRetrainSkipsTheFirstPassAndConvergesOnAFreshOne) {
  Dataset d = RandomDataset(2000, 5, 2, 95);
  TrainConfig cfg;
  LogisticRegression m(5);
  auto first = TrainModel(&m, d, cfg);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->converged);
  NewtonStart start;
  start.Reset(std::move(first->pass));
  for (size_t row : {11u, 12u, 500u, 1999u}) {
    d.Deactivate(row);
    start.RecordFlip(row);
  }

  HookCountingLogistic cold(5, CancellationToken(), /*cancel_at=*/0);
  cold.set_params(m.params());
  auto stateless = TrainModel(&cold, d, cfg);
  HookCountingLogistic warm(5, CancellationToken(), /*cancel_at=*/0);
  warm.set_params(m.params());
  auto downdated = TrainModel(&warm, d, cfg, &start);
  ASSERT_TRUE(stateless.ok());
  ASSERT_TRUE(downdated.ok());
  ASSERT_TRUE(downdated->converged);
  EXPECT_EQ(downdated->evaluations + 1, stateless->evaluations);
  EXPECT_EQ(downdated->evaluations, warm.calls);
  EXPECT_EQ(downdated->iterations, stateless->iterations);
  EXPECT_LT(vec::MaxAbsDiff(warm.params(), cold.params()), 1e-12);
  // The handed pass is a fresh full pass at the returned parameters.
  HessianPass fresh;
  ASSERT_TRUE(warm.SumLossGradientHessian(d, &fresh));
  EXPECT_EQ(downdated->pass.sums, fresh.sums);
  EXPECT_EQ(downdated->pass.loss, fresh.loss);
  EXPECT_EQ(downdated->pass.theta, warm.params());

  // A start that already meets grad_tol is confirmed by a full pass at
  // the same parameters, which then converges.
  NewtonStart converged;
  converged.Reset(downdated->pass);
  auto confirmed = TrainModel(&warm, d, cfg, &converged);
  ASSERT_TRUE(confirmed.ok());
  EXPECT_TRUE(confirmed->converged);
  EXPECT_EQ(confirmed->evaluations, 1);
  EXPECT_EQ(confirmed->iterations, 0);
  EXPECT_EQ(confirmed->pass.sums, fresh.sums);
}

TEST(TrainerTest, NewtonStopsUnconvergedOnAFlatLoss) {
  // Separable data at l2 = 0 and grad_tol = 0: the loss clamped at the
  // probability floor goes flat while the gradient stays nonzero. Newton
  // stops once a step's predicted decrease is below the loss's rounding;
  // without that stop it ran all 300 iterations at about 30 line-search
  // trials each (8,947 passes on this data), and it hands over to no
  // L-BFGS, which stalls the same way.
  Rng rng(88);
  Matrix x(200, 3);
  std::vector<int> y(200);
  for (size_t i = 0; i < 200; ++i) {
    for (size_t f = 0; f < 3; ++f) x.At(i, f) = rng.Gaussian();
    y[i] = x.At(i, 0) + x.At(i, 1) > 0 ? 1 : 0;
  }
  Dataset d(std::move(x), std::move(y), 2);
  HookCountingLogistic m(3, CancellationToken(), /*cancel_at=*/0);
  TrainConfig cfg;
  cfg.l2 = 0.0;
  cfg.grad_tol = 0.0;
  auto report = TrainModel(&m, d, cfg);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->converged);
  EXPECT_FALSE(report->interrupted);
  EXPECT_TRUE(report->pass.empty());
  EXPECT_EQ(report->evaluations, m.calls) << "every pass is Newton's";
  EXPECT_LE(report->evaluations, 100) << "72 measured";
  EXPECT_LT(report->iterations, cfg.max_iters);
  EXPECT_EQ(Evaluate(m, d).accuracy, 1.0);
  EXPECT_LT(report->final_loss, 1e-11);
}

TEST(DatasetCowTest, CopiesAndViewsShareStorage) {
  Matrix x(3, 2);
  Dataset base(std::move(x), {0, 1, 0}, 2);
  Dataset copy = base;
  Dataset view = base.View();
  EXPECT_TRUE(copy.SharesStorageWith(base));
  EXPECT_TRUE(view.SharesStorageWith(base));
  EXPECT_EQ(view.features().Row(1), base.features().Row(1))
      << "a view must alias the base feature storage, not copy it";
}

TEST(DatasetCowTest, ViewDeactivationsAreInvisibleToSiblings) {
  Matrix x(4, 1);
  Dataset base(std::move(x), {0, 1, 0, 1}, 2);
  Dataset a = base.View();
  Dataset b = base.View();
  a.Deactivate(2);
  EXPECT_EQ(a.num_active(), 3u);
  EXPECT_EQ(b.num_active(), 4u) << "sibling views own independent masks";
  EXPECT_EQ(base.num_active(), 4u);
  EXPECT_TRUE(a.SharesStorageWith(b)) << "mask edits never detach storage";
}

TEST(DatasetCowTest, ViewResetsTheMaskButCopyPreservesIt) {
  Matrix x(3, 1);
  Dataset base(std::move(x), {0, 1, 0}, 2);
  base.Deactivate(0);
  Dataset copy = base;
  Dataset view = base.View();
  EXPECT_EQ(copy.num_active(), 2u) << "a copy is a snapshot of the mask";
  EXPECT_EQ(view.num_active(), 3u) << "a view starts all-active";
}

TEST(DatasetCowTest, SetLabelDetachesSharedStorage) {
  Matrix x(3, 1);
  Dataset base(std::move(x), {0, 1, 0}, 2);
  Dataset view = base.View();
  view.set_label(1, 0);
  EXPECT_FALSE(view.SharesStorageWith(base))
      << "writing a label must detach, not mutate shared storage";
  EXPECT_EQ(view.label(1), 0);
  EXPECT_EQ(base.label(1), 1) << "the base must never observe the write";
  // Unshared storage writes in place — no detach churn.
  view.set_label(2, 1);
  EXPECT_EQ(view.label(2), 1);
}

TEST(EvalTest, PerfectAndWorstMetrics) {
  Matrix x(4, 1);
  x.At(0, 0) = -2.0;
  x.At(1, 0) = -1.0;
  x.At(2, 0) = 1.0;
  x.At(3, 0) = 2.0;
  Dataset d(std::move(x), {0, 0, 1, 1}, 2);
  LogisticRegression m(1, /*fit_intercept=*/false);
  m.set_params({5.0});
  EvalReport good = Evaluate(m, d);
  EXPECT_DOUBLE_EQ(good.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(good.f1, 1.0);
  m.set_params({-5.0});
  EvalReport bad = Evaluate(m, d);
  EXPECT_DOUBLE_EQ(bad.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(bad.f1, 0.0);
}

}  // namespace
}  // namespace rain
