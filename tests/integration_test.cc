#include "common/rng.h"
#include "common/string_util.h"
#include "core/complaint.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "core/ranker.h"
#include "core/session.h"
#include "data/adult.h"
#include "data/corruption.h"
#include "data/enron.h"
#include "data/mnist.h"
#include "gtest/gtest.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/softmax_regression.h"
#include "sql/planner.h"

namespace rain {
namespace {

/// ENRON Q2-style: COUNT(*) WHERE predict = spam AND text LIKE '%http%'.
TEST(IntegrationTest, EnronLikeQueryWithRuleCorruption) {
  EnronConfig cfg;
  cfg.train_size = 800;
  cfg.query_size = 500;
  EnronData enron = MakeEnron(cfg);
  auto corrupted = CorruptAll(&enron.train, TrainEmailsContaining(enron, "http"), 1);
  ASSERT_GT(corrupted.size(), 5u);

  // Ground-truth count for the complaint.
  int64_t true_count = 0;
  for (size_t i = 0; i < enron.query.size(); ++i) {
    const std::string text = enron.query_table.Get(i, 1).AsString();
    if (enron.query.label(i) == 1 && LikeMatch(text, "%http%")) ++true_count;
  }

  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddTable("enron", std::move(enron.query_table),
                            std::move(enron.query))
                  .ok());
  Query2Pipeline pipeline(std::move(catalog),
                          std::make_unique<LogisticRegression>(cfg.vocab_size),
                          std::move(enron.train));
  ASSERT_TRUE(pipeline.Train().ok());

  auto r = pipeline.ExecuteSql(
      "SELECT COUNT(*) AS cnt FROM enron WHERE predict(*) = 1 AND text LIKE '%http%'",
      /*debug=*/true);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The rule corruption inflates spam predictions among http emails.
  const int64_t observed = r->table.rows[0][0].AsInt64();
  EXPECT_GT(observed, true_count);

  // Debug with Holistic against the ground-truth count.
  auto plan_result = pipeline.ExecuteSql(
      "SELECT COUNT(*) AS cnt FROM enron WHERE predict(*) = 1 AND text LIKE '%http%'",
      false);
  ASSERT_TRUE(plan_result.ok());
  QueryComplaints qc;
  // Re-plan through SQL each iteration via a stored plan:
  auto plan = sql::PlanQuery(
      "SELECT COUNT(*) AS cnt FROM enron WHERE predict(*) = 1 AND text LIKE '%http%'",
      pipeline.catalog());
  ASSERT_TRUE(plan.ok());
  qc.query = *plan;
  qc.complaints = {ComplaintSpec::ValueEq("cnt", static_cast<double>(true_count))};
  auto session = DebugSessionBuilder(&pipeline)
                     .ranker(MakeHolisticRanker())
                     .top_k_per_iter(10)
                     .max_deletions(static_cast<int>(corrupted.size()))
                     .workload({qc})
                     .Build();
  ASSERT_TRUE(session.ok());
  auto report = (*session)->RunToCompletion();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const double auc = Auccr(report->deletions, corrupted);
  EXPECT_GT(auc, 0.35) << "Holistic should beat random on the http corruption";
}

/// MNIST Q3-style join with tuple complaints (Section 6.3, scaled down).
TEST(IntegrationTest, MnistJoinTupleComplaints) {
  MnistConfig cfg;
  cfg.train_size = 600;
  cfg.query_size = 400;
  MnistData mnist = MakeMnist(cfg);
  Rng rng(5);
  auto corrupted =
      CorruptLabels(&mnist.train, IndicesWithLabel(mnist.train, 1), 0.5, 7, &rng);
  ASSERT_GT(corrupted.size(), 10u);

  MnistSubset ones = SelectByTrueDigit(mnist, {1}, 25);
  MnistSubset sevens = SelectByTrueDigit(mnist, {7}, 25);

  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("lefts", std::move(ones.table), std::move(ones.features)).ok());
  ASSERT_TRUE(
      catalog.AddTable("rights", std::move(sevens.table), std::move(sevens.features)).ok());
  Query2Pipeline pipeline(std::move(catalog),
                          std::make_unique<SoftmaxRegression>(64, 10),
                          std::move(mnist.train));
  ASSERT_TRUE(pipeline.Train().ok());

  // The join of disjoint digit sets should be empty; corruption makes
  // 1-images predicted 7 and vice versa, producing join results.
  auto plan = sql::PlanQuery(
      "SELECT * FROM lefts L, rights R WHERE predict(L.*) = predict(R.*)",
      pipeline.catalog());
  ASSERT_TRUE(plan.ok());
  auto r = pipeline.Execute(*plan, /*debug=*/true);
  ASSERT_TRUE(r.ok());
  const size_t offending = r->table.NumConcrete();
  ASSERT_GT(offending, 0u) << "corruption should produce spurious join rows";

  // Tuple complaints: every concrete join row should not exist. Keys on
  // both ids identify the rows declaratively across iterations.
  QueryComplaints qc;
  qc.query = *plan;
  for (size_t row = 0; row < r->table.num_rows(); ++row) {
    if (!r->table.concrete[row]) continue;
    qc.complaints.push_back(ComplaintSpec::TupleNotExists(
        {"L.id", "R.id"},
        std::vector<Value>{r->table.rows[row][0], r->table.rows[row][2]}));
  }

  auto session = DebugSessionBuilder(&pipeline)
                     .ranker(MakeHolisticRanker())
                     .top_k_per_iter(10)
                     .max_deletions(static_cast<int>(corrupted.size()))
                     .workload({qc})
                     .Build();
  ASSERT_TRUE(session.ok());
  auto report = (*session)->RunToCompletion();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const double auc = Auccr(report->deletions, corrupted);
  EXPECT_GT(auc, 0.5);

  // TwoStep over the same complaints: each tuple reaches one row per
  // side, so every repair is a bipartite vertex cover, which the ILP
  // proves optimal from the warm start's incumbent.
  pipeline.train_data()->ReactivateAll();
  auto twostep = DebugSessionBuilder(&pipeline)
                     .ranker(MakeTwoStepRanker())
                     .top_k_per_iter(10)
                     .max_deletions(static_cast<int>(corrupted.size()))
                     .workload({qc})
                     .Build();
  ASSERT_TRUE(twostep.ok());
  auto twostep_report = (*twostep)->RunToCompletion();
  ASSERT_TRUE(twostep_report.ok()) << twostep_report.status().ToString();
  size_t ilp_iterations = 0;
  for (const IterationStats& it : twostep_report->iterations) {
    if (it.violated_complaints == 0) continue;
    ++ilp_iterations;
    EXPECT_TRUE(it.ilp_optimal) << it.note;
    EXPECT_TRUE(it.ilp_warm_start_used) << it.note;
    EXPECT_EQ(it.note.find("budget"), std::string::npos) << it.note;
  }
  EXPECT_GT(ilp_iterations, 0u);
}

/// Adult Q6/Q7-style multi-query complaints (Section 6.5, scaled down).
TEST(IntegrationTest, AdultMultiQueryComplaints) {
  AdultConfig cfg;
  cfg.train_size = 2000;
  cfg.query_size = 1200;
  AdultData adult = MakeAdult(cfg);
  Rng rng(7);
  auto candidates = AdultCorruptionCandidates(adult);

  // Complaint targets come from a clean-model run (the paper generates
  // complaints from ground truth, i.e. what the uncorrupted pipeline
  // would report).
  double male_target = 0.0, aged_target = 0.0;
  {
    Catalog clean_catalog;
    Table clean_table = adult.query_table;
    Dataset clean_query = adult.query;
    ASSERT_TRUE(clean_catalog
                    .AddTable("adult", std::move(clean_table), std::move(clean_query))
                    .ok());
    Query2Pipeline clean(std::move(clean_catalog),
                         std::make_unique<LogisticRegression>(kAdultFeatures),
                         adult.train);
    ASSERT_TRUE(clean.Train().ok());
    auto g = clean.ExecuteSql(
        "SELECT gender, AVG(predict(*)) AS a FROM adult GROUP BY gender", false);
    ASSERT_TRUE(g.ok());
    for (const auto& row : g->table.rows) {
      if (row[0].AsString() == "Male") male_target = row[1].AsDouble();
    }
    auto ag = clean.ExecuteSql(
        "SELECT agedecade, AVG(predict(*)) AS a FROM adult GROUP BY agedecade", false);
    ASSERT_TRUE(ag.ok());
    for (const auto& row : ag->table.rows) {
      if (row[0].AsInt64() == 4) aged_target = row[1].AsDouble();
    }
  }

  auto corrupted = CorruptLabels(&adult.train, candidates, 0.5, 1, &rng);
  ASSERT_GT(corrupted.size(), 20u);

  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddTable("adult", std::move(adult.query_table),
                            std::move(adult.query))
                  .ok());
  Query2Pipeline pipeline(std::move(catalog),
                          std::make_unique<LogisticRegression>(kAdultFeatures),
                          std::move(adult.train));
  ASSERT_TRUE(pipeline.Train().ok());

  auto q6 = sql::PlanQuery(
      "SELECT gender, AVG(predict(*)) AS avg_income FROM adult GROUP BY gender",
      pipeline.catalog());
  ASSERT_TRUE(q6.ok());
  auto q7 = sql::PlanQuery(
      "SELECT agedecade, AVG(predict(*)) AS avg_income FROM adult GROUP BY agedecade",
      pipeline.catalog());
  ASSERT_TRUE(q7.ok());

  QueryComplaints c6;
  c6.query = *q6;
  c6.complaints = {ComplaintSpec::ValueEq("avg_income", male_target,
                                          {Value(std::string("Male"))})};
  QueryComplaints c7;
  c7.query = *q7;
  c7.complaints = {ComplaintSpec::ValueEq("avg_income", aged_target,
                                          {Value(int64_t{4})})};

  auto session = DebugSessionBuilder(&pipeline)
                     .ranker(MakeHolisticRanker())
                     .top_k_per_iter(20)
                     .max_deletions(static_cast<int>(corrupted.size()))
                     .add_complaints(c6)
                     .add_complaints(c7)
                     .Build();
  ASSERT_TRUE(session.ok());
  auto report = (*session)->RunToCompletion();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Duplicate feature vectors cap attainable recall (the Section 6.5
  // phenomenon): corrupted records are indistinguishable from clean
  // high-income duplicates. Holistic should still (a) beat random and
  // (b) concentrate deletions inside the corrupted subspace.
  const double auc_both = Auccr(report->deletions, corrupted);
  EXPECT_GT(auc_both, 0.15);
  size_t in_subspace = 0;
  for (size_t i : report->deletions) {
    in_subspace += adult.train_gender[i] == 1 && adult.train_age_decade[i] == 4;
  }
  EXPECT_GT(static_cast<double>(in_subspace) / report->deletions.size(), 0.6);
}

/// Theorem C.1 flavor: with many systematic corruptions the corrupted
/// records' losses collapse toward 0, so the Loss baseline ranks them at
/// the bottom while a complaint-driven ranker still finds them.
TEST(IntegrationTest, OverfittingDefeatsLossBaseline) {
  // Bias-free logistic model; corrupted records live on a dedicated
  // orthogonal axis (feature d-1), clean records on the others.
  Rng rng(11);
  const size_t d = 6;
  const size_t n_clean = 150, n_noise = 60;
  Matrix x(n_clean + n_noise, d, 0.0);
  std::vector<int> y(n_clean + n_noise);
  for (size_t i = 0; i < n_clean; ++i) {
    for (size_t f = 0; f + 1 < d; ++f) x.At(i, f) = rng.Gaussian();
    double s = 0.0;
    for (size_t f = 0; f + 1 < d; ++f) s += x.At(i, f);
    y[i] = s > 0 ? 1 : 0;
  }
  for (size_t i = n_clean; i < n_clean + n_noise; ++i) {
    x.At(i, d - 1) = 1.0 + 0.05 * rng.Gaussian();
    y[i] = 1;  // systematically mislabeled: truth is 0
  }
  Dataset train(std::move(x), std::move(y), 2);

  LogisticRegression model(d, /*fit_intercept=*/false);
  TrainConfig tc;
  tc.l2 = 1e-3;
  ASSERT_TRUE(TrainModel(&model, train, tc).ok());

  // The model fits the corrupted cluster: losses of corrupted records
  // are tiny.
  double max_corrupt_loss = 0.0;
  for (size_t i = n_clean; i < n_clean + n_noise; ++i) {
    max_corrupt_loss = std::max(max_corrupt_loss,
                                model.ExampleLoss(train.row(i), train.label(i)));
  }
  double mean_clean_loss = 0.0;
  for (size_t i = 0; i < n_clean; ++i) {
    mean_clean_loss += model.ExampleLoss(train.row(i), train.label(i));
  }
  mean_clean_loss /= n_clean;
  EXPECT_LT(max_corrupt_loss, mean_clean_loss)
      << "systematic corruptions are fit better than clean data";

  // A complaint on a queried record parallel to the noise axis assigns
  // positive influence scores to all corrupted records (Appendix C).
  Matrix qx(1, d, 0.0);
  qx.At(0, d - 1) = 1.0;
  Dataset probe(std::move(qx), {0}, 2);
  InfluenceOptions opts;
  opts.l2 = tc.l2;
  InfluenceScorer scorer(&model, &train, opts);
  Vec q_grad(model.num_params(), 0.0);
  // q = p_1(probe): want it to go DOWN (true class is 0).
  model.AddProbaGradient(probe.row(0), Vec{0.0, 1.0}, &q_grad);
  ASSERT_TRUE(scorer.Prepare(q_grad).ok());
  for (size_t i = n_clean; i < n_clean + n_noise; ++i) {
    EXPECT_GT(scorer.Score(i), 0.0) << "corrupted record " << i;
  }
  // Clean records (orthogonal) get ~zero scores.
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(scorer.Score(i), 0.0, 1e-6);
  }
}

/// Appendix D flavor: the debugger runs with a non-convex MLP model.
TEST(IntegrationTest, MlpPipelineDebugs) {
  MnistConfig cfg;
  cfg.train_size = 300;
  cfg.query_size = 200;
  MnistData mnist = MakeMnist(cfg);
  Rng rng(13);
  auto corrupted =
      CorruptLabels(&mnist.train, IndicesWithLabel(mnist.train, 1), 0.5, 7, &rng);
  int64_t true_ones = 0;
  for (size_t i = 0; i < mnist.query.size(); ++i) true_ones += mnist.query.label(i) == 1;

  Table q(Schema({Field{"id", DataType::kInt64, ""}}));
  for (size_t i = 0; i < mnist.query.size(); ++i) {
    q.AppendRowUnchecked({Value(static_cast<int64_t>(i))});
  }
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("mnist", std::move(q), std::move(mnist.query)).ok());
  TrainConfig tc;
  tc.l2 = 1e-3;
  tc.max_iters = 150;
  Query2Pipeline pipeline(std::move(catalog), std::make_unique<Mlp>(64, 16, 10),
                          std::move(mnist.train), tc);
  ASSERT_TRUE(pipeline.Train().ok());

  auto plan = sql::PlanQuery("SELECT COUNT(*) AS cnt FROM mnist WHERE predict(*) = 1",
                             pipeline.catalog());
  ASSERT_TRUE(plan.ok());
  InfluenceOptions influence;
  influence.damping = 0.05;  // non-convex model needs damping
  QueryComplaints qc;
  qc.query = *plan;
  qc.complaints = {ComplaintSpec::ValueEq("cnt", static_cast<double>(true_ones))};
  auto session = DebugSessionBuilder(&pipeline)
                     .ranker(MakeHolisticRanker())
                     .top_k_per_iter(10)
                     .max_deletions(20)
                     .influence(influence)
                     .workload({qc})
                     .Build();
  ASSERT_TRUE(session.ok());
  auto report = (*session)->RunToCompletion();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->deletions.size(), 20u);
  // Most of the first 20 deletions should be true corruptions.
  size_t hits = 0;
  std::set<size_t> truth(corrupted.begin(), corrupted.end());
  for (size_t i : report->deletions) hits += truth.count(i);
  EXPECT_GT(hits, 10u);
}

}  // namespace
}  // namespace rain
