#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "core/complaint.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "core/ranker.h"
#include "core/session.h"
#include "data/corruption.h"
#include "data/dblp.h"
#include "gtest/gtest.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/trainer.h"

namespace rain {
namespace {

TEST(MetricsTest, RecallCurveBasics) {
  // 4 corruptions {0,1,2,3}; deletions hit 2 of the first 4.
  auto curve = RecallCurve({0, 9, 1, 8}, {0, 1, 2, 3});
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_DOUBLE_EQ(curve[0], 0.25);
  EXPECT_DOUBLE_EQ(curve[1], 0.25);
  EXPECT_DOUBLE_EQ(curve[2], 0.5);
  EXPECT_DOUBLE_EQ(curve[3], 0.5);
}

TEST(MetricsTest, PerfectRecallAuccrIsNearOne) {
  std::vector<size_t> deletions{0, 1, 2, 3, 4};
  std::vector<size_t> corrupted{0, 1, 2, 3, 4};
  const double auc = Auccr(deletions, corrupted);
  EXPECT_NEAR(auc, 1.0, 0.21);  // (2/K) sum k/K = (K+1)/K
  EXPECT_GE(auc, 1.0);
}

TEST(MetricsTest, ZeroRecallAuccrIsZero) {
  EXPECT_DOUBLE_EQ(Auccr({10, 11, 12}, {0, 1, 2}), 0.0);
}

TEST(MetricsTest, ShortDeletionSequencePads) {
  auto curve = RecallCurve({0}, {0, 1, 2, 3});
  EXPECT_DOUBLE_EQ(curve[0], 0.25);
  EXPECT_DOUBLE_EQ(curve[3], 0.25);
}

TEST(MetricsTest, EmptyCorruptions) {
  EXPECT_TRUE(RecallCurve({1, 2}, {}).empty());
  EXPECT_DOUBLE_EQ(Auccr(std::vector<double>{}), 0.0);
}

/// End-to-end fixture: a DBLP-style pipeline with systematic corruptions
/// and a COUNT query.
class CoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    pipeline_ = MakePipeline(std::make_unique<LogisticRegression>(kDblpFeatures));
  }

  /// A trained pipeline of `model` over the fixture's (seeded, so always
  /// identical) corrupted DBLP data.
  std::unique_ptr<Query2Pipeline> MakePipeline(std::unique_ptr<Model> model) {
    DblpConfig cfg;
    cfg.train_size = 400;
    cfg.query_size = 200;
    cfg.seed = 99;
    DblpData dblp = MakeDblp(cfg);
    true_count_ = 0;
    for (size_t i = 0; i < dblp.query.size(); ++i) true_count_ += dblp.query.label(i);

    Rng rng(3);
    corrupted_ = CorruptLabels(&dblp.train, IndicesWithLabel(dblp.train, 1), 0.5, 0,
                               &rng);

    Catalog catalog;
    RAIN_CHECK(
        catalog.AddTable("dblp", std::move(dblp.query_table), std::move(dblp.query))
            .ok());
    TrainConfig tc;
    tc.l2 = 1e-3;
    auto pipeline = std::make_unique<Query2Pipeline>(
        std::move(catalog), std::move(model), std::move(dblp.train), tc);
    RAIN_CHECK(pipeline->Train().ok());
    return pipeline;
  }

  PlanPtr CountQuery() {
    return PlanNode::Aggregate(
        PlanNode::Filter(PlanNode::Scan("dblp", "D"),
                         Expr::Eq(Expr::Predict("D"), Expr::LitInt(1))),
        {}, {}, {AggSpec{AggFunc::kCount, nullptr, "cnt"}});
  }

  std::unique_ptr<Query2Pipeline> pipeline_;
  std::vector<size_t> corrupted_;
  int64_t true_count_ = 0;
};

TEST_F(CoreFixture, PipelineExecutesSqlAndPlans) {
  auto via_sql =
      pipeline_->ExecuteSql("SELECT COUNT(*) AS cnt FROM dblp WHERE predict(*) = 1",
                            /*debug=*/false);
  ASSERT_TRUE(via_sql.ok());
  auto via_plan = pipeline_->Execute(CountQuery(), /*debug=*/false);
  ASSERT_TRUE(via_plan.ok());
  EXPECT_EQ(via_sql->table.rows[0][0].AsInt64(), via_plan->table.rows[0][0].AsInt64());
}

TEST_F(CoreFixture, CorruptionSuppressesCount) {
  auto r = pipeline_->Execute(CountQuery(), false);
  ASSERT_TRUE(r.ok());
  // Half the match labels were flipped to non-match, so the model
  // under-predicts matches.
  EXPECT_LT(r->table.rows[0][0].AsInt64(), true_count_);
}

TEST_F(CoreFixture, ValueComplaintBinds) {
  auto r = pipeline_->Execute(CountQuery(), true);
  ASSERT_TRUE(r.ok());
  auto spec = ComplaintSpec::ValueEq("cnt", static_cast<double>(true_count_));
  auto bound = BindComplaint(spec, *r, pipeline_->arena(), pipeline_->predictions(),
                             pipeline_->catalog());
  ASSERT_TRUE(bound.ok());
  ASSERT_EQ(bound->size(), 1u);
  EXPECT_TRUE((*bound)[0].violated);
  EXPECT_NE((*bound)[0].poly, kInvalidPoly);
  EXPECT_LT((*bound)[0].current, (*bound)[0].target);
}

TEST_F(CoreFixture, SatisfiedInequalityComplaintNotViolated) {
  auto r = pipeline_->Execute(CountQuery(), true);
  ASSERT_TRUE(r.ok());
  auto spec = ComplaintSpec::ValueGe("cnt", 0.0);  // trivially satisfied
  auto bound = BindComplaint(spec, *r, pipeline_->arena(), pipeline_->predictions(),
                             pipeline_->catalog());
  ASSERT_TRUE(bound.ok());
  EXPECT_FALSE((*bound)[0].violated);
}

TEST_F(CoreFixture, UnknownAggregateNameFails) {
  auto r = pipeline_->Execute(CountQuery(), true);
  ASSERT_TRUE(r.ok());
  auto spec = ComplaintSpec::ValueEq("missing", 1.0);
  EXPECT_FALSE(BindComplaint(spec, *r, pipeline_->arena(), pipeline_->predictions(),
                             pipeline_->catalog())
                   .ok());
}

TEST_F(CoreFixture, PointComplaintBinds) {
  auto spec = ComplaintSpec::Point("dblp", 3, 1);
  ExecResult dummy;
  auto bound = BindComplaint(spec, dummy, pipeline_->arena(),
                             pipeline_->predictions(), pipeline_->catalog());
  ASSERT_TRUE(bound.ok());
  ASSERT_EQ(bound->size(), 1u);
  EXPECT_EQ(pipeline_->arena()->node((*bound)[0].poly).op, PolyOp::kVar);
}

TEST_F(CoreFixture, PointComplaintRangeChecks) {
  ExecResult dummy;
  EXPECT_FALSE(BindComplaint(ComplaintSpec::Point("dblp", 1 << 20, 1), dummy,
                             pipeline_->arena(), pipeline_->predictions(),
                             pipeline_->catalog())
                   .ok());
  EXPECT_FALSE(BindComplaint(ComplaintSpec::Point("dblp", 0, 7), dummy,
                             pipeline_->arena(), pipeline_->predictions(),
                             pipeline_->catalog())
                   .ok());
  EXPECT_FALSE(BindComplaint(ComplaintSpec::Point("nope", 0, 1), dummy,
                             pipeline_->arena(), pipeline_->predictions(),
                             pipeline_->catalog())
                   .ok());
}

// Regression: multi-query failures must be attributable. The error for a
// missing feature dataset / out-of-range row names the table and row
// instead of the old anonymous "queried table lacks a feature dataset".
TEST_F(CoreFixture, AccumulateProbaGradientsErrorsNameTableAndRow) {
  std::vector<RowSeed> weights;
  Vec grad(pipeline_->model()->num_params(), 0.0);

  // Unknown table id.
  weights.push_back({42, 7, Vec{1.0, 0.0}});
  Status unknown = AccumulateProbaGradients(pipeline_->catalog(),
                                            *pipeline_->model(), weights, &grad);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.message().find("id=42"), std::string::npos) << unknown.message();
  EXPECT_NE(unknown.message().find("7"), std::string::npos) << unknown.message();

  // Row out of range on a real table: names the table and both numbers.
  weights.clear();
  weights.push_back({0, 123456, Vec{1.0, 0.0}});
  Status oor = AccumulateProbaGradients(pipeline_->catalog(), *pipeline_->model(),
                                        weights, &grad);
  ASSERT_FALSE(oor.ok());
  EXPECT_TRUE(oor.IsOutOfRange());
  EXPECT_NE(oor.message().find("123456"), std::string::npos) << oor.message();
  EXPECT_NE(oor.message().find("dblp"), std::string::npos) << oor.message();

  // A failed call never leaves grad partially accumulated.
  for (double g : grad) EXPECT_EQ(g, 0.0);
}

TEST_F(CoreFixture, AccumulateProbaGradientsErrorNamesTableWithoutFeatures) {
  // A catalog table registered without features cannot back-propagate; the
  // message must say which table and which row wanted it.
  Catalog catalog;
  Table plain;  // empty relational table, no feature dataset
  ASSERT_TRUE(catalog.AddTable("no_features", std::move(plain)).ok());
  std::vector<RowSeed> weights = {{0, 5, Vec{1.0}}};
  Vec grad(pipeline_->model()->num_params(), 0.0);
  Status s =
      AccumulateProbaGradients(catalog, *pipeline_->model(), weights, &grad);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInternal());
  EXPECT_NE(s.message().find("no_features"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("row 5"), std::string::npos) << s.message();
}

TEST_F(CoreFixture, SelectApproachHeuristic) {
  auto r = pipeline_->Execute(CountQuery(), true);
  ASSERT_TRUE(r.ok());
  auto agg = BindComplaint(ComplaintSpec::ValueEq("cnt", 1.0), *r, pipeline_->arena(),
                           pipeline_->predictions(), pipeline_->catalog());
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(SelectApproach(*pipeline_->arena(), *agg), Approach::kHolistic);

  ExecResult dummy;
  auto pt = BindComplaint(ComplaintSpec::Point("dblp", 0, 1), dummy,
                          pipeline_->arena(), pipeline_->predictions(),
                          pipeline_->catalog());
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(SelectApproach(*pipeline_->arena(), *pt), Approach::kTwoStep);
}

TEST_F(CoreFixture, MakeRankerFactory) {
  for (const char* name : {"loss", "infloss", "twostep", "holistic"}) {
    auto r = MakeRanker(name);
    ASSERT_TRUE(r.ok()) << name;
    EXPECT_EQ((*r)->name(), name);
  }
  EXPECT_FALSE(MakeRanker("alchemy").ok());
}

TEST_F(CoreFixture, HolisticDebuggerRecoversCorruptions) {
  QueryComplaints qc;
  qc.query = CountQuery();
  qc.complaints = {ComplaintSpec::ValueEq("cnt", static_cast<double>(true_count_))};
  auto session = DebugSessionBuilder(pipeline_.get())
                     .ranker(MakeHolisticRanker())
                     .top_k_per_iter(20)
                     .max_deletions(static_cast<int>(corrupted_.size()))
                     .workload({qc})
                     .Build();
  ASSERT_TRUE(session.ok());
  auto report = (*session)->RunToCompletion();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->deletions.size(), corrupted_.size());
  const double auc = Auccr(report->deletions, corrupted_);
  EXPECT_GT(auc, 0.8) << "Holistic should recover systematic corruptions";
  // Timings recorded for every iteration.
  ASSERT_FALSE(report->iterations.empty());
  EXPECT_GT(report->iterations[0].train_seconds, 0.0);
}

TEST_F(CoreFixture, LossRankerUnderperformsHolistic) {
  QueryComplaints qc;
  qc.query = CountQuery();
  qc.complaints = {ComplaintSpec::ValueEq("cnt", static_cast<double>(true_count_))};
  auto run_with = [&](const std::string& method) {
    auto session = DebugSessionBuilder(pipeline_.get())
                       .ranker(method)
                       .top_k_per_iter(20)
                       .max_deletions(static_cast<int>(corrupted_.size()))
                       .workload({qc})
                       .Build();
    RAIN_CHECK(session.ok());
    return (*session)->RunToCompletion();
  };
  auto loss_report = run_with("loss");
  ASSERT_TRUE(loss_report.ok());
  const double loss_auc = Auccr(loss_report->deletions, corrupted_);

  pipeline_->train_data()->ReactivateAll();
  auto hol_report = run_with("holistic");
  ASSERT_TRUE(hol_report.ok());
  const double hol_auc = Auccr(hol_report->deletions, corrupted_);
  EXPECT_GT(hol_auc, loss_auc);
}

TEST_F(CoreFixture, DebuggerStopsWhenResolved) {
  QueryComplaints qc;
  qc.query = CountQuery();
  // Complain with the *current* (already satisfied) count: resolves at once.
  auto r = pipeline_->Execute(CountQuery(), false);
  ASSERT_TRUE(r.ok());
  qc.complaints = {ComplaintSpec::ValueEq(
      "cnt", static_cast<double>(r->table.rows[0][0].AsInt64()))};
  auto session = DebugSessionBuilder(pipeline_.get())
                     .ranker(MakeHolisticRanker())
                     .top_k_per_iter(10)
                     .max_deletions(1000)
                     .stop_when_resolved()
                     .workload({qc})
                     .Build();
  ASSERT_TRUE(session.ok());
  auto report = (*session)->RunToCompletion();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->complaints_resolved);
  EXPECT_TRUE(report->deletions.empty());
  EXPECT_TRUE((*session)->finished());
  EXPECT_EQ((*session)->finish_status(), StepStatus::kResolved);
}

TEST_F(CoreFixture, TwoStepRankerRunsOnCountComplaint) {
  QueryComplaints qc;
  qc.query = CountQuery();
  qc.complaints = {ComplaintSpec::ValueEq("cnt", static_cast<double>(true_count_))};
  auto session = DebugSessionBuilder(pipeline_.get())
                     .ranker(MakeTwoStepRanker())
                     .top_k_per_iter(20)
                     .max_deletions(40)
                     .workload({qc})
                     .Build();
  ASSERT_TRUE(session.ok());
  auto report = (*session)->RunToCompletion();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->deletions.size(), 40u);
}

TEST_F(CoreFixture, UnconvergedCgIsNotedPerIteration) {
  // An MLP over DBLP keeps the Hessian-free CG solve (its Hessian is too
  // large to form), and one CG iteration cannot reach tolerance: the
  // influence rankers still rank, but say so in the note.
  auto mlp = MakePipeline(std::make_unique<Mlp>(kDblpFeatures, 8, 2, /*seed=*/7));
  QueryComplaints qc;
  qc.query = CountQuery();
  qc.complaints = {ComplaintSpec::ValueEq("cnt", static_cast<double>(true_count_))};
  InfluenceOptions influence;
  influence.l2 = 1e-3;
  influence.damping = 0.05;
  influence.cg.max_iters = 1;
  for (const char* method : {"holistic", "twostep"}) {
    mlp->train_data()->ReactivateAll();
    auto session = DebugSessionBuilder(mlp.get())
                       .ranker(method)
                       .influence(influence)
                       .top_k_per_iter(10)
                       .max_deletions(10)
                       .workload({qc})
                       .Build();
    ASSERT_TRUE(session.ok());
    auto report = (*session)->RunToCompletion();
    ASSERT_TRUE(report.ok()) << method << ": " << report.status().ToString();
    ASSERT_FALSE(report->iterations.empty());
    EXPECT_NE(report->iterations[0].note.find("cg unconverged (1 iters, residual "),
              std::string::npos)
        << method << ": " << report->iterations[0].note;
  }
}

TEST(InfLossRankerTest, UnconvergedPerRecordCgIsNoted) {
  // 9 parameters over 6 rows x 8 features: too large a Hessian to form,
  // so InfLoss takes one CG solve per row, each capped at one iteration.
  Rng rng(5);
  Matrix x(6, 8);
  std::vector<int> y(6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t f = 0; f < 8; ++f) x.At(i, f) = rng.Gaussian();
    y[i] = static_cast<int>(i % 2);
  }
  Dataset train(std::move(x), std::move(y), 2);
  LogisticRegression model(8);
  TrainConfig tc;
  tc.l2 = 1e-2;
  ASSERT_TRUE(TrainModel(&model, train, tc).ok());

  RankContext ctx;
  ctx.model = &model;
  ctx.train = &train;
  ctx.influence.l2 = tc.l2;
  auto converged = MakeInfLossRanker()->Rank(ctx);
  ASSERT_TRUE(converged.ok());
  EXPECT_EQ(converged->note, "");

  ctx.influence.cg.max_iters = 1;
  auto capped = MakeInfLossRanker()->Rank(ctx);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->note.rfind("cg unconverged (1 iters, residual ", 0), 0u)
      << capped->note;
}

TEST_F(CoreFixture, DeletionsAreDistinctAndDeactivated) {
  QueryComplaints qc;
  qc.query = CountQuery();
  qc.complaints = {ComplaintSpec::ValueEq("cnt", static_cast<double>(true_count_))};
  auto session = DebugSessionBuilder(pipeline_.get())
                     .ranker(MakeLossRanker())
                     .top_k_per_iter(10)
                     .max_deletions(30)
                     .workload({qc})
                     .Build();
  ASSERT_TRUE(session.ok());
  auto report = (*session)->RunToCompletion();
  ASSERT_TRUE(report.ok());
  std::set<size_t> uniq(report->deletions.begin(), report->deletions.end());
  EXPECT_EQ(uniq.size(), report->deletions.size());
  for (size_t i : report->deletions) {
    EXPECT_FALSE(pipeline_->train_data()->active(i));
  }
}

}  // namespace
}  // namespace rain
