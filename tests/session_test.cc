/// DebugSession semantics: stepping, convergence no-ops, cancellation
/// between phases and mid-train, observer ordering, workload mutation,
/// deadline handling, parallelism inheritance, fix-phase selection and
/// ranker-output validation, the batched bind on the Fig. 5 (DBLP 50%
/// corruption) workload, and worker-count invariance of deletion
/// sequences (DBLP Fig. 5 and the Adult multi-query workload).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/complaint.h"
#include "core/debugger.h"
#include "core/pipeline.h"
#include "core/ranker.h"
#include "core/session.h"
#include "data/adult.h"
#include "data/corruption.h"
#include "data/dblp.h"
#include "gtest/gtest.h"
#include "incremental/update.h"
#include "ml/logistic_regression.h"
#include "ml/trainer.h"
#include "sql/planner.h"

namespace rain {
namespace {

/// The Fig. 5 runtime workload, scaled to test size: DBLP with 50% of the
/// match labels flipped, complained about through a COUNT query.
/// Construction is fully seeded, so two setups are bit-identical.
struct DblpSetup {
  std::unique_ptr<Query2Pipeline> pipeline;
  std::vector<size_t> corrupted;
  int64_t true_count = 0;
};

DblpSetup MakeCorruptedDblp() {
  DblpConfig cfg;
  cfg.train_size = 400;
  cfg.query_size = 200;
  cfg.seed = 99;
  DblpData dblp = MakeDblp(cfg);
  DblpSetup setup;
  for (size_t i = 0; i < dblp.query.size(); ++i) {
    setup.true_count += dblp.query.label(i);
  }
  Rng rng(3);
  setup.corrupted =
      CorruptLabels(&dblp.train, IndicesWithLabel(dblp.train, 1), 0.5, 0, &rng);
  Catalog catalog;
  RAIN_CHECK(
      catalog.AddTable("dblp", std::move(dblp.query_table), std::move(dblp.query))
          .ok());
  TrainConfig tc;
  tc.l2 = 1e-3;
  setup.pipeline = std::make_unique<Query2Pipeline>(
      std::move(catalog), std::make_unique<LogisticRegression>(kDblpFeatures),
      std::move(dblp.train), tc);
  RAIN_CHECK(setup.pipeline->Train().ok());
  return setup;
}

PlanPtr CountQuery() {
  return PlanNode::Aggregate(
      PlanNode::Filter(PlanNode::Scan("dblp", "D"),
                       Expr::Eq(Expr::Predict("D"), Expr::LitInt(1))),
      {}, {}, {AggSpec{AggFunc::kCount, nullptr, "cnt"}});
}

QueryComplaints CountComplaint(double target) {
  QueryComplaints qc;
  qc.query = CountQuery();
  qc.complaints = {ComplaintSpec::ValueEq("cnt", target)};
  return qc;
}

class SessionFixture : public ::testing::Test {
 protected:
  void SetUp() override { setup_ = MakeCorruptedDblp(); }

  Query2Pipeline* pipeline() { return setup_.pipeline.get(); }
  DblpSetup setup_;
};

// ---------------------------------------------------------------- stepping

TEST_F(SessionFixture, StepDrivesOneIterationAtATime) {
  auto session = DebugSessionBuilder(pipeline())
                     .ranker("holistic")
                     .top_k_per_iter(10)
                     .max_deletions(30)
                     .workload({CountComplaint(static_cast<double>(setup_.true_count))})
                     .Build();
  ASSERT_TRUE(session.ok());
  for (int i = 1; i <= 3; ++i) {
    auto step = (*session)->Step();
    ASSERT_TRUE(step.ok());
    EXPECT_EQ(step->status, StepStatus::kIterated);
    EXPECT_EQ(step->new_deletions.size(), 10u);
    EXPECT_EQ((*session)->iterations_completed(), i);
    EXPECT_EQ((*session)->report().deletions.size(), 10u * i);
    EXPECT_GT(step->stats.train_seconds, 0.0);
  }
  // The 4th step hits the deletion budget without doing work.
  auto done = (*session)->Step();
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->status, StepStatus::kBudgetExhausted);
  EXPECT_TRUE(done->new_deletions.empty());
  EXPECT_TRUE((*session)->finished());
}

TEST_F(SessionFixture, StepAfterConvergenceIsNoop) {
  // A trivially satisfied complaint resolves on the first step.
  QueryComplaints qc = CountComplaint(0);
  qc.complaints[0].op = ComplaintOp::kGe;
  auto session = DebugSessionBuilder(pipeline())
                     .ranker("holistic")
                     .max_deletions(50)
                     .stop_when_resolved()
                     .workload({qc})
                     .Build();
  ASSERT_TRUE(session.ok());
  auto first = (*session)->Step();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, StepStatus::kResolved);
  EXPECT_TRUE(first->complaints_resolved);
  EXPECT_TRUE((*session)->finished());
  EXPECT_EQ((*session)->finish_status(), StepStatus::kResolved);

  const size_t iterations_before = (*session)->report().iterations.size();
  const size_t active_before = pipeline()->train_data()->num_active();
  auto second = (*session)->Step();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, StepStatus::kAlreadyFinished);
  EXPECT_TRUE(second->new_deletions.empty());
  EXPECT_EQ((*session)->report().iterations.size(), iterations_before);
  EXPECT_EQ(pipeline()->train_data()->num_active(), active_before);
}

TEST_F(SessionFixture, RunToCompletionPausesOnStopConditionAndResumes) {
  auto session = DebugSessionBuilder(pipeline())
                     .ranker("holistic")
                     .top_k_per_iter(10)
                     .max_deletions(30)
                     .workload({CountComplaint(static_cast<double>(setup_.true_count))})
                     .Build();
  ASSERT_TRUE(session.ok());
  auto paused = (*session)->RunToCompletion(StopAfterIterations(1));
  ASSERT_TRUE(paused.ok());
  EXPECT_EQ(paused->iterations.size(), 1u);
  EXPECT_FALSE((*session)->finished()) << "a paused session is resumable";

  // Resuming with an already-satisfied condition must not run (and delete
  // records in) an extra iteration: the condition is checked pre-step.
  auto still_paused = (*session)->RunToCompletion(StopAfterDeletions(5));
  ASSERT_TRUE(still_paused.ok());
  EXPECT_EQ(still_paused->deletions.size(), 10u);
  EXPECT_EQ(still_paused->iterations.size(), 1u);

  auto rest = (*session)->RunToCompletion();
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->deletions.size(), 30u);
}

// ------------------------------------------------------------ cancellation

/// Cancels the session from inside a callback once `phase` completes.
class CancelAfterPhase : public DebugObserver {
 public:
  CancelAfterPhase(DebugSession** session, DebugPhase phase)
      : session_(session), phase_(phase) {}
  void OnPhaseComplete(int, DebugPhase phase, double) override {
    if (phase == phase_) (*session_)->Cancel();
  }

 private:
  DebugSession** session_;
  DebugPhase phase_;
};

TEST_F(SessionFixture, CancelBetweenPhasesYieldsValidPartialReport) {
  DebugSession* raw = nullptr;
  CancelAfterPhase canceller(&raw, DebugPhase::kTrain);
  auto session = DebugSessionBuilder(pipeline())
                     .ranker("holistic")
                     .top_k_per_iter(10)
                     .max_deletions(50)
                     .set_execution(ExecutionOptions().add_observer(&canceller))
                     .workload({CountComplaint(static_cast<double>(setup_.true_count))})
                     .Build();
  ASSERT_TRUE(session.ok());
  raw = session->get();

  auto report = (*session)->RunToCompletion();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE((*session)->finished());
  EXPECT_EQ((*session)->finish_status(), StepStatus::kCancelled);
  // The partial iteration is recorded: training ran, nothing was deleted,
  // and the note says where the loop stopped.
  ASSERT_EQ(report->iterations.size(), 1u);
  EXPECT_GT(report->iterations[0].train_seconds, 0.0);
  EXPECT_EQ(report->iterations[0].rank_seconds, 0.0);
  EXPECT_TRUE(report->deletions.empty());
  EXPECT_NE(report->iterations[0].note.find("cancelled after train"),
            std::string::npos)
      << "note: " << report->iterations[0].note;
  EXPECT_EQ(pipeline()->train_data()->num_active(), pipeline()->train_data()->size());

  // Cancellation is sticky: further steps are no-ops.
  auto step = (*session)->Step();
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step->status, StepStatus::kAlreadyFinished);
}

TEST_F(SessionFixture, DeadlineInThePastStopsBeforeAnyWork) {
  auto session = DebugSessionBuilder(pipeline())
                     .ranker("holistic")
                     .max_deletions(50)
                     .set_execution(ExecutionOptions()
                                        .set_deadline(std::chrono::steady_clock::now() -
                                                      std::chrono::seconds(1)))
                     .workload({CountComplaint(static_cast<double>(setup_.true_count))})
                     .Build();
  ASSERT_TRUE(session.ok());
  auto step = (*session)->Step();
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step->status, StepStatus::kDeadlineExceeded);
  EXPECT_TRUE((*session)->report().iterations.empty());
  EXPECT_TRUE((*session)->finished());

  // Extending the deadline reopens the session.
  (*session)->set_deadline(std::chrono::steady_clock::now() +
                           std::chrono::hours(1));
  EXPECT_FALSE((*session)->finished());
  auto resumed = (*session)->Step();
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->status, StepStatus::kIterated);
}

/// Arms a passed deadline on `quota` (the session's parent token), then
/// ranks with TwoStep with the influence token cleared, so only the ILP
/// search can see the deadline. Records what TwoStep returned.
class DeadlineAtRankRanker : public Ranker {
 public:
  DeadlineAtRankRanker(CancellationToken* quota, Status* rank_status)
      : inner_(MakeRanker("twostep").ValueOrDie()),
        quota_(quota),
        rank_status_(rank_status) {}
  std::string name() const override { return inner_->name(); }
  Result<RankOutput> Rank(const RankContext& ctx) override {
    quota_->set_deadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
    RankContext ilp_only = ctx;
    ilp_only.influence.cancel = nullptr;
    Result<RankOutput> out = inner_->Rank(ilp_only);
    *rank_status_ = out.status();
    return out;
  }

 private:
  std::unique_ptr<Ranker> inner_;
  CancellationToken* quota_;
  Status* rank_status_;
};

TEST_F(SessionFixture, DeadlineReachesTwoStepIlpSearch) {
  CancellationToken quota;
  Status rank_status;
  auto session =
      DebugSessionBuilder(pipeline())
          .ranker(std::make_unique<DeadlineAtRankRanker>(&quota, &rank_status))
          .max_deletions(50)
          .set_execution(ExecutionOptions().set_parent_cancel(&quota))
          .workload({CountComplaint(static_cast<double>(setup_.true_count))})
          .Build();
  ASSERT_TRUE(session.ok());
  auto step = (*session)->Step();
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_EQ(step->status, StepStatus::kDeadlineExceeded);
  // The ILP stopped the rank phase itself: without the session token in
  // its options TwoStep would have finished and the session would stop
  // after the rank phase instead.
  EXPECT_TRUE(rank_status.IsCancelled()) << rank_status.ToString();
  ASSERT_EQ((*session)->report().iterations.size(), 1u);
  EXPECT_NE((*session)->report().iterations[0].note.find(
                "deadline-exceeded after bind phase"),
            std::string::npos)
      << (*session)->report().iterations[0].note;
}

// ------------------------------------------------ mid-phase cancellation

/// Forwards everything to an inner LogisticRegression, counting
/// per-example gradient calls; once the count passes `cancel_after` (and
/// a session is attached), cancels the session MID-train — the
/// regression for in-loop token polling.
class CancellingModel : public Model {
 public:
  CancellingModel(std::unique_ptr<Model> inner, int cancel_after,
                  std::atomic<int>* calls)
      : inner_(std::move(inner)), cancel_after_(cancel_after), calls_(calls) {}

  void set_session(DebugSession* session) { session_ = session; }

  int num_classes() const override { return inner_->num_classes(); }
  size_t num_features() const override { return inner_->num_features(); }
  size_t num_params() const override { return inner_->num_params(); }
  const Vec& params() const override { return inner_->params(); }
  void set_params(const Vec& theta) override { inner_->set_params(theta); }
  void PredictProba(const double* x, double* probs) const override {
    inner_->PredictProba(x, probs);
  }
  double ExampleLoss(const double* x, int y) const override {
    return inner_->ExampleLoss(x, y);
  }
  void AddExampleLossGradient(const double* x, int y, Vec* grad) const override {
    const int n = ++*calls_;
    if (session_ != nullptr && n >= cancel_after_) session_->Cancel();
    inner_->AddExampleLossGradient(x, y, grad);
  }
  void AddProbaGradient(const double* x, const Vec& class_weights,
                        Vec* grad) const override {
    inner_->AddProbaGradient(x, class_weights, grad);
  }
  void HessianVectorProduct(const Dataset& data, const Vec& v, double l2,
                            Vec* out) const override {
    inner_->HessianVectorProduct(data, v, l2, out);
  }

 private:
  std::unique_ptr<Model> inner_;
  int cancel_after_;
  std::atomic<int>* calls_;
  DebugSession* session_ = nullptr;
};

TEST(SessionCancelTest, CancelMidTrainStopsWithinOneOptimizerRound) {
  // Fresh (never-trained) pipeline so the first TrainPhase has real work;
  // the model cancels the session 50 gradient rows into the very first
  // objective evaluation.
  DblpConfig cfg;
  cfg.train_size = 400;
  cfg.query_size = 200;
  cfg.seed = 99;
  DblpData dblp = MakeDblp(cfg);
  Rng rng(3);
  CorruptLabels(&dblp.train, IndicesWithLabel(dblp.train, 1), 0.5, 0, &rng);
  Catalog catalog;
  RAIN_CHECK(
      catalog.AddTable("dblp", std::move(dblp.query_table), std::move(dblp.query))
          .ok());
  std::atomic<int> calls{0};
  auto model = std::make_unique<CancellingModel>(
      std::make_unique<LogisticRegression>(kDblpFeatures), /*cancel_after=*/50,
      &calls);
  CancellingModel* raw_model = model.get();
  auto pipeline = std::make_unique<Query2Pipeline>(std::move(catalog),
                                                   std::move(model), dblp.train);

  auto session = DebugSessionBuilder(pipeline.get())
                     .ranker("holistic")
                     .top_k_per_iter(10)
                     .max_deletions(50)
                     .workload({CountComplaint(100)})
                     .Build();
  ASSERT_TRUE(session.ok());
  raw_model->set_session(session->get());

  auto step = (*session)->Step();
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step->status, StepStatus::kCancelled);
  EXPECT_TRUE((*session)->finished());

  // Cancelled mid-evaluation at call 50; the L-BFGS loop polls the token
  // at the head of the next iteration, so exactly the one in-flight
  // 400-row evaluation completes — nothing close to a full 300-iteration
  // train (which costs tens of thousands of gradient calls).
  EXPECT_LE(calls.load(), 450);

  // The partial iteration is still recorded, and the note pins down both
  // that training stopped mid-optimization and where the step ended.
  const DebugReport& report = (*session)->report();
  ASSERT_EQ(report.iterations.size(), 1u);
  EXPECT_TRUE(report.deletions.empty());
  EXPECT_NE(report.iterations[0].note.find("train stopped mid-optimization"),
            std::string::npos)
      << "note: " << report.iterations[0].note;
  EXPECT_NE(report.iterations[0].note.find("cancelled after train phase"),
            std::string::npos)
      << "note: " << report.iterations[0].note;
  EXPECT_GT(report.iterations[0].train_seconds, 0.0);
}

// -------------------------------------------------------------- observers

/// Records every callback as a compact tag, e.g. "start:0", "train:0",
/// "del:0".
class RecordingObserver : public DebugObserver {
 public:
  void OnIterationStart(int iteration, const DebugReport&) override {
    events.push_back("start:" + std::to_string(iteration));
  }
  void OnPhaseComplete(int iteration, DebugPhase phase, double) override {
    events.push_back(std::string(DebugPhaseName(phase)) + ":" +
                     std::to_string(iteration));
  }
  void OnDeletion(int iteration, size_t, double) override {
    events.push_back("del:" + std::to_string(iteration));
  }
  std::vector<std::string> events;
};

TEST_F(SessionFixture, ObserverCallbacksFireInPhaseOrder) {
  RecordingObserver recorder;
  auto session = DebugSessionBuilder(pipeline())
                     .ranker("holistic")
                     .top_k_per_iter(5)
                     .max_deletions(10)
                     .set_execution(ExecutionOptions().add_observer(&recorder))
                     .workload({CountComplaint(static_cast<double>(setup_.true_count))})
                     .Build();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->RunToCompletion().ok());

  // Two iterations of 5 deletions each: per iteration the exact stream is
  // start, train, bind, rank, 5 deletions, fix.
  std::vector<std::string> expected;
  for (int iter = 0; iter < 2; ++iter) {
    const std::string i = std::to_string(iter);
    expected.push_back("start:" + i);
    expected.push_back("train:" + i);
    expected.push_back("bind:" + i);
    expected.push_back("rank:" + i);
    for (int d = 0; d < 5; ++d) expected.push_back("del:" + i);
    expected.push_back("fix:" + i);
  }
  EXPECT_EQ(recorder.events, expected);
}

// ------------------------------------------------------ workload mutation

TEST_F(SessionFixture, AddComplaintsReopensResolvedSession) {
  // Start with a satisfied complaint: resolves immediately.
  QueryComplaints satisfied = CountComplaint(0);
  satisfied.complaints[0].op = ComplaintOp::kGe;
  auto session = DebugSessionBuilder(pipeline())
                     .ranker("holistic")
                     .top_k_per_iter(10)
                     .max_deletions(20)
                     .stop_when_resolved()
                     .workload({satisfied})
                     .Build();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->RunToCompletion().ok());
  EXPECT_EQ((*session)->finish_status(), StepStatus::kResolved);
  EXPECT_TRUE((*session)->report().deletions.empty());

  // Growing the workload with a violated complaint resumes the loop on
  // the same session — no from-scratch re-run. The unreachable target
  // keeps the complaint violated through the whole deletion budget.
  const size_t slot = (*session)->AddComplaints(CountComplaint(1e6));
  EXPECT_EQ(slot, 1u);
  EXPECT_FALSE((*session)->finished());
  auto report = (*session)->RunToCompletion();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->deletions.size(), 20u);

  // RemoveQuery: the violated complaint goes away, leaving the satisfied
  // one; the next step resolves again.
  EXPECT_TRUE((*session)->RemoveQuery(slot));
  EXPECT_FALSE((*session)->RemoveQuery(7));
  EXPECT_EQ((*session)->workload().size(), 1u);
}

TEST_F(SessionFixture, TrainMetricsReportConvergenceAndMemoSkips) {
  // A satisfied complaint resolves in the first iteration, after a full
  // train; a violated one added next reopens the session with the train
  // memo intact, so its first iteration skips training.
  QueryComplaints satisfied = CountComplaint(0);
  satisfied.complaints[0].op = ComplaintOp::kGe;
  auto session = DebugSessionBuilder(pipeline())
                     .ranker("holistic")
                     .top_k_per_iter(10)
                     .max_deletions(30)
                     .stop_when_resolved()
                     .workload({satisfied})
                     .Build();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->RunToCompletion().ok());
  (*session)->AddComplaints(CountComplaint(1e6));
  auto report = (*session)->RunToCompletion();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::vector<IterationStats>& iterations = report->iterations;
  ASSERT_EQ(iterations.size(), 4u);  // resolved, then 10 + 10 + 10 deletions

  const double grad_tol = TrainConfig().grad_tol;
  for (size_t i : {size_t{0}, size_t{2}, size_t{3}}) {
    EXPECT_TRUE(iterations[i].train_converged) << "iteration " << i;
    EXPECT_GE(iterations[i].train_evaluations, 1) << "iteration " << i;
    EXPECT_LE(iterations[i].train_grad_norm, grad_tol) << "iteration " << i;
  }
  // The memo hit: no train ran, which reports converged with norm 0.
  EXPECT_EQ(iterations[1].train_seconds, 0.0);
  EXPECT_EQ(iterations[1].train_evaluations, 0);
  EXPECT_TRUE(iterations[1].train_converged);
  EXPECT_EQ(iterations[1].train_grad_norm, 0.0);
}

// -------------------------------------------------- parallelism plumbing

TEST_F(SessionFixture, ParallelismInheritsToTrainAndInfluence) {
  auto session = DebugSessionBuilder(pipeline())
                     .ranker("holistic")
                     .set_execution(ExecutionOptions().set_parallelism(8))
                     .workload({CountComplaint(static_cast<double>(setup_.true_count))})
                     .Build();
  ASSERT_TRUE(session.ok());
  // One builder call fans out to both layers.
  EXPECT_EQ((*session)->config().parallelism, 8);
  EXPECT_EQ((*session)->config().influence.parallelism, 8);
  EXPECT_EQ(pipeline()->train_config().parallelism, 8);
}

TEST_F(SessionFixture, ExplicitFineGrainedKnobsAreNotOverridden) {
  InfluenceOptions influence;
  influence.parallelism = 2;
  auto session = DebugSessionBuilder(pipeline())
                     .ranker("holistic")
                     .set_execution(ExecutionOptions().set_parallelism(8))
                     .influence(influence)
                     .Build();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->config().influence.parallelism, 2);
  EXPECT_EQ(pipeline()->train_config().parallelism, 8);
}

TEST_F(SessionFixture, SetParallelismReturnsClampedValueVisibly) {
  EXPECT_EQ(pipeline()->set_parallelism(4), 4);
  EXPECT_EQ(pipeline()->train_config().parallelism, 4);
  // Misconfiguration is clamped (and logged), not silently swallowed.
  EXPECT_EQ(pipeline()->set_parallelism(0), 1);
  EXPECT_EQ(pipeline()->set_parallelism(-3), 1);
  EXPECT_EQ(pipeline()->train_config().parallelism, 1);
}

TEST_F(SessionFixture, BuilderRejectsMissingRankerAndBadNames) {
  EXPECT_FALSE(DebugSessionBuilder(pipeline()).Build().ok());
  EXPECT_FALSE(DebugSessionBuilder(pipeline()).ranker("alchemy").Build().ok());
  EXPECT_FALSE(DebugSessionBuilder(nullptr).ranker("loss").Build().ok());
  // Recovering from a bad name with a real ranker clears the stale error.
  EXPECT_TRUE(DebugSessionBuilder(pipeline())
                  .ranker("alchemy")
                  .ranker(MakeLossRanker())
                  .Build()
                  .ok());
  EXPECT_TRUE(DebugSessionBuilder(pipeline())
                  .ranker("alchemy")
                  .ranker("loss")
                  .Build()
                  .ok());
}

// ------------------------------------------------- fix-phase selection

/// Returns whatever `scores_for` makes of the context, every iteration.
class StubRanker : public Ranker {
 public:
  explicit StubRanker(std::function<std::vector<double>(const RankContext&)> scores_for)
      : scores_for_(std::move(scores_for)) {}
  std::string name() const override { return "stub"; }
  Result<RankOutput> Rank(const RankContext& ctx) override {
    RankOutput out;
    out.scores = scores_for_(ctx);
    return out;
  }

 private:
  std::function<std::vector<double>(const RankContext&)> scores_for_;
};

/// A full stable sort of every row by score descending, skipping inactive
/// rows: the first `count` rows it visits are what the fix phase must
/// pick, in that order.
std::vector<size_t> StableSortPick(const std::vector<double>& scores,
                                   const std::vector<uint8_t>& active, size_t count) {
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return scores[a] > scores[b]; });
  std::vector<size_t> picked;
  for (size_t idx : order) {
    if (active[idx] && picked.size() < count) picked.push_back(idx);
  }
  return picked;
}

std::vector<uint8_t> ActiveFlags(const Dataset& train) {
  std::vector<uint8_t> active(train.size());
  for (size_t i = 0; i < train.size(); ++i) active[i] = train.active(i) ? 1 : 0;
  return active;
}

/// Eleven distinct values, so every score is tied with ~n/11 others; the
/// zeros alternate sign (-0.0 == 0.0 ties too).
std::vector<double> TiedScores(size_t n) {
  std::vector<double> scores(n);
  for (size_t i = 0; i < n; ++i) {
    scores[i] = static_cast<double>((i * 37) % 11) - 3.0;
    if (scores[i] == 0.0 && i % 2 == 0) scores[i] = -0.0;
  }
  return scores;
}

TEST_F(SessionFixture, FixPhaseMatchesStableSortWithTiesAndInactiveRows) {
  Dataset* train = pipeline()->train_data();
  std::vector<double> scores = TiedScores(train->size());
  // A few rows are inactive before the session starts and carry the
  // highest scores of all; rows deleted in earlier iterations keep their
  // (high) scores too.
  for (size_t i : {0u, 11u, 22u, 121u, 242u}) {
    train->Deactivate(i);
    scores[i] = 100.0 + static_cast<double>(i);
  }
  const std::vector<uint8_t> active = ActiveFlags(*train);

  const int max_deletions = 40;
  auto session =
      DebugSessionBuilder(pipeline())
          .ranker(std::make_unique<StubRanker>(
              [&scores](const RankContext&) { return scores; }))
          .top_k_per_iter(13)
          .max_deletions(max_deletions)
          .stop_when_resolved(false)
          .workload({CountComplaint(static_cast<double>(setup_.true_count))})
          .Build();
  ASSERT_TRUE(session.ok());
  auto report = (*session)->RunToCompletion();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->deletions, StableSortPick(scores, active, max_deletions));
  EXPECT_EQ(report->iterations.size(), 4u);  // 13 + 13 + 13 + 1
}

TEST_F(SessionFixture, FixPhaseBudgetAboveActiveRowsTakesEveryActiveRow) {
  Dataset* train = pipeline()->train_data();
  std::vector<double> scores(train->size());
  for (size_t i = 0; i < scores.size(); ++i) scores[i] = i % 3 == 0 ? 2.0 : 1.0;
  // Seven active rows left, in two tie groups; the budget is 13.
  for (size_t i = 0; i < train->size(); ++i) {
    if (i % 53 != 1 || i == 1) train->Deactivate(i);
  }
  ASSERT_EQ(train->num_active(), 7u);
  const std::vector<uint8_t> active = ActiveFlags(*train);

  auto session =
      DebugSessionBuilder(pipeline())
          .ranker(std::make_unique<StubRanker>(
              [&scores](const RankContext&) { return scores; }))
          .top_k_per_iter(13)
          .max_deletions(40)
          .stop_when_resolved(false)
          .workload({CountComplaint(static_cast<double>(setup_.true_count))})
          .Build();
  ASSERT_TRUE(session.ok());
  auto step = (*session)->Step();
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_EQ(step->status, StepStatus::kIterated);
  EXPECT_EQ(step->new_deletions, StableSortPick(scores, active, 13));
  EXPECT_EQ(step->new_deletions.size(), 7u);
  EXPECT_EQ(train->num_active(), 0u);
}

TEST_F(SessionFixture, FixPhaseZeroBudgetEndsWithNoProgress) {
  const std::vector<double> scores = TiedScores(pipeline()->train_data()->size());
  auto session =
      DebugSessionBuilder(pipeline())
          .ranker(std::make_unique<StubRanker>(
              [&scores](const RankContext&) { return scores; }))
          .top_k_per_iter(0)
          .max_deletions(40)
          .stop_when_resolved(false)
          .workload({CountComplaint(static_cast<double>(setup_.true_count))})
          .Build();
  ASSERT_TRUE(session.ok());
  auto step = (*session)->Step();
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_EQ(step->status, StepStatus::kNoProgress);
  EXPECT_TRUE(step->new_deletions.empty());
  EXPECT_TRUE((*session)->finished());
  EXPECT_EQ((*session)->finish_status(), StepStatus::kNoProgress);
  EXPECT_TRUE((*session)->report().deletions.empty());
  EXPECT_EQ(pipeline()->train_data()->num_active(), pipeline()->train_data()->size());
}

TEST_F(SessionFixture, RankerScoreCountMismatchIsAnError) {
  auto session =
      DebugSessionBuilder(pipeline())
          .ranker(std::make_unique<StubRanker>([](const RankContext& ctx) {
            return std::vector<double>(ctx.train->size() - 1, 1.0);
          }))
          .stop_when_resolved(false)
          .workload({CountComplaint(static_cast<double>(setup_.true_count))})
          .Build();
  ASSERT_TRUE(session.ok());
  auto step = (*session)->Step();
  ASSERT_FALSE(step.ok());
  EXPECT_TRUE(step.status().IsInvalidArgument()) << step.status().ToString();
  EXPECT_NE(step.status().message().find("stub"), std::string::npos);
  EXPECT_TRUE((*session)->report().deletions.empty());
}

TEST_F(SessionFixture, RankerNonFiniteScoreOnActiveRowIsAnError) {
  Dataset* train = pipeline()->train_data();
  train->Deactivate(4);
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    auto session =
        DebugSessionBuilder(pipeline())
            .ranker(std::make_unique<StubRanker>([bad](const RankContext& ctx) {
              std::vector<double> scores(ctx.train->size(), 1.0);
              scores[4] = std::nan("");  // inactive: ignored
              scores[7] = bad;
              return scores;
            }))
            .stop_when_resolved(false)
            .workload({CountComplaint(static_cast<double>(setup_.true_count))})
            .Build();
    ASSERT_TRUE(session.ok());
    auto step = (*session)->Step();
    ASSERT_FALSE(step.ok()) << "score " << bad;
    EXPECT_TRUE(step.status().IsInvalidArgument()) << step.status().ToString();
    EXPECT_NE(step.status().message().find("stub"), std::string::npos);
    EXPECT_NE(step.status().message().find("row 7"), std::string::npos);
    EXPECT_TRUE((*session)->report().deletions.empty());
  }
  // The inactive row's NaN alone is fine.
  auto session =
      DebugSessionBuilder(pipeline())
          .ranker(std::make_unique<StubRanker>([](const RankContext& ctx) {
            std::vector<double> scores(ctx.train->size(), 1.0);
            scores[4] = std::nan("");
            return scores;
          }))
          .stop_when_resolved(false)
          .workload({CountComplaint(static_cast<double>(setup_.true_count))})
          .Build();
  ASSERT_TRUE(session.ok());
  auto step = (*session)->Step();
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_EQ(step->status, StepStatus::kIterated);
}

// ------------------------------------------------------ Hessian handoff

/// What HandoffCheckRanker saw over a session.
struct HandoffStats {
  int iterations = 0;
  int handed = 0;
  /// Handed Hessians that were not bitwise the one-pass Hessian at the
  /// model's current parameters and active rows.
  int stale = 0;
  /// Largest |handed - fresh| score gap, relative to the largest score.
  double max_rel_gap = 0.0;
};

/// Ranks with `method` on the session's context, then again on a copy
/// without the handed-off Hessian (the scorer forms its own), and records
/// how the two compare.
class HandoffCheckRanker : public Ranker {
 public:
  HandoffCheckRanker(const std::string& method, HandoffStats* stats)
      : handed_(MakeRanker(method).ValueOrDie()),
        fresh_(MakeRanker(method).ValueOrDie()),
        stats_(stats) {}
  std::string name() const override { return handed_->name(); }
  Result<RankOutput> Rank(const RankContext& ctx) override {
    ++stats_->iterations;
    if (ctx.data_hessian != nullptr) {
      ++stats_->handed;
      double loss = 0.0;
      Vec grad;
      Matrix current;
      RAIN_CHECK(ctx.model->MeanLossGradientHessian(*ctx.train, ctx.influence.l2, &loss,
                                                    &grad, &current));
      if (current.data() != ctx.data_hessian->data()) ++stats_->stale;
    }
    RAIN_ASSIGN_OR_RETURN(RankOutput out, handed_->Rank(ctx));
    RankContext fresh_ctx = ctx;
    fresh_ctx.data_hessian = nullptr;
    fresh_ctx.encode_cache = nullptr;
    RAIN_ASSIGN_OR_RETURN(RankOutput fresh, fresh_->Rank(fresh_ctx));
    RAIN_CHECK(fresh.scores.size() == out.scores.size());
    double scale = 0.0, gap = 0.0;
    for (size_t i = 0; i < out.scores.size(); ++i) {
      scale = std::max(scale, std::fabs(fresh.scores[i]));
      gap = std::max(gap, std::fabs(out.scores[i] - fresh.scores[i]));
    }
    stats_->max_rel_gap = std::max(stats_->max_rel_gap, scale > 0.0 ? gap / scale : gap);
    return out;
  }

 private:
  std::unique_ptr<Ranker> handed_;
  std::unique_ptr<Ranker> fresh_;
  HandoffStats* stats_;
};

TEST(HessianHandoffTest, HandedScoresEqualAFreshScorersOnFig5Workload) {
  for (const char* method : {"holistic", "twostep", "infloss"}) {
    DblpSetup setup = MakeCorruptedDblp();
    HandoffStats stats;
    auto session =
        DebugSessionBuilder(setup.pipeline.get())
            .ranker(std::make_unique<HandoffCheckRanker>(method, &stats))
            .top_k_per_iter(10)
            .max_deletions(50)
            .stop_when_resolved(false)
            .workload({CountComplaint(static_cast<double>(setup.true_count))})
            .Build();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto report = (*session)->RunToCompletion();
    ASSERT_TRUE(report.ok()) << method << ": " << report.status().ToString();
    // Every iteration retrains after the previous fix phase's deletions,
    // converges by Newton and hands its Hessian to the rank phase.
    EXPECT_EQ(stats.iterations, 5) << method;
    EXPECT_EQ(stats.handed, stats.iterations) << method;
    EXPECT_EQ(stats.stale, 0) << method;
    EXPECT_LE(stats.max_rel_gap, 1e-12) << method;
  }
}

// ---------------------------------------------------- warm Newton starts

std::unique_ptr<DebugSession> BuildFig5Session(const DblpSetup& setup,
                                               int max_deletions) {
  auto session = DebugSessionBuilder(setup.pipeline.get())
                     .ranker("holistic")
                     .top_k_per_iter(10)
                     .max_deletions(max_deletions)
                     .stop_when_resolved(false)
                     .workload({CountComplaint(static_cast<double>(setup.true_count))})
                     .Build();
  RAIN_CHECK(session.ok()) << session.status().ToString();
  return std::move(*session);
}

TEST(WarmNewtonTest, RetrainsMatchStatelessTrainsOnFig5Workload) {
  // Each step of the session retrains from the pass its previous train
  // left, downdated by the rows its fix phase deleted. A fresh session on
  // a twin pipeline, put at the same parameters, has no such pass and
  // trains from a full one: the same retrain without the warm start.
  DblpSetup setup = MakeCorruptedDblp();
  DblpSetup twin = MakeCorruptedDblp();
  auto session = BuildFig5Session(setup, 60);
  for (int iteration = 0; iteration < 6; ++iteration) {
    twin.pipeline->AdoptModelParams(setup.pipeline->model()->params());
    auto step = session->Step();
    ASSERT_TRUE(step.ok()) << step.status().ToString();
    auto stateless = BuildFig5Session(twin, 60)->Step();
    ASSERT_TRUE(stateless.ok()) << stateless.status().ToString();
    EXPECT_LT(vec::MaxAbsDiff(setup.pipeline->model()->params(),
                              twin.pipeline->model()->params()),
              1e-10)
        << "iteration " << iteration;
    ASSERT_EQ(step->new_deletions, stateless->new_deletions) << "iteration " << iteration;
    if (iteration > 0) {
      // The deletion batch is downdated instead of re-summed: one full pass
      // fewer than the stateless retrain.
      EXPECT_EQ(step->stats.train_evaluations + 1, stateless->stats.train_evaluations)
          << "iteration " << iteration;
    }
  }
}

TEST(WarmNewtonTest, WarmRetrainsMakeNoFirstPassUntilAFullRecompute) {
  DblpSetup setup = MakeCorruptedDblp();
  auto session = BuildFig5Session(setup, 100);
  ASSERT_TRUE(session->RunToCompletion(StopAfterIterations(5)).ok());
  const std::vector<IterationStats>& iterations = session->report().iterations;
  ASSERT_EQ(iterations.size(), 5u);
  // The session's first train has no pass to start from and confirms the
  // pipeline's optimum in one full pass. Every retrain after a deletion
  // batch starts from the downdated pass: its full passes are exactly the
  // Newton steps' trials, one per step, with no first pass before them.
  EXPECT_EQ(iterations[0].train_evaluations, 1);
  EXPECT_EQ(iterations[0].train_iterations, 0);
  for (size_t i = 1; i < iterations.size(); ++i) {
    EXPECT_GE(iterations[i].train_iterations, 1) << "iteration " << i;
    EXPECT_EQ(iterations[i].train_evaluations, iterations[i].train_iterations)
        << "iteration " << i;
  }

  // A full-recompute update restores the cold parameters and drops the
  // pass: the next retrain makes exactly the passes of a stateless train
  // from those parameters on the same rows.
  DblpSetup cold = MakeCorruptedDblp();
  UpdateBatch batch;
  batch.reactivate_rows = {session->report().deletions[0]};
  UpdateOptions full;
  full.policy = UpdatePolicy::kFull;
  ASSERT_TRUE(session->ApplyUpdate(batch, full).ok());
  for (size_t row : session->report().deletions) {
    if (!setup.pipeline->train_data()->active(row)) {
      cold.pipeline->train_data()->Deactivate(row);
    }
  }
  LogisticRegression reference(kDblpFeatures);
  reference.set_params(cold.pipeline->model()->params());
  auto stateless = TrainModel(&reference, *cold.pipeline->train_data(),
                              setup.pipeline->train_config());
  ASSERT_TRUE(stateless.ok());
  auto step = session->Step();
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_GT(stateless->evaluations, 1);
  EXPECT_EQ(step->stats.train_evaluations, stateless->evaluations);
}

// --------------------------------------------------------- batched bind

/// A Section 6.5-style multi-query workload over the DBLP pipeline: two
/// aggregate queries (equality + inequality complaints) plus a query-less
/// entry of point complaints.
std::vector<QueryComplaints> MultiQueryWorkload(int64_t true_count) {
  std::vector<QueryComplaints> workload;
  workload.push_back(CountComplaint(static_cast<double>(true_count)));
  QueryComplaints ge;
  ge.query = CountQuery();
  ge.complaints = {ComplaintSpec::ValueGe("cnt", static_cast<double>(true_count)),
                   ComplaintSpec::ValueLe("cnt", 1.0)};
  workload.push_back(ge);
  QueryComplaints points;  // no query: bind directly against predictions
  points.complaints = {ComplaintSpec::Point("dblp", 3, 1),
                       ComplaintSpec::Point("dblp", 11, 0)};
  workload.push_back(points);
  return workload;
}

/// The legacy sequential bind (pre-batching code path), inlined as the
/// reference: execute each query against the shared arena in order and
/// bind its complaints immediately.
Result<std::vector<BoundComplaint>> SequentialBindReference(
    Query2Pipeline* pipeline, const std::vector<QueryComplaints>& workload) {
  std::vector<BoundComplaint> bound;
  for (const QueryComplaints& qc : workload) {
    ExecResult result;
    if (qc.query != nullptr) {
      RAIN_ASSIGN_OR_RETURN(result, pipeline->Execute(qc.query, /*debug=*/true));
    }
    for (const ComplaintSpec& spec : qc.complaints) {
      RAIN_ASSIGN_OR_RETURN(
          std::vector<BoundComplaint> bc,
          BindComplaint(spec, result, pipeline->arena(), pipeline->predictions(),
                        pipeline->catalog()));
      bound.insert(bound.end(), bc.begin(), bc.end());
    }
  }
  return bound;
}

TEST_F(SessionFixture, BindWorkloadMatchesSequentialReferenceBitwise) {
  const std::vector<QueryComplaints> workload =
      MultiQueryWorkload(setup_.true_count);

  // Sequential reference on a fresh arena.
  pipeline()->ResetDebugState();
  auto ref = SequentialBindReference(pipeline(), workload);
  ASSERT_TRUE(ref.ok());
  ASSERT_FALSE(ref->empty());
  const size_t ref_nodes = pipeline()->arena()->num_nodes();
  const size_t ref_vars = pipeline()->arena()->num_vars();
  std::vector<std::string> ref_polys;
  for (const BoundComplaint& c : *ref) {
    ref_polys.push_back(pipeline()->arena()->ToString(c.poly));
  }

  // The batched bind must reproduce the arena and the bound complaints —
  // ids included — bit for bit, at every worker count.
  for (int threads : {1, 2, 8}) {
    pipeline()->ResetDebugState();
    auto batched = BindWorkload(pipeline(), workload, threads);
    ASSERT_TRUE(batched.ok()) << "threads " << threads;
    ASSERT_EQ(batched->size(), ref->size()) << "threads " << threads;
    EXPECT_EQ(pipeline()->arena()->num_nodes(), ref_nodes) << "threads " << threads;
    EXPECT_EQ(pipeline()->arena()->num_vars(), ref_vars) << "threads " << threads;
    for (size_t i = 0; i < ref->size(); ++i) {
      const BoundComplaint& r = (*ref)[i];
      const BoundComplaint& b = (*batched)[i];
      EXPECT_EQ(b.poly, r.poly) << "threads " << threads << " complaint " << i;
      EXPECT_EQ(b.op, r.op) << "complaint " << i;
      EXPECT_EQ(b.target, r.target) << "complaint " << i;
      EXPECT_EQ(b.current, r.current) << "complaint " << i;
      EXPECT_EQ(b.violated, r.violated) << "complaint " << i;
      EXPECT_EQ(pipeline()->arena()->ToString(b.poly), ref_polys[i])
          << "threads " << threads << " complaint " << i;
    }
  }
}

TEST_F(SessionFixture, BindWorkloadSurfacesFirstErrorInWorkloadOrder) {
  std::vector<QueryComplaints> workload = MultiQueryWorkload(setup_.true_count);
  // Entry 1 asks for an aggregate the query does not produce; entry 2 has
  // an out-of-range point complaint. The earlier error must win at every
  // worker count, regardless of which staged bind fails first.
  workload[1].complaints[0] = ComplaintSpec::ValueEq("no_such_agg", 1.0);
  workload[2].complaints[0] = ComplaintSpec::Point("dblp", 1 << 30, 1);
  for (int threads : {1, 8}) {
    pipeline()->ResetDebugState();
    const size_t nodes_before = pipeline()->arena()->num_nodes();
    auto bound = BindWorkload(pipeline(), workload, threads);
    ASSERT_FALSE(bound.ok()) << "threads " << threads;
    EXPECT_NE(bound.status().message().find("no_such_agg"), std::string::npos)
        << "threads " << threads << ": " << bound.status().message();
    // A failed bind must not leak partial provenance into the shared arena.
    EXPECT_EQ(pipeline()->arena()->num_nodes(), nodes_before)
        << "threads " << threads;
  }
}

// ------------------------------------------------ worker-count invariance
//
// Final parameters agree to about one ulp across worker counts (chunked
// reductions reassociate), so these sweeps pin the deletion sequence: the
// debugger's observable output must not depend on the worker count.

TEST(WorkerInvarianceTest, DblpFig5HolisticDeletionsAcrossWorkers) {
  auto run = [](int workers) {
    DblpSetup setup = MakeCorruptedDblp();
    auto session =
        DebugSessionBuilder(setup.pipeline.get())
            .ranker("holistic")
            .top_k_per_iter(10)
            .max_deletions(30)
            .set_execution(ExecutionOptions().set_parallelism(workers))
            .workload({CountComplaint(static_cast<double>(setup.true_count))})
            .Build();
    RAIN_CHECK(session.ok()) << session.status().ToString();
    auto report = (*session)->RunToCompletion();
    RAIN_CHECK(report.ok()) << report.status().ToString();
    return report->deletions;
  };
  const std::vector<size_t> ref = run(1);
  ASSERT_EQ(ref.size(), 30u);
  for (int workers : {2, 3, 4, 8}) {
    EXPECT_EQ(run(workers), ref) << "workers=" << workers;
  }
}

/// The Section 6.5 Adult multi-query workload: two AVG group-by
/// complaints plus two point complaints over one pipeline.
struct AdultSetup {
  std::vector<QueryComplaints> workload;
  std::function<std::unique_ptr<Query2Pipeline>()> make_pipeline;
};

double GroupValue(Query2Pipeline* pipeline, const std::string& sql,
                  const Value& key) {
  auto r = pipeline->ExecuteSql(sql, /*debug=*/false);
  RAIN_CHECK(r.ok()) << r.status().ToString();
  for (const auto& row : r->table.rows) {
    if (row[0] == key) return *row[1].ToNumeric();
  }
  RAIN_CHECK(false) << "group not found";
  return 0.0;
}

AdultSetup MakeAdultMultiQuery() {
  AdultConfig cfg;
  cfg.train_size = 600;
  cfg.query_size = 400;
  cfg.seed = 13;
  AdultData data = MakeAdult(cfg);

  const std::string gender_sql =
      "SELECT gender, AVG(predict(*)) AS avg_income FROM adult GROUP BY gender";
  const std::string age_sql =
      "SELECT agedecade, AVG(predict(*)) AS avg_income FROM adult GROUP BY "
      "agedecade";

  auto factory = [](const AdultData& d) {
    return [table = d.query_table, query = d.query, train = d.train]() {
      Catalog catalog;
      RAIN_CHECK(catalog.AddTable("adult", table, query).ok());
      TrainConfig tc;
      tc.l2 = 1e-3;
      return std::make_unique<Query2Pipeline>(
          std::move(catalog), std::make_unique<LogisticRegression>(kAdultFeatures),
          train, tc);
    };
  };

  double male_target = 0.0;
  double aged_target = 0.0;
  {
    auto clean = factory(data)();
    RAIN_CHECK(clean->Train().ok());
    male_target = GroupValue(clean.get(), gender_sql, Value(std::string("Male")));
    aged_target = GroupValue(clean.get(), age_sql, Value(int64_t{4}));
  }

  Rng rng(cfg.seed + 1);
  CorruptLabels(&data.train, AdultCorruptionCandidates(data), 0.3, 1, &rng);

  AdultSetup setup;
  setup.make_pipeline = factory(data);
  auto planning = setup.make_pipeline();

  QueryComplaints gender_qc;
  gender_qc.query = *sql::PlanQuery(gender_sql, planning->catalog());
  gender_qc.complaints = {ComplaintSpec::ValueEq("avg_income", male_target,
                                                 {Value(std::string("Male"))})};
  QueryComplaints age_qc;
  age_qc.query = *sql::PlanQuery(age_sql, planning->catalog());
  age_qc.complaints = {
      ComplaintSpec::ValueEq("avg_income", aged_target, {Value(int64_t{4})})};
  QueryComplaints points;
  points.complaints = {ComplaintSpec::Point("adult", 3, 0),
                       ComplaintSpec::Point("adult", 11, 0)};
  setup.workload = {gender_qc, age_qc, points};
  return setup;
}

TEST(WorkerInvarianceTest, AdultMultiQueryDeletionsAcrossWorkers) {
  AdultSetup setup = MakeAdultMultiQuery();
  auto run = [&](int workers) {
    auto pipeline = setup.make_pipeline();
    RAIN_CHECK(pipeline->Train().ok());
    auto session = DebugSessionBuilder(pipeline.get())
                       .ranker("holistic")
                       .top_k_per_iter(10)
                       .max_deletions(20)
                       .set_execution(ExecutionOptions().set_parallelism(workers))
                       .workload(setup.workload)
                       .Build();
    RAIN_CHECK(session.ok()) << session.status().ToString();
    auto report = (*session)->RunToCompletion();
    RAIN_CHECK(report.ok()) << report.status().ToString();
    return report->deletions;
  };
  const std::vector<size_t> ref = run(1);
  ASSERT_FALSE(ref.empty());
  for (int workers : {2, 3, 4, 8}) {
    EXPECT_EQ(run(workers), ref) << "workers=" << workers;
  }
}

// ------------------------------------------------- bind-phase parallelism

TEST(BindParallelismTest, DeletionSequenceBitwiseOnFig5Workload) {
  // Drives the train-rank-fix loop manually on twin pipelines so ONLY the
  // bind worker count differs (training, the Holistic encode and the
  // CG/influence solve stay sequential on both sides): the batched
  // parallel bind must reproduce the sequential deletion sequence bit for
  // bit.
  DblpSetup seq = MakeCorruptedDblp();
  DblpSetup par = MakeCorruptedDblp();
  const std::vector<QueryComplaints> seq_workload =
      MultiQueryWorkload(seq.true_count);
  const std::vector<QueryComplaints> par_workload =
      MultiQueryWorkload(par.true_count);

  auto ranker = MakeHolisticRanker();
  std::vector<size_t> seq_deletions, par_deletions;
  constexpr int kTopK = 10;
  for (int iter = 0; iter < 3; ++iter) {
    auto run_side = [&](Query2Pipeline* pipeline,
                        const std::vector<QueryComplaints>& workload,
                        int bind_threads) -> std::vector<double> {
      EXPECT_TRUE(pipeline->Train().ok());
      pipeline->ResetDebugState();
      auto bound = BindWorkload(pipeline, workload, bind_threads);
      EXPECT_TRUE(bound.ok());
      RankContext ctx;
      ctx.model = pipeline->model();
      ctx.train = pipeline->train_data();
      ctx.catalog = &pipeline->catalog();
      ctx.arena = pipeline->arena();
      ctx.predictions = &pipeline->predictions();
      ctx.complaints = &*bound;
      ctx.influence.l2 = 1e-3;
      auto out = ranker->Rank(ctx);
      EXPECT_TRUE(out.ok());
      return out->scores;
    };
    const std::vector<double> seq_scores = run_side(seq.pipeline.get(), seq_workload, 1);
    const std::vector<double> par_scores = run_side(par.pipeline.get(), par_workload, 8);
    ASSERT_EQ(seq_scores, par_scores) << "iteration " << iter;

    // Fix phase: delete the top-k on both sides (identical by the above).
    std::vector<size_t> order(seq_scores.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return seq_scores[a] > seq_scores[b];
    });
    int removed = 0;
    for (size_t idx : order) {
      if (removed >= kTopK) break;
      if (!seq.pipeline->train_data()->active(idx)) continue;
      seq.pipeline->train_data()->Deactivate(idx);
      par.pipeline->train_data()->Deactivate(idx);
      seq_deletions.push_back(idx);
      par_deletions.push_back(idx);
      ++removed;
    }
  }
  EXPECT_EQ(seq_deletions.size(), 30u);
  EXPECT_EQ(seq_deletions, par_deletions);
}

// --------------------------------------------- observer re-entrancy guard

#if defined(__SANITIZE_THREAD__)
#define RAIN_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RAIN_TSAN_BUILD 1
#endif
#endif

// Death tests fork, which TSan's runtime does not support reliably.
#ifndef RAIN_TSAN_BUILD

/// An observer that (incorrectly) re-enters the session from a callback.
class ReentrantObserver : public DebugObserver {
 public:
  explicit ReentrantObserver(DebugSession** session) : session_(session) {}
  void OnPhaseComplete(int, DebugPhase, double) override {
    (void)(*session_)->Step();  // contract violation: must RAIN_CHECK-fail
  }

 private:
  DebugSession** session_;
};

TEST(ObserverReentrancyDeathTest, ReenteringStepFromCallbackIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DblpSetup setup = MakeCorruptedDblp();
  DebugSession* raw = nullptr;
  ReentrantObserver evil(&raw);
  auto session =
      DebugSessionBuilder(setup.pipeline.get())
          .ranker("holistic")
          .max_deletions(10)
          .set_execution(ExecutionOptions().add_observer(&evil))
          .workload({CountComplaint(static_cast<double>(setup.true_count))})
          .Build();
  ASSERT_TRUE(session.ok());
  raw = session->get();
  EXPECT_DEATH((void)raw->Step(), "re-entered from a DebugObserver callback");
}

#endif  // RAIN_TSAN_BUILD

}  // namespace
}  // namespace rain
