/// End-to-end determinism on a generated scale-N workload
/// (src/data/scale_gen.h, scale 0.1 = 10^4 Adult training rows): the
/// debugger's deletion sequence must be identical to the 1-worker
/// reference at every worker count. This is the session-level pin for the
/// fixed-cost work (grain-size control, scratch reuse): none of it may
/// move a single deletion. A second check pins the batched bind of the
/// workload's many point complaints: the Holistic scores after it are
/// bitwise those after a 1-worker bind.
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/ranker.h"
#include "core/session.h"
#include "data/scale_gen.h"
#include "gtest/gtest.h"
#include "ml/logistic_regression.h"
#include "ml/trainer.h"

namespace rain {
namespace {

/// The scale-0.1 Adult workload, generated once for the whole suite
/// (generation itself is pinned worker-invariant by scale_gen_test).
const scale::ScaledWorkload& Workload() {
  static const scale::ScaledWorkload* workload = [] {
    scale::ScaleConfig config;
    config.scale = 0.1;
    config.seed = 29;
    config.workers = 2;
    return new scale::ScaledWorkload(scale::ScaledAdult(config));
  }();
  return *workload;
}

std::unique_ptr<Query2Pipeline> MakePipeline(const scale::ScaledWorkload& w) {
  Catalog catalog;
  for (const scale::ScaledTable& t : w.tables) {
    RAIN_CHECK(catalog.AddTable(t.name, t.table, t.features).ok());
  }
  // Capped iterations keep the repeated retrains cheap; every run uses
  // the same cap, so the theta sequence is identical across configs.
  TrainConfig tc;
  tc.max_iters = 60;
  auto model = std::make_unique<LogisticRegression>(w.train.num_features());
  return std::make_unique<Query2Pipeline>(std::move(catalog), std::move(model),
                                          w.train, tc);
}

/// One full debug run at `workers`; returns the deletion sequence.
std::vector<size_t> RunOnce(int workers) {
  const scale::ScaledWorkload& w = Workload();
  auto pipeline = MakePipeline(w);
  RAIN_CHECK(pipeline->Train().ok());
  auto session = DebugSessionBuilder(pipeline.get())
                     .ranker("holistic")
                     .top_k_per_iter(10)
                     .max_deletions(20)
                     .set_execution(ExecutionOptions().set_parallelism(workers))
                     .workload(w.workload)
                     .Build();
  RAIN_CHECK(session.ok()) << session.status().ToString();
  auto report = (*session)->RunToCompletion();
  RAIN_CHECK(report.ok()) << report.status().ToString();
  return report->deletions;
}

class ScaleSessionTest : public ::testing::Test {
 protected:
  /// Reference: 1 worker.
  static const std::vector<size_t>& Reference() {
    static const std::vector<size_t> ref = RunOnce(1);
    return ref;
  }
};

TEST_F(ScaleSessionTest, ReferenceRunDeletesCorruptedRows) {
  const std::vector<size_t>& ref = Reference();
  ASSERT_FALSE(ref.empty());
  // The workload is debuggable, not just runnable: the complaint-driven
  // ranking must actually surface planted corruption.
  size_t hits = 0;
  for (size_t d : ref) {
    for (size_t c : Workload().corrupted) hits += (d == c);
  }
  EXPECT_GT(hits, 0u) << "no deleted row was a corrupted row";
}

TEST_F(ScaleSessionTest, SyncDeletionSequenceInvariantAcrossWorkers) {
  for (int workers : {2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EXPECT_EQ(RunOnce(workers), Reference());
  }
}

TEST(ScaleBindTest, HolisticScoresBitwiseAcrossBindWorkers) {
  const scale::ScaledWorkload& w = Workload();
  auto pipeline = MakePipeline(w);
  ASSERT_TRUE(pipeline->Train().ok());
  auto holistic = MakeHolisticRanker();
  auto scores_after_bind = [&](int threads) {
    pipeline->ResetDebugState();
    auto bound = BindWorkload(pipeline.get(), w.workload, threads);
    RAIN_CHECK(bound.ok()) << bound.status().ToString();
    RankContext ctx;
    ctx.model = pipeline->model();
    ctx.train = pipeline->train_data();
    ctx.catalog = &pipeline->catalog();
    ctx.arena = pipeline->arena();
    ctx.predictions = &pipeline->predictions();
    ctx.complaints = &*bound;
    ctx.influence.l2 = pipeline->train_config().l2;
    auto out = holistic->Rank(ctx);
    RAIN_CHECK(out.ok()) << out.status().ToString();
    return out->scores;
  };
  const std::vector<double> ref = scores_after_bind(1);
  ASSERT_EQ(ref.size(), w.train.size());
  for (int threads : {2, 8}) {
    EXPECT_EQ(scores_after_bind(threads), ref) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace rain
