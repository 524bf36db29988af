/// Incremental engine semantics (src/incremental/, DebugSession::ApplyUpdate):
/// delta application, auto/incremental/full policy, incremental-vs-full
/// deletion-sequence equivalence on DBLP and Adult, worker invariance
/// of the incremental path, delta-proportional bind work, exact train-skip
/// memoization, warm Newton starts across updates, tombstoning, COW
/// label-edit isolation, and validation atomicity.
#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/complaint.h"
#include "core/pipeline.h"
#include "core/session.h"
#include "data/corruption.h"
#include "data/dblp.h"
#include "gtest/gtest.h"
#include "incremental/update.h"
#include "ml/logistic_regression.h"
#include "serve/builtin_datasets.h"
#include "serve/debug_service.h"

namespace rain {
namespace {

/// Same seeded fixture as session_test: DBLP with 50% of the match labels
/// flipped, complained about through a COUNT query. Two constructions are
/// bitwise-identical, which is what makes pairwise session comparisons
/// meaningful.
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

/// A complaint that holds under any model: COUNT >= 0.
QueryComplaints TriviallySatisfiedComplaint() {
  QueryComplaints qc;
  qc.query = CountQuery();
  qc.complaints = {ComplaintSpec::ValueEq("cnt", 0)};
  qc.complaints[0].op = ComplaintOp::kGe;
  return qc;
}

std::unique_ptr<DebugSession> BuildSession(Query2Pipeline* pipeline,
                                           double target, int max_deletions,
                                           int parallelism = 1) {
  auto built = DebugSessionBuilder(pipeline)
                   .ranker("holistic")
                   .top_k_per_iter(10)
                   .max_deletions(max_deletions)
                   .max_iterations(100)
                   .set_execution(ExecutionOptions().set_parallelism(parallelism))
                   .workload({CountComplaint(target)})
                   .Build();
  RAIN_CHECK(built.ok()) << built.status().ToString();
  return std::move(*built);
}

/// Reverts the first `k` corrupted labels back to 1 — a realistic
/// "the analyst fixed some rows upstream" delta.
UpdateBatch RevertCorruptionBatch(const std::vector<size_t>& corrupted,
                                  size_t k) {
  UpdateBatch batch;
  for (size_t i = 0; i < k && i < corrupted.size(); ++i) {
    batch.label_edits.push_back(LabelEdit{corrupted[i], 1});
  }
  return batch;
}

// ------------------------------------------------- incremental vs full

/// The core acceptance property: after the same delta, the O(delta)
/// incremental path and the from-scratch full path converge to the same
/// deletion sequence. (Intermediate training trajectories may differ in
/// low-order bits — warm vs cold L-BFGS starts — which is why the
/// contract compares deletion sequences, not floats.)
TEST(IncrementalVsFull, SameDeletionSequenceAfterLabelDeltaDblp) {
  DblpSetup a = MakeCorruptedDblp();
  DblpSetup b = MakeCorruptedDblp();
  const double target = static_cast<double>(a.true_count);
  auto inc = BuildSession(a.pipeline.get(), target, 80);
  auto full = BuildSession(b.pipeline.get(), target, 80);

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(inc->Step().ok());
    ASSERT_TRUE(full->Step().ok());
  }
  ASSERT_EQ(inc->report().deletions, full->report().deletions);

  const UpdateBatch batch = RevertCorruptionBatch(a.corrupted, 8);
  UpdateOptions inc_opts;
  inc_opts.policy = UpdatePolicy::kIncremental;
  UpdateOptions full_opts;
  full_opts.policy = UpdatePolicy::kFull;
  auto inc_rep = inc->ApplyUpdate(batch, inc_opts);
  auto full_rep = full->ApplyUpdate(batch, full_opts);
  ASSERT_TRUE(inc_rep.ok());
  ASSERT_TRUE(full_rep.ok());
  EXPECT_TRUE(inc_rep->incremental);
  EXPECT_FALSE(full_rep->incremental);
  EXPECT_EQ(inc_rep->touched_rows, 8u);
  // The incremental session kept its primed bind cache; the full session
  // dropped everything.
  EXPECT_GT(inc_rep->entries_cached, 0u);
  EXPECT_EQ(full_rep->entries_cached, 0u);

  ASSERT_TRUE(inc->RunToCompletion().ok());
  ASSERT_TRUE(full->RunToCompletion().ok());
  EXPECT_EQ(inc->report().deletions, full->report().deletions);
}

TEST(IncrementalVsFull, SameDeletionSequenceAfterLabelDeltaAdult) {
  serve::HostedDataset hosted =
      serve::MakeAdultHostedDataset(600, 300, 0.3, 13);
  auto pa = serve::MakeSessionPipeline(hosted);
  auto pb = serve::MakeSessionPipeline(hosted);
  auto build = [&](Query2Pipeline* p) {
    auto built = DebugSessionBuilder(p)
                     .ranker("holistic")
                     .top_k_per_iter(10)
                     .max_deletions(60)
                     .max_iterations(50)
                     .workload(hosted.default_workload)
                     .Build();
    RAIN_CHECK(built.ok()) << built.status().ToString();
    return std::move(*built);
  };
  auto inc = build(pa.get());
  auto full = build(pb.get());
  ASSERT_TRUE(inc->Step().ok());
  ASSERT_TRUE(full->Step().ok());
  ASSERT_EQ(inc->report().deletions, full->report().deletions);

  // A 16-row delta: flip the first 16 training labels to class 1.
  UpdateBatch batch;
  for (size_t r = 0; r < 16; ++r) batch.label_edits.push_back(LabelEdit{r, 1});
  UpdateOptions inc_opts;
  inc_opts.policy = UpdatePolicy::kIncremental;
  UpdateOptions full_opts;
  full_opts.policy = UpdatePolicy::kFull;
  ASSERT_TRUE(inc->ApplyUpdate(batch, inc_opts).ok());
  ASSERT_TRUE(full->ApplyUpdate(batch, full_opts).ok());

  ASSERT_TRUE(inc->RunToCompletion().ok());
  ASSERT_TRUE(full->RunToCompletion().ok());
  EXPECT_EQ(inc->report().deletions, full->report().deletions);
}

/// Within the incremental path, deletion sequences are invariant across
/// worker counts (the deterministic-chunk contract extends to the delta
/// machinery).
TEST(IncrementalVsFull, IncrementalPathInvariantAcrossWorkers) {
  std::vector<size_t> reference;
  for (int workers : {1, 2, 8}) {
    DblpSetup setup = MakeCorruptedDblp();
    auto session = BuildSession(setup.pipeline.get(),
                                static_cast<double>(setup.true_count), 60, workers);
    ASSERT_TRUE(session->Step().ok());
    UpdateOptions opts;
    opts.policy = UpdatePolicy::kIncremental;
    ASSERT_TRUE(
        session->ApplyUpdate(RevertCorruptionBatch(setup.corrupted, 8), opts).ok());
    ASSERT_TRUE(session->RunToCompletion().ok());
    if (reference.empty()) {
      reference = session->report().deletions;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(session->report().deletions, reference) << "workers=" << workers;
    }
  }
}

// ------------------------------------------------- delta-proportional bind

/// The AddComplaints regression (satellite): appending one complaint to a
/// primed session re-executes ONLY the new entry; the existing entries are
/// refreshed from the bind cache.
TEST(DeltaBind, AddComplaintsBindsOnlyTheDelta) {
  DblpSetup setup = MakeCorruptedDblp();
  auto session = BuildSession(setup.pipeline.get(),
                              static_cast<double>(setup.true_count), 80);
  ASSERT_TRUE(session->Step().ok());
  const BindCacheStats& stats = session->bind_cache_stats();
  EXPECT_EQ(stats.full_binds, 1u);
  EXPECT_EQ(stats.entries_rebound, 1u);
  EXPECT_EQ(stats.entries_reused, 0u);

  session->AddComplaints(TriviallySatisfiedComplaint());
  ASSERT_TRUE(session->Step().ok());
  // One more rebound entry (the delta), one reuse (the original): bind
  // work proportional to the delta, not the workload.
  EXPECT_EQ(stats.full_binds, 1u);
  EXPECT_EQ(stats.entries_rebound, 2u);
  EXPECT_EQ(stats.entries_reused, 1u);

  ASSERT_TRUE(session->Step().ok());
  // Steady state: everything reuses, nothing re-executes.
  EXPECT_EQ(stats.entries_rebound, 2u);
  EXPECT_EQ(stats.entries_reused, 3u);
  // The encode cache kicked in once roots stabilized across rank turns.
  EXPECT_GT(session->encode_reuses(), 0u);
}

TEST(DeltaBind, RemoveQueryTombstonesWithoutFullRebind) {
  DblpSetup setup = MakeCorruptedDblp();
  auto built = DebugSessionBuilder(setup.pipeline.get())
                   .ranker("holistic")
                   .top_k_per_iter(10)
                   .max_deletions(60)
                   .max_iterations(100)
                   .workload({CountComplaint(static_cast<double>(setup.true_count)),
                              TriviallySatisfiedComplaint()})
                   .Build();
  ASSERT_TRUE(built.ok());
  auto session = std::move(*built);
  ASSERT_TRUE(session->Step().ok());
  const BindCacheStats& stats = session->bind_cache_stats();
  EXPECT_EQ(stats.full_binds, 1u);
  EXPECT_EQ(stats.tombstoned_complaints, 0u);

  ASSERT_TRUE(session->RemoveQuery(1));
  EXPECT_GE(stats.tombstoned_complaints, 1u);
  ASSERT_TRUE(session->Step().ok());
  // The retraction tombstoned arena nodes in place: no full rebind, the
  // surviving entry was served from the cache.
  EXPECT_EQ(stats.full_binds, 1u);
  EXPECT_GE(stats.entries_reused, 1u);
}

// ------------------------------------------------- train-skip memoization

/// A workload-only delta keeps the converged training state: the next
/// turn's train phase is an exact no-op (L-BFGS re-entered at a converged
/// point returns the parameters untouched, so skipping it is bitwise).
TEST(TrainMemo, WorkloadOnlyUpdateSkipsRetraining) {
  DblpSetup setup = MakeCorruptedDblp();
  auto built = DebugSessionBuilder(setup.pipeline.get())
                   .ranker("holistic")
                   .top_k_per_iter(10)
                   .max_deletions(400)
                   .max_iterations(100)
                   .stop_when_resolved()
                   .workload({TriviallySatisfiedComplaint()})
                   .Build();
  ASSERT_TRUE(built.ok());
  auto session = std::move(*built);
  auto first = session->Step();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status, StepStatus::kResolved);
  EXPECT_GT(first->stats.train_seconds, 0.0);

  UpdateBatch batch;
  batch.add_queries.push_back(TriviallySatisfiedComplaint());
  auto rep = session->ApplyUpdate(batch);
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(rep->incremental);
  EXPECT_TRUE(rep->reopened);
  EXPECT_EQ(rep->touched_rows, 0u);
  ASSERT_FALSE(session->finished());

  auto second = session->Step();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, StepStatus::kResolved);
  // Exact train skip: no data delta invalidated the memo.
  EXPECT_EQ(second->stats.train_seconds, 0.0);
}

TEST(TrainMemo, DataDeltaInvalidatesTheMemo) {
  DblpSetup setup = MakeCorruptedDblp();
  auto built = DebugSessionBuilder(setup.pipeline.get())
                   .ranker("holistic")
                   .max_deletions(400)
                   .max_iterations(100)
                   .stop_when_resolved()
                   .workload({TriviallySatisfiedComplaint()})
                   .Build();
  ASSERT_TRUE(built.ok());
  auto session = std::move(*built);
  ASSERT_TRUE(session->Step().ok());

  UpdateBatch batch = RevertCorruptionBatch(setup.corrupted, 4);
  auto rep = session->ApplyUpdate(batch);
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(rep->incremental);
  auto second = session->Step();
  ASSERT_TRUE(second.ok());
  // The labels changed, so the warm retrain actually ran.
  EXPECT_GT(second->stats.train_seconds, 0.0);
}

// ------------------------------------------------- warm Newton start

TEST(WarmNewtonStart, IncrementalUpdateRetrainsLikeAStatelessTrain) {
  DblpSetup a = MakeCorruptedDblp();
  DblpSetup b = MakeCorruptedDblp();
  const double target = static_cast<double>(a.true_count);
  auto session = BuildSession(a.pipeline.get(), target, 200);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(session->Step().ok());
  const std::vector<size_t> deleted = session->report().deletions;
  Dataset* twin = b.pipeline->train_data();
  for (size_t row : deleted) twin->Deactivate(row);

  // Relabel two deleted rows and bring them back, delete one more: the
  // pass is downdated by all three, the relabelled rows under their new
  // labels.
  size_t extra = 0;
  while (!twin->active(extra)) ++extra;
  UpdateBatch batch;
  for (size_t row : {deleted[0], deleted[1]}) {
    batch.label_edits.push_back(LabelEdit{row, 1 - twin->label(row)});
    batch.reactivate_rows.push_back(row);
  }
  batch.deactivate_rows.push_back(extra);
  UpdateOptions incremental;
  incremental.policy = UpdatePolicy::kIncremental;
  ASSERT_TRUE(session->ApplyUpdate(batch, incremental).ok());
  for (const LabelEdit& e : batch.label_edits) twin->set_label(e.row, e.new_label);
  for (size_t row : batch.reactivate_rows) twin->Reactivate(row);
  twin->Deactivate(extra);

  // A fresh session on the twin holds no pass: a stateless retrain from
  // the same parameters on the same rows.
  b.pipeline->AdoptModelParams(a.pipeline->model()->params());
  auto step = session->Step();
  auto stateless = BuildSession(b.pipeline.get(), target, 200)->Step();
  ASSERT_TRUE(step.ok());
  ASSERT_TRUE(stateless.ok());
  EXPECT_LT(vec::MaxAbsDiff(a.pipeline->model()->params(), b.pipeline->model()->params()),
            1e-10);
  EXPECT_EQ(step->new_deletions, stateless->new_deletions);
  EXPECT_EQ(step->stats.train_evaluations, step->stats.train_iterations);
  EXPECT_EQ(step->stats.train_evaluations + 1, stateless->stats.train_evaluations);

  // A label edit on an active row drops the start: a full first pass.
  UpdateBatch relabel;
  relabel.label_edits.push_back(LabelEdit{extra + 1, 1 - twin->label(extra + 1)});
  ASSERT_TRUE(a.pipeline->train_data()->active(extra + 1));
  ASSERT_TRUE(session->ApplyUpdate(relabel, incremental).ok());
  auto relabelled = session->Step();
  ASSERT_TRUE(relabelled.ok());
  EXPECT_EQ(relabelled->stats.train_evaluations,
            relabelled->stats.train_iterations + 1);
}

// ------------------------------------------------- policy + delta log

TEST(UpdatePolicyTest, AutoThresholdsOnTouchedFraction) {
  DblpSetup setup = MakeCorruptedDblp();
  auto session = BuildSession(setup.pipeline.get(),
                              static_cast<double>(setup.true_count), 60);
  ASSERT_TRUE(session->Step().ok());

  // 1 touched row out of 400: far below the default 25% threshold.
  auto small = session->ApplyUpdate(RevertCorruptionBatch(setup.corrupted, 1));
  ASSERT_TRUE(small.ok());
  EXPECT_TRUE(small->incremental);

  // 200 touched rows out of 400: above the threshold, auto goes full.
  UpdateBatch big;
  for (size_t r = 0; r < 200; ++r) {
    big.label_edits.push_back(LabelEdit{r, setup.pipeline->train_data()->label(r)});
  }
  auto large = session->ApplyUpdate(big);
  ASSERT_TRUE(large.ok());
  EXPECT_FALSE(large->incremental);
  EXPECT_EQ(large->entries_cached, 0u);

  // Both batches (plus nothing else) are journaled.
  EXPECT_EQ(session->delta_log().size(), 2u);
  EXPECT_EQ(session->delta_log().total_touched(), 201u);
  // The session survives a full reset mid-flight.
  ASSERT_TRUE(session->RunToCompletion().ok());
}

// ------------------------------------------------- COW label isolation

/// Dataset::set_label detaches shared storage: a hosted session editing
/// its COW view never leaks the edit to sibling views or the registered
/// base dataset, while its own incremental path sees it immediately.
TEST(CowIsolation, LabelEditDetachesFromSiblings) {
  serve::HostedDataset hosted = serve::MakeDblpHostedDataset(300, 150, 0.3, 7);
  const int original = hosted.train.label(5);

  auto pipeline = serve::MakeSessionPipeline(hosted);
  Dataset sibling = hosted.train.View();
  ASSERT_TRUE(sibling.SharesStorageWith(hosted.train));

  auto built = DebugSessionBuilder(pipeline.get())
                   .ranker("holistic")
                   .max_deletions(40)
                   .max_iterations(20)
                   .workload(hosted.default_workload)
                   .Build();
  ASSERT_TRUE(built.ok());
  auto session = std::move(*built);
  ASSERT_TRUE(session->Step().ok());

  UpdateBatch batch;
  batch.label_edits.push_back(LabelEdit{5, 1 - original});
  ASSERT_TRUE(session->ApplyUpdate(batch).ok());

  // The detaching session sees the edit...
  EXPECT_EQ(pipeline->train_data()->label(5), 1 - original);
  EXPECT_FALSE(pipeline->train_data()->SharesStorageWith(hosted.train));
  // ...and nobody else does.
  EXPECT_EQ(hosted.train.label(5), original);
  EXPECT_EQ(sibling.label(5), original);
  EXPECT_TRUE(sibling.SharesStorageWith(hosted.train));

  // The session keeps debugging the edited view.
  ASSERT_TRUE(session->RunToCompletion().ok());
}

// ------------------------------------------------- validation atomicity

TEST(UpdateValidation, ErrorsLeaveTheSessionUnchanged) {
  DblpSetup setup = MakeCorruptedDblp();
  auto session = BuildSession(setup.pipeline.get(),
                              static_cast<double>(setup.true_count), 60);
  ASSERT_TRUE(session->Step().ok());
  const size_t n = setup.pipeline->train_data()->size();
  const int label0 = setup.pipeline->train_data()->label(0);

  // A batch mixing one valid edit with one invalid row must apply NOTHING.
  UpdateBatch bad_row;
  bad_row.label_edits.push_back(LabelEdit{0, 1 - label0});
  bad_row.deactivate_rows.push_back(n + 7);
  EXPECT_EQ(session->ApplyUpdate(bad_row).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(setup.pipeline->train_data()->label(0), label0);

  UpdateBatch bad_label;
  bad_label.label_edits.push_back(LabelEdit{0, 99});
  EXPECT_EQ(session->ApplyUpdate(bad_label).status().code(),
            StatusCode::kInvalidArgument);

  UpdateBatch bad_remove;
  bad_remove.remove_queries.push_back(42);
  EXPECT_EQ(session->ApplyUpdate(bad_remove).status().code(),
            StatusCode::kInvalidArgument);

  // Failed updates are not journaled.
  EXPECT_EQ(session->delta_log().size(), 0u);
  ASSERT_TRUE(session->RunToCompletion().ok());
}

}  // namespace
}  // namespace rain
