/// Quickstart: the smallest end-to-end Rain session.
///
/// 1. Build a queried table + feature dataset and register them.
/// 2. Train a logistic regression inside a Query2Pipeline.
/// 3. Run a Query 2.0 SQL statement embedding model inference.
/// 4. File a complaint about the aggregate, build a DebugSession, and
///    step the train-rank-fix loop while streaming progress — the session
///    returns the training records whose removal best addresses the
///    complaint.
#include <cstdio>

#include "common/rng.h"
#include "core/complaint.h"
#include "core/pipeline.h"
#include "core/ranker.h"
#include "core/session.h"
#include "ml/logistic_regression.h"
#include "sql/planner.h"

using namespace rain;  // NOLINT

/// Streams the per-iteration progress of the session as it runs. Phase
/// timings go to stderr, so stdout is the same on every run.
class QuickstartObserver : public DebugObserver {
 public:
  void OnPhaseComplete(int iteration, DebugPhase phase, double seconds) override {
    std::fprintf(stderr, "  iter %d: %-5s %.3fs\n", iteration, DebugPhaseName(phase),
                 seconds);
  }
};

int main() {
  // --- 1. Synthesize a tiny binary task: y = [x0 + x1 > 0]. ---
  Rng rng(42);
  auto make_split = [&](size_t n) {
    Matrix x(n, 2);
    std::vector<int> y(n);
    for (size_t i = 0; i < n; ++i) {
      x.At(i, 0) = rng.Gaussian();
      x.At(i, 1) = rng.Gaussian();
      y[i] = x.At(i, 0) + x.At(i, 1) > 0 ? 1 : 0;
    }
    return Dataset(std::move(x), std::move(y), 2);
  };
  Dataset train = make_split(400);
  Dataset queried = make_split(200);

  // Count the true positives for the complaint later.
  int64_t true_count = 0;
  for (size_t i = 0; i < queried.size(); ++i) true_count += queried.label(i);

  // Corrupt: flip 40% of the positive training labels (systematic error).
  std::vector<size_t> corrupted;
  for (size_t i = 0; i < train.size(); ++i) {
    if (train.label(i) == 1 && rng.Bernoulli(0.4)) {
      train.set_label(i, 0);
      corrupted.push_back(i);
    }
  }
  std::printf("injected %zu corrupted training labels\n", corrupted.size());

  // --- 2. Register the queried table (id column + aligned features). ---
  Table users(Schema({Field{"id", DataType::kInt64, ""}}));
  for (size_t i = 0; i < queried.size(); ++i) {
    users.AppendRowUnchecked({Value(static_cast<int64_t>(i))});
  }
  Catalog catalog;
  if (!catalog.AddTable("users", std::move(users), std::move(queried)).ok()) return 1;

  Query2Pipeline pipeline(std::move(catalog),
                          std::make_unique<LogisticRegression>(2), std::move(train));
  if (!pipeline.Train().ok()) return 1;

  // --- 3. Query 2.0: SQL with embedded model inference. ---
  const std::string sql = "SELECT COUNT(*) AS positives FROM users WHERE predict(*) = 1";
  auto result = pipeline.ExecuteSql(sql, /*debug=*/false);
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const int64_t observed = result->table.rows[0][0].AsInt64();
  std::printf("query: %s\n  -> %lld (ground truth would be %lld)\n", sql.c_str(),
              static_cast<long long>(observed), static_cast<long long>(true_count));

  // --- 4. Complain and debug. ---
  auto plan = sql::PlanQuery(sql, pipeline.catalog());
  if (!plan.ok()) return 1;
  QueryComplaints qc;
  qc.query = *plan;
  qc.complaints = {
      ComplaintSpec::ValueEq("positives", static_cast<double>(true_count))};

  QuickstartObserver progress;
  auto session = DebugSessionBuilder(&pipeline)
                     .ranker(MakeHolisticRanker())
                     .top_k_per_iter(10)
                     .max_deletions(static_cast<int>(corrupted.size()))
                     .set_execution(ExecutionOptions().add_observer(&progress))
                     .workload({qc})
                     .Build();
  if (!session.ok()) {
    std::printf("building the session failed: %s\n",
                session.status().ToString().c_str());
    return 1;
  }

  // Drive the loop one observable iteration at a time. Between steps the
  // session can be cancelled, given a deadline, or handed more complaints
  // (AddComplaints) — here we just step until it finishes.
  while (!(*session)->finished()) {
    auto step = (*session)->Step();
    if (!step.ok()) {
      std::printf("debugging failed: %s\n", step.status().ToString().c_str());
      return 1;
    }
    if (!step->new_deletions.empty()) {
      std::printf("  iter %d removed %zu records (|D|=%zu)\n",
                  (*session)->iterations_completed() - 1,
                  step->new_deletions.size(), step->stats.deletions_after);
    }
  }
  const DebugReport& report = (*session)->report();

  size_t hits = 0;
  {
    std::vector<bool> truth(pipeline.train_data()->size(), false);
    for (size_t i : corrupted) truth[i] = true;
    for (size_t i : report.deletions) hits += truth[i];
  }
  std::printf("debugger removed %zu records; %zu were true corruptions (%.0f%%)\n",
              report.deletions.size(), hits,
              100.0 * hits / report.deletions.size());

  auto after = pipeline.ExecuteSql(sql, false);
  if (after.ok()) {
    std::printf("count after debugging: %lld\n",
                static_cast<long long>(after->table.rows[0][0].AsInt64()));
  }
  return 0;
}
