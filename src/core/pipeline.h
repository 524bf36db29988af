#ifndef RAIN_CORE_PIPELINE_H_
#define RAIN_CORE_PIPELINE_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "ml/model.h"
#include "ml/trainer.h"
#include "provenance/poly.h"
#include "provenance/prediction_store.h"
#include "relational/catalog.h"
#include "relational/executor.h"
#include "relational/plan.h"

namespace rain {

/// \brief A Query 2.0 pipeline: training set + model + queried database
/// (Figure 2 steps 0-2).
///
/// The pipeline owns the catalog, the (single) classification model and
/// its training set, and exposes train / infer / execute. All queried
/// tables whose catalog entry carries a feature dataset get prediction
/// views refreshed after every (re)training. Debug-mode executions share
/// one PolyArena so complaints from multiple queries can be combined
/// (Section 6.5); `ResetDebugState` starts a fresh arena (done by the
/// debugger at each train-rank-fix iteration).
class Query2Pipeline {
 public:
  Query2Pipeline(Catalog catalog, std::unique_ptr<Model> model, Dataset train,
                 TrainConfig train_config = TrainConfig());

  /// Trains (warm-start) on the active training records, then refreshes
  /// every prediction view. `cancel` (borrowed, may be null) is polled
  /// once per optimizer iteration; an interrupted run returns OK with
  /// `TrainReport::interrupted = true` and skips the prediction refresh —
  /// the caller is expected to stop at its next interruption check.
  /// `start` (borrowed, may be null) is handed to TrainModel: the last
  /// converged pass and the data changes since, from which a Newton
  /// retrain starts instead of a full pass.
  Result<TrainReport> Train(const CancellationToken* cancel = nullptr,
                            const NewtonStart* start = nullptr);

  /// Recomputes prediction views from the current model without training.
  void RefreshPredictions();

  /// \brief Installs the given parameters and refreshes the prediction
  /// views. `DebugSession::ApplyUpdate`'s full-recompute path uses it to
  /// restore the cold-start parameters captured at session construction.
  void AdoptModelParams(const Vec& params);

  /// Drops all provenance accumulated by debug executions.
  void ResetDebugState();

  /// Executes a plan; `debug` captures provenance into the shared arena.
  Result<ExecResult> Execute(const PlanPtr& plan, bool debug);
  /// Parses, plans and executes a SQL string.
  Result<ExecResult> ExecuteSql(const std::string& query, bool debug);

  /// \brief Executes a plan capturing provenance into `arena` instead of
  /// the pipeline's shared arena.
  ///
  /// This is the staging entry point of the batched `BindWorkload`: each
  /// query of a multi-query workload executes into its own thread-local
  /// staging arena (only catalog and prediction views are shared, both
  /// read-only), after which the staging arenas are spliced into the
  /// shared arena in workload order. Thread-safe for concurrent calls with
  /// distinct arenas.
  Result<ExecResult> ExecuteInto(const PlanPtr& plan, PolyArena* arena,
                                 bool debug) const;

  const Catalog& catalog() const { return catalog_; }
  Model* model() { return model_.get(); }
  const Model* model() const { return model_.get(); }
  Dataset* train_data() { return &train_; }
  const Dataset& train_data() const { return train_; }
  PolyArena* arena() { return arena_.get(); }
  const PredictionStore& predictions() const { return predictions_; }
  const TrainConfig& train_config() const { return train_config_; }

  /// Applies a worker count to retraining and batch prediction refreshes
  /// (forwarded to TrainConfig::parallelism and Model::set_parallelism).
  /// Values < 1 are clamped to 1 with a logged warning so misconfiguration
  /// is visible; returns the value actually installed.
  int set_parallelism(int parallelism);

 private:
  Catalog catalog_;
  std::unique_ptr<Model> model_;
  Dataset train_;
  TrainConfig train_config_;
  PredictionStore predictions_;
  std::unique_ptr<PolyArena> arena_;
};

}  // namespace rain

#endif  // RAIN_CORE_PIPELINE_H_
