#include "core/pipeline.h"

#include "common/logging.h"
#include "sql/planner.h"

namespace rain {

Query2Pipeline::Query2Pipeline(Catalog catalog, std::unique_ptr<Model> model,
                               Dataset train, TrainConfig train_config)
    : catalog_(std::move(catalog)),
      model_(std::move(model)),
      train_(std::move(train)),
      train_config_(train_config),
      arena_(std::make_unique<PolyArena>()) {
  RAIN_CHECK(model_ != nullptr);
}

Result<TrainReport> Query2Pipeline::Train(const CancellationToken* cancel,
                                          const NewtonStart* start) {
  TrainConfig config = train_config_;
  config.cancel = cancel;
  RAIN_ASSIGN_OR_RETURN(TrainReport report,
                        TrainModel(model_.get(), train_, config, start));
  // Partial parameters are never published to the prediction views; the
  // interrupted session records the iteration as cut short instead.
  if (!report.interrupted) RefreshPredictions();
  return report;
}

void Query2Pipeline::AdoptModelParams(const Vec& params) {
  model_->set_params(params);
  RefreshPredictions();
}

void Query2Pipeline::RefreshPredictions() {
  for (size_t t = 0; t < catalog_.num_tables(); ++t) {
    const Catalog::Entry* entry = catalog_.FindById(static_cast<int32_t>(t));
    if (entry == nullptr || !entry->features.has_value()) continue;
    predictions_.SetPredictions(entry->table_id,
                                model_->PredictProbaMatrix(*entry->features));
  }
}

void Query2Pipeline::ResetDebugState() { arena_ = std::make_unique<PolyArena>(); }

int Query2Pipeline::set_parallelism(int parallelism) {
  if (parallelism < 1) {
    RAIN_LOG(Warning) << "Query2Pipeline::set_parallelism(" << parallelism
                      << "): worker counts must be >= 1; clamping to 1";
    parallelism = 1;
  }
  train_config_.parallelism = parallelism;
  model_->set_parallelism(parallelism);
  return parallelism;
}

Result<ExecResult> Query2Pipeline::Execute(const PlanPtr& plan, bool debug) {
  return ExecuteInto(plan, arena_.get(), debug);
}

Result<ExecResult> Query2Pipeline::ExecuteInto(const PlanPtr& plan, PolyArena* arena,
                                               bool debug) const {
  Executor executor(&catalog_, &predictions_, arena);
  ExecOptions options;
  options.debug_mode = debug;
  return executor.Run(plan, options);
}

Result<ExecResult> Query2Pipeline::ExecuteSql(const std::string& query, bool debug) {
  RAIN_ASSIGN_OR_RETURN(PlanPtr plan, sql::PlanQuery(query, catalog_));
  return Execute(plan, debug);
}

}  // namespace rain
