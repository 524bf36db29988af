/// Ablation (Appendix D / DESIGN.md §4): warm-start retraining in the
/// train-rank-fix loop vs cold restarts. Warm starts re-use the previous
/// optimum as the starting point and should converge in far fewer
/// iterations after each small deletion batch. The warm side retrains the
/// way a DebugSession does: a NewtonStart holds the last converged pass
/// and the deleted rows, so a Newton retrain downdates that pass instead
/// of making its first full one (L-BFGS models hand over no pass and
/// start from the parameters alone). Rows are also written to
/// BENCH_warmstart.json; the recorded baseline lives in
/// bench/baselines/BENCH_warmstart.json (see docs/benchmarks.md).
#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "data/corruption.h"
#include "data/dblp.h"
#include "data/mnist.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/trainer.h"

using namespace rain;  // NOLINT

namespace {

template <typename ModelT, typename MakeCold>
void RunSweep(const char* model_name, Dataset train, ModelT* warm,
              const MakeCold& make_cold, const TrainConfig& tc,
              TablePrinter* table, std::FILE* json, bool* first_row) {
  auto first = TrainModel(warm, train, tc);
  RAIN_CHECK(first.ok());
  NewtonStart start;
  start.Reset(std::move(first->pass));
  Rng delete_rng(17);
  for (int step = 1; step <= 5; ++step) {
    // Delete 10 random active records (stand-in for a debugger batch).
    auto active = train.ActiveIndices();
    for (size_t p : delete_rng.SampleWithoutReplacement(active.size(), 10)) {
      train.Deactivate(active[p]);
      start.RecordFlip(active[p]);
    }
    Timer wt;
    auto wr = TrainModel(warm, train, tc, &start);
    const double warm_s = wt.ElapsedSeconds();
    RAIN_CHECK(wr.ok());
    start.Reset(std::move(wr->pass));

    auto cold = make_cold();
    Timer ct;
    auto cr = TrainModel(cold.get(), train, tc);
    const double cold_s = ct.ElapsedSeconds();
    RAIN_CHECK(cr.ok());

    // For convex models both reach the optimum; iterations tell the
    // story. For the non-convex MLP under a fixed iteration budget the
    // final loss tells it instead.
    // Evaluations are full data passes: the downdated start saves one per
    // warm Newton retrain.
    table->AddRow({model_name, std::to_string(step), std::to_string(wr->iterations),
                   std::to_string(wr->evaluations), TablePrinter::Num(warm_s, 4),
                   TablePrinter::Num(wr->final_loss, 4), std::to_string(cr->iterations),
                   std::to_string(cr->evaluations), TablePrinter::Num(cold_s, 4),
                   TablePrinter::Num(cr->final_loss, 4)});
    if (json != nullptr) {
      std::fprintf(json,
                   "%s  {\"model\": \"%s\", \"step\": %d, \"warm_iters\": %d, "
                   "\"warm_evals\": %d, \"warm_s\": %.6f, \"warm_loss\": %.6f, "
                   "\"cold_iters\": %d, \"cold_evals\": %d, \"cold_s\": %.6f, "
                   "\"cold_loss\": %.6f}",
                   *first_row ? "" : ",\n", model_name, step, wr->iterations,
                   wr->evaluations, warm_s, wr->final_loss, cr->iterations,
                   cr->evaluations, cold_s, cr->final_loss);
      *first_row = false;
    }
  }
}

}  // namespace

int main() {
  std::printf("Ablation: warm-start vs cold-restart retraining\n");
  TablePrinter table({"model", "step", "warm_iters", "warm_evals", "warm_s",
                      "warm_loss", "cold_iters", "cold_evals", "cold_s", "cold_loss"});
  std::FILE* json = std::fopen("BENCH_warmstart.json", "w");
  if (json != nullptr) std::fprintf(json, "[\n");
  bool first_row = true;

  // Convex logistic model on DBLP: retraining is cheap either way.
  {
    DblpConfig cfg;
    cfg.train_size = 1500;
    DblpData data = MakeDblp(cfg);
    Rng rng(3);
    CorruptLabels(&data.train, IndicesWithLabel(data.train, 1), 0.5, 0, &rng);
    LogisticRegression warm(kDblpFeatures);
    RunSweep("logistic/dblp", data.train, &warm,
             [] { return std::make_unique<LogisticRegression>(kDblpFeatures); },
             TrainConfig(), &table, json, &first_row);
  }

  // Non-convex MLP on MNIST: warm starts matter (Appendix D note).
  {
    MnistConfig cfg;
    cfg.train_size = 600;
    MnistData data = MakeMnist(cfg);
    Rng rng(5);
    CorruptLabels(&data.train, IndicesWithLabel(data.train, 1), 0.5, 7, &rng);
    TrainConfig tc;
    tc.max_iters = 150;  // fixed budget: compare final loss, not iters
    Mlp warm(64, 24, 10);
    RunSweep("mlp/mnist", data.train, &warm,
             [] { return std::make_unique<Mlp>(64, 24, 10); }, tc, &table, json,
             &first_row);
  }
  bench::EmitTable("Ablation: warm start", table);
  if (json != nullptr) {
    std::fprintf(json, "\n]\n");
    std::fclose(json);
    std::printf("wrote BENCH_warmstart.json\n");
  }
  return 0;
}
