/// Table 3: AUCCR of every method on DBLP (medium corruption) and ENRON
/// with the '%http%' and '%deal%' rule-based corruptions.
///
/// `--check` adds the quality gate: in every row Holistic's AUCCR is at
/// least that of each baseline (InfLoss, Loss), and every cell is within
/// kTolerance of the committed value in kCommitted. Exits 1 when a check
/// fails.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/workloads.h"
#include "common/string_util.h"

using namespace rain;         // NOLINT
using namespace rain::bench;  // NOLINT

namespace {

constexpr const char* kMethods[] = {"infloss", "loss", "twostep", "holistic"};
constexpr int kNumMethods = 4;
constexpr int kNumRows = 3;

/// AUCCR per row and kMethods column, as recorded when the gate was
/// added. A change that moves a cell past kTolerance must re-record it
/// here and say why.
///
/// TwoStep on DBLP (0.8931) and '%http%' (0.9683) were re-recorded when
/// the single-complaint ILP moved to the grouped decomposition DP: it
/// picks a different one among the equally minimal repairs, so the
/// deletion sequence changes through tie-breaks alone. Over 36 ILP seeds
/// per row the mean TwoStep AUCCR went 0.901 -> 0.930 (DBLP), 0.903 ->
/// 0.910 ('%http%') and 0.990 -> 0.989 ('%deal%').
constexpr double kCommitted[kNumRows][kNumMethods] = {
    {0.0339, 0.0268, 0.9357, 1.0081},  // DBLP (50%)
    {0.9909, 0.9501, 0.9218, 1.0204},  // ENRON '%http%'
    {0.6375, 0.5924, 0.9968, 0.9906},  // ENRON '%deal%'
};
constexpr double kTolerance = 0.02;

struct RowResult {
  bool ok[kNumMethods] = {};
  double auccr[kNumMethods] = {};
};

RowResult RunRow(const char* dataset, const Experiment& exp, TablePrinter* table) {
  DebugConfig cfg;
  cfg.top_k_per_iter = 10;
  cfg.max_deletions = static_cast<int>(exp.corrupted.size());
  std::vector<std::string> row = {dataset};
  RowResult result;
  for (int m = 0; m < kNumMethods; ++m) {
    MethodRun run =
        RunMethod(kMethods[m], exp.make_pipeline, exp.workload, exp.corrupted, cfg);
    row.push_back(run.ok ? TablePrinter::Num(run.auccr, 2) : "fail");
    result.ok[m] = run.ok;
    result.auccr[m] = run.auccr;
  }
  table->AddRow(row);
  std::printf("  %s: K=%zu, clean=%.0f corrupted=%.0f\n", dataset,
              exp.corrupted.size(), exp.clean_value, exp.corrupted_value);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool check = QualityGate::Requested(argc, argv);
  std::printf("Table 3 reproduction: AUCCR per dataset and method\n");
  TablePrinter table({"dataset", "InfLoss", "Loss", "TwoStep", "Holistic"});
  const char* datasets[kNumRows] = {"DBLP (50%)", "ENRON '%http%'", "ENRON '%deal%'"};
  const RowResult rows[kNumRows] = {
      RunRow(datasets[0], DblpCount(0.5), &table),
      RunRow(datasets[1], EnronCount("http"), &table),
      RunRow(datasets[2], EnronCount("deal"), &table),
  };
  EmitTable("Table 3 AUCCR", table);
  if (!check) return 0;

  std::printf("\n");
  QualityGate gate;
  constexpr int kHolistic = 3;
  for (int r = 0; r < kNumRows; ++r) {
    for (int m = 0; m < kNumMethods; ++m) {
      gate.Expect(rows[r].ok[m] &&
                      std::fabs(rows[r].auccr[m] - kCommitted[r][m]) <= kTolerance,
                  StrFormat("%s %s AUCCR %.4f within %.2f of %.4f", datasets[r],
                            kMethods[m], rows[r].auccr[m], kTolerance,
                            kCommitted[r][m]));
    }
    for (int m = 0; m < 2; ++m) {  // the baselines: InfLoss, Loss
      gate.Expect(rows[r].auccr[kHolistic] >= rows[r].auccr[m],
                  StrFormat("%s holistic AUCCR %.4f >= %s %.4f", datasets[r],
                            rows[r].auccr[kHolistic], kMethods[m], rows[r].auccr[m]));
    }
  }
  return gate.ExitCode();
}
