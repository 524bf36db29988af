/// Figure 10: robustness to mis-specified complaints. The MNIST Q5 count
/// complaint target is varied: Correct (X*), Overshoot (1.2 X*), Partial
/// (midpoint of result and X*), Wrong (0.8 x observed result — the wrong
/// direction). Holistic should tolerate everything but Wrong; Loss is
/// insensitive (it ignores complaints).
///
/// `--check` adds the quality gate: Holistic's AUCCR is at least 1.0 on
/// Correct, Overshoot and Partial (a perfect curve scores (K+1)/K, see
/// core/metrics.h) and below 0.5 on Wrong. Exits 1 when a check fails.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/workloads.h"
#include "common/string_util.h"

using namespace rain;         // NOLINT
using namespace rain::bench;  // NOLINT

int main(int argc, char** argv) {
  const bool check = QualityGate::Requested(argc, argv);
  QualityGate gate;
  std::printf("Figure 10 reproduction: mis-specified complaints (MNIST, 10%%)\n");
  Experiment exp = MnistCount(0.10);
  const double x_star = exp.clean_value;
  const double observed = exp.corrupted_value;

  struct Variant {
    const char* name;
    double target;
  };
  const Variant variants[] = {
      {"Correct", x_star},
      {"Overshoot", 1.2 * x_star},
      {"Partial", 0.5 * (x_star + observed)},
      {"Wrong", 0.8 * observed},
  };
  std::printf("clean count X*=%.0f, corrupted result=%.0f\n", x_star, observed);

  DebugConfig cfg;
  cfg.top_k_per_iter = 10;
  cfg.max_deletions = static_cast<int>(exp.corrupted.size());

  TablePrinter table({"complaint", "target", "method", "AUCCR"});
  std::vector<MethodRun> holistic;
  for (const Variant& v : variants) {
    std::vector<QueryComplaints> workload = exp.workload;
    workload[0].complaints = {ComplaintSpec::ValueEq("cnt", v.target)};
    for (const std::string m : {"loss", "twostep", "holistic"}) {
      MethodRun run = RunMethod(m, exp.make_pipeline, workload, exp.corrupted, cfg);
      table.AddRow({v.name, TablePrinter::Num(v.target, 0), m,
                    run.ok ? TablePrinter::Num(run.auccr, 3) : "fail"});
      if (m == "holistic") holistic.push_back(std::move(run));
    }
  }
  EmitTable("Fig10 complaint mis-specification", table);
  if (!check) return 0;

  std::printf("\n");
  for (size_t i = 0; i < holistic.size(); ++i) {
    const MethodRun& run = holistic[i];
    const std::string name = variants[i].name;
    gate.Expect(run.ok, "holistic ran, " + name);
    if (!run.ok) continue;
    if (name == "Wrong") {
      gate.Expect(run.auccr < 0.5,
                  StrFormat("holistic AUCCR %.3f < 0.5, Wrong", run.auccr));
    } else {
      gate.Expect(run.auccr >= 1.0, StrFormat("holistic AUCCR %.3f >= 1.0, %s",
                                              run.auccr, name.c_str()));
    }
  }
  return gate.ExitCode();
}
