/// Figure 11 (Appendix D): debugging with a non-convex neural model.
/// AUCCR of Loss / TwoStep / Holistic on MNIST Q5 at 50% corruption,
/// comparing multiclass logistic regression against the MLP stand-in for
/// the paper's CNN (see DESIGN.md substitutions). Influence analysis
/// uses Hessian damping on the MLP.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/workloads.h"

using namespace rain;         // NOLINT
using namespace rain::bench;  // NOLINT

int main() {
  std::printf("Figure 11 reproduction: NN vs logistic AUCCR (MNIST Q5, 50%%)\n");
  TablePrinter table({"model", "method", "AUCCR"});
  for (const bool use_mlp : {false, true}) {
    Experiment exp = MnistCount(0.5, /*train_size=*/600, /*query_size=*/400, use_mlp);
    DebugConfig cfg;
    cfg.top_k_per_iter = 10;
    cfg.max_deletions = static_cast<int>(exp.corrupted.size());
    if (use_mlp) cfg.influence.damping = 0.05;
    for (const std::string m : {"loss", "twostep", "holistic"}) {
      MethodRun run = RunMethod(m, exp.make_pipeline, exp.workload, exp.corrupted, cfg);
      table.AddRow({use_mlp ? "mlp" : "logistic", m,
                    run.ok ? TablePrinter::Num(run.auccr, 3) : "fail"});
    }
  }
  EmitTable("Fig11 NN vs logistic AUCCR", table);
  return 0;
}
