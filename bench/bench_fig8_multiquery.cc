/// Figure 8: multi-query complaints on Adult. Q6 groups by gender, Q7 by
/// age decade; complaints in isolation vs combined. Holistic benefits
/// from combining; Loss/TwoStep are defeated by duplicate training
/// points (Section 6.5).
///
/// The driver runs on the batched `BindWorkload` path: the session-level
/// `parallelism` knob (RAIN_BENCH_THREADS, default = hardware
/// concurrency) dispatches the per-query debug executions of the
/// multi-query workloads across staging arenas with an ordered splice, so
/// the bind phase scales with the worker count while arena and complaint
/// binding stay bitwise-identical to sequential execution. Rows are also
/// written to BENCH_fig8.json; the recorded baseline lives in
/// bench/baselines/BENCH_fig8.json (see docs/benchmarks.md).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "bench/workloads.h"
#include "common/timer.h"

using namespace rain;         // NOLINT
using namespace rain::bench;  // NOLINT

int main() {
  const int threads = BenchThreads();
  std::printf("Figure 8 reproduction: Adult multi-query complaints (batched bind, %d worker%s)\n",
              threads, threads == 1 ? "" : "s");
  TablePrinter table({"corruption", "complaints", "method", "K", "AUCCR", "total_s"});
  std::FILE* json = std::fopen("BENCH_fig8.json", "w");
  if (json != nullptr) std::fprintf(json, "[\n");
  bool first_row = true;
  for (double corruption : {0.3, 0.5}) {
    for (const std::string which : {"gender", "age", "both"}) {
      Experiment exp = AdultMultiQuery(which, corruption);
      DebugConfig cfg;
      cfg.top_k_per_iter = 10;
      cfg.max_deletions = static_cast<int>(exp.corrupted.size());
      // One knob reaches the whole iteration; the bind phase batches the
      // multi-query workload through BindWorkload at this worker count.
      cfg.parallelism = threads;
      for (const std::string m : {"loss", "twostep", "holistic"}) {
        Timer timer;
        MethodRun run =
            RunMethod(m, exp.make_pipeline, exp.workload, exp.corrupted, cfg);
        const double total_s = timer.ElapsedSeconds();
        table.AddRow({TablePrinter::Num(corruption, 1), which, m,
                      std::to_string(exp.corrupted.size()),
                      run.ok ? TablePrinter::Num(run.auccr, 3) : "fail",
                      TablePrinter::Num(total_s, 3)});
        if (json != nullptr) {
          std::fprintf(
              json,
              "%s  {\"corruption\": %.1f, \"complaints\": \"%s\", "
              "\"method\": \"%s\", \"K\": %zu, \"auccr\": %.4f, \"ok\": %s, "
              "\"threads\": %d, \"total_s\": %.4f}",
              first_row ? "" : ",\n", corruption, which.c_str(), m.c_str(),
              exp.corrupted.size(), run.ok ? run.auccr : 0.0,
              run.ok ? "true" : "false", threads, total_s);
          first_row = false;
        }
      }
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "\n]\n");
    std::fclose(json);
    std::printf("Fig. 8 rows written to BENCH_fig8.json\n");
  }
  EmitTable("Fig8 Adult multi-query AUCCR", table);
  return 0;
}
