/// Figure 7: ambiguity sweep. A fraction of the MNIST join-tuple
/// complaints is replaced by unambiguous point complaints over the model
/// mispredictions; TwoStep converges to Holistic as ambiguity drops.
///
/// `--check` adds the quality gate: Holistic's AUCCR exceeds TwoStep's at
/// every point fraction, and TwoStep at the largest fraction exceeds
/// TwoStep at the smallest. TwoStep is not required to rise at every
/// step: its curve dips slightly between neighbouring fractions. Exits 1
/// when a check fails.
#include <cstdio>
#include <map>
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
  // The paper uses 30% corruption; at our (smaller) scale the complaints
  // fully resolve within one train-rank-fix iteration at 30%, leaving the
  // discrete TwoStep without signal, so we run the sweep at 50% where
  // mispredictions persist across iterations (see EXPERIMENTS.md).
  std::printf(
      "Figure 7 reproduction: replacing join-tuple complaints with point "
      "complaints (50%% corruption)\n");
  TablePrinter table({"point_fraction", "method", "tuple_c", "point_c", "AUCCR"});
  const double fracs[] = {0.1, 0.3, 0.5, 0.8};
  std::vector<std::map<std::string, MethodRun>> runs;
  for (double frac : fracs) {
    MnistJoinOptions opts;
    opts.corruption = 0.5;
    opts.max_per_digit = 25;
    opts.point_complaint_fraction = frac;
    opts.sparse_tuple_complaints = true;
    Experiment exp = MnistJoin(opts);
    size_t tuple_c = 0, point_c = 0;
    for (const auto& qc : exp.workload) {
      for (const auto& c : qc.complaints) {
        if (c.kind == ComplaintSpec::Kind::kPoint) {
          ++point_c;
        } else {
          ++tuple_c;
        }
      }
    }

    DebugConfig cfg;
    cfg.top_k_per_iter = 10;
    cfg.max_deletions = static_cast<int>(exp.corrupted.size());

    runs.emplace_back();
    for (const std::string m : {"loss", "twostep", "holistic"}) {
      MethodRun run = RunMethod(m, exp.make_pipeline, exp.workload, exp.corrupted, cfg);
      table.AddRow({TablePrinter::Num(frac, 1), m, std::to_string(tuple_c),
                    std::to_string(point_c),
                    run.ok ? TablePrinter::Num(run.auccr, 3) : "fail"});
      runs.back()[m] = std::move(run);
    }
  }
  EmitTable("Fig7 ambiguity sweep", table);
  if (!check) return 0;

  std::printf("\n");
  bool all_ok = true;
  for (size_t i = 0; i < runs.size(); ++i) {
    const MethodRun& holistic = runs[i]["holistic"];
    const MethodRun& twostep = runs[i]["twostep"];
    const bool ok = holistic.ok && twostep.ok;
    all_ok = all_ok && ok;
    gate.Expect(ok, StrFormat("holistic and twostep ran, point fraction %.1f", fracs[i]));
    if (!ok) continue;
    gate.Expect(holistic.auccr > twostep.auccr,
                StrFormat("holistic AUCCR %.3f > twostep %.3f, point fraction %.1f",
                          holistic.auccr, twostep.auccr, fracs[i]));
  }
  if (all_ok) {
    const double first = runs.front()["twostep"].auccr;
    const double last = runs.back()["twostep"].auccr;
    gate.Expect(last > first,
                StrFormat("twostep AUCCR %.3f at point fraction %.1f > %.3f at %.1f",
                          last, fracs[runs.size() - 1], first, fracs[0]));
  }
  return gate.ExitCode();
}
