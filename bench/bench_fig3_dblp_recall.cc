/// Figure 3: DBLP recall curves under low/medium/high systematic
/// corruption of the match labels, for Loss / InfLoss / TwoStep /
/// Holistic. A single correct COUNT equality complaint drives the
/// complaint-based methods.
///
/// `--check` adds the quality gate: at medium and high corruption, the
/// AUCCR of Holistic and of TwoStep must exceed that of both Loss and
/// InfLoss (the Fig. 3 claim). Exits 1 when a check fails.
#include <algorithm>
#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "bench/workloads.h"
#include "common/string_util.h"

using namespace rain;        // NOLINT
using namespace rain::bench;  // NOLINT

int main(int argc, char** argv) {
  const bool check = QualityGate::Requested(argc, argv);
  QualityGate gate;
  std::vector<std::map<std::string, MethodRun>> runs(3);
  std::printf("Figure 3 reproduction: DBLP recall curves vs corruption rate\n");
  const double rates[] = {0.3, 0.5, 0.7};
  const char* labels[] = {"low (30%)", "medium (50%)", "high (70%)"};
  const std::vector<std::string> methods = {"loss", "infloss", "twostep", "holistic"};

  for (int i = 0; i < 3; ++i) {
    Experiment exp = DblpCount(rates[i]);
    std::printf(
        "\ncorruption=%s: K=%zu corrupted records; clean count=%.0f, "
        "corrupted count=%.0f\n",
        labels[i], exp.corrupted.size(), exp.clean_value, exp.corrupted_value);

    DebugConfig cfg;
    cfg.top_k_per_iter = 10;
    cfg.max_deletions = static_cast<int>(exp.corrupted.size());

    std::vector<std::string> header = {"method"};
    for (const std::string& h : RecallHeader()) header.push_back(h);
    TablePrinter table(header);
    for (const std::string& m : methods) {
      MethodRun run = RunMethod(m, exp.make_pipeline, exp.workload, exp.corrupted, cfg);
      std::vector<std::string> row = {m};
      for (const std::string& c : RecallRow(run)) row.push_back(c);
      table.AddRow(row);
      if (!run.ok) std::printf("  [%s failed: %s]\n", m.c_str(), run.status.ToString().c_str());
      runs[i][m] = std::move(run);
    }
    EmitTable(std::string("Fig3 recall, corruption ") + labels[i], table);
  }
  if (!check) return 0;

  std::printf("\n");
  for (int i = 1; i < 3; ++i) {
    std::map<std::string, MethodRun>& r = runs[i];
    bool all_ok = true;
    for (const std::string& m : methods) all_ok = all_ok && r[m].ok;
    gate.Expect(all_ok, std::string("all methods ran, ") + labels[i]);
    if (!all_ok) continue;
    const double baseline = std::max(r["loss"].auccr, r["infloss"].auccr);
    for (const std::string m : {"holistic", "twostep"}) {
      gate.Expect(r[m].auccr > baseline,
                  StrFormat("%s AUCCR %.3f > Loss/InfLoss %.3f, %s", m.c_str(),
                            r[m].auccr, baseline, labels[i]));
    }
  }
  return gate.ExitCode();
}
