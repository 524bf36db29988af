/// Figure 6 + Section 6.3 mix-rate experiment: MNIST join queries.
///  (a-b) Q3 join with per-tuple complaints, corruption in {30,50,70}%.
///  (c-d) Q4 COUNT over a join of disjoint digit sets, complaint count=0.
///  (mix) overlapping digit sets at mix rate {5,25,35}%: Holistic decays
///        gracefully; the TwoStep ILP blows its budget.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "bench/workloads.h"
#include "common/status.h"
#include "common/string_util.h"

using namespace rain;         // NOLINT
using namespace rain::bench;  // NOLINT

namespace {

/// The AUCCR cell of one run. A failed run shows its status code in the
/// cell and its message on stderr, labelled with `cell`.
std::string AuccrCell(const MethodRun& run, const std::string& cell) {
  if (run.ok) return TablePrinter::Num(run.auccr, 3);
  std::fprintf(stderr, "%s %s failed: %s\n", cell.c_str(), run.method.c_str(),
               run.status.ToString().c_str());
  return std::string("fail (") + StatusCodeName(run.status.code()) + ")";
}

void Sweep(const char* title, bool count_complaint,
           const std::vector<int>& left_digits, const std::vector<int>& right_digits) {
  TablePrinter table({"corruption", "method", "complaints", "AUCCR", "r@100%"});
  for (double corruption : {0.3, 0.5, 0.7}) {
    MnistJoinOptions opts;
    opts.corruption = corruption;
    opts.count_complaint = count_complaint;
    opts.left_digits = left_digits;
    opts.right_digits = right_digits;
    Experiment exp = MnistJoin(opts);
    size_t num_complaints = 0;
    for (const auto& qc : exp.workload) num_complaints += qc.complaints.size();

    DebugConfig cfg;
    cfg.top_k_per_iter = 10;
    cfg.max_deletions = static_cast<int>(exp.corrupted.size());

    for (const std::string m : {"loss", "twostep", "holistic"}) {
      MethodRun run = RunMethod(m, exp.make_pipeline, exp.workload, exp.corrupted, cfg);
      table.AddRow({TablePrinter::Num(corruption, 1), m,
                    std::to_string(num_complaints),
                    AuccrCell(run, StrFormat("%s corruption %.1f", title, corruption)),
                    run.ok && !run.recall.empty()
                        ? TablePrinter::Num(run.recall.back(), 3)
                        : "-"});
    }
  }
  EmitTable(title, table);
}

}  // namespace

int main() {
  std::printf("Figure 6 reproduction: MNIST join experiments\n");

  // (a-b): 1 x 7 join, tuple complaints on offending join rows.
  Sweep("Fig6a-b point (tuple) complaints on 1x7 join", /*count_complaint=*/false,
        {1}, {7});

  // (c-d): digits {1..5} x {6..9, 0}, single COUNT=0 complaint.
  Sweep("Fig6c-d COUNT=0 complaint on disjoint 5x5 join", /*count_complaint=*/true,
        {1, 2, 3, 4, 5}, {6, 7, 8, 9, 0});

  // Mix-rate experiment (Section 6.3): move digit-1 images into the right
  // relation; the true join count becomes large and ambiguity explodes.
  TablePrinter mix_table({"mix_rate", "method", "clean_count", "AUCCR"});
  for (double mix : {0.05, 0.25, 0.35}) {
    MnistJoinOptions opts;
    opts.corruption = 0.5;
    opts.count_complaint = true;
    opts.left_digits = {1, 2, 3, 4, 5};
    opts.right_digits = {6, 7, 8, 9, 0};
    opts.mix_rate = mix;
    Experiment exp = MnistJoin(opts);

    DebugConfig cfg;
    cfg.top_k_per_iter = 10;
    cfg.max_deletions = static_cast<int>(exp.corrupted.size());
    // The paper's TwoStep did not finish this ILP in 30 minutes. A node
    // budget reproduces that at laptop scale (a few seconds per solve on
    // one core) with the same cells on every host.
    cfg.ilp.max_nodes = 1'000;

    for (const std::string m : {"loss", "twostep", "holistic"}) {
      MethodRun run = RunMethod(m, exp.make_pipeline, exp.workload, exp.corrupted, cfg);
      std::string auccr = AuccrCell(run, StrFormat("mix_rate %.2f", mix));
      if (run.ok) {
        for (const auto& it : run.iterations) {
          if (it.note.find("budget") != std::string::npos) auccr += "*";
        }
      }
      mix_table.AddRow({TablePrinter::Num(mix, 2), m,
                        TablePrinter::Num(exp.clean_value, 0), auccr});
    }
  }
  std::printf("(* = ILP budget exhausted, incumbent used)\n");
  EmitTable("Section 6.3 mix-rate experiment", mix_table);
  return 0;
}
