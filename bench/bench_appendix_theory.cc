/// Appendix A / C empirical validations.
///
/// Theorem A.1: with an orthogonal noise record and an ambiguous COUNT
/// complaint, the probability that a randomized-ILP TwoStep assigns the
/// noise record a non-zero influence score vanishes as the querying set
/// grows.
///
/// Theorem C.1: as the number of parallel corrupted training records
/// grows, their loss and self-influence collapse to zero, pushing them
/// to the bottom of loss-based rankings.
///
/// `--check` adds the quality gate for Theorem A.1: each measured
/// p_nonzero is within three binomial standard errors of the analytic
/// p_hit, and it falls from the smallest querying set to the largest.
/// Exits 1 when a check fails.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "common/table_printer.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "ilp/solver.h"
#include "ilp/tiresias.h"
#include "influence/influence.h"
#include "ml/logistic_regression.h"
#include "ml/trainer.h"
#include "provenance/poly.h"

using namespace rain;  // NOLINT

namespace {

/// Theorem A.1 setup. Clean training data lives on axes 0..d-2 with label
/// 1; one noise record on axis d-1 with (wrong) label 1. Queried rows:
/// n-m on clean axes, m on the noise axis. The complaint asks the count
/// of predict=0 rows to be k (currently 0): any k rows satisfy the ILP,
/// but only flips among the m noise-axis rows give the noise record a
/// non-zero score.
struct A1Row {
  int n = 0;
  double measured = 0.0;
  double analytic = 0.0;
};
constexpr int kA1Trials = 400;

std::vector<A1Row> TheoremA1() {
  std::printf("\nTheorem A.1: P[TwoStep scores the noise record != 0] vs n\n");
  TablePrinter table({"n", "m", "k", "p_nonzero(measured)", "p_hit(analytic)"});
  const int m = 4, k = 3, trials = kA1Trials;
  std::vector<A1Row> rows;
  for (int n : {40, 80, 160, 320}) {
    Rng data_rng(7);
    const size_t d = 6;
    const size_t n_clean = 60;
    Matrix x(n_clean + 1, d, 0.0);
    std::vector<int> y(n_clean + 1, 1);
    for (size_t i = 0; i < n_clean; ++i) {
      x.At(i, data_rng.UniformInt(d - 1)) = 1.0 + 0.1 * data_rng.Gaussian();
    }
    x.At(n_clean, d - 1) = 1.0;  // the noise record t
    Dataset train(std::move(x), std::move(y), 2);
    LogisticRegression model(d, /*fit_intercept=*/false);
    TrainConfig tc;
    tc.l2 = 1e-2;
    RAIN_CHECK(TrainModel(&model, train, tc).ok());

    // Queried rows.
    Matrix qx(n, d, 0.0);
    for (int i = 0; i < n; ++i) {
      if (i < m) {
        qx.At(i, d - 1) = 1.0;
      } else {
        qx.At(i, data_rng.UniformInt(d - 1)) = 1.0;
      }
    }
    PredictionStore preds;
    {
      Matrix probs(n, 2);
      for (int i = 0; i < n; ++i) {
        double p[2];
        model.PredictProba(qx.Row(i), p);
        probs.SetRow(i, {p[0], p[1]});
      }
      preds.SetPredictions(0, std::move(probs));
    }

    int nonzero = 0;
    for (int trial = 0; trial < trials; ++trial) {
      PolyArena arena;
      std::vector<PolyId> zero_vars;
      for (int i = 0; i < n; ++i) zero_vars.push_back(arena.Var(PredVar{0, i, 0}));
      const PolyId count0 = arena.Add(zero_vars);
      auto enc = EncodeTiresias(&arena, preds,
                                {{count0, ConstraintSense::kEq, double(k)}});
      RAIN_CHECK(enc.ok());
      IlpSolveOptions opts;
      opts.randomize = true;
      opts.seed = 1000 + trial;
      opts.coupling_constraints = enc->complaint_constraints;
      auto sol = SolveIlp(enc->problem, opts);
      RAIN_CHECK(sol.ok());
      auto marked = DecodeMarkedPredictions(*enc, *sol);
      // q = -sum p_{t_i}; the noise record scores non-zero iff a noise-axis
      // row was marked.
      bool hit = false;
      for (const auto& mp : marked) {
        if (mp.row < m) hit = true;
      }
      nonzero += hit;
    }
    // Analytic: 1 - C(n-m, k)/C(n, k).
    double keep = 1.0;
    for (int i = 0; i < k; ++i) {
      keep *= static_cast<double>(n - m - i) / static_cast<double>(n - i);
    }
    rows.push_back(A1Row{n, static_cast<double>(nonzero) / trials, 1.0 - keep});
    table.AddRow({std::to_string(n), std::to_string(m), std::to_string(k),
                  TablePrinter::Num(rows.back().measured, 3),
                  TablePrinter::Num(rows.back().analytic, 3)});
  }
  bench::EmitTable("Theorem A.1 ambiguity", table);
  return rows;
}

/// Theorem C.1 setup: K parallel corrupted records; loss and
/// self-influence of corrupted records go to 0 as K grows.
void TheoremC1() {
  std::printf("\nTheorem C.1: corrupted-record loss and self-influence vs K\n");
  TablePrinter table(
      {"K", "max_corrupt_loss", "mean_clean_loss", "max_corrupt_selfinf"});
  for (int k : {5, 20, 80, 320}) {
    Rng rng(11);
    const size_t d = 5;
    const size_t n_clean = 100;
    Matrix x(n_clean + k, d, 0.0);
    std::vector<int> y(n_clean + k);
    for (size_t i = 0; i < n_clean; ++i) {
      for (size_t f = 0; f + 1 < d; ++f) x.At(i, f) = rng.Gaussian();
      double s = 0.0;
      for (size_t f = 0; f + 1 < d; ++f) s += x.At(i, f);
      y[i] = s > 0 ? 1 : 0;
    }
    for (size_t i = n_clean; i < n_clean + k; ++i) {
      x.At(i, d - 1) = 1.0 + 0.02 * rng.Gaussian();  // parallel corrupted cluster
      y[i] = 1;                                      // truth is 0
    }
    Dataset train(std::move(x), std::move(y), 2);
    LogisticRegression model(d, /*fit_intercept=*/false);
    TrainConfig tc;
    tc.l2 = 1e-3;
    tc.max_iters = 2000;
    RAIN_CHECK(TrainModel(&model, train, tc).ok());

    double max_loss = 0.0, clean_loss = 0.0;
    for (size_t i = 0; i < train.size(); ++i) {
      const double l = model.ExampleLoss(train.row(i), train.label(i));
      if (i >= n_clean) {
        max_loss = std::max(max_loss, l);
      } else {
        clean_loss += l;
      }
    }
    clean_loss /= n_clean;

    InfluenceOptions opts;
    opts.l2 = tc.l2;
    InfluenceScorer scorer(&model, &train, opts);
    auto self = scorer.SelfInfluenceAll();
    RAIN_CHECK(self.ok());
    double max_self = 0.0;
    for (size_t i = n_clean; i < train.size(); ++i) {
      max_self = std::max(max_self, std::fabs((*self)[i]));
    }
    table.AddRow({std::to_string(k), TablePrinter::Num(max_loss, 5),
                  TablePrinter::Num(clean_loss, 5), TablePrinter::Num(max_self, 6)});
  }
  bench::EmitTable("Theorem C.1 loss collapse", table);
}

}  // namespace

int main(int argc, char** argv) {
  const bool check = bench::QualityGate::Requested(argc, argv);
  std::printf("Appendix theory validations\n");
  const std::vector<A1Row> a1 = TheoremA1();
  TheoremC1();
  if (!check) return 0;

  std::printf("\n");
  bench::QualityGate gate;
  for (const A1Row& r : a1) {
    const double se = std::sqrt(r.analytic * (1.0 - r.analytic) / kA1Trials);
    gate.Expect(std::fabs(r.measured - r.analytic) <= 3.0 * se,
                StrFormat("Theorem A.1 n=%d p_nonzero %.3f within 3 SE (%.3f) of p_hit %.3f",
                          r.n, r.measured, se, r.analytic));
  }
  gate.Expect(a1.back().measured < a1.front().measured,
              StrFormat("Theorem A.1 p_nonzero falls from %.3f at n=%d to %.3f at n=%d",
                        a1.front().measured, a1.front().n, a1.back().measured,
                        a1.back().n));
  return gate.ExitCode();
}
