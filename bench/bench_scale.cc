/// Scale-N benchmark (ROADMAP item 1): one knob dials the synthetic
/// workloads of src/data/scale_gen.h from laptop smoke (--scale=0.1,
/// 10^4 Adult training rows) through paper scale (1.0, 10^5) to 100x
/// (10^7), and every measured configuration is verified against the
/// sequential reference — bitwise wherever the runtime promises bitwise
/// (generation, ScoreAll, encode scores), <= 1e-9 for
/// the chunk-ordered HVP reduction.
///
/// Sections (rows tagged "section" in BENCH_scale.json; recorded
/// baseline under bench/baselines/):
///   - generate:   ScaledAdult / ScaledDblpJoin wall-clock per worker
///                 count, verifying worker-invariance (rows/s column).
///   - influence:  ScoreAll / HVP / Prepare (CG solve) per thread count
///                 on the scaled Adult workload — the acceptance rows:
///                 8-worker ScoreAll speedup over 1-worker, bitwise.
///   - complaints: many-complaints batched bind per thread count, then
///                 the (sequential) Holistic encode (hundreds of
///                 concurrent point complaints next to the grouped-AVG
///                 entries), scores bitwise.
///
/// Flags: --scale=S (default: RAIN_BENCH_SCALE, else 1.0), --seed=N,
/// --verify (keep every check, drop timing repeats to 1 — the fast CI
/// smoke mode). Speedups are bounded by the physical core count; on a
/// 1-core container every column degenerates to ~1x while the
/// correctness checks still run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/workloads.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/ranker.h"
#include "core/session.h"
#include "data/scale_gen.h"
#include "influence/influence.h"
#include "tensor/vector_ops.h"

using namespace rain;         // NOLINT
using namespace rain::bench;  // NOLINT

namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

/// Best-of-`repeats` wall-clock seconds of fn().
template <typename Fn>
double TimeBest(int repeats, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    fn();
    const double s = timer.ElapsedSeconds();
    if (s < best) best = s;
  }
  return best;
}

struct Flags {
  double scale = 1.0;
  uint64_t seed = 29;
  bool verify = false;
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  flags.scale = scale::ScaleFromEnv(1.0);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      char* end = nullptr;
      flags.scale = std::strtod(arg + 8, &end);
      RAIN_CHECK(end != arg + 8 && *end == '\0' && flags.scale > 0.0)
          << "--scale must be a positive number, got '" << arg << "'";
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      char* end = nullptr;
      flags.seed = std::strtoull(arg + 7, &end, 10);
      RAIN_CHECK(end != arg + 7 && *end == '\0') << "bad --seed '" << arg << "'";
    } else if (std::strcmp(arg, "--verify") == 0) {
      flags.verify = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_scale [--scale=S] [--seed=N] [--verify]\n"
                   "unknown flag '%s'\n",
                   arg);
      std::exit(2);
    }
  }
  return flags;
}

/// Bitwise workload equality for the generation sweep (the deep
/// field-by-field check lives in tests/scale_gen_test.cc).
void CheckIdentical(const scale::ScaledWorkload& a, const scale::ScaledWorkload& b) {
  RAIN_CHECK(a.train.features().data() == b.train.features().data() &&
             a.train.labels() == b.train.labels() && a.corrupted == b.corrupted &&
             a.workload.size() == b.workload.size())
      << "generation must be bitwise worker-invariant";
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  // --verify keeps every bitwise check but times each configuration once:
  // CI wants the contract verified, not stable timings.
  const int repeats = flags.verify ? 1 : 3;
  const scale::ScaleDims dims = scale::DimsFor(flags.scale);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("Scale-N workload benchmark (scale=%g, seed=%llu%s)\n", flags.scale,
              static_cast<unsigned long long>(flags.seed),
              flags.verify ? ", verify mode" : "");
  std::printf("hardware_concurrency = %u, adult_train = %zu, dblp_train = %zu, "
              "point_complaints = %zu\n",
              hw, dims.adult_train, dims.dblp_train, dims.point_complaints);

  EmitJson json("BENCH_scale.json");
  json.Row(StrFormat(
      "{\"section\": \"meta\", \"scale\": %g, \"seed\": %llu, "
      "\"adult_train\": %zu, \"dblp_train\": %zu, \"point_complaints\": %zu, "
      "\"hardware_concurrency\": %u, \"repeats\": %d, \"one_core\": %s, "
      "\"simd_backend\": \"%s\"}",
      flags.scale, static_cast<unsigned long long>(flags.seed), dims.adult_train,
      dims.dblp_train, dims.point_complaints, hw, repeats,
      OneCoreMachine() ? "true" : "false", SimdBackend()));

  scale::ScaleConfig config;
  config.scale = flags.scale;
  config.seed = flags.seed;

  // Section 1: generation worker sweep. The output is a pure function of
  // (seed, scale); workers only buy wall clock.
  TablePrinter gen_table({"dataset", "workers", "seconds", "rows_per_s"});
  for (const char* dataset : {"adult", "dblp"}) {
    const bool adult = std::strcmp(dataset, "adult") == 0;
    const size_t rows = adult ? dims.adult_train : dims.dblp_train;
    config.workers = 1;
    const scale::ScaledWorkload ref =
        adult ? scale::ScaledAdult(config) : scale::ScaledDblpJoin(config);
    for (int workers : kThreadCounts) {
      config.workers = workers;
      scale::ScaledWorkload w;
      const double s = TimeBest(repeats, [&] {
        w = adult ? scale::ScaledAdult(config) : scale::ScaledDblpJoin(config);
      });
      CheckIdentical(ref, w);
      gen_table.AddRow({dataset, TablePrinter::Num(workers, 0),
                        TablePrinter::Num(s, 4),
                        TablePrinter::Num(static_cast<double>(rows) / s, 0)});
      json.Row(StrFormat(
          "{\"section\": \"generate\", \"dataset\": \"%s\", \"workers\": %d, "
          "\"seconds\": %.6f, \"rows_per_s\": %.0f, \"bitwise_match\": true}",
          dataset, workers, s, static_cast<double>(rows) / s));
    }
  }
  EmitTable("Scale-N generation: worker sweep (bitwise invariant)", gen_table);

  // Section 2: influence thread sweep on the scaled Adult workload — the
  // acceptance rows. Train once (capped iterations: the sweep measures
  // the scoring layers, not L-BFGS tails), then sweep the scorer.
  TrainConfig tc;
  tc.max_iters = 60;
  config.workers = static_cast<int>(hw >= 1 ? hw : 1);
  Experiment exp = ScaledAdultExperiment(config, tc);
  std::unique_ptr<Query2Pipeline> pipeline = exp.make_pipeline();
  RAIN_CHECK(pipeline->Train().ok());
  Model* model = pipeline->model();
  const Dataset& train = *pipeline->train_data();

  InfluenceOptions opts;
  opts.l2 = pipeline->train_config().l2;
  InfluenceScorer scorer(model, &train, opts);
  Vec q_grad(model->num_params(), 0.0);
  model->MeanLossGradient(train, opts.l2, &q_grad);
  RAIN_CHECK(scorer.Prepare(q_grad).ok());
  Vec v(model->num_params(), 0.0);
  for (size_t i = 0; i < v.size(); ++i) v[i] = std::sin(static_cast<double>(i));

  model->set_parallelism(1);
  scorer.set_parallelism(1);
  const std::vector<double> scores_seq = scorer.ScoreAll();
  Vec hvp_seq;
  model->HessianVectorProduct(train, v, opts.l2, &hvp_seq);

  TablePrinter inf_table({"threads", "score_all_s", "score_speedup", "hvp_s",
                          "hvp_speedup", "prepare_s", "prepare_speedup"});
  double score_base = 0.0, hvp_base = 0.0, prepare_base = 0.0, score_8x = 0.0;
  for (int threads : kThreadCounts) {
    scorer.set_parallelism(threads);
    std::vector<double> scores;
    const double score_s = TimeBest(repeats, [&] { scores = scorer.ScoreAll(); });
    RAIN_CHECK(scores == scores_seq)
        << "parallel ScoreAll must be bitwise identical to sequential";

    model->set_parallelism(threads);
    Vec hvp;
    const double hvp_s =
        TimeBest(repeats, [&] { model->HessianVectorProduct(train, v, opts.l2, &hvp); });
    RAIN_CHECK(vec::MaxAbsDiff(hvp, hvp_seq) <= 1e-9)
        << "parallel HVP deviates from sequential";

    // Prepare = one CG solve: the per-iteration fixed costs (scratch
    // reuse, no per-call graph setup) show up here.
    InfluenceOptions popts = opts;
    popts.parallelism = threads;
    InfluenceScorer fresh(model, &train, popts);
    const double prepare_s =
        TimeBest(repeats, [&] { RAIN_CHECK(fresh.Prepare(q_grad).ok()); });

    if (threads == 1) {
      score_base = score_s;
      hvp_base = hvp_s;
      prepare_base = prepare_s;
    }
    if (threads == 8) score_8x = score_base / score_s;
    inf_table.AddRow({TablePrinter::Num(threads, 0), TablePrinter::Num(score_s, 5),
                      TablePrinter::Num(score_base / score_s, 2),
                      TablePrinter::Num(hvp_s, 5),
                      TablePrinter::Num(hvp_base / hvp_s, 2),
                      TablePrinter::Num(prepare_s, 4),
                      TablePrinter::Num(prepare_base / prepare_s, 2)});
    json.Row(StrFormat(
        "{\"section\": \"influence\", \"threads\": %d, \"score_all_s\": %.6f, "
        "\"score_speedup\": %.3f, \"hvp_s\": %.6f, \"hvp_speedup\": %.3f, "
        "\"prepare_s\": %.6f, \"prepare_speedup\": %.3f, \"bitwise_match\": true}",
        threads, score_s, score_base / score_s, hvp_s, hvp_base / hvp_s, prepare_s,
        prepare_base / prepare_s));
  }
  model->set_parallelism(1);
  EmitTable("Scale-N influence: ScoreAll / HVP / Prepare (scaled Adult)",
            inf_table);

  // Section 3: many-complaints bind + encode. The generated workload
  // carries two grouped-AVG entries plus dims.point_complaints concurrent
  // point complaints — the scores after the batched bind and the
  // sequential Holistic encode must stay bitwise across bind worker counts.
  size_t total_complaints = 0;
  for (const QueryComplaints& qc : exp.workload) {
    total_complaints += qc.complaints.size();
  }
  auto holistic = MakeHolisticRanker();
  std::vector<double> encode_ref;
  TablePrinter enc_table({"threads", "bind_s", "bind_speedup", "encode_s",
                          "encode_speedup"});
  double bind_base = 0.0, encode_base = 0.0;
  for (int threads : kThreadCounts) {
    const double bind_s = TimeBest(repeats, [&] {
      pipeline->ResetDebugState();
      auto bound = BindWorkload(pipeline.get(), exp.workload, threads);
      RAIN_CHECK(bound.ok()) << bound.status().ToString();
    });

    pipeline->ResetDebugState();
    auto bound = BindWorkload(pipeline.get(), exp.workload, threads);
    RAIN_CHECK(bound.ok());
    RankContext ctx;
    ctx.model = pipeline->model();
    ctx.train = pipeline->train_data();
    ctx.catalog = &pipeline->catalog();
    ctx.arena = pipeline->arena();
    ctx.predictions = &pipeline->predictions();
    ctx.complaints = &*bound;
    ctx.influence.l2 = pipeline->train_config().l2;
    double encode_s = 1e100;
    std::vector<double> scores;
    for (int rep = 0; rep < repeats; ++rep) {
      auto out = holistic->Rank(ctx);
      RAIN_CHECK(out.ok()) << out.status().ToString();
      if (out->encode_seconds < encode_s) encode_s = out->encode_seconds;
      scores = std::move(out->scores);
    }
    if (threads == 1) {
      encode_ref = scores;
      bind_base = bind_s;
      encode_base = encode_s;
    } else {
      RAIN_CHECK(scores == encode_ref)
          << "scores after a parallel bind must be bitwise identical to sequential";
    }
    enc_table.AddRow({TablePrinter::Num(threads, 0), TablePrinter::Num(bind_s, 4),
                      TablePrinter::Num(bind_base / bind_s, 2),
                      TablePrinter::Num(encode_s, 5),
                      TablePrinter::Num(encode_base / encode_s, 2)});
    json.Row(StrFormat(
        "{\"section\": \"complaints\", \"threads\": %d, \"complaints\": %zu, "
        "\"bind_s\": %.6f, \"bind_speedup\": %.3f, \"encode_s\": %.6f, "
        "\"encode_speedup\": %.3f, \"bitwise_match\": true}",
        threads, total_complaints, bind_s, bind_base / bind_s, encode_s,
        encode_base / encode_s));
  }
  EmitTable(
      StrFormat("Scale-N many-complaints bind + encode (%zu complaints)",
                total_complaints),
      enc_table);

  if (json.ok()) {
    json.Close();
    std::printf("scale rows written to BENCH_scale.json\n");
  }
  std::printf("score_all 8-thread speedup: %.2fx (bitwise match at all counts)\n",
              score_8x);
  return 0;
}
