/// Parallel-runtime scaling on the Figure 5 runtime workload (DBLP at 50%
/// corruption): measures 1/2/4/8-thread wall-clock for the three hot layers
/// the shared ThreadPool feeds — InfluenceScorer::ScoreAll (per-record
/// grad l(z, θ*)ᵀ s), the model's Hessian-vector product (the CG inner
/// loop), and full L-BFGS retraining — and verifies that parallel results
/// match the sequential ones (ScoreAll bitwise, reductions within 1e-9).
///
/// A fourth section measures the batched bind on a Section 6.5-style
/// multi-complaint Adult workload (two grouped-AVG queries plus a batch of
/// point complaints): per-thread-count wall-clock of the batched
/// `BindWorkload` (parallel per-query provenance capture, ordered splice)
/// and of the sequential Holistic encode that follows it (one seeded
/// reverse sweep + `AccumulateProbaGradients`; its column is a control),
/// verifying that the resulting scores are BITWISE identical to the
/// sequential bind at every worker count. The rows are also written to
/// BENCH_encode.json (see docs/benchmarks.md for the recorded baseline).
///
/// Speedups are bounded by the physical core count; on a 1-core container
/// every column degenerates to ~1x while the correctness checks still run.
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "bench/workloads.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/session.h"
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

}  // namespace

int main() {
  std::printf("Parallel scaling on the Fig. 5 runtime workload (DBLP, 50%% corruption)\n");
  std::printf("hardware_concurrency = %u\n", std::thread::hardware_concurrency());

  // A larger training set than the figure default so per-record scoring has
  // enough work per chunk to amortize the fork/join handshake (DBLP rows are
  // only 17 features wide).
  Experiment exp = DblpCount(0.5, /*train_size=*/40000, /*query_size=*/400);
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

  // Sequential references.
  model->set_parallelism(1);
  scorer.set_parallelism(1);
  const std::vector<double> scores_seq = scorer.ScoreAll();
  Vec hvp_seq;
  model->HessianVectorProduct(train, v, opts.l2, &hvp_seq);

  TablePrinter table({"threads", "score_all_s", "score_speedup", "score_max_dev",
                      "hvp_s", "hvp_speedup", "train_s", "train_speedup"});
  double score_base = 0.0, hvp_base = 0.0, train_base = 0.0;
  double score_8x = 0.0, score_dev_max = 0.0;
  for (int threads : kThreadCounts) {
    scorer.set_parallelism(threads);
    std::vector<double> scores;
    const double score_s = TimeBest(5, [&] { scores = scorer.ScoreAll(); });
    double dev = 0.0;
    for (size_t i = 0; i < scores.size(); ++i) {
      dev = std::max(dev, std::fabs(scores[i] - scores_seq[i]));
    }
    RAIN_CHECK(dev <= 1e-9) << "parallel ScoreAll deviates from sequential";
    score_dev_max = std::max(score_dev_max, dev);

    model->set_parallelism(threads);
    Vec hvp;
    const double hvp_s =
        TimeBest(5, [&] { model->HessianVectorProduct(train, v, opts.l2, &hvp); });
    RAIN_CHECK(vec::MaxAbsDiff(hvp, hvp_seq) <= 1e-9)
        << "parallel HVP deviates from sequential";

    const double train_s = TimeBest(2, [&] {
      std::unique_ptr<Query2Pipeline> fresh = exp.make_pipeline();
      fresh->set_parallelism(threads);
      RAIN_CHECK(fresh->Train().ok());
    });

    if (threads == 1) {
      score_base = score_s;
      hvp_base = hvp_s;
      train_base = train_s;
    }
    if (threads == 8) score_8x = score_base / score_s;
    table.AddRow({TablePrinter::Num(threads, 0), TablePrinter::Num(score_s, 5),
                  TablePrinter::Num(score_base / score_s, 2),
                  TablePrinter::Num(dev, 12), TablePrinter::Num(hvp_s, 5),
                  TablePrinter::Num(hvp_base / hvp_s, 2),
                  TablePrinter::Num(train_s, 4),
                  TablePrinter::Num(train_base / train_s, 2)});
  }
  model->set_parallelism(1);

  EmitTable("Parallel scaling: InfluenceScorer::ScoreAll / HVP / Train", table);

  // Tensor-kernel scaling: blocked GEMV/GEMM over the workload's feature
  // matrix (and a square GEMM at the same scale).
  const Matrix& features = train.features();
  Vec gx(features.cols());
  for (size_t i = 0; i < gx.size(); ++i) gx[i] = std::cos(static_cast<double>(i));
  Matrix proj(features.cols(), 128);
  for (size_t r = 0; r < proj.rows(); ++r) {
    for (size_t c = 0; c < proj.cols(); ++c) {
      proj.At(r, c) = std::sin(static_cast<double>(r * proj.cols() + c));
    }
  }
  const Vec gemv_seq = features.MatVec(gx, 1);
  const Matrix gemm_seq = MatMul(features, proj, 1);
  TablePrinter tensor_table({"threads", "gemv_s", "gemv_speedup", "gemm_s",
                             "gemm_speedup"});
  double gemv_base = 0.0, gemm_base = 0.0;
  for (int threads : kThreadCounts) {
    Vec gemv_out;
    const double gemv_s = TimeBest(5, [&] { gemv_out = features.MatVec(gx, threads); });
    RAIN_CHECK(gemv_out == gemv_seq) << "parallel GEMV must be bitwise identical";
    Matrix gemm_out;
    const double gemm_s =
        TimeBest(3, [&] { gemm_out = MatMul(features, proj, threads); });
    RAIN_CHECK(gemm_out.data() == gemm_seq.data())
        << "parallel GEMM must be bitwise identical";
    if (threads == 1) {
      gemv_base = gemv_s;
      gemm_base = gemm_s;
    }
    tensor_table.AddRow({TablePrinter::Num(threads, 0), TablePrinter::Num(gemv_s, 5),
                         TablePrinter::Num(gemv_base / gemv_s, 2),
                         TablePrinter::Num(gemm_s, 5),
                         TablePrinter::Num(gemm_base / gemm_s, 2)});
  }
  EmitTable("Parallel scaling: blocked GEMV / GEMM", tensor_table);

  // Bind-phase scaling: the batched bind + encode on a Section 6.5-style
  // multi-complaint workload — two grouped-AVG Adult queries plus a batch
  // of point complaints, all sharing one provenance pass.
  Experiment menc = AdultMultiQuery("both", 0.3, /*train_size=*/3000,
                                    /*query_size=*/1500);
  std::unique_ptr<Query2Pipeline> mpipe = menc.make_pipeline();
  RAIN_CHECK(mpipe->Train().ok());
  std::vector<QueryComplaints> workload = menc.workload;
  QueryComplaints points;  // widen the complaint batch (no query execution)
  for (int64_t r = 0; r < 32; ++r) {
    points.complaints.push_back(ComplaintSpec::Point("adult", r, 1));
  }
  workload.push_back(points);

  auto holistic = MakeHolisticRanker();
  std::vector<double> encode_scores_ref;
  TablePrinter encode_table({"threads", "bind_s", "bind_speedup", "encode_s",
                             "encode_speedup"});
  double bind_base = 0.0, encode_base = 0.0;
  EmitJson json("BENCH_encode.json");
  for (int threads : kThreadCounts) {
    const double bind_s = TimeBest(3, [&] {
      mpipe->ResetDebugState();
      auto bound = BindWorkload(mpipe.get(), workload, threads);
      RAIN_CHECK(bound.ok()) << bound.status().ToString();
    });

    mpipe->ResetDebugState();
    auto bound = BindWorkload(mpipe.get(), workload, threads);
    RAIN_CHECK(bound.ok());
    RankContext ctx;
    ctx.model = mpipe->model();
    ctx.train = mpipe->train_data();
    ctx.catalog = &mpipe->catalog();
    ctx.arena = mpipe->arena();
    ctx.predictions = &mpipe->predictions();
    ctx.complaints = &*bound;
    ctx.influence.l2 = mpipe->train_config().l2;
    double encode_s = 1e100;
    std::vector<double> scores;
    for (int rep = 0; rep < 3; ++rep) {
      auto out = holistic->Rank(ctx);
      RAIN_CHECK(out.ok()) << out.status().ToString();
      if (out->encode_seconds < encode_s) encode_s = out->encode_seconds;
      scores = std::move(out->scores);
    }
    if (threads == 1) {
      encode_scores_ref = scores;
      bind_base = bind_s;
      encode_base = encode_s;
    } else {
      RAIN_CHECK(scores == encode_scores_ref)
          << "scores after a parallel bind must be bitwise identical to sequential";
    }
    encode_table.AddRow({TablePrinter::Num(threads, 0),
                         TablePrinter::Num(bind_s, 5),
                         TablePrinter::Num(bind_base / bind_s, 2),
                         TablePrinter::Num(encode_s, 5),
                         TablePrinter::Num(encode_base / encode_s, 2)});
    json.Row(StrFormat(
        "{\"threads\": %d, \"bind_s\": %.6f, \"bind_speedup\": %.3f, "
        "\"encode_s\": %.6f, \"encode_speedup\": %.3f, \"bitwise_match\": true}",
        threads, bind_s, bind_base / bind_s, encode_s, encode_base / encode_s));
  }
  if (json.ok()) {
    json.Close();
    std::printf("encode scaling rows written to BENCH_encode.json\n");
  }
  EmitTable("Parallel scaling: batched bind + encode (Adult multi-query)",
            encode_table);

  std::printf("score_all 8-thread speedup: %.2fx (max deviation %.3g)\n", score_8x,
              score_dev_max);
  return 0;
}
