/// Microbenchmarks of the vec::simd dispatch layer and the kernels built
/// on it: scalar-vs-SIMD timings for Dot/Axpy/GEMV and the ml coefficient
/// passes (softmax/MLP HVPs, the logistic one-pass Hessian).
/// Self-driven (no external benchmark framework): each row times the same
/// closure under the scalar fallback (ForceBackend("scalar")) and
/// under the dispatched backend, and reports the speedup. A per-backend
/// sweep re-times the hottest kernels under every tier the CPU supports
/// (ForceBackend). Rows stream to BENCH_micro.json (baseline under
/// bench/baselines/); the leading meta row records the active backend,
/// the one-core flag, and the hardware concurrency so recorded numbers
/// are interpretable later.
///
/// `--verify` skips the timings and instead runs the determinism-contract
/// checks of the dispatched kernels under EVERY available backend tier
/// (fast enough for the CI scale-smoke leg, which runs it under
/// RAIN_SIMD=scalar and RAIN_SIMD=avx2 in addition to the unconstrained
/// pass):
///   * the ELEMENTWISE kernel MulAdd must match the scalar fallback
///     BITWISE;
///   * REDUCTION kernels (Dot, GemmNT) must be deterministic per backend
///     and within 1e-9 relative of scalar; GemmNT must equal the per-row
///     Dot loop BITWISE (Gemv's per-tier contract is tensor_test's).
/// The relax-layer kernels (gathers, Mul, ScatterAxpy) have one scalar
/// body and are not dispatched; tensor_test checks them against
/// reference loops.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "ml/dataset.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/softmax_regression.h"
#include "tensor/matrix.h"
#include "tensor/vector_ops.h"

using namespace rain;         // NOLINT
using namespace rain::bench;  // NOLINT

namespace {

Dataset RandomDataset(size_t n, size_t d, int classes, uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, d);
  std::vector<int> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < d; ++f) x.At(i, f) = rng.Gaussian();
    y[i] = static_cast<int>(rng.UniformInt(classes));
  }
  return Dataset(std::move(x), std::move(y), classes);
}

Vec RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  Vec v(n);
  for (double& x : v) x = rng.Gaussian();
  return v;
}

volatile double g_sink = 0.0;

struct KernelRow {
  std::string kernel;
  int64_t n = 0;
  double scalar_s = 0.0;
  double simd_s = 0.0;
  /// Backend the simd_s column ran under (the dispatched one, or the
  /// per-backend sweep's forced tier).
  std::string backend;
};

/// Times fn() under the scalar fallback and under `tier` (nullptr: the
/// dispatched backend) with interleaved A/B batches: calibrates the batch
/// size on the scalar side, then alternates scalar and `tier` batches so
/// slow drift on a shared host — frequency scaling, a noisy neighbour —
/// hits both columns alike instead of skewing the ratio. Each column keeps
/// its best batch. The tier switches once per batch, outside the timed
/// loop. Leaves the dispatch capped at `tier`.
template <typename Fn>
KernelRow TimeKernel(const std::string& kernel, int64_t n, Fn&& fn,
                     const char* tier = nullptr) {
  KernelRow row;
  row.kernel = kernel;
  row.n = n;
  vec::simd::ForceBackend("scalar");
  int reps = 1;
  for (;;) {
    Timer t;
    for (int i = 0; i < reps; ++i) fn();
    if (t.ElapsedSeconds() > 0.02 || reps >= (1 << 22)) break;
    reps *= 4;
  }
  row.scalar_s = row.simd_s = 1e100;
  for (int batch = 0; batch < 5; ++batch) {
    vec::simd::ForceBackend("scalar");
    {
      Timer t;
      for (int i = 0; i < reps; ++i) fn();
      row.scalar_s = std::min(row.scalar_s, t.ElapsedSeconds() / reps);
    }
    vec::simd::ForceBackend(tier);
    {
      Timer t;
      for (int i = 0; i < reps; ++i) fn();
      row.simd_s = std::min(row.simd_s, t.ElapsedSeconds() / reps);
    }
  }
  row.backend = vec::simd::Backend();
  return row;
}

// ---------------------------------------------------------------- timings

int RunTimings() {
  std::printf("vec::simd micro-kernels (backend: %s)\n", vec::simd::Backend());
  const bool one_core = OneCoreMachine();

  std::vector<KernelRow> rows;

  for (const size_t n : {64u, 1024u, 16384u}) {
    const Vec x = RandomVec(n, 1), y = RandomVec(n, 2);
    rows.push_back(TimeKernel("dot", static_cast<int64_t>(n), [&] {
      g_sink = vec::simd::Dot(x.data(), y.data(), n);
    }));
  }
  for (const size_t n : {64u, 1024u, 16384u}) {
    const Vec x = RandomVec(n, 3);
    Vec y = RandomVec(n, 4);
    rows.push_back(TimeKernel("axpy", static_cast<int64_t>(n), [&] {
      vec::simd::Axpy(1e-9, x.data(), y.data(), n);
    }));
  }
  {
    const size_t r = 256, c = 256;
    const Vec a = RandomVec(r * c, 5), x = RandomVec(c, 6);
    Vec out(r);
    rows.push_back(TimeKernel("gemv", static_cast<int64_t>(r * c), [&] {
      vec::simd::Gemv(a.data(), r, c, x.data(), out.data());
    }));
  }
  {
    Dataset d = RandomDataset(2000, 17, 2, 1);
    LogisticRegression m(17);
    // The one-pass loss, gradient and Hessian data term: the cost of one
    // Newton evaluation.
    Vec out;
    double loss = 0.0;
    Matrix h;
    rows.push_back(TimeKernel("logistic_hessian", 2000, [&] {
      m.MeanLossGradientHessian(d, 1e-3, &loss, &out, &h);
    }));
  }
  {
    Dataset d = RandomDataset(500, 64, 10, 2);
    SoftmaxRegression m(64, 10);
    Vec v(m.num_params(), 0.1), out;
    rows.push_back(TimeKernel("softmax_hvp", 500, [&] {
      m.HessianVectorProduct(d, v, 1e-3, &out);
    }));
  }
  {
    Dataset d = RandomDataset(200, 64, 10, 3);
    Mlp m(64, 24, 10);
    Vec v(m.num_params(), 0.01), out;
    rows.push_back(TimeKernel("mlp_hvp", 200, [&] {
      m.HessianVectorProduct(d, v, 1e-3, &out);
    }));
  }
  // Per-backend sweep: Dot re-timed under every tier the CPU supports, so
  // a recorded baseline shows the whole ladder (and a host where a tier
  // regresses shows up as a row, not a mystery).
  for (const char* tier : {"scalar", "avx2", "avx512"}) {
    if (!vec::simd::ForceBackend(tier)) continue;
    const size_t n = 16384;
    const Vec x = RandomVec(n, 1), y = RandomVec(n, 2);
    rows.push_back(TimeKernel(
        "dot_backend", static_cast<int64_t>(n),
        [&] { g_sink = vec::simd::Dot(x.data(), y.data(), n); }, tier));
  }
  vec::simd::ForceBackend(nullptr);

  TablePrinter table({"kernel", "backend", "n", "scalar us", "simd us", "speedup"});
  EmitJson json("BENCH_micro.json");
  json.Row(StrFormat("{\"section\": \"meta\", \"backend\": \"%s\", "
                     "\"one_core\": %s, \"hardware_concurrency\": %u}",
                     SimdBackend(), one_core ? "true" : "false",
                     std::thread::hardware_concurrency()));
  for (const KernelRow& r : rows) {
    const double speedup = r.simd_s > 0.0 ? r.scalar_s / r.simd_s : 0.0;
    table.AddRow({r.kernel, r.backend,
                  StrFormat("%lld", static_cast<long long>(r.n)),
                  StrFormat("%.3f", r.scalar_s * 1e6),
                  StrFormat("%.3f", r.simd_s * 1e6),
                  StrFormat("%.2fx", speedup)});
    json.Row(StrFormat("{\"kernel\": \"%s\", \"n\": %lld, \"scalar_s\": %.9f, "
                       "\"simd_s\": %.9f, \"speedup\": %.3f, \"backend\": \"%s\", "
                       "\"one_core\": %s}",
                       r.kernel.c_str(), static_cast<long long>(r.n), r.scalar_s,
                       r.simd_s, speedup, r.backend.c_str(),
                       one_core ? "true" : "false"));
  }
  json.Close();
  EmitTable("micro-kernels", table);
  std::printf("wrote %s\n", json.path().c_str());
  return 0;
}

// ----------------------------------------------------------------- verify

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%-58s %s\n", what.c_str(), ok ? "PASS" : "FAIL");
  if (!ok) ++g_failures;
}

bool BitwiseEq(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The determinism-contract table (mirrors the taxonomy in
/// tensor/vector_ops.h) — printed once so a CI log states what the
/// checks below enforce.
void PrintContractTable() {
  TablePrinter t({"class", "kernels", "cross-backend contract"});
  t.AddRow({"ELEMENTWISE", "MulAdd", "bitwise identical on every tier"});
  t.AddRow({"FUSED-ELEMENTWISE", "Axpy",
            "per-tier deterministic; avx512 == avx2-fma"});
  t.AddRow({"REDUCTION", "Dot GemmNT",
            "per-tier deterministic; avx512 == avx2-fma; scalar 1e-9 rel"});
  std::printf("%s\n", t.ToText().c_str());
}

/// All contract checks under the dispatch capped at `tier` (a Backend()
/// name), which also labels the printed check lines.
void RunVerifyOnce(const std::string& tier) {
  const std::string tag = " [" + tier + "]";
  const size_t kN = 1037;  // odd length exercises the scalar tails
  const Vec x = RandomVec(kN, 11), y = RandomVec(kN, 12);

  // Every kernel once under the scalar fallback, then again under `tier`.
  struct Outputs {
    Vec muladd;
    double dot = 0.0;
  };
  auto run = [&] {
    Outputs o;
    o.muladd = y;
    vec::simd::MulAdd(1.7, x.data(), o.muladd.data(), kN);
    o.dot = vec::simd::Dot(x.data(), y.data(), kN);
    return o;
  };
  vec::simd::ForceBackend("scalar");
  const Outputs s = run();
  vec::simd::ForceBackend(tier.c_str());
  const Outputs t = run();

  // ELEMENTWISE: bitwise identical across backends.
  Check(BitwiseEq(s.muladd, t.muladd), "MulAdd scalar == simd (bitwise)" + tag);

  // GemmNT must equal the per-row Dot loop bitwise (it IS the Dot kernel
  // per element — this is what lets the model HVPs batch their
  // projections without changing a bit).
  {
    const size_t rows = 23, n2 = 17, k = 61, lda = 64, ldb = 70;
    const Vec a = RandomVec(rows * lda, 48), b = RandomVec(n2 * ldb, 49);
    Vec o1(rows * n2), o2(rows * n2);
    vec::simd::GemmNT(a.data(), rows, lda, b.data(), n2, ldb, k, o1.data(), n2);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < n2; ++j) {
        o2[i * n2 + j] =
            vec::simd::Dot(a.data() + i * lda, b.data() + j * ldb, k);
      }
    }
    Check(BitwiseEq(o1, o2), "GemmNT == per-row Dot (bitwise)" + tag);
  }

  // REDUCTION: deterministic per backend, 1e-9-relative across backends.
  Check(t.dot == vec::simd::Dot(x.data(), y.data(), kN),
        "Dot deterministic (same backend, bitwise)" + tag);
  Check(std::fabs(t.dot - s.dot) <= 1e-9 * (1.0 + std::fabs(s.dot)),
        "Dot scalar ~= simd (1e-9 relative)" + tag);
}

int RunVerify() {
  std::printf("vec::simd determinism contracts (dispatched backend: %s)\n",
              vec::simd::Backend());
  PrintContractTable();
  // Run the full check set under every tier this CPU can execute. The
  // RAIN_SIMD cap applies inside ForceBackend's dispatch, so a CI leg
  // running under RAIN_SIMD=scalar simply sees fewer tiers.
  for (const char* tier : {"scalar", "avx2", "avx512"}) {
    if (!vec::simd::ForceBackend(tier)) continue;
    RunVerifyOnce(vec::simd::Backend());
  }
  vec::simd::ForceBackend(nullptr);
  std::printf("%s\n", g_failures == 0 ? "ALL CHECKS PASSED" : "FAILURES");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify") == 0) return RunVerify();
  }
  return RunTimings();
}
