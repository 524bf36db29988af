/// Microbenchmarks of the vec::simd dispatch layer and the kernels built
/// on it: scalar-vs-SIMD timings for Dot/Axpy/GEMV, the ml coefficient
/// passes (logistic/softmax/MLP HVPs, the logistic one-pass Hessian), and
/// the relaxed polynomial sweeps.
/// Self-driven (no external benchmark framework): each row times the same
/// closure under the scalar fallback (ForceScalar(true)) and
/// under the dispatched backend, and reports the speedup. A per-backend
/// sweep re-times the hottest kernels under every tier the CPU supports
/// (ForceBackend). Rows stream to BENCH_micro.json (baseline under
/// bench/baselines/); the leading meta row records the active backend,
/// the one-core flag, and the hardware concurrency so recorded numbers
/// are interpretable later.
///
/// `--verify` skips the timings and instead runs the determinism-contract
/// checks under EVERY available backend tier (fast enough for the CI
/// scale-smoke leg, which runs it under RAIN_SIMD=scalar and
/// RAIN_SIMD=avx2 in addition to the unconstrained pass):
///   * ELEMENTWISE kernels (MulAdd, MulAdd2, Mul, Gather, ScatterAxpy)
///     must match the scalar fallback BITWISE;
///   * SHAPED-REDUCTION kernels (Dot2, GatherSum, GatherProd,
///     GatherProdOneMinus, GatherDot) must match the shaped scalar
///     fallback BITWISE, including at every n around kGatherSimdCutoff;
///   * REDUCTION kernels (Dot, GemmNT) must be deterministic per backend
///     and within 1e-9 relative of scalar; GemmNT must equal the per-row
///     Dot loop BITWISE (Gemv's per-tier contract is tensor_test's);
///   * RelaxedPoly::SeededGradient — built entirely from ELEMENTWISE and
///     SHAPED-REDUCTION kernels — must be BITWISE identical across
///     backends.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
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
#include "provenance/poly.h"
#include "relax/relaxed_poly.h"
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

/// Interleaved A/B timing: calibrates the batch size on fa (pass the
/// slower side there), then alternates fa/fb batches so slow drift on a
/// shared host — frequency scaling, a noisy neighbour — hits both columns
/// alike instead of skewing the ratio. Returns {best_a, best_b} per call.
template <typename FA, typename FB>
std::pair<double, double> TimePair(FA&& fa, FB&& fb) {
  int reps = 1;
  for (;;) {
    Timer t;
    for (int i = 0; i < reps; ++i) fa();
    if (t.ElapsedSeconds() > 0.02 || reps >= (1 << 22)) break;
    reps *= 4;
  }
  double best_a = 1e100, best_b = 1e100;
  for (int batch = 0; batch < 5; ++batch) {
    {
      Timer t;
      for (int i = 0; i < reps; ++i) fa();
      best_a = std::min(best_a, t.ElapsedSeconds() / reps);
    }
    {
      Timer t;
      for (int i = 0; i < reps; ++i) fb();
      best_b = std::min(best_b, t.ElapsedSeconds() / reps);
    }
  }
  return {best_a, best_b};
}

/// Times fn() under the scalar fallback and under the dispatched backend,
/// in interleaved batches (see TimePair).
template <typename Fn>
KernelRow TimeKernel(const std::string& kernel, int64_t n, Fn&& fn) {
  KernelRow row;
  row.kernel = kernel;
  row.n = n;
  const bool prev = vec::simd::ForceScalar(false);
  std::tie(row.scalar_s, row.simd_s) = TimePair(
      [&] {
        vec::simd::ForceScalar(true);
        fn();
      },
      [&] {
        vec::simd::ForceScalar(false);
        fn();
      });
  vec::simd::ForceScalar(prev);
  row.backend = vec::simd::Backend();
  return row;
}

PolyId MakeCountPoly(PolyArena* arena, size_t rows) {
  std::vector<PolyId> terms;
  for (size_t r = 0; r < rows; ++r) {
    terms.push_back(arena->Var(PredVar{0, static_cast<int64_t>(r), 1}));
  }
  return arena->Add(std::move(terms));
}

PolyId MakeJoinPoly(PolyArena* arena, int side) {
  // Join-shaped polynomial: sum over pairs of OR_c AND(vl, vr).
  std::vector<PolyId> pairs;
  for (int l = 0; l < side; ++l) {
    for (int r = 0; r < side; ++r) {
      std::vector<PolyId> ors;
      for (int c = 0; c < 10; ++c) {
        ors.push_back(arena->And({arena->Var(PredVar{0, l, c}),
                                  arena->Var(PredVar{1, r, c})}));
      }
      pairs.push_back(arena->Or(std::move(ors)));
    }
  }
  return arena->Add(std::move(pairs));
}

/// \brief Multi-root workload shaped like a batched complaint set: a pool
/// of shared high-fan-in AND terms over SHARED var nodes, each AND OR-ed
/// into many roots.
///
/// The 512 var nodes are created once and referenced by every AND that
/// samples them (PolyArena::Var does not dedupe, so sharing must happen
/// at construction). That gives the DAG fan-in in both directions: each
/// AND gathers `arity` shared vars (forward GatherProd runs the SIMD
/// path) and each var's CSR parent list spans ~pool*arity/512 ANDs, each
/// AND's list ~half the roots (the seeded reverse sweep's GatherDot
/// runs the SIMD gathers).
std::vector<PolyId> MakeSharedComplaints(PolyArena* arena, size_t num_roots,
                                         size_t pool, size_t per_root,
                                         size_t arity) {
  Rng rng(29);
  constexpr size_t kVars = 512;
  std::vector<PolyId> vars(kVars);
  for (size_t v = 0; v < kVars; ++v) {
    vars[v] = arena->Var(PredVar{0, static_cast<int64_t>(v), 1});
  }
  std::vector<PolyId> ands(pool);
  std::vector<size_t> pick(kVars);
  for (size_t v = 0; v < kVars; ++v) pick[v] = v;
  for (size_t t = 0; t < pool; ++t) {
    // Partial Fisher-Yates: the first `arity` entries of pick become a
    // distinct random sample, so an AND never repeats a child.
    std::vector<PolyId> children;
    for (size_t j = 0; j < arity && j < kVars; ++j) {
      std::swap(pick[j], pick[j + rng.UniformInt(kVars - j)]);
      children.push_back(vars[pick[j]]);
    }
    ands[t] = arena->And(std::move(children));
  }
  std::vector<PolyId> roots(num_roots);
  for (size_t r = 0; r < num_roots; ++r) {
    std::vector<PolyId> terms;
    for (size_t j = 0; j < per_root; ++j) {
      terms.push_back(ands[(r * 37 + j * 13) % pool]);
    }
    roots[r] = arena->Or(std::move(terms));
  }
  return roots;
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
    Vec v(m.num_params(), 0.5), out;
    rows.push_back(TimeKernel("logistic_hvp", 2000, [&] {
      m.HessianVectorProduct(d, v, 1e-3, &out);
    }));
    // The one-pass loss, gradient and Hessian data term over the same
    // rows: the cost of one Newton evaluation against one CG iteration.
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
  {
    PolyArena arena;
    const PolyId root = MakeCountPoly(&arena, 10000);
    RelaxedPoly poly(&arena, root);
    const Vec probs(arena.num_vars(), 0.3);
    rows.push_back(TimeKernel("relax_forward", 10000, [&] {
      g_sink = poly.Evaluate(probs);
    }));
  }
  {
    PolyArena arena;
    const PolyId root = MakeJoinPoly(&arena, 10);
    RelaxedPoly poly(&arena, root);
    const Vec probs(arena.num_vars(), 0.1);
    Vec grad;
    rows.push_back(TimeKernel("relax_gradient", 100, [&] {
      g_sink = poly.Gradient(probs, &grad);
    }));
  }

  // Per-backend sweep: Dot re-timed under every tier the CPU supports, so
  // a recorded baseline shows the whole ladder (and a host where a tier
  // regresses shows up as a row, not a mystery).
  for (const char* tier : {"scalar", "avx2", "avx512"}) {
    if (!vec::simd::ForceBackend(tier)) continue;
    const size_t n = 16384;
    const Vec x = RandomVec(n, 1), y = RandomVec(n, 2);
    KernelRow row;
    row.kernel = "dot_backend";
    row.n = static_cast<int64_t>(n);
    row.backend = vec::simd::Backend();
    std::tie(row.scalar_s, row.simd_s) = TimePair(
        [&] {
          vec::simd::ForceScalar(true);
          g_sink = vec::simd::Dot(x.data(), y.data(), n);
        },
        [&] {
          vec::simd::ForceScalar(false);
          g_sink = vec::simd::Dot(x.data(), y.data(), n);
        });
    vec::simd::ForceScalar(false);
    rows.push_back(row);
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
  t.AddRow({"ELEMENTWISE",
            "MulAdd MulAdd2 Mul Gather ScatterAxpy",
            "bitwise identical on every tier"});
  t.AddRow({"FUSED-ELEMENTWISE", "Axpy",
            "per-tier deterministic; avx512 == avx2-fma"});
  t.AddRow({"REDUCTION", "Dot GemmNT",
            "per-tier deterministic; avx512 == avx2-fma; scalar 1e-9 rel"});
  t.AddRow({"SHAPED-REDUCTION",
            "Dot2 GatherSum GatherProd GatherProdOneMinus GatherDot",
            "bitwise identical on every tier (shaped scalar fallback)"});
  t.AddRow({"(composites)", "SeededGradient",
            "bitwise invariant across backends"});
  std::printf("%s\n", t.ToText().c_str());
}

/// All contract checks under the CURRENT dispatch state. `tier` labels
/// the printed check lines.
void RunVerifyOnce(const std::string& tier) {
  const std::string tag = " [" + tier + "]";
  const size_t kN = 1037;  // odd length exercises the scalar tails
  const Vec x = RandomVec(kN, 11), y = RandomVec(kN, 12);
  std::vector<int32_t> idx(kN);
  {
    Rng rng(13);
    for (size_t i = 0; i < kN; ++i) {
      idx[i] = static_cast<int32_t>(rng.UniformInt(kN));
    }
  }
  Vec probs = RandomVec(kN, 14);
  for (double& p : probs) p = 0.5 + 0.4 * std::tanh(p);  // (0.1, 0.9)

  // ELEMENTWISE: bitwise identical across backends.
  {
    Vec a = y, b = y;
    const bool prev = vec::simd::ForceScalar(true);
    vec::simd::MulAdd(1.7, x.data(), a.data(), kN);
    vec::simd::ForceScalar(false);
    vec::simd::MulAdd(1.7, x.data(), b.data(), kN);
    vec::simd::ForceScalar(prev);
    Check(BitwiseEq(a, b), "MulAdd scalar == simd (bitwise)" + tag);
  }
  {
    Vec a = y, b = y;
    const bool prev = vec::simd::ForceScalar(true);
    vec::simd::MulAdd2(1.3, x.data(), -0.7, y.data(), a.data(), kN);
    vec::simd::ForceScalar(false);
    vec::simd::MulAdd2(1.3, x.data(), -0.7, y.data(), b.data(), kN);
    vec::simd::ForceScalar(prev);
    Check(BitwiseEq(a, b), "MulAdd2 scalar == simd (bitwise)" + tag);
  }
  {
    Vec a(kN), b(kN);
    const bool prev = vec::simd::ForceScalar(true);
    vec::simd::Mul(x.data(), y.data(), a.data(), kN);
    vec::simd::ForceScalar(false);
    vec::simd::Mul(x.data(), y.data(), b.data(), kN);
    vec::simd::ForceScalar(prev);
    Check(BitwiseEq(a, b), "Mul scalar == simd (bitwise)" + tag);
  }
  {
    Vec a(kN), b(kN);
    const bool prev = vec::simd::ForceScalar(true);
    vec::simd::Gather(probs.data(), idx.data(), a.data(), kN);
    vec::simd::ForceScalar(false);
    vec::simd::Gather(probs.data(), idx.data(), b.data(), kN);
    vec::simd::ForceScalar(prev);
    Check(BitwiseEq(a, b), "Gather scalar == simd (bitwise)" + tag);
  }
  {
    Vec a = y, b = y;
    const bool prev = vec::simd::ForceScalar(true);
    vec::simd::ScatterAxpy(0.9, x.data(), idx.data(), a.data(), kN);
    vec::simd::ForceScalar(false);
    vec::simd::ScatterAxpy(0.9, x.data(), idx.data(), b.data(), kN);
    vec::simd::ForceScalar(prev);
    Check(BitwiseEq(a, b),
          "ScatterAxpy scalar == simd (bitwise, dup idx)" + tag);
  }

  // GemmNT must equal the per-row Dot loop bitwise (it IS the Dot kernel
  // per element — this is what lets the model HVPs batch their
  // projections without changing a bit).
  {
    const size_t m = 23, n2 = 17, k = 61, lda = 64, ldb = 70;
    const Vec a = RandomVec(m * lda, 48), b = RandomVec(n2 * ldb, 49);
    Vec o1(m * n2), o2(m * n2);
    vec::simd::GemmNT(a.data(), m, lda, b.data(), n2, ldb, k, o1.data(), n2);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n2; ++j) {
        o2[i * n2 + j] =
            vec::simd::Dot(a.data() + i * lda, b.data() + j * ldb, k);
      }
    }
    Check(BitwiseEq(o1, o2), "GemmNT == per-row Dot (bitwise)" + tag);
  }

  // SHAPED-REDUCTION: scalar fallback replicates the lane shape, bitwise.
  {
    const bool prev = vec::simd::ForceScalar(true);
    const double s_dot2 =
        vec::simd::Dot2(x.data(), y.data(), y.data(), x.data(), kN);
    const double s_gs = vec::simd::GatherSum(probs.data(), idx.data(), kN);
    const double s_gp = vec::simd::GatherProd(probs.data(), idx.data(), kN);
    const double s_gm =
        vec::simd::GatherProdOneMinus(probs.data(), idx.data(), kN);
    const double s_gd =
        vec::simd::GatherDot(probs.data(), idx.data(), x.data(), kN);
    vec::simd::ForceScalar(false);
    Check(s_dot2 == vec::simd::Dot2(x.data(), y.data(), y.data(), x.data(), kN),
          "Dot2 scalar == simd (bitwise)" + tag);
    Check(s_gs == vec::simd::GatherSum(probs.data(), idx.data(), kN),
          "GatherSum scalar == simd (bitwise)" + tag);
    Check(s_gp == vec::simd::GatherProd(probs.data(), idx.data(), kN),
          "GatherProd scalar == simd (bitwise)" + tag);
    Check(s_gm == vec::simd::GatherProdOneMinus(probs.data(), idx.data(), kN),
          "GatherProdOneMinus scalar == simd (bitwise)" + tag);
    Check(s_gd == vec::simd::GatherDot(probs.data(), idx.data(), x.data(), kN),
          "GatherDot scalar == simd (bitwise)" + tag);
    vec::simd::ForceScalar(prev);
  }
  // Cutoff boundary: every n around kGatherSimdCutoff must be bitwise
  // identical on both sides of the dispatch (the cutoff is a pure
  // performance knob — tensor_test pins the same property per kernel).
  {
    bool ok = true;
    for (size_t n = vec::kGatherSimdCutoff - 3;
         n <= vec::kGatherSimdCutoff + 3; ++n) {
      const bool prev = vec::simd::ForceScalar(true);
      const double gs = vec::simd::GatherSum(probs.data(), idx.data(), n);
      const double gp = vec::simd::GatherProd(probs.data(), idx.data(), n);
      const double gd =
          vec::simd::GatherDot(probs.data(), idx.data(), x.data(), n);
      vec::simd::ForceScalar(false);
      ok = ok && gs == vec::simd::GatherSum(probs.data(), idx.data(), n) &&
           gp == vec::simd::GatherProd(probs.data(), idx.data(), n) &&
           gd == vec::simd::GatherDot(probs.data(), idx.data(), x.data(), n);
      vec::simd::ForceScalar(prev);
    }
    Check(ok, "gathers bitwise at kGatherSimdCutoff +- 3" + tag);
  }
  // PrefixSuffixProducts is scalar on every tier; pin prefix[j]*suffix[j+1]
  // against the direct leave-one-out products.
  {
    const size_t k = 13;
    Vec pre(k + 1), suf(k + 1);
    vec::simd::PrefixSuffixProducts(probs.data(), k, pre.data(), suf.data());
    bool ok = pre[0] == 1.0 && suf[k] == 1.0;
    for (size_t j = 0; ok && j + 1 <= k; ++j) {
      ok = pre[j + 1] == pre[j] * probs[j] &&
           suf[k - 1 - j] == suf[k - j] * probs[k - 1 - j];
    }
    Check(ok, "PrefixSuffixProducts running products exact" + tag);
  }

  // REDUCTION: deterministic per backend, 1e-9-relative across backends.
  {
    const double d1 = vec::simd::Dot(x.data(), y.data(), kN);
    const double d2 = vec::simd::Dot(x.data(), y.data(), kN);
    Check(d1 == d2, "Dot deterministic (same backend, bitwise)" + tag);
    const bool prev = vec::simd::ForceScalar(true);
    const double ds = vec::simd::Dot(x.data(), y.data(), kN);
    vec::simd::ForceScalar(prev);
    Check(std::fabs(d1 - ds) <= 1e-9 * (1.0 + std::fabs(ds)),
          "Dot scalar ~= simd (1e-9 relative)" + tag);
  }

  // The seeded reverse sweep composes only ELEMENTWISE + SHAPED-REDUCTION
  // kernels, so its gradient is bitwise the scalar fallback's.
  {
    PolyArena arena;
    const std::vector<PolyId> roots =
        MakeSharedComplaints(&arena, /*num_roots=*/12, /*pool=*/64,
                             /*per_root=*/40, /*arity=*/20);
    RelaxedPoly poly(&arena, roots);
    Vec probs2 = RandomVec(arena.num_vars(), 31);
    for (double& p : probs2) p = 0.5 + 0.4 * std::tanh(p);
    const std::vector<double> seeds = RandomVec(roots.size(), 32);
    auto seeded = [&] {
      Vec values, grad;
      poly.EvaluateBatch(probs2, &values);
      poly.SeededGradient(values, seeds, &grad);
      return grad;
    };
    const Vec g = seeded();
    const bool prev = vec::simd::ForceScalar(true);
    const Vec gs = seeded();
    vec::simd::ForceScalar(prev);
    Check(BitwiseEq(g, gs), "SeededGradient bitwise vs scalar" + tag);
  }

  // The blocked logistic HVP under the dispatched SIMD backend stays
  // within 1e-9 (relative) of the scalar path.
  {
    Dataset d = RandomDataset(256, 17, 2, 18);
    LogisticRegression m(17);
    m.set_params(RandomVec(m.num_params(), 19));
    const Vec v = RandomVec(m.num_params(), 20);
    Vec direct;
    m.HessianVectorProduct(d, v, 1e-3, &direct);
    const bool prev = vec::simd::ForceScalar(true);
    Vec scalar;
    m.HessianVectorProduct(d, v, 1e-3, &scalar);
    vec::simd::ForceScalar(prev);
    bool close = scalar.size() == direct.size();
    for (size_t i = 0; close && i < direct.size(); ++i) {
      close = std::fabs(direct[i] - scalar[i]) <=
              1e-9 * (1.0 + std::fabs(scalar[i]));
    }
    Check(close, "Logistic HVP scalar ~= simd (1e-9 relative)" + tag);
  }
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
