#include "tensor/vector_ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "common/thread_pool.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RAIN_SIMD_X86 1
#include <immintrin.h>
#endif

namespace rain {
namespace vec {
namespace {

// --------------------------------------------------------------------------
// Tier selection. Three tiers, ordered; the active tier is the minimum of
// (best CPU-supported tier, RAIN_SIMD env cap, ForceBackend cap). All
// state is relaxed-atomic: the tier is a per-process constant in
// production (env read once), and the test hook toggles it only around
// call sites.
// --------------------------------------------------------------------------

constexpr int kTierScalar = 0;
constexpr int kTierAvx2 = 1;
constexpr int kTierAvx512 = 2;

std::atomic<int> g_forced_cap{-1};  // -1 = no ForceBackend cap
std::atomic<int> g_env_cap{-2};     // -2 = RAIN_SIMD not read yet, -1 = unset

int DetectBestTier() {
#ifdef RAIN_SIMD_X86
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    return kTierAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return kTierAvx2;
  }
#endif
  return kTierScalar;
}

int BestTier() {
  static const int best = DetectBestTier();
  return best;
}

/// Parses a tier name; -1 for unrecognized.
int ParseTierName(const char* name) {
  if (std::strcmp(name, "scalar") == 0) return kTierScalar;
  if (std::strcmp(name, "avx2") == 0 || std::strcmp(name, "avx2-fma") == 0) {
    return kTierAvx2;
  }
  if (std::strcmp(name, "avx512") == 0) return kTierAvx512;
  return -1;
}

/// Reads RAIN_SIMD. Unrecognized values get a one-time stderr note and
/// behave as unset; a recognized tier above what the CPU supports gets a
/// one-time clamp note (the min in ActiveTier does the clamping).
int ReadEnvCap() {
  const char* env = std::getenv("RAIN_SIMD");
  if (env == nullptr || env[0] == '\0') return -1;
  const int tier = ParseTierName(env);
  if (tier < 0) {
    std::fprintf(stderr,
                 "RAIN_SIMD='%s' not recognized (expected avx512|avx2|scalar); "
                 "using runtime dispatch\n",
                 env);
    return -1;
  }
  if (tier > BestTier()) {
    std::fprintf(stderr,
                 "RAIN_SIMD='%s' exceeds CPU support; clamping to the best "
                 "supported tier\n",
                 env);
  }
  return tier;
}

int EnvCap() {
  int v = g_env_cap.load(std::memory_order_relaxed);
  if (v == -2) {
    v = ReadEnvCap();
    g_env_cap.store(v, std::memory_order_relaxed);
  }
  return v;
}

int ActiveTier() {
  int tier = BestTier();
  const int env = EnvCap();
  if (env >= 0 && env < tier) tier = env;
  const int forced = g_forced_cap.load(std::memory_order_relaxed);
  if (forced >= 0 && forced < tier) tier = forced;
  return tier;
}

// --------------------------------------------------------------------------
// Scalar kernels.
// --------------------------------------------------------------------------

double DotScalar(const double* x, const double* y, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void AxpyScalar(double alpha, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void MulAddScalar(double alpha, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

#ifdef RAIN_SIMD_X86

// ==========================================================================
// AVX2/FMA tier.
// ==========================================================================

/// 2x-unrolled AVX2/FMA dot with a fixed-shape reduction: the two
/// running 4-lane accumulators are added, then the four lanes combine as
/// (l0 + l1) + (l2 + l3), and the scalar tail folds on afterwards — the
/// grouping depends only on n, never on alignment or scheduling.
__attribute__((target("avx2,fma"))) double DotAvx2(const double* x,
                                                   const double* y, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4), _mm256_loadu_pd(y + i + 4),
                           acc1);
  }
  if (i + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i), acc0);
    i += 4;
  }
  const __m256d acc = _mm256_add_pd(acc0, acc1);
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  double total = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) total = __builtin_fma(x[i], y[i], total);
  return total;
}

/// AVX2/FMA axpy. Every element — vector body and tail alike — is
/// computed with a single fused rounding, so an element's bits never
/// depend on its position in the range.
__attribute__((target("avx2,fma"))) void AxpyAvx2(double alpha, const double* x,
                                                  double* y, size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] = __builtin_fma(alpha, x[i], y[i]);
}

/// ELEMENTWISE kernels are compiled with target("avx2") only — no FMA —
/// so neither the vector body nor the scalar tail can contract the
/// multiply-add into a single rounding: every element gets the exact
/// round(y + round(alpha*x)) sequence of the plain scalar loop, making
/// the AVX2 path bitwise identical to the fallback. (The build also sets
/// -ffp-contract=off globally, which is what keeps the avx512 variants —
/// whose target does include FMA hardware — from contracting.)
__attribute__((target("avx2"))) void MulAddAvx2(double alpha, const double* x,
                                                double* y, size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2,fma"))) void GemvAvx2(const double* a, size_t rows,
                                                  size_t cols, const double* x,
                                                  double* out) {
  for (size_t r = 0; r < rows; ++r) out[r] = DotAvx2(a + r * cols, x, cols);
}

// gcc's AVX-512 intrinsic headers seed several destinations with
// _mm512_undefined_pd() internally (even the plain 512->256 cast), which
// the middle-end flags as -Wmaybe-uninitialized when inlined here under
// -Werror (gcc PR 105593). The lanes in question are all fully written;
// suppress the bogus diagnostic for this section only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

// ==========================================================================
// AVX-512 tier. Every kernel here is constructed to be BITWISE IDENTICAL
// to its avx2-fma counterpart: a 512-bit accumulator is treated as the
// avx2 tier's two 256-bit accumulators side by side (same per-lane
// chains), and elementwise kernels keep the separate mul/add roundings.
// The wider
// registers buy instruction count, never different bits — so a host
// upgrade (or RAIN_SIMD forcing) can never change results vs avx2-fma.
// ==========================================================================

#define RAIN_TARGET_AVX512 "avx512f,avx512dq,avx512vl,avx2,fma"

// Half extraction via cast/shuffle rather than _mm512_extractf64x4_pd:
// gcc 12's extract intrinsic routes through _mm256_undefined_pd(), which
// -Wmaybe-uninitialized flags under -Werror. Same lanes, same zero cost.
__attribute__((target("avx512f,avx512dq,avx512vl,avx2,fma"))) inline __m256d
Lo256(__m512d v) {
  return _mm512_castpd512_pd256(v);
}

__attribute__((target("avx512f,avx512dq,avx512vl,avx2,fma"))) inline __m256d
Hi256(__m512d v) {
  return _mm512_castpd512_pd256(_mm512_shuffle_f64x2(v, v, 0xEE));
}

__attribute__((target(RAIN_TARGET_AVX512))) double Dot512(const double* x,
                                                          const double* y,
                                                          size_t n) {
  // One 512-bit accumulator == DotAvx2's (acc0 | acc1) pair: lane j
  // carries the chain of elements i ≡ j (mod 8), exactly as avx2.
  __m512d acc01 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc01 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i), acc01);
  }
  __m256d acc0 = Lo256(acc01);
  const __m256d acc1 = Hi256(acc01);
  if (i + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i), acc0);
    i += 4;
  }
  const __m256d acc = _mm256_add_pd(acc0, acc1);
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  double total = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) total = __builtin_fma(x[i], y[i], total);
  return total;
}

__attribute__((target(RAIN_TARGET_AVX512))) void Axpy512(double alpha,
                                                         const double* x,
                                                         double* y, size_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i)));
  }
  if (i + 4 <= n) {
    const __m256d va4 = _mm256_set1_pd(alpha);
    _mm256_storeu_pd(y + i, _mm256_fmadd_pd(va4, _mm256_loadu_pd(x + i),
                                            _mm256_loadu_pd(y + i)));
    i += 4;
  }
  for (; i < n; ++i) y[i] = __builtin_fma(alpha, x[i], y[i]);
}

__attribute__((target(RAIN_TARGET_AVX512))) void MulAdd512(double alpha,
                                                           const double* x,
                                                           double* y, size_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d prod = _mm512_mul_pd(va, _mm512_loadu_pd(x + i));
    _mm512_storeu_pd(y + i, _mm512_add_pd(_mm512_loadu_pd(y + i), prod));
  }
  // Remainder (< 8) through the avx2 kernel: same separate-rounding
  // elementwise contract, and its tail cannot contract (no FMA target).
  if (i < n) MulAddAvx2(alpha, x + i, y + i, n - i);
}

__attribute__((target(RAIN_TARGET_AVX512))) void Gemv512(const double* a,
                                                         size_t rows, size_t cols,
                                                         const double* x,
                                                         double* out) {
  for (size_t r = 0; r < rows; ++r) out[r] = Dot512(a + r * cols, x, cols);
}

#undef RAIN_TARGET_AVX512

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // RAIN_SIMD_X86

}  // namespace

namespace simd {

const char* Backend() {
  switch (ActiveTier()) {
    case kTierAvx512:
      return "avx512";
    case kTierAvx2:
      return "avx2-fma";
    default:
      return "scalar";
  }
}

bool ForceBackend(const char* tier) {
  if (tier == nullptr || tier[0] == '\0') {
    g_forced_cap.store(-1, std::memory_order_relaxed);
    return true;
  }
  const int requested = ParseTierName(tier);
  if (requested < 0) {
    g_forced_cap.store(-1, std::memory_order_relaxed);
    return false;
  }
  g_forced_cap.store(requested, std::memory_order_relaxed);
  return ActiveTier() == requested;
}

void ReloadBackendEnv() {
  g_env_cap.store(ReadEnvCap(), std::memory_order_relaxed);
}

double Dot(const double* x, const double* y, size_t n) {
#ifdef RAIN_SIMD_X86
  const int tier = ActiveTier();
  if (tier >= kTierAvx512) return Dot512(x, y, n);
  if (tier >= kTierAvx2) return DotAvx2(x, y, n);
#endif
  return DotScalar(x, y, n);
}

void Axpy(double alpha, const double* x, double* y, size_t n) {
#ifdef RAIN_SIMD_X86
  const int tier = ActiveTier();
  if (tier >= kTierAvx512) {
    Axpy512(alpha, x, y, n);
    return;
  }
  if (tier >= kTierAvx2) {
    AxpyAvx2(alpha, x, y, n);
    return;
  }
#endif
  AxpyScalar(alpha, x, y, n);
}

void MulAdd(double alpha, const double* x, double* y, size_t n) {
#ifdef RAIN_SIMD_X86
  const int tier = ActiveTier();
  if (tier >= kTierAvx512) {
    MulAdd512(alpha, x, y, n);
    return;
  }
  if (tier >= kTierAvx2) {
    MulAddAvx2(alpha, x, y, n);
    return;
  }
#endif
  MulAddScalar(alpha, x, y, n);
}

void Gemv(const double* a, size_t rows, size_t cols, const double* x, double* out) {
#ifdef RAIN_SIMD_X86
  const int tier = ActiveTier();
  if (tier >= kTierAvx512) {
    Gemv512(a, rows, cols, x, out);
    return;
  }
  if (tier >= kTierAvx2) {
    GemvAvx2(a, rows, cols, x, out);
    return;
  }
#endif
  for (size_t r = 0; r < rows; ++r) out[r] = DotScalar(a + r * cols, x, cols);
}

void GemmNT(const double* a, size_t m, size_t lda, const double* b, size_t n,
            size_t ldb, size_t k, double* out, size_t ldo) {
  // Tile over b-rows so a block of b stays cache-resident while the
  // a-rows stream past it; every element is one Dot, so the tiling is
  // bitwise-invisible.
  constexpr size_t kTileB = 16;
  for (size_t jb = 0; jb < n; jb += kTileB) {
    const size_t je = std::min(n, jb + kTileB);
    for (size_t i = 0; i < m; ++i) {
      const double* ai = a + i * lda;
      double* orow = out + i * ldo;
      for (size_t j = jb; j < je; ++j) orow[j] = Dot(ai, b + j * ldb, k);
    }
  }
}

// --------------------------------------------------------------------------
// Relax-layer kernels: one scalar body each, not dispatched. Keep the
// reductions' four-lane shape (see the header): the relaxation values,
// and so the deletion sequences, depend on it.
// --------------------------------------------------------------------------

void Mul(const double* a, const double* b, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

double GatherSum(const double* v, const int32_t* idx, size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t j = 0; j < 4; ++j) lane[j] += v[idx[i + j]];
  }
  double total = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) total += v[idx[i]];
  return total;
}

double GatherProd(const double* v, const int32_t* idx, size_t n) {
  double lane[4] = {1.0, 1.0, 1.0, 1.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t j = 0; j < 4; ++j) lane[j] *= v[idx[i + j]];
  }
  double total = (lane[0] * lane[1]) * (lane[2] * lane[3]);
  for (; i < n; ++i) total *= v[idx[i]];
  return total;
}

double GatherProdOneMinus(const double* v, const int32_t* idx, size_t n) {
  double lane[4] = {1.0, 1.0, 1.0, 1.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t j = 0; j < 4; ++j) lane[j] *= 1.0 - v[idx[i + j]];
  }
  double total = (lane[0] * lane[1]) * (lane[2] * lane[3]);
  for (; i < n; ++i) total *= 1.0 - v[idx[i]];
  return total;
}

double GatherDot(const double* v, const int32_t* idx, const double* w, size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t j = 0; j < 4; ++j) lane[j] += v[idx[i + j]] * w[i + j];
  }
  double total = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) total += v[idx[i]] * w[i];
  return total;
}

void Gather(const double* v, const int32_t* idx, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = v[idx[i]];
}

void ScatterAxpy(double alpha, const double* x, const int32_t* idx, double* y,
                 size_t n) {
  // Ascending i, so duplicate indices accumulate in a fixed order.
  for (size_t i = 0; i < n; ++i) y[idx[i]] += alpha * x[i];
}

void PrefixSuffixProducts(const double* c, size_t k, double* prefix,
                          double* suffix) {
  prefix[0] = 1.0;
  for (size_t j = 0; j < k; ++j) prefix[j + 1] = prefix[j] * c[j];
  suffix[k] = 1.0;
  for (size_t j = k; j-- > 0;) suffix[j] = suffix[j + 1] * c[j];
}

}  // namespace simd

Vec Zeros(size_t n) { return Vec(n, 0.0); }

double Dot(const Vec& x, const Vec& y) {
  RAIN_CHECK(x.size() == y.size()) << "Dot size mismatch";
  return simd::Dot(x.data(), y.data(), x.size());
}

void Axpy(double alpha, const Vec& x, Vec* y) {
  RAIN_CHECK(x.size() == y->size()) << "Axpy size mismatch";
  simd::Axpy(alpha, x.data(), y->data(), x.size());
}

void Scale(double alpha, Vec* x) {
  for (double& v : *x) v *= alpha;
}

double Norm2(const Vec& x) { return std::sqrt(NormSq(x)); }

double NormSq(const Vec& x) {
  double acc = 0.0;
  for (double v : x) acc += v * v;
  return acc;
}

double InfNorm(const Vec& x) {
  double m = 0.0;
  for (double v : x) m = std::max(m, std::fabs(v));
  return m;
}

double ParallelAccumulate(
    int parallelism, size_t n, Vec* out,
    const std::function<double(size_t begin, size_t end, Vec* acc)>& body) {
  if (n == 0) return 0.0;
  size_t chunks = parallelism < 1 ? 1 : static_cast<size_t>(parallelism);
  if (chunks > n) chunks = n;
  if (chunks <= 1) return body(0, n, out);
  // Each chunk's buffer reserves one cache line of capacity past its
  // written range. Heap blocks never overlap, so any two chunks' written
  // ranges lie at least kCacheLineBytes apart and share no line: a body
  // that updates its buffer once per row (the logistic HVP and the fused
  // training pass write a 19-double partial per row) never false-shares
  // with another worker, whatever the allocator's block layout.
  constexpr size_t kPad = kCacheLineBytes / sizeof(double);
  std::vector<Vec> partial(chunks);
  for (Vec& p : partial) {
    p.reserve(out->size() + kPad);
    p.assign(out->size(), 0.0);
  }
  std::vector<double> scalar(chunks, 0.0);
  ParallelFor(parallelism, n,
              [&body, &partial, &scalar](size_t begin, size_t end, size_t chunk) {
                scalar[chunk] = body(begin, end, &partial[chunk]);
              });
  for (const Vec& p : partial) Axpy(1.0, p, out);
  double sum = 0.0;
  for (double s : scalar) sum += s;
  return sum;
}

Vec Sub(const Vec& x, const Vec& y) {
  RAIN_CHECK(x.size() == y.size()) << "Sub size mismatch";
  Vec out(x.size());
  for (size_t i = 0; i < x.size(); ++i) out[i] = x[i] - y[i];
  return out;
}

Vec Add(const Vec& x, const Vec& y) {
  RAIN_CHECK(x.size() == y.size()) << "Add size mismatch";
  Vec out(x.size());
  for (size_t i = 0; i < x.size(); ++i) out[i] = x[i] + y[i];
  return out;
}

double MaxAbsDiff(const Vec& x, const Vec& y) {
  RAIN_CHECK(x.size() == y.size()) << "MaxAbsDiff size mismatch";
  double m = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double d = std::fabs(x[i] - y[i]);
    if (d > m) m = d;
  }
  return m;
}

}  // namespace vec
}  // namespace rain
