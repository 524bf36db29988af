#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "tensor/matrix.h"
#include "tensor/vector_ops.h"

namespace rain {
namespace {

TEST(VectorOpsTest, Zeros) {
  Vec z = vec::Zeros(4);
  EXPECT_EQ(z.size(), 4u);
  for (double v : z) EXPECT_EQ(v, 0.0);
}

TEST(VectorOpsTest, Dot) {
  Vec x{1.0, 2.0, 3.0};
  Vec y{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(vec::Dot(x, y), 4.0 - 10.0 + 18.0);
}

TEST(VectorOpsTest, Axpy) {
  Vec x{1.0, 2.0};
  Vec y{10.0, 20.0};
  vec::Axpy(3.0, x, &y);
  EXPECT_DOUBLE_EQ(y[0], 13.0);
  EXPECT_DOUBLE_EQ(y[1], 26.0);
}

TEST(VectorOpsTest, ScaleNormAddSub) {
  Vec x{3.0, 4.0};
  EXPECT_DOUBLE_EQ(vec::Norm2(x), 5.0);
  EXPECT_DOUBLE_EQ(vec::NormSq(x), 25.0);
  vec::Scale(2.0, &x);
  EXPECT_DOUBLE_EQ(x[0], 6.0);
  Vec y{1.0, 1.0};
  Vec s = vec::Sub(x, y);
  EXPECT_DOUBLE_EQ(s[0], 5.0);
  Vec a = vec::Add(x, y);
  EXPECT_DOUBLE_EQ(a[1], 9.0);
  EXPECT_DOUBLE_EQ(vec::MaxAbsDiff(x, y), 7.0);
}

TEST(MatrixTest, RowAccessAndSetRow) {
  Matrix m(2, 3);
  m.SetRow(0, {1.0, 2.0, 3.0});
  m.SetRow(1, {4.0, 5.0, 6.0});
  EXPECT_DOUBLE_EQ(m.At(1, 2), 6.0);
  Vec r = m.RowVec(0);
  EXPECT_EQ(r, (Vec{1.0, 2.0, 3.0}));
  m.Row(1)[0] = 7.0;
  EXPECT_DOUBLE_EQ(m.At(1, 0), 7.0);
}

TEST(MatrixTest, MatVecAndTranspose) {
  Matrix m(2, 3);
  m.SetRow(0, {1.0, 0.0, 2.0});
  m.SetRow(1, {0.0, 3.0, 1.0});
  Vec x{1.0, 2.0, 3.0};
  Vec mx = m.MatVec(x);
  ASSERT_EQ(mx.size(), 2u);
  EXPECT_DOUBLE_EQ(mx[0], 7.0);
  EXPECT_DOUBLE_EQ(mx[1], 9.0);

  Vec y{1.0, 2.0};
  Vec mty = m.MatTVec(y);
  ASSERT_EQ(mty.size(), 3u);
  EXPECT_DOUBLE_EQ(mty[0], 1.0);
  EXPECT_DOUBLE_EQ(mty[1], 6.0);
  EXPECT_DOUBLE_EQ(mty[2], 4.0);
}

TEST(MatrixTest, FillConstructor) {
  Matrix m(3, 2, 1.5);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 2; ++c) EXPECT_DOUBLE_EQ(m.At(r, c), 1.5);
  }
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m.At(r, c) = rng.Gaussian();
  }
  return m;
}

TEST(VectorOpsTest, ParallelReductionsMatchSequential) {
  const size_t n = 50000;  // above kParallelGrain so the parallel path runs
  Vec x(n), y(n);
  Rng rng(23);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-1.0, 1.0);
    y[i] = rng.Uniform(-1.0, 1.0);
  }
  const double dot_seq = vec::Dot(x, y);
  const double nsq_seq = vec::NormSq(x);
  for (int par : {2, 4, 8}) {
    EXPECT_NEAR(vec::Dot(x, y, par), dot_seq, 1e-9 * n);
    EXPECT_NEAR(vec::NormSq(x, par), nsq_seq, 1e-9 * n);
    EXPECT_EQ(vec::Dot(x, y, par), vec::Dot(x, y, par)) << "must be deterministic";
  }
  // Parallel Axpy writes disjoint ranges: bitwise identical.
  Vec seq = y;
  vec::Axpy(0.25, x, &seq);
  Vec par_out = y;
  vec::Axpy(0.25, x, &par_out, 4);
  EXPECT_EQ(par_out, seq);
}

/// A ParallelAccumulate body of the gradient-pass shape: every row adds a
/// row-dependent term into every accumulator element and contributes a
/// scalar. Rows of mixed magnitude make the sums order-sensitive.
struct AccumulateCase {
  size_t n = 0;
  size_t width = 0;
  Vec x;

  AccumulateCase(size_t rows, size_t cols, uint64_t seed) : n(rows), width(cols) {
    Rng rng(seed);
    x.resize(n * width);
    for (double& v : x) v = rng.Uniform(-1.0, 1.0) * std::pow(10.0, rng.Uniform(-6.0, 6.0));
  }

  double Body(size_t begin, size_t end, Vec* acc) const {
    double loss = 0.0;
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = 0; j < width; ++j) (*acc)[j] += x[i * width + j];
      loss += x[i * width];
    }
    return loss;
  }
};

TEST(VectorOpsTest, ParallelAccumulateBitsMatchChunkOrderedReduction) {
  // The reference is the chunk-ordered reduction spelled out: the
  // [0, n) range split into min(parallelism, n) near-equal chunks (the
  // first n % chunks one row longer), each chunk summed into zeros, the
  // chunk buffers then added into `out` in chunk order and the scalar
  // partials summed in chunk order. Parallelism 1 writes straight into
  // `out`. Padding the chunk buffers must not move a bit.
  const AccumulateCase c(1003, 19, 61);
  const Vec start(c.width, 0.125);
  for (int par : {1, 2, 3, 4, 8}) {
    const size_t chunks = std::min<size_t>(static_cast<size_t>(par), c.n);
    Vec expect = start;
    double expect_sum = 0.0;
    if (chunks == 1) {
      expect_sum = c.Body(0, c.n, &expect);
    } else {
      size_t begin = 0;
      for (size_t k = 0; k < chunks; ++k) {
        const size_t end = begin + c.n / chunks + (k < c.n % chunks ? 1 : 0);
        Vec partial(c.width, 0.0);
        expect_sum += c.Body(begin, end, &partial);
        for (size_t j = 0; j < c.width; ++j) expect[j] += partial[j];
        begin = end;
      }
    }
    Vec out = start;
    const double sum = vec::ParallelAccumulate(
        par, c.n, &out,
        [&c](size_t begin, size_t end, Vec* acc) { return c.Body(begin, end, acc); });
    EXPECT_EQ(out, expect) << "parallelism " << par;
    EXPECT_EQ(sum, expect_sum) << "parallelism " << par;
  }
}

TEST(VectorOpsTest, ParallelAccumulateChunkBuffersShareNoCacheLine) {
  // Every chunk's written range must sit at least one cache line away
  // from every other chunk's, by construction (not by heap layout), so a
  // body that writes its buffer once per row never false-shares.
  for (size_t width : {size_t{1}, size_t{8}, size_t{19}}) {
    const AccumulateCase c(400, width, 62);
    for (int par : {2, 3, 4, 8}) {
      std::mutex mu;
      std::vector<std::pair<uintptr_t, uintptr_t>> ranges;
      Vec out(width, 0.0);
      vec::ParallelAccumulate(par, c.n, &out, [&](size_t begin, size_t end, Vec* acc) {
        const uintptr_t lo = reinterpret_cast<uintptr_t>(acc->data());
        {
          std::lock_guard<std::mutex> lock(mu);
          ranges.emplace_back(lo, lo + acc->size() * sizeof(double));
        }
        return c.Body(begin, end, acc);
      });
      ASSERT_EQ(ranges.size(), static_cast<size_t>(par));
      std::sort(ranges.begin(), ranges.end());
      for (size_t k = 1; k < ranges.size(); ++k) {
        EXPECT_GE(ranges[k].first, ranges[k - 1].second + vec::kCacheLineBytes)
            << "width " << width << " parallelism " << par << " chunk " << k;
      }
    }
  }
}

TEST(MatrixTest, ParallelMatVecBitwiseIdentical) {
  Matrix m = RandomMatrix(300, 40, 29);
  Vec x(40);
  Rng rng(31);
  for (double& v : x) v = rng.Gaussian();
  const Vec seq = m.MatVec(x);
  for (int par : {2, 4, 8}) {
    EXPECT_EQ(m.MatVec(x, par), seq) << "parallelism=" << par;
  }
}

TEST(MatrixTest, ParallelMatTVecMatchesSequential) {
  Matrix m = RandomMatrix(300, 40, 37);
  Vec y(300);
  Rng rng(41);
  for (double& v : y) v = rng.Gaussian();
  const Vec seq = m.MatTVec(y);
  for (int par : {2, 4, 8}) {
    const Vec out = m.MatTVec(y, par);
    ASSERT_EQ(out.size(), seq.size());
    for (size_t c = 0; c < out.size(); ++c) EXPECT_NEAR(out[c], seq[c], 1e-10);
  }
}

TEST(MatrixTest, MatMulMatchesNaiveAndIsParallelSafe) {
  Matrix a = RandomMatrix(37, 53, 43);
  Matrix b = RandomMatrix(53, 29, 47);
  Matrix naive(37, 29);
  for (size_t r = 0; r < 37; ++r) {
    for (size_t c = 0; c < 29; ++c) {
      double acc = 0.0;
      for (size_t k = 0; k < 53; ++k) acc += a.At(r, k) * b.At(k, c);
      naive.At(r, c) = acc;
    }
  }
  const Matrix seq = MatMul(a, b);
  for (size_t r = 0; r < 37; ++r) {
    for (size_t c = 0; c < 29; ++c) {
      EXPECT_NEAR(seq.At(r, c), naive.At(r, c), 1e-10);
    }
  }
  for (int par : {2, 4, 8}) {
    const Matrix out = MatMul(a, b, par);
    // Row partitions write disjoint output blocks with identical per-row
    // arithmetic: bitwise equal to the single-chunk result.
    EXPECT_EQ(out.data(), seq.data()) << "parallelism=" << par;
  }
}

TEST(MatrixTest, CholeskyFactorAndForwardSubstitution) {
  // A = M^T M + I: symmetric positive definite.
  const size_t n = 6;
  const Matrix m = RandomMatrix(n, n, 51);
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      for (size_t k = 0; k < n; ++k) a.At(i, j) += m.At(k, i) * m.At(k, j);
    }
    a.At(i, i) += 1.0;
  }
  Matrix lower;
  ASSERT_TRUE(CholeskyFactor(a, &lower));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GT(lower.At(i, i), 0.0);
    for (size_t j = i + 1; j < n; ++j) EXPECT_EQ(lower.At(i, j), 0.0);
    for (size_t j = 0; j < n; ++j) {
      double llt = 0.0;
      for (size_t k = 0; k < n; ++k) llt += lower.At(i, k) * lower.At(j, k);
      EXPECT_NEAR(llt, a.At(i, j), 1e-12 * (1.0 + std::fabs(a.At(i, j))));
    }
  }

  // L y = b, checked by multiplying back.
  Vec b{1.0, -2.0, 0.5, 3.0, 0.0, -1.5};
  Vec y = b;
  ForwardSubstitute(lower, &y);
  for (size_t i = 0; i < n; ++i) {
    double ly = 0.0;
    for (size_t k = 0; k <= i; ++k) ly += lower.At(i, k) * y[k];
    EXPECT_NEAR(ly, b[i], 1e-12);
  }
}

TEST(MatrixTest, CholeskyRejectsIndefiniteAndSingular) {
  Matrix indefinite(2, 2);
  indefinite.At(0, 0) = 1.0;
  indefinite.At(1, 0) = indefinite.At(0, 1) = 2.0;
  indefinite.At(1, 1) = 1.0;  // eigenvalues 3 and -1
  Matrix lower;
  EXPECT_FALSE(CholeskyFactor(indefinite, &lower));
  EXPECT_FALSE(CholeskyFactor(Matrix(3, 3, 0.0), &lower));
  Matrix nan_diag(1, 1, std::nan(""));
  EXPECT_FALSE(CholeskyFactor(nan_diag, &lower));
}

// ------------------------------------------------- SIMD dispatch (vec)

/// RAII guard restoring the SIMD force-scalar hook.
class ForceScalarGuard {
 public:
  explicit ForceScalarGuard(bool force) : prev_(vec::simd::ForceScalar(force)) {}
  ~ForceScalarGuard() { vec::simd::ForceScalar(prev_); }

 private:
  bool prev_;
};

TEST(SimdTest, BackendReportsAndForceScalarWorks) {
  const std::string backend = vec::simd::Backend();
  EXPECT_TRUE(backend == "avx512" || backend == "avx2-fma" ||
              backend == "scalar")
      << backend;
  ForceScalarGuard guard(true);
  EXPECT_STREQ(vec::simd::Backend(), "scalar");
}

TEST(SimdTest, ForceBackendRoundTrip) {
  const std::string dispatched = vec::simd::Backend();
  // "scalar" is always available; success means the cap is active.
  EXPECT_TRUE(vec::simd::ForceBackend("scalar"));
  EXPECT_STREQ(vec::simd::Backend(), "scalar");
  // A higher tier succeeds only when the CPU has it; either way the
  // reported backend must be a real tier, never the raw request.
  const bool has_avx512 = vec::simd::ForceBackend("avx512");
  if (has_avx512) {
    EXPECT_STREQ(vec::simd::Backend(), "avx512");
  }
  // Unknown names clear the cap and report failure.
  EXPECT_FALSE(vec::simd::ForceBackend("sse9000"));
  EXPECT_EQ(vec::simd::Backend(), dispatched);
  // nullptr clears the cap back to runtime dispatch.
  vec::simd::ForceBackend("scalar");
  vec::simd::ForceBackend(nullptr);
  EXPECT_EQ(vec::simd::Backend(), dispatched);
  // ForceScalar trumps any cap.
  vec::simd::ForceBackend("avx2");
  ForceScalarGuard guard(true);
  EXPECT_STREQ(vec::simd::Backend(), "scalar");
  vec::simd::ForceBackend(nullptr);
}

TEST(SimdTest, RainSimdEnvRoundTrip) {
  const std::string dispatched = vec::simd::Backend();
  ASSERT_EQ(setenv("RAIN_SIMD", "scalar", 1), 0);
  vec::simd::ReloadBackendEnv();
  EXPECT_STREQ(vec::simd::Backend(), "scalar");
  // An env cap above the CPU's best tier clamps down instead of lying.
  ASSERT_EQ(setenv("RAIN_SIMD", "avx512", 1), 0);
  vec::simd::ReloadBackendEnv();
  const std::string capped = vec::simd::Backend();
  EXPECT_TRUE(capped == "avx512" || capped == "avx2-fma" ||
              capped == "scalar")
      << capped;
  // Unrecognized values fall back to runtime dispatch.
  ASSERT_EQ(setenv("RAIN_SIMD", "definitely-not-a-tier", 1), 0);
  vec::simd::ReloadBackendEnv();
  EXPECT_EQ(vec::simd::Backend(), dispatched);
  ASSERT_EQ(unsetenv("RAIN_SIMD"), 0);
  vec::simd::ReloadBackendEnv();
  EXPECT_EQ(vec::simd::Backend(), dispatched);
}

TEST(SimdTest, ScalarFallbackBitwiseMatchesReferenceLoops) {
  // The dispatch's scalar path must be the exact pre-SIMD loops: compare
  // bit for bit against inline reference folds, across sizes that cover
  // every vector-width tail.
  ForceScalarGuard guard(true);
  for (size_t n : {0u, 1u, 3u, 4u, 7u, 128u, 1001u}) {
    Vec x(n), y(n);
    Rng rng(100 + n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Uniform(-2.0, 2.0);
      y[i] = rng.Uniform(-2.0, 2.0);
    }
    double ref_dot = 0.0;
    for (size_t i = 0; i < n; ++i) ref_dot += x[i] * y[i];
    EXPECT_EQ(vec::Dot(x, y), ref_dot) << "n=" << n;

    Vec ref_axpy = y;
    for (size_t i = 0; i < n; ++i) ref_axpy[i] += 0.37 * x[i];
    Vec got = y;
    vec::Axpy(0.37, x, &got);
    EXPECT_EQ(got, ref_axpy) << "n=" << n;
  }
}

TEST(SimdTest, SimdPathDeterministicAndNearScalar) {
  if (std::string(vec::simd::Backend()) == "scalar") {
    GTEST_SKIP() << "no SIMD tier on this host";
  }
  const size_t n = 4099;  // odd: exercises the vector tail
  Vec x(n), y(n);
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-1.0, 1.0);
    y[i] = rng.Uniform(-1.0, 1.0);
  }
  const double simd1 = vec::Dot(x, y);
  const double simd2 = vec::Dot(x, y);
  EXPECT_EQ(simd1, simd2) << "SIMD dot must be deterministic";
  double scalar;
  {
    ForceScalarGuard guard(true);
    scalar = vec::Dot(x, y);
  }
  EXPECT_NEAR(simd1, scalar, 1e-12 * n) << "lane regrouping only";
}

TEST(SimdTest, AxpyChunkInvariantUnderSimd) {
  // The chunked Axpy overload must stay bitwise-identical to sequential
  // on the SIMD path too: every element is one fused rounding regardless
  // of where a chunk boundary (and hence a register/tail boundary) falls.
  const size_t n = vec::kParallelGrain * 3 + 5;  // force the parallel path
  Vec x(n), y(n);
  Rng rng(8);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-1.0, 1.0);
    y[i] = rng.Uniform(-1.0, 1.0);
  }
  Vec seq = y;
  vec::Axpy(0.25, x, &seq);
  for (int par : {2, 3, 7, 8}) {
    Vec par_out = y;
    vec::Axpy(0.25, x, &par_out, par);
    EXPECT_EQ(par_out, seq) << "parallelism=" << par;
  }
}

// --------------------------------------- kernel determinism contracts

/// Runs `fn` under every backend tier this CPU supports (always at least
/// "scalar"), restoring runtime dispatch afterwards.
template <typename Fn>
void ForEachTier(Fn&& fn) {
  for (const char* tier : {"scalar", "avx2", "avx512"}) {
    if (!vec::simd::ForceBackend(tier)) continue;
    fn(vec::simd::Backend());
  }
  vec::simd::ForceBackend(nullptr);
}

Vec RandomVecT(size_t n, uint64_t seed) {
  Rng rng(seed);
  Vec v(n);
  for (double& x : v) x = rng.Uniform(-2.0, 2.0);
  return v;
}

bool SameBits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(SimdTest, MulAdd4BitwiseEqualsFourMulAddsOnEveryTier) {
  const size_t n = 1003;  // odd: covers the 256- and 512-bit tails
  const Vec b0 = RandomVecT(n, 60), b1 = RandomVecT(n, 61),
            b2 = RandomVecT(n, 62), b3 = RandomVecT(n, 63);
  const Vec y0 = RandomVecT(n, 64);
  const double coef[4] = {1.7, -0.4, 0.0, 3.1};
  Vec ref = y0;  // scalar four-statement reference
  {
    ForceScalarGuard guard(true);
    vec::simd::MulAdd4(coef, b0.data(), b1.data(), b2.data(), b3.data(),
                       ref.data(), n);
  }
  ForEachTier([&](const char* tier) {
    Vec got = y0;
    vec::simd::MulAdd4(coef, b0.data(), b1.data(), b2.data(), b3.data(),
                       got.data(), n);
    EXPECT_TRUE(SameBits(got, ref)) << tier;
    Vec seq = y0;
    const double* bs[4] = {b0.data(), b1.data(), b2.data(), b3.data()};
    for (int j = 0; j < 4; ++j) vec::simd::MulAdd(coef[j], bs[j], seq.data(), n);
    EXPECT_TRUE(SameBits(seq, ref)) << tier << " vs 4x MulAdd";
  });
}

TEST(SimdTest, MulGatherScatterAxpyBitwiseOnEveryTier) {
  const size_t n = 517;
  const Vec x = RandomVecT(n, 65), y = RandomVecT(n, 66);
  std::vector<int32_t> idx(n);
  Rng rng(67);
  for (size_t i = 0; i < n; ++i) {
    idx[i] = static_cast<int32_t>(rng.UniformInt(n));  // duplicates likely
  }
  Vec mul_ref(n), gather_ref(n), scatter_ref;
  {
    ForceScalarGuard guard(true);
    vec::simd::Mul(x.data(), y.data(), mul_ref.data(), n);
    vec::simd::Gather(x.data(), idx.data(), gather_ref.data(), n);
    scatter_ref = y;
    vec::simd::ScatterAxpy(0.81, x.data(), idx.data(), scatter_ref.data(), n);
  }
  ForEachTier([&](const char* tier) {
    Vec mul_got(n), gather_got(n), scatter_got = y;
    vec::simd::Mul(x.data(), y.data(), mul_got.data(), n);
    vec::simd::Gather(x.data(), idx.data(), gather_got.data(), n);
    vec::simd::ScatterAxpy(0.81, x.data(), idx.data(), scatter_got.data(), n);
    EXPECT_TRUE(SameBits(mul_got, mul_ref)) << tier;
    EXPECT_TRUE(SameBits(gather_got, gather_ref)) << tier;
    EXPECT_TRUE(SameBits(scatter_got, scatter_ref)) << tier;
  });
}

TEST(SimdTest, GemmPackedBitwiseMatchesGemmOnEveryTier) {
  // Sizes straddle the packing panel boundaries (kc=192, nc=256) and the
  // 4-row register tile; ~25% exact zeros exercise the zero-skip path in
  // both kernels.
  for (const size_t m : {1u, 5u, 64u}) {
    for (const size_t k : {3u, 200u}) {
      for (const size_t n : {1u, 7u, 300u}) {
        Vec a = RandomVecT(m * k, 70 + m + k);
        Rng rng(71 + n);
        for (double& v : a) {
          if (rng.UniformInt(4) == 0) v = 0.0;
        }
        const Vec b = RandomVecT(k * n, 72 + n);
        Vec ref(m * n, 0.25);
        {
          ForceScalarGuard guard(true);
          vec::simd::Gemm(a.data(), m, k, b.data(), n, ref.data());
        }
        ForEachTier([&](const char* tier) {
          Vec unpacked(m * n, 0.25), packed(m * n, 0.25);
          vec::simd::Gemm(a.data(), m, k, b.data(), n, unpacked.data());
          vec::simd::GemmPacked(a.data(), m, k, b.data(), n, packed.data());
          EXPECT_TRUE(SameBits(unpacked, ref))
              << tier << " m=" << m << " k=" << k << " n=" << n;
          EXPECT_TRUE(SameBits(packed, ref))
              << tier << " m=" << m << " k=" << k << " n=" << n;
        });
      }
    }
  }
}

TEST(MatrixTest, MatMulBitwiseAcrossWorkersAndBackends) {
  // Matrix::MatMul routes through GemmPacked; the product must be one
  // bit pattern across 1/2/8 workers and every backend tier (zeros
  // included — the zero-skip must not depend on the row partition).
  Matrix a = RandomMatrix(61, 83, 81);
  {
    Rng rng(82);
    for (size_t r = 0; r < 61; ++r) {
      for (size_t c = 0; c < 83; ++c) {
        if (rng.UniformInt(5) == 0) a.At(r, c) = 0.0;
      }
    }
  }
  Matrix b = RandomMatrix(83, 59, 83);
  const Matrix ref = MatMul(a, b, 1);
  ForEachTier([&](const char* tier) {
    for (int par : {1, 2, 8}) {
      const Matrix out = MatMul(a, b, par);
      EXPECT_TRUE(SameBits(out.data(), ref.data()))
          << tier << " parallelism=" << par;
    }
  });
  ForceScalarGuard guard(true);
  const Matrix scalar = MatMul(a, b, 4);
  EXPECT_TRUE(SameBits(scalar.data(), ref.data()));
}

TEST(SimdTest, GemmNTBitwiseEqualsPerRowDot) {
  // GemmNT's contract: every output element IS the Dot kernel (this is
  // what lets the model HVPs batch projections without changing bits).
  const size_t m = 19, n = 11, k = 157, lda = 160, ldb = 163;
  const Vec a = RandomVecT(m * lda, 75), b = RandomVecT(n * ldb, 76);
  ForEachTier([&](const char* tier) {
    Vec out(m * n);
    vec::simd::GemmNT(a.data(), m, lda, b.data(), n, ldb, k, out.data(), n);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(out[i * n + j],
                  vec::simd::Dot(a.data() + i * lda, b.data() + j * ldb, k))
            << tier << " i=" << i << " j=" << j;
      }
    }
  });
}

TEST(SimdTest, GatherKernelsBitwiseAtCutoffBoundary) {
  // kGatherSimdCutoff is a pure performance knob: for every n around the
  // boundary, the SIMD gathers and the shaped scalar loop must produce
  // the same bits (otherwise the cutoff value would leak into results).
  const size_t kMax = vec::kGatherSimdCutoff + 3;
  const Vec v = RandomVecT(4 * kMax, 77);
  Vec probs = v;
  for (double& p : probs) p = 0.5 + 0.4 * std::tanh(p);
  const Vec w = RandomVecT(kMax, 78);
  std::vector<int32_t> idx(kMax);
  Rng rng(79);
  for (size_t i = 0; i < kMax; ++i) {
    idx[i] = static_cast<int32_t>(rng.UniformInt(4 * kMax));
  }
  for (size_t n = vec::kGatherSimdCutoff - 3; n <= kMax; ++n) {
    double sum_ref, prod_ref, one_minus_ref, dot_ref;
    {
      ForceScalarGuard guard(true);
      sum_ref = vec::simd::GatherSum(probs.data(), idx.data(), n);
      prod_ref = vec::simd::GatherProd(probs.data(), idx.data(), n);
      one_minus_ref = vec::simd::GatherProdOneMinus(probs.data(), idx.data(), n);
      dot_ref = vec::simd::GatherDot(probs.data(), idx.data(), w.data(), n);
    }
    ForEachTier([&](const char* tier) {
      EXPECT_EQ(vec::simd::GatherSum(probs.data(), idx.data(), n), sum_ref)
          << tier << " n=" << n;
      EXPECT_EQ(vec::simd::GatherProd(probs.data(), idx.data(), n), prod_ref)
          << tier << " n=" << n;
      EXPECT_EQ(vec::simd::GatherProdOneMinus(probs.data(), idx.data(), n),
                one_minus_ref)
          << tier << " n=" << n;
      EXPECT_EQ(vec::simd::GatherDot(probs.data(), idx.data(), w.data(), n),
                dot_ref)
          << tier << " n=" << n;
    });
  }
}

TEST(SimdTest, PrefixSuffixProductsExactRunningProducts) {
  const size_t k = 17;
  const Vec c = RandomVecT(k, 80);
  Vec pre(k + 1), suf(k + 1);
  vec::simd::PrefixSuffixProducts(c.data(), k, pre.data(), suf.data());
  EXPECT_EQ(pre[0], 1.0);
  EXPECT_EQ(suf[k], 1.0);
  for (size_t j = 0; j < k; ++j) {
    EXPECT_EQ(pre[j + 1], pre[j] * c[j]) << j;
    EXPECT_EQ(suf[j], suf[j + 1] * c[j]) << j;
  }
}

}  // namespace
}  // namespace rain
