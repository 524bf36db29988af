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

  // L^T x = y completes the solve A x = b.
  Vec x = y;
  BackSubstitute(lower, &x);
  for (size_t i = 0; i < n; ++i) {
    double ax = 0.0;
    for (size_t k = 0; k < n; ++k) ax += a.At(i, k) * x[k];
    EXPECT_NEAR(ax, b[i], 1e-10);
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

/// RAII guard capping the dispatch at the scalar tier; clears the cap
/// on exit.
class ScalarTierGuard {
 public:
  ScalarTierGuard() { vec::simd::ForceBackend("scalar"); }
  ~ScalarTierGuard() { vec::simd::ForceBackend(nullptr); }
};

TEST(SimdTest, BackendReportsAndScalarCapWorks) {
  const std::string backend = vec::simd::Backend();
  EXPECT_TRUE(backend == "avx512" || backend == "avx2-fma" ||
              backend == "scalar")
      << backend;
  ScalarTierGuard guard;
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
  ScalarTierGuard guard;
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
    ScalarTierGuard guard;
    scalar = vec::Dot(x, y);
  }
  EXPECT_NEAR(simd1, scalar, 1e-12 * n) << "lane regrouping only";
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

TEST(SimdTest, RelaxKernelsMatchReferenceLoops) {
  const size_t n = 517;
  const Vec x = RandomVecT(n, 65), y = RandomVecT(n, 66);
  std::vector<int32_t> idx(n);
  Rng rng(67);
  for (size_t i = 0; i < n; ++i) {
    idx[i] = static_cast<int32_t>(rng.UniformInt(n));  // duplicates likely
  }
  Vec mul_ref(n), gather_ref(n), scatter_ref = y;
  for (size_t i = 0; i < n; ++i) {
    mul_ref[i] = x[i] * y[i];
    gather_ref[i] = x[idx[i]];
    scatter_ref[idx[i]] += 0.81 * x[i];
  }
  Vec mul_got(n), gather_got(n), scatter_got = y;
  vec::simd::Mul(x.data(), y.data(), mul_got.data(), n);
  vec::simd::Gather(x.data(), idx.data(), gather_got.data(), n);
  vec::simd::ScatterAxpy(0.81, x.data(), idx.data(), scatter_got.data(), n);
  EXPECT_TRUE(SameBits(mul_got, mul_ref));
  EXPECT_TRUE(SameBits(gather_got, gather_ref));
  EXPECT_TRUE(SameBits(scatter_got, scatter_ref));

  // The gather reductions over values whose sums and products are exact,
  // so any grouping equals the naive fold; n covers every lane tail.
  const Vec ints = {3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, -6.0, 5.0};
  const Vec pows = {0.5, 2.0, 0.25, -1.0, 4.0, 0.5, -0.5, 2.0, 0.75};
  const Vec w = {2.0, -3.0, 1.0, 4.0, -2.0, 5.0, 1.0, -1.0, 3.0, 2.0};
  const std::vector<int32_t> pick = {8, 2, 5, 0, 7, 3, 3, 6, 1, 4};
  for (size_t k = 0; k <= pick.size(); ++k) {
    double sum = 0.0, prod = 1.0, one_minus = 1.0, dot = 0.0;
    for (size_t i = 0; i < k; ++i) {
      sum += ints[pick[i]];
      prod *= pows[pick[i]];
      one_minus *= 1.0 - pows[pick[i]];
      dot += ints[pick[i]] * w[i];
    }
    EXPECT_EQ(vec::simd::GatherSum(ints.data(), pick.data(), k), sum) << k;
    EXPECT_EQ(vec::simd::GatherProd(pows.data(), pick.data(), k), prod) << k;
    EXPECT_EQ(vec::simd::GatherProdOneMinus(pows.data(), pick.data(), k),
              one_minus)
        << k;
    EXPECT_EQ(vec::simd::GatherDot(ints.data(), pick.data(), w.data(), k), dot) << k;
  }
}

TEST(SimdTest, GemvRowsAreDotsOnEveryTier) {
  // Gemv's contract: out[r] is the Dot kernel over row r, on every tier.
  // A small exact case pins the values themselves.
  const double a[] = {1.0, 0.0, 2.0, 0.0, 3.0, 1.0};
  const double x[] = {1.0, 2.0, 3.0};
  ForEachTier([&](const char* tier) {
    double out[2] = {-1.0, -1.0};
    vec::simd::Gemv(a, 2, 3, x, out);
    EXPECT_EQ(out[0], 7.0) << tier;
    EXPECT_EQ(out[1], 9.0) << tier;
  });
  const size_t rows = 23, cols = 1003;  // odd: covers the 256- and 512-bit tails
  const Vec m = RandomVecT(rows * cols, 73), v = RandomVecT(cols, 74);
  ForEachTier([&](const char* tier) {
    Vec out(rows);
    vec::simd::Gemv(m.data(), rows, cols, v.data(), out.data());
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(out[r], vec::simd::Dot(m.data() + r * cols, v.data(), cols))
          << tier << " r=" << r;
    }
  });
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
