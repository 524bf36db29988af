#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace rain {

Vec Matrix::RowVec(size_t r) const {
  RAIN_CHECK(r < rows_) << "row out of range";
  return Vec(Row(r), Row(r) + cols_);
}

void Matrix::SetRow(size_t r, const Vec& v) {
  RAIN_CHECK(r < rows_ && v.size() == cols_) << "SetRow shape mismatch";
  for (size_t c = 0; c < cols_; ++c) At(r, c) = v[c];
}

Vec Matrix::MatVec(const Vec& x) const {
  RAIN_CHECK(x.size() == cols_) << "MatVec shape mismatch";
  Vec out(rows_, 0.0);
  vec::simd::Gemv(data_.data(), rows_, cols_, x.data(), out.data());
  return out;
}

Vec Matrix::MatVec(const Vec& x, int parallelism) const {
  RAIN_CHECK(x.size() == cols_) << "MatVec shape mismatch";
  if (parallelism <= 1 || rows_ * cols_ < vec::kParallelGrain) return MatVec(x);
  Vec out(rows_, 0.0);
  // Row partitioning: each out[r] is a pure function of (row r, x), so
  // the chunking leaves the result bitwise identical to sequential.
  ParallelFor(parallelism, rows_, [this, &x, &out](size_t begin, size_t end, size_t) {
    vec::simd::Gemv(Row(begin), end - begin, cols_, x.data(), out.data() + begin);
  });
  return out;
}

Vec Matrix::MatTVec(const Vec& x) const {
  RAIN_CHECK(x.size() == rows_) << "MatTVec shape mismatch";
  Vec out(cols_, 0.0);
  vec::simd::GemvT(data_.data(), rows_, cols_, x.data(), out.data());
  return out;
}

Vec Matrix::MatTVec(const Vec& x, int parallelism) const {
  RAIN_CHECK(x.size() == rows_) << "MatTVec shape mismatch";
  if (parallelism <= 1 || rows_ * cols_ < vec::kParallelGrain) return MatTVec(x);
  Vec out(cols_, 0.0);
  vec::ParallelAccumulate(
      parallelism, rows_, &out, [this, &x](size_t begin, size_t end, Vec* acc) {
        vec::simd::GemvT(Row(begin), end - begin, cols_, x.data() + begin,
                         acc->data());
        return 0.0;
      });
  return out;
}

Matrix MatMul(const Matrix& a, const Matrix& b, int parallelism) {
  RAIN_CHECK(a.cols() == b.rows()) << "MatMul shape mismatch";
  Matrix out(a.rows(), b.cols());
  const size_t n = b.cols();
  const size_t k_total = a.cols();
  // Row partitioning over a; each worker runs the packed cache-blocked
  // kernel on its row block. GemmPacked accumulates every output element's
  // k-terms in ascending k order with the same roundings as Gemm and the
  // scalar loops, so the split is bitwise-invariant across worker counts.
  ParallelFor(parallelism, a.rows(), [&](size_t begin, size_t end, size_t) {
    vec::simd::GemmPacked(a.Row(begin), end - begin, k_total, b.Row(0), n,
                          out.Row(begin));
  });
  return out;
}

bool CholeskyFactor(const Matrix& a, Matrix* lower) {
  RAIN_CHECK(a.rows() == a.cols()) << "CholeskyFactor needs a square matrix";
  const size_t n = a.rows();
  *lower = Matrix(n, n);
  Matrix& l = *lower;
  for (size_t j = 0; j < n; ++j) {
    double pivot = a.At(j, j);
    for (size_t k = 0; k < j; ++k) pivot -= l.At(j, k) * l.At(j, k);
    if (!(pivot > 0.0) || !std::isfinite(pivot)) return false;
    const double diag = std::sqrt(pivot);
    l.At(j, j) = diag;
    for (size_t i = j + 1; i < n; ++i) {
      double v = a.At(i, j);
      for (size_t k = 0; k < j; ++k) v -= l.At(i, k) * l.At(j, k);
      l.At(i, j) = v / diag;
    }
  }
  return true;
}

void ForwardSubstitute(const Matrix& lower, Vec* b) {
  RAIN_CHECK(lower.rows() == lower.cols() && b->size() == lower.rows())
      << "ForwardSubstitute shape mismatch";
  Vec& y = *b;
  for (size_t i = 0; i < y.size(); ++i) {
    const double* row = lower.Row(i);
    double v = y[i];
    for (size_t k = 0; k < i; ++k) v -= row[k] * y[k];
    y[i] = v / row[i];
  }
}

}  // namespace rain
