#include "tensor/matrix.h"

#include <cmath>

#include "common/logging.h"

namespace rain {

Vec Matrix::RowVec(size_t r) const {
  RAIN_CHECK(r < rows_) << "row out of range";
  return Vec(Row(r), Row(r) + cols_);
}

void Matrix::SetRow(size_t r, const Vec& v) {
  RAIN_CHECK(r < rows_ && v.size() == cols_) << "SetRow shape mismatch";
  for (size_t c = 0; c < cols_; ++c) At(r, c) = v[c];
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

void BackSubstitute(const Matrix& lower, Vec* b) {
  RAIN_CHECK(lower.rows() == lower.cols() && b->size() == lower.rows())
      << "BackSubstitute shape mismatch";
  Vec& x = *b;
  for (size_t i = x.size(); i-- > 0;) {
    double v = x[i];
    for (size_t k = i + 1; k < x.size(); ++k) v -= lower.At(k, i) * x[k];
    x[i] = v / lower.At(i, i);
  }
}

}  // namespace rain
