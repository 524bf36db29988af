#ifndef RAIN_TENSOR_MATRIX_H_
#define RAIN_TENSOR_MATRIX_H_

#include <cstddef>
#include <vector>

#include "tensor/vector_ops.h"

namespace rain {

/// \brief Dense row-major matrix of doubles.
///
/// Used for feature matrices (n_examples x n_features), class-probability
/// matrices (n_examples x n_classes), and MLP weight blocks.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Pointer to the start of row r (contiguous, cols() doubles).
  double* Row(size_t r) { return data_.data() + r * cols_; }
  const double* Row(size_t r) const { return data_.data() + r * cols_; }

  /// Copies row r into a Vec.
  Vec RowVec(size_t r) const;
  /// Overwrites row r from v (v.size() must equal cols()).
  void SetRow(size_t r, const Vec& v);

  const Vec& data() const { return data_; }
  Vec& data() { return data_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  Vec data_;
};

/// Cholesky factor of a symmetric positive-definite matrix: writes the
/// lower-triangular `lower` with a = lower * lower^T (only the lower
/// triangle of `a` is read; the strict upper triangle of `lower` is 0).
/// Sequential scalar arithmetic in a fixed order, so the factor is a pure
/// function of `a`. Returns false when a pivot is not positive and finite,
/// i.e. `a` is not numerically positive definite.
bool CholeskyFactor(const Matrix& a, Matrix* lower);

/// Solves lower * y = b by forward substitution, overwriting `b` with y.
/// `lower` is a CholeskyFactor output; b.size() must equal its order.
void ForwardSubstitute(const Matrix& lower, Vec* b);

/// Solves lower^T * x = b by back substitution, overwriting `b` with x.
/// After ForwardSubstitute, this completes the solve (lower lower^T) x = b.
void BackSubstitute(const Matrix& lower, Vec* b);

}  // namespace rain

#endif  // RAIN_TENSOR_MATRIX_H_
