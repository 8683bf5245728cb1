#ifndef TSDM_COMMON_MATRIX_H_
#define TSDM_COMMON_MATRIX_H_

#include <cstddef>
#include <vector>

#include "src/common/status.h"

namespace tsdm {

/// Dense row-major matrix of doubles. This small linear-algebra layer backs
/// the regression, PCA, and graph solvers in the library; it favors clarity
/// over BLAS-level performance, which is adequate at the problem sizes the
/// benchmarks use.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);
  /// Builds a matrix from nested initializer-style data (rows of equal size).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Returns row r as a vector copy.
  std::vector<double> Row(size_t r) const;
  /// Returns column c as a vector copy.
  std::vector<double> Col(size_t c) const;

  Matrix Transpose() const;
  /// Matrix product; requires cols() == other.rows().
  Matrix MatMul(const Matrix& other) const;
  /// Matrix-vector product; requires cols() == v.size().
  std::vector<double> MatVec(const std::vector<double>& v) const;
  Matrix Subtract(const Matrix& other) const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Solves A x = b by Gaussian elimination with partial pivoting.
/// Fails with InvalidArgument on shape mismatch and Internal on a (near-)
/// singular system.
Result<std::vector<double>> SolveLinearSystem(const Matrix& a,
                                              const std::vector<double>& b);

/// Ridge regression: solves (X^T X + lambda I) w = X^T y.
/// With lambda > 0 the normal equations are always well-posed.
Result<std::vector<double>> RidgeSolve(const Matrix& x,
                                       const std::vector<double>& y,
                                       double lambda);

/// Eigen-decomposition of a symmetric matrix via cyclic Jacobi rotations.
/// Eigen-pairs are returned sorted by descending eigenvalue.
struct EigenDecomposition {
  std::vector<double> eigenvalues;
  Matrix eigenvectors;  ///< Column k is the eigenvector for eigenvalues[k].
};
Result<EigenDecomposition> SymmetricEigen(const Matrix& a,
                                          int max_sweeps = 64);

/// Dot product; requires equal sizes (checked by assert-like clamp).
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// L2 norm of v.
double Norm2(const std::vector<double>& v);

}  // namespace tsdm

#endif  // TSDM_COMMON_MATRIX_H_
