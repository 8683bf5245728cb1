#include "src/common/matrix.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tsdm {

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows[r].size() && c < m.cols(); ++c) {
      m(r, c) = rows[r][c];
    }
  }
  return m;
}

std::vector<double> Matrix::Row(size_t r) const {
  return std::vector<double>(data_.begin() + r * cols_,
                             data_.begin() + (r + 1) * cols_);
}

std::vector<double> Matrix::Col(size_t c) const {
  std::vector<double> out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  Matrix out(rows_, other.cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      double v = (*this)(r, k);
      if (v == 0.0) continue;
      for (size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += v * other(k, c);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::MatVec(const std::vector<double>& v) const {
  std::vector<double> out(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * v[c];
    out[r] = acc;
  }
  return out;
}

Matrix Matrix::Subtract(const Matrix& other) const {
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

double Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

Result<std::vector<double>> SolveLinearSystem(const Matrix& a,
                                              const std::vector<double>& b) {
  size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    return Status::InvalidArgument("SolveLinearSystem: shape mismatch");
  }
  // Augmented working copy.
  Matrix m = a;
  std::vector<double> rhs = b;
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);

  for (size_t col = 0; col < n; ++col) {
    // Partial pivot.
    size_t pivot = col;
    double best = std::fabs(m(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      double v = std::fabs(m(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-12) {
      return Status::Internal("SolveLinearSystem: singular matrix");
    }
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(m(col, c), m(pivot, c));
      std::swap(rhs[col], rhs[pivot]);
    }
    double diag = m(col, col);
    for (size_t r = col + 1; r < n; ++r) {
      double factor = m(r, col) / diag;
      if (factor == 0.0) continue;
      for (size_t c = col; c < n; ++c) m(r, c) -= factor * m(col, c);
      rhs[r] -= factor * rhs[col];
    }
  }
  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (size_t ri = n; ri-- > 0;) {
    double acc = rhs[ri];
    for (size_t c = ri + 1; c < n; ++c) acc -= m(ri, c) * x[c];
    x[ri] = acc / m(ri, ri);
  }
  return x;
}

Result<std::vector<double>> RidgeSolve(const Matrix& x,
                                       const std::vector<double>& y,
                                       double lambda) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("RidgeSolve: X rows must match y size");
  }
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("RidgeSolve: empty design matrix");
  }
  Matrix xt = x.Transpose();
  Matrix gram = xt.MatMul(x);
  for (size_t i = 0; i < gram.rows(); ++i) gram(i, i) += lambda;
  std::vector<double> xty = xt.MatVec(y);
  return SolveLinearSystem(gram, xty);
}

Result<EigenDecomposition> SymmetricEigen(const Matrix& a, int max_sweeps) {
  size_t n = a.rows();
  if (a.cols() != n) {
    return Status::InvalidArgument("SymmetricEigen: matrix must be square");
  }
  Matrix d = a;
  Matrix v = Matrix::Identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) off += d(p, q) * d(p, q);
    }
    if (off < 1e-20) break;
    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        if (std::fabs(d(p, q)) < 1e-15) continue;
        double theta = (d(q, q) - d(p, p)) / (2.0 * d(p, q));
        double t = (theta >= 0 ? 1.0 : -1.0) /
                   (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        double c = 1.0 / std::sqrt(t * t + 1.0);
        double s = t * c;
        // Apply rotation to rows/cols p and q of d.
        for (size_t k = 0; k < n; ++k) {
          double dkp = d(k, p), dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (size_t k = 0; k < n; ++k) {
          double dpk = d(p, k), dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        for (size_t k = 0; k < n; ++k) {
          double vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  EigenDecomposition out;
  out.eigenvalues.resize(n);
  for (size_t i = 0; i < n; ++i) out.eigenvalues[i] = d(i, i);
  // Sort by descending eigenvalue, permuting eigenvector columns to match.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t i, size_t j) {
    return out.eigenvalues[i] > out.eigenvalues[j];
  });
  EigenDecomposition sorted;
  sorted.eigenvalues.resize(n);
  sorted.eigenvectors = Matrix(n, n);
  for (size_t k = 0; k < n; ++k) {
    sorted.eigenvalues[k] = out.eigenvalues[order[k]];
    for (size_t r = 0; r < n; ++r) {
      sorted.eigenvectors(r, k) = v(r, order[k]);
    }
  }
  return sorted;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double Norm2(const std::vector<double>& v) {
  return std::sqrt(Dot(v, v));
}

}  // namespace tsdm
