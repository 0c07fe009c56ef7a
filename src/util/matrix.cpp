#include "util/matrix.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/bits.h"

namespace drivefi::util {

Vector& Vector::operator+=(const Vector& rhs) {
  assert(size() == rhs.size());
  for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  assert(size() == rhs.size());
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs[i];
  return *this;
}

Vector& Vector::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

double Vector::dot(const Vector& rhs) const {
  assert(size() == rhs.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < size(); ++i) acc += data_[i] * rhs[i];
  return acc;
}

double Vector::norm() const { return std::sqrt(dot(*this)); }

double Vector::norm_inf() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

bool bits_equal(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!bits_equal(a[i], b[i])) return false;
  return true;
}

bool bits_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      if (!bits_equal(a(r, c), b(r, c))) return false;
  return true;
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
Vector operator*(double s, Vector v) { return v *= s; }

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    assert(r.size() == cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Vector Matrix::col(std::size_t c) const {
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

Matrix Matrix::select(const std::vector<std::size_t>& row_idx,
                      const std::vector<std::size_t>& col_idx) const {
  Matrix out(row_idx.size(), col_idx.size());
  for (std::size_t r = 0; r < row_idx.size(); ++r)
    for (std::size_t c = 0; c < col_idx.size(); ++c)
      out(r, c) = (*this)(row_idx[r], col_idx[c]);
  return out;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(double s, Matrix m) { return m *= s; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double av = a(r, k);
      if (av == 0.0) continue;
      for (std::size_t c = 0; c < b.cols(); ++c) out(r, c) += av * b(k, c);
    }
  }
  return out;
}

Vector operator*(const Matrix& a, const Vector& x) {
  assert(a.cols() == x.size());
  Vector out(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) acc += a(r, c) * x[c];
    out[r] = acc;
  }
  return out;
}

Cholesky::Cholesky(const Matrix& a, double jitter) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  // Retry with geometrically growing jitter: BN covariances are often
  // rank-deficient because deterministic nodes carry ~zero noise.
  double eps = 0.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    l_ = Matrix(n, n);
    bool failed = false;
    for (std::size_t j = 0; j < n && !failed; ++j) {
      double diag = a(j, j) + eps;
      for (std::size_t k = 0; k < j; ++k) diag -= l_(j, k) * l_(j, k);
      if (diag <= 0.0) {
        failed = true;
        break;
      }
      const double ljj = std::sqrt(diag);
      l_(j, j) = ljj;
      for (std::size_t i = j + 1; i < n; ++i) {
        double v = a(i, j);
        for (std::size_t k = 0; k < j; ++k) v -= l_(i, k) * l_(j, k);
        l_(i, j) = v / ljj;
      }
    }
    if (!failed) {
      ok_ = true;
      return;
    }
    eps = (eps == 0.0) ? std::max(jitter, a.max_abs() * 1e-14) : eps * 100.0;
  }
  ok_ = false;
}

Vector Cholesky::solve(const Vector& b) const {
  const std::size_t n = l_.rows();
  assert(b.size() == n);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l_(i, k) * y[k];
    y[i] = v / l_(i, i);
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l_(k, ii) * x[k];
    x[ii] = v / l_(ii, ii);
  }
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  Matrix out(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    const Vector x = solve(b.col(c));
    for (std::size_t r = 0; r < b.rows(); ++r) out(r, c) = x[r];
  }
  return out;
}

Lu::Lu(const Matrix& a) : lu_(a), perm_(a.rows()) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    double best = std::abs(lu_(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) {
      singular_ = true;
      return;
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(lu_(pivot, c), lu_(col, c));
      std::swap(perm_[pivot], perm_[col]);
    }
    const double inv_pivot = 1.0 / lu_(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu_(r, col) * inv_pivot;
      lu_(r, col) = factor;
      for (std::size_t c = col + 1; c < n; ++c)
        lu_(r, c) -= factor * lu_(col, c);
    }
  }
}

Vector Lu::solve(const Vector& b) const {
  if (singular_) throw std::runtime_error("Lu::solve on singular matrix");
  const std::size_t n = lu_.rows();
  assert(b.size() == n);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[perm_[i]];
    for (std::size_t k = 0; k < i; ++k) v -= lu_(i, k) * y[k];
    y[i] = v;
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= lu_(ii, k) * x[k];
    x[ii] = v / lu_(ii, ii);
  }
  return x;
}

Matrix Lu::solve(const Matrix& b) const {
  Matrix out(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    const Vector x = solve(b.col(c));
    for (std::size_t r = 0; r < b.rows(); ++r) out(r, c) = x[r];
  }
  return out;
}

Matrix Lu::inverse() const { return solve(Matrix::identity(lu_.rows())); }

}  // namespace drivefi::util
