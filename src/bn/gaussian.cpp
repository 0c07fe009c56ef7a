#include "bn/gaussian.h"

#include <algorithm>
#include <cassert>

namespace drivefi::bn {

using util::Cholesky;
using util::Matrix;
using util::Vector;

MultivariateGaussian::MultivariateGaussian(Vector mean, Matrix covariance)
    : mean_(std::move(mean)), covariance_(std::move(covariance)) {
  assert(covariance_.rows() == mean_.size() &&
         covariance_.cols() == mean_.size());
}

MultivariateGaussian MultivariateGaussian::marginal(
    const std::vector<std::size_t>& indices) const {
  Vector m(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) m[i] = mean_[indices[i]];
  return MultivariateGaussian(std::move(m),
                              covariance_.select(indices, indices));
}

MultivariateGaussian MultivariateGaussian::condition(
    const std::vector<Evidence>& evidence,
    std::vector<std::size_t>* remaining_indices) const {
  std::vector<bool> is_evidence(dim(), false);
  std::vector<std::size_t> b_idx;
  Vector e(evidence.size());
  for (std::size_t i = 0; i < evidence.size(); ++i) {
    assert(evidence[i].index < dim());
    assert(!is_evidence[evidence[i].index] && "duplicate evidence index");
    is_evidence[evidence[i].index] = true;
    b_idx.push_back(evidence[i].index);
    e[i] = evidence[i].value;
  }
  std::vector<std::size_t> a_idx;
  for (std::size_t i = 0; i < dim(); ++i)
    if (!is_evidence[i]) a_idx.push_back(i);
  if (remaining_indices) *remaining_indices = a_idx;

  if (b_idx.empty()) return *this;
  if (a_idx.empty()) return MultivariateGaussian(Vector(0), Matrix(0, 0));

  const Matrix s_aa = covariance_.select(a_idx, a_idx);
  const Matrix s_ab = covariance_.select(a_idx, b_idx);
  const Matrix s_bb = covariance_.select(b_idx, b_idx);

  Vector mu_a(a_idx.size());
  for (std::size_t i = 0; i < a_idx.size(); ++i) mu_a[i] = mean_[a_idx[i]];
  Vector mu_b(b_idx.size());
  for (std::size_t i = 0; i < b_idx.size(); ++i) mu_b[i] = mean_[b_idx[i]];

  const Cholesky chol(s_bb);
  // K = S_ab S_bb^-1, computed as (S_bb^-1 S_ba)^T via Cholesky solves.
  const Matrix k = chol.solve(s_ab.transposed()).transposed();

  const Vector cond_mean = mu_a + k * (e - mu_b);
  Matrix cond_cov = s_aa - k * s_ab.transposed();
  // Symmetrize against round-off so downstream Cholesky stays happy.
  for (std::size_t r = 0; r < cond_cov.rows(); ++r)
    for (std::size_t c = r + 1; c < cond_cov.cols(); ++c) {
      const double v = 0.5 * (cond_cov(r, c) + cond_cov(c, r));
      cond_cov(r, c) = v;
      cond_cov(c, r) = v;
    }
  return MultivariateGaussian(cond_mean, std::move(cond_cov));
}

}  // namespace drivefi::bn
