// Multivariate Gaussian with exact conditioning and marginalization.
// A compiled linear-Gaussian Bayesian network is one of these; posterior
// inference (the paper's eq. (2) MLE) is a conditioning operation, since
// the mode of a Gaussian posterior is its mean.
#pragma once

#include <vector>

#include "util/matrix.h"

namespace drivefi::bn {

struct Evidence {
  std::size_t index;  // variable index within the joint
  double value;
};

class MultivariateGaussian {
 public:
  MultivariateGaussian() = default;
  MultivariateGaussian(util::Vector mean, util::Matrix covariance);

  std::size_t dim() const { return mean_.size(); }
  const util::Vector& mean() const { return mean_; }
  const util::Matrix& covariance() const { return covariance_; }

  // Marginal over the listed indices (order preserved).
  MultivariateGaussian marginal(const std::vector<std::size_t>& indices) const;

  // Exact conditional distribution of the remaining variables given
  // evidence on a subset:  x_a | x_b = e  ~  N(mu_a + S_ab S_bb^-1 (e -
  // mu_b), S_aa - S_ab S_bb^-1 S_ba). The returned Gaussian is over all
  // non-evidence variables in their original relative order;
  // remaining_indices reports which joint indices those are.
  MultivariateGaussian condition(
      const std::vector<Evidence>& evidence,
      std::vector<std::size_t>* remaining_indices = nullptr) const;

 private:
  util::Vector mean_;
  util::Matrix covariance_;
};

}  // namespace drivefi::bn
