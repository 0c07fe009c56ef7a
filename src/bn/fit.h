// Maximum-likelihood estimation of linear-Gaussian CPDs from data. The
// paper trains its 3-TBN on golden (fault-free) traces of the ADS; this is
// the corresponding fitting step: per-node ridge-regularized least squares
// on [parents -> node], residual variance as the ML noise estimate.
#pragma once

#include <string>
#include <vector>

#include "bn/network.h"

namespace drivefi::bn {

// A dataset is column-labeled; each row assigns every column one value.
struct Dataset {
  std::vector<std::string> columns;
  std::vector<std::vector<double>> rows;

  std::size_t column_index(const std::string& name) const;
  void add_row(std::vector<double> row);
};

struct FitOptions {
  // Tikhonov regularization for near-collinear golden traces (e.g. cruise
  // segments where speed barely varies).
  double ridge = 1e-8;
  // Floor on residual variance so deterministic relationships stay
  // invertible downstream.
  double min_variance = 1e-10;
};

struct NodeSpec {
  std::string name;
  std::vector<std::string> parents;
};

// Fits one CPD per spec, reading node/parent values from the dataset by
// column name. The DAG is induced by the specs (parents must be declared
// before children).
LinearGaussianNetwork fit_network(const std::vector<NodeSpec>& specs,
                                  const Dataset& data,
                                  const FitOptions& options = {});

}  // namespace drivefi::bn
