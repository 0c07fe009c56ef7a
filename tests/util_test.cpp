#include <gtest/gtest.h>

#include <cmath>

#include "util/matrix.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace drivefi::util {
namespace {

// ---------- Rng ----------

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform_index(13), 13u);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) EXPECT_GT(c, 800);  // ~1000 expected each
}

TEST(Rng, GaussianMoments) {
  Rng rng(42);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ForkIndependence) {
  Rng parent(5);
  Rng child_a = parent.fork(0);
  Rng child_b = parent.fork(1);
  EXPECT_NE(child_a.next_u64(), child_b.next_u64());
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

// ---------- Vector / Matrix ----------

TEST(Vector, Arithmetic) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{4.0, 5.0, 6.0};
  const Vector sum = a + b;
  EXPECT_DOUBLE_EQ(sum[0], 5.0);
  EXPECT_DOUBLE_EQ(sum[2], 9.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_DOUBLE_EQ((2.0 * a)[1], 4.0);
}

TEST(Vector, Norms) {
  Vector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm_inf(), 4.0);
}

TEST(Matrix, MultiplyIdentity) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix result = a * Matrix::identity(2);
  EXPECT_DOUBLE_EQ(result(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(result(1, 0), 3.0);
}

TEST(Matrix, MultiplyKnown) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, TransposeSelect) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  const Matrix sub = a.select({1}, {0, 2});
  EXPECT_DOUBLE_EQ(sub(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(sub(0, 1), 6.0);
}

TEST(Cholesky, FactorsAndSolves) {
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  Cholesky chol(a);
  ASSERT_TRUE(chol.ok());
  const Vector x = chol.solve(Vector{8.0, 7.0});
  // Verify A x = b.
  EXPECT_NEAR(4.0 * x[0] + 2.0 * x[1], 8.0, 1e-10);
  EXPECT_NEAR(2.0 * x[0] + 3.0 * x[1], 7.0, 1e-10);
}

TEST(Cholesky, HandlesNearSingularWithJitter) {
  // Rank-1 covariance (deterministic node case).
  Matrix a{{1.0, 1.0}, {1.0, 1.0}};
  Cholesky chol(a);
  EXPECT_TRUE(chol.ok());
}

TEST(Lu, SolveRandomSystems) {
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(8);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-2.0, 2.0);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 4.0;  // diag dominance
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-5.0, 5.0);

    Lu lu(a);
    ASSERT_FALSE(lu.singular());
    const Vector x = lu.solve(b);
    const Vector residual = a * x - b;
    EXPECT_LT(residual.norm_inf(), 1e-9);
  }
}

TEST(Lu, InverseRoundTrip) {
  Matrix a{{2.0, 1.0, 0.0}, {1.0, 3.0, 1.0}, {0.0, 1.0, 2.0}};
  const Matrix inv = Lu(a).inverse();
  const Matrix prod = a * inv;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-10);
}

TEST(Lu, DetectsSingular) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_TRUE(Lu(a).singular());
}

// Property: Cholesky and LU agree on SPD systems.
TEST(MatrixProperty, CholeskyAgreesWithLu) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(6);
    Matrix m(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
    const Matrix spd = m * m.transposed() + 0.5 * Matrix::identity(n);
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-1.0, 1.0);

    const Vector x_chol = Cholesky(spd).solve(b);
    const Vector x_lu = Lu(spd).solve(b);
    EXPECT_LT((x_chol - x_lu).norm_inf(), 1e-8);
  }
}

// ---------- Stats ----------

TEST(RunningStats, MeanVariance) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Percentiles, Quantiles) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(p.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(p.quantile(0.5), 50.5, 1e-9);
}

// ---------- Table ----------

TEST(Table, AsciiAndCsv) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("| a"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, Formatting) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_int(42), "42");
  EXPECT_EQ(Table::fmt_pct(0.1234, 1), "12.3%");
}

}  // namespace
}  // namespace drivefi::util
