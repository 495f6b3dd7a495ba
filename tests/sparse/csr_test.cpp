#include "sparse/csr.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace gridse::sparse {
namespace {

Csr random_sparse(Index rows, Index cols, double density, Rng& rng) {
  std::vector<Triplet<double>> t;
  for (Index r = 0; r < rows; ++r) {
    for (Index c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) {
        t.push_back({r, c, rng.uniform(-2.0, 2.0)});
      }
    }
  }
  return Csr::from_triplets(rows, cols, std::move(t));
}

TEST(Csr, FromTripletsSumsDuplicates) {
  const Csr m = Csr::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.5}, {1, 1, -1.0}, {0, 1, 4.0}});
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.value_at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.value_at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.value_at(1, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.value_at(1, 0), 0.0);
}

TEST(Csr, FromTripletsUnsortedWithDuplicatesMatchesDense) {
  // Rows 1 and 4 stay empty; entries arrive out of row and column order
  // with duplicates spread through the input.
  Rng rng(17);
  const Index rows = 6;
  const Index cols = 5;
  std::vector<Triplet<double>> t;
  std::vector<double> dense(static_cast<std::size_t>(rows * cols), 0.0);
  for (int k = 0; k < 80; ++k) {
    auto r = static_cast<Index>(rng.uniform_int(0, rows - 1));
    if (r == 1) r = 0;
    if (r == 4) r = 5;
    const auto c = static_cast<Index>(rng.uniform_int(0, cols - 1));
    const double v = rng.uniform(-2.0, 2.0);
    t.push_back({r, c, v});
    dense[static_cast<std::size_t>(r * cols + c)] += v;
  }
  const Csr m = Csr::from_triplets(rows, cols, t);
  EXPECT_EQ(m.row_range(1).first, m.row_range(1).second);
  EXPECT_EQ(m.row_range(4).first, m.row_range(4).second);
  const std::vector<double> got = m.to_dense();
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_NEAR(got[i], dense[i], 1e-12);
  }
  for (Index r = 0; r < rows; ++r) {
    const auto [b, e] = m.row_range(r);
    for (Index k = b + 1; k < e; ++k) {
      EXPECT_LT(m.col_idx()[static_cast<std::size_t>(k - 1)],
                m.col_idx()[static_cast<std::size_t>(k)]);
    }
  }
}

TEST(Csr, FromTripletsSumsDuplicatesInInputOrder) {
  // 1e16 + 1 rounds the 1 away, so the sum depends on the order of the
  // three duplicates; other entries interleaved in the input must not
  // change it.
  const Csr a = Csr::from_triplets(
      2, 2, {{1, 1, 1e16}, {0, 0, 5.0}, {1, 1, -1e16}, {1, 0, 2.0},
             {1, 1, 1.0}});
  EXPECT_EQ(a.value_at(1, 1), 1.0);
  const Csr b = Csr::from_triplets(
      2, 2, {{1, 1, 1e16}, {1, 0, 2.0}, {1, 1, 1.0}, {0, 0, 5.0},
             {1, 1, -1e16}});
  EXPECT_EQ(b.value_at(1, 1), 0.0);
  EXPECT_EQ(b.value_at(1, 0), 2.0);
  EXPECT_EQ(b.value_at(0, 0), 5.0);
}

TEST(Csr, OutOfRangeTripletThrows) {
  EXPECT_THROW(Csr::from_triplets(2, 2, {{2, 0, 1.0}}), InternalError);
  EXPECT_THROW(Csr::from_triplets(2, 2, {{0, -1, 1.0}}), InternalError);
}

TEST(Csr, EmptyMatrix) {
  const Csr m = Csr::from_triplets(3, 4, {});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.nnz(), 0u);
  std::vector<double> x(4, 1.0);
  std::vector<double> y(3, 99.0);
  m.multiply(x, y);
  for (const double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Csr, IdentityMultiplyIsIdentity) {
  const Csr id = Csr::identity(5);
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y(5);
  id.multiply(x, y);
  EXPECT_EQ(x, y);
}

TEST(Csr, MultiplyMatchesDenseReference) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const Index rows = static_cast<Index>(rng.uniform_int(1, 20));
    const Index cols = static_cast<Index>(rng.uniform_int(1, 20));
    const Csr m = random_sparse(rows, cols, 0.3, rng);
    const auto dense = m.to_dense();
    std::vector<double> x(static_cast<std::size_t>(cols));
    for (auto& v : x) v = rng.uniform(-1, 1);
    std::vector<double> y(static_cast<std::size_t>(rows));
    m.multiply(x, y);
    for (Index r = 0; r < rows; ++r) {
      double want = 0.0;
      for (Index c = 0; c < cols; ++c) {
        want += dense[static_cast<std::size_t>(r) * cols + c] *
                x[static_cast<std::size_t>(c)];
      }
      EXPECT_NEAR(y[static_cast<std::size_t>(r)], want, 1e-12);
    }
  }
}

TEST(Csr, MultiplyTransposeMatchesExplicitTranspose) {
  Rng rng(37);
  const Csr m = random_sparse(15, 9, 0.35, rng);
  const Csr mt = m.transpose();
  std::vector<double> x(15);
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> y1(9);
  std::vector<double> y2(9);
  m.multiply_transpose(x, y1);
  mt.multiply(x, y2);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_NEAR(y1[i], y2[i], 1e-12);
  }
}

TEST(Csr, TransposeTwiceIsIdentity) {
  Rng rng(41);
  const Csr m = random_sparse(12, 7, 0.4, rng);
  const Csr mtt = m.transpose().transpose();
  EXPECT_EQ(m.to_dense(), mtt.to_dense());
}

TEST(Csr, DiagonalExtraction) {
  const Csr m =
      Csr::from_triplets(3, 3, {{0, 0, 1.0}, {1, 2, 5.0}, {2, 2, 3.0}});
  const auto d = m.diagonal();
  EXPECT_EQ(d, (std::vector<double>{1.0, 0.0, 3.0}));
}

TEST(Csr, RowRangeAndColumnSorted) {
  Rng rng(43);
  const Csr m = random_sparse(10, 10, 0.5, rng);
  for (Index r = 0; r < 10; ++r) {
    const auto [b, e] = m.row_range(r);
    for (Index k = b; k + 1 < e; ++k) {
      EXPECT_LT(m.col_idx()[static_cast<std::size_t>(k)],
                m.col_idx()[static_cast<std::size_t>(k + 1)]);
    }
  }
}

TEST(CsrComplex, ComplexMultiply) {
  using C = std::complex<double>;
  const CsrComplex m = CsrComplex::from_triplets(
      2, 2, {{0, 0, C(1, 1)}, {0, 1, C(0, -1)}, {1, 1, C(2, 0)}});
  std::vector<C> x{C(1, 0), C(0, 1)};
  std::vector<C> y(2);
  m.multiply(x, y);
  EXPECT_NEAR(std::abs(y[0] - (C(1, 1) * C(1, 0) + C(0, -1) * C(0, 1))), 0.0,
              1e-15);
  EXPECT_NEAR(std::abs(y[1] - C(0, 2)), 0.0, 1e-15);
}

}  // namespace
}  // namespace gridse::sparse
