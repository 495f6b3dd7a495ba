#include "sparse/symbolic_plan.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "sparse/ldlt.hpp"
#include "sparse/preconditioner.hpp"
#include "util/rng.hpp"

namespace gridse::sparse {
namespace {

Csr random_spd(Index n, Rng& rng, double density = 0.2) {
  std::vector<Triplet<double>> t;
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j <= i; ++j) {
      if (i == j || rng.bernoulli(density)) {
        const double v = (i == j) ? rng.uniform(2.0, 4.0) + n * 0.2
                                  : rng.uniform(-0.5, 0.5);
        t.push_back({i, j, v});
        if (i != j) t.push_back({j, i, v});
      }
    }
  }
  return Csr::from_triplets(n, n, std::move(t));
}

/// Same pattern as `a`, different values.
Csr revalue(const Csr& a, Rng& rng) {
  std::vector<Triplet<double>> t;
  for (Index r = 0; r < a.rows(); ++r) {
    const auto [b, e] = a.row_range(r);
    for (Index k = b; k < e; ++k) {
      const Index c = a.col_idx()[static_cast<std::size_t>(k)];
      if (c > r) continue;
      const double v = (r == c) ? rng.uniform(3.0, 6.0) + a.rows() * 0.2
                                : rng.uniform(-0.4, 0.4);
      t.push_back({r, c, v});
      if (r != c) t.push_back({c, r, v});
    }
  }
  return Csr::from_triplets(a.rows(), a.cols(), std::move(t));
}

TEST(PatternFingerprint, SamePatternDifferentValuesMatch) {
  Rng rng(11);
  const Csr a = random_spd(30, rng);
  const Csr b = revalue(a, rng);
  EXPECT_EQ(fingerprint_pattern(a), fingerprint_pattern(b));
}

TEST(PatternFingerprint, PatternChangeBreaksMatch) {
  Rng rng(12);
  const Csr a = random_spd(20, rng);
  // Add one off-diagonal entry the original does not have.
  std::vector<Triplet<double>> t;
  for (Index r = 0; r < a.rows(); ++r) {
    const auto [b, e] = a.row_range(r);
    for (Index k = b; k < e; ++k) {
      t.push_back({r, a.col_idx()[static_cast<std::size_t>(k)],
                   a.values()[static_cast<std::size_t>(k)]});
    }
  }
  Index hole_i = -1;
  Index hole_j = -1;
  for (Index i = 0; i < a.rows() && hole_i < 0; ++i) {
    for (Index j = 0; j < a.rows(); ++j) {
      if (i != j && a.value_at(i, j) == 0.0) {
        hole_i = i;
        hole_j = j;
        break;
      }
    }
  }
  ASSERT_GE(hole_i, 0);
  t.push_back({hole_i, hole_j, 0.25});
  t.push_back({hole_j, hole_i, 0.25});
  const Csr grown = Csr::from_triplets(a.rows(), a.cols(), std::move(t));
  EXPECT_NE(fingerprint_pattern(a), fingerprint_pattern(grown));

  const SymbolicPlan plan = SymbolicPlan::analyze(a);
  EXPECT_TRUE(plan.matches(a));
  EXPECT_FALSE(plan.matches(grown));
}

TEST(SymbolicPlan, PlanDrivenLdltMatchesFromScratch) {
  Rng rng(21);
  const Csr a = random_spd(60, rng);
  std::vector<double> x_true(60);
  for (auto& v : x_true) v = rng.uniform(-2, 2);
  std::vector<double> b(60);
  a.multiply(x_true, b);

  SparseLdlt scratch;
  scratch.factorize(a);
  const auto x_ref = scratch.solve(b);

  const auto plan = std::make_shared<const SymbolicPlan>(
      SymbolicPlan::analyze(a, /*use_ordering=*/true));
  SparseLdlt planned;
  planned.factorize(a, plan);
  const auto x = planned.solve(b);
  ASSERT_EQ(x.size(), x_ref.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-10);
    EXPECT_NEAR(x[i], x_true[i], 1e-8);
  }
}

TEST(SymbolicPlan, RefactorizationReusesPlanAcrossValueChanges) {
  // The Gauss–Newton inner loop: same pattern, new values every iteration.
  Rng rng(22);
  const Csr a = random_spd(40, rng);
  const auto plan = std::make_shared<const SymbolicPlan>(
      SymbolicPlan::analyze(a));
  SparseLdlt planned;
  for (int iter = 0; iter < 4; ++iter) {
    const Csr b = revalue(a, rng);
    ASSERT_TRUE(plan->matches(b));
    planned.factorize(b, plan);

    std::vector<double> x_true(40);
    for (auto& v : x_true) v = rng.uniform(-1, 1);
    std::vector<double> rhs(40);
    b.multiply(x_true, rhs);
    const auto x = planned.solve(rhs);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], x_true[i], 1e-8) << "iter " << iter;
    }
  }
}

TEST(SymbolicPlan, UnorderedPlanUsesIdentityPermutation) {
  Rng rng(23);
  const Csr a = random_spd(15, rng);
  const SymbolicPlan plan = SymbolicPlan::analyze(a, /*use_ordering=*/false);
  EXPECT_FALSE(plan.ordered());
  for (Index i = 0; i < a.rows(); ++i) {
    EXPECT_EQ(plan.perm()[static_cast<std::size_t>(i)], i);
  }
}

TEST(SymbolicPlan, Ic0FacetMatchesPlainPreconditioner) {
  Rng rng(24);
  const Csr a = random_spd(50, rng);
  const SymbolicPlan plan = SymbolicPlan::analyze(a, /*use_ordering=*/false);

  const Ic0Preconditioner plain(a);
  const Ic0Preconditioner planned(a, plan);
  std::vector<double> r(50);
  for (auto& v : r) v = rng.uniform(-1, 1);
  std::vector<double> z1(50);
  std::vector<double> z2(50);
  plain.apply(r, z1);
  planned.apply(r, z2);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_NEAR(z1[i], z2[i], 1e-12);
  }
}

TEST(SymbolicPlan, ValueMapGathersPermutedValues) {
  Rng rng(25);
  const Csr a = random_spd(20, rng);
  const SymbolicPlan plan = SymbolicPlan::analyze(a);
  const auto n = static_cast<std::size_t>(a.rows());
  ASSERT_EQ(plan.permuted_row_ptr().size(), n + 1);
  // B = P A Pᵀ entry-by-entry through the map.
  for (std::size_t bi = 0; bi < n; ++bi) {
    const auto begin = static_cast<std::size_t>(plan.permuted_row_ptr()[bi]);
    const auto end = static_cast<std::size_t>(plan.permuted_row_ptr()[bi + 1]);
    for (std::size_t p = begin; p < end; ++p) {
      const auto bj = static_cast<std::size_t>(plan.permuted_col_idx()[p]);
      const Index oi = plan.perm()[bi];
      const Index oj = plan.perm()[bj];
      const double via_map =
          a.values()[static_cast<std::size_t>(plan.value_map()[p])];
      EXPECT_DOUBLE_EQ(via_map, a.value_at(oi, oj));
    }
  }
}

TEST(SymbolicPlan, OrderedPlanCarriesNoIc0Facet) {
  Rng rng(25);
  const Csr a = random_spd(30, rng);
  const SymbolicPlan ordered = SymbolicPlan::analyze(a, /*use_ordering=*/true);
  EXPECT_TRUE(ordered.lower_row_ptr().empty());
  EXPECT_TRUE(ordered.lower_col_idx().empty());
  EXPECT_THROW(Ic0Preconditioner(a, ordered), InternalError);
  const SymbolicPlan plain = SymbolicPlan::analyze(a, /*use_ordering=*/false);
  EXPECT_EQ(plain.lower_row_ptr().size(), static_cast<std::size_t>(31));
}

TEST(SymbolicPlan, ZeroPivotThrowsInNumericKernel) {
  // Pattern factors fine; values make the second pivot exactly zero.
  const Csr a = Csr::from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, 0.0}});
  const auto plan = std::make_shared<const SymbolicPlan>(
      SymbolicPlan::analyze(a, /*use_ordering=*/false));
  SparseLdlt planned;
  EXPECT_THROW(planned.factorize(a, plan), ConvergenceFailure);
  EXPECT_FALSE(planned.factored());
  EXPECT_THROW((void)planned.solve(std::vector<double>{1.0, 1.0}),
               InternalError);
}

}  // namespace
}  // namespace gridse::sparse
