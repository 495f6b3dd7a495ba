// The supernodal LDLᵀ kernel: the partition SymbolicPlan computes, agreement
// with dense references over structured and random patterns, zero pivots,
// determinism, and the 10k-tier matrices the estimator factors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "core/local_estimator.hpp"
#include "decomp/decomposition.hpp"
#include "decomp/sensitivity.hpp"
#include "grid/meas_generator.hpp"
#include "grid/meas_model.hpp"
#include "io/synthetic.hpp"
#include "sparse/dense.hpp"
#include "sparse/ldlt.hpp"
#include "sparse/normal_equations.hpp"
#include "sparse/symbolic_plan.hpp"
#include "util/rng.hpp"

namespace gridse::sparse {
namespace {

std::size_t at(Index i) { return static_cast<std::size_t>(i); }

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

/// Diagonally dominant symmetric matrix over the given undirected edges.
Csr spd_on_edges(Index n, const std::vector<std::pair<Index, Index>>& edges,
                 Rng& rng) {
  std::vector<Triplet<double>> t;
  std::vector<double> diag(at(n), 1.0);
  for (const auto& [i, j] : edges) {
    const double v = rng.uniform(-1.0, 1.0);
    t.push_back({i, j, v});
    t.push_back({j, i, v});
    diag[at(i)] += std::abs(v);
    diag[at(j)] += std::abs(v);
  }
  for (Index i = 0; i < n; ++i) t.push_back({i, i, diag[at(i)]});
  return Csr::from_triplets(n, n, std::move(t));
}

std::vector<double> dense_solve(const Csr& a, std::span<const double> b) {
  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<double> vals = a.to_dense();
  DenseMatrix dm(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) dm(i, j) = vals[i * n + j];
  }
  return dm.solve_spd(b);
}

double relative_residual(const Csr& a, std::span<const double> x,
                         std::span<const double> b) {
  std::vector<double> ax(b.size());
  a.multiply(x, ax);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    num += (ax[i] - b[i]) * (ax[i] - b[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num) / std::sqrt(den);
}

std::vector<double> random_vector(Index n, Rng& rng) {
  std::vector<double> v(at(n));
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Supernodes are contiguous and cover 0..n-1, each panel lists its own
/// columns first and sorted rows below them, and the structure of every
/// column of L (row subtrees of the elimination tree over B = PAPᵀ) lies
/// in its supernode's rows. Returns the widest supernode.
Index expect_partition_invariants(const SymbolicPlan& plan) {
  const Index n = plan.dim();
  const auto sc = plan.supernode_cols();
  const Index ns = plan.supernode_count();
  EXPECT_EQ(sc.front(), 0);
  EXPECT_EQ(sc.back(), n);
  Index widest = 0;
  std::size_t panel = 0;
  for (Index s = 0; s < ns; ++s) {
    const Index f = sc[at(s)];
    const Index w = sc[at(s) + 1] - f;
    EXPECT_GT(w, 0);
    widest = std::max(widest, w);
    const auto rows = plan.supernode_rows(s);
    EXPECT_EQ(plan.supernode_value_ptr()[at(s)], panel);
    panel += rows.size() * at(w) - at(w) * at(w - 1) / 2;
    for (Index k = 0; k < w; ++k) {
      EXPECT_EQ(rows[at(k)], f + k);
      EXPECT_EQ(plan.column_supernode()[at(f + k)], s);
    }
    for (std::size_t i = at(w) + 1; i < rows.size(); ++i) {
      EXPECT_LT(rows[i - 1], rows[i]);
    }
  }
  EXPECT_EQ(plan.panel_size(), panel);

  // Row k of L has an entry in column i for every i on the etree paths
  // from the entries of B's row k below the diagonal up to k.
  const auto ap = plan.permuted_row_ptr();
  const auto ac = plan.permuted_col_idx();
  const auto parent = plan.etree();
  std::vector<Index> flag(at(n), -1);
  std::size_t structural = 0;
  for (Index k = 0; k < n; ++k) {
    flag[at(k)] = k;
    for (Index p = ap[at(k)]; p < ap[at(k) + 1]; ++p) {
      for (Index i = ac[at(p)]; i < k && flag[at(i)] != k; i = parent[at(i)]) {
        flag[at(i)] = k;
        ++structural;
        const auto rows = plan.supernode_rows(plan.column_supernode()[at(i)]);
        EXPECT_TRUE(std::binary_search(rows.begin() + (i - rows.front()) + 1,
                                       rows.end(), k))
            << "L(" << k << ", " << i << ") outside its supernode's rows";
      }
    }
  }
  EXPECT_EQ(structural, plan.factor_nnz());
  return widest;
}

class SupernodalSizes : public ::testing::TestWithParam<int> {};

TEST_P(SupernodalSizes, AgreesWithDenseReference) {
  const Index n = GetParam();
  Rng rng(3000 + n);
  const Csr a = random_spd(n, rng);
  const std::vector<double> b = random_vector(n, rng);
  const std::vector<double> ref = dense_solve(a, b);
  for (const bool use_ordering : {false, true}) {
    const SymbolicPlan plan = SymbolicPlan::analyze(a, use_ordering);
    expect_partition_invariants(plan);
    SparseLdlt ldlt;
    ldlt.factorize(a, use_ordering);
    const auto x = ldlt.solve(b);
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(x[at(i)], ref[at(i)], 1e-12 * (1.0 + std::abs(ref[at(i)])))
          << "ordered=" << use_ordering << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SupernodalSizes,
                         ::testing::Values(1, 2, 3, 8, 25, 80, 200));

struct NamedPattern {
  std::string name;
  Index n;
  std::vector<std::pair<Index, Index>> edges;
};

std::vector<NamedPattern> structured_patterns() {
  std::vector<NamedPattern> out;
  {
    NamedPattern p{"arrowhead", 60, {}};
    for (Index i = 1; i < p.n; ++i) p.edges.emplace_back(0, i);
    out.push_back(std::move(p));
  }
  {
    NamedPattern p{"banded", 120, {}};
    for (Index i = 0; i < p.n; ++i) {
      for (Index d = 1; d <= 5 && i + d < p.n; ++d) {
        p.edges.emplace_back(i, i + d);
      }
    }
    out.push_back(std::move(p));
  }
  {
    NamedPattern p{"dense", 70, {}};
    for (Index i = 0; i < p.n; ++i) {
      for (Index j = i + 1; j < p.n; ++j) p.edges.emplace_back(i, j);
    }
    out.push_back(std::move(p));
  }
  {
    // Three components: a path, a clique and isolated nodes, interleaved.
    NamedPattern p{"disconnected", 90, {}};
    for (Index i = 0; i + 3 < 60; i += 3) p.edges.emplace_back(i, i + 3);
    for (Index i = 1; i < 60; i += 3) {
      for (Index j = i + 3; j < 60; j += 3) p.edges.emplace_back(i, j);
    }
    out.push_back(std::move(p));
  }
  out.push_back({"diagonal-only", 40, {}});
  out.push_back({"single", 1, {}});
  return out;
}

TEST(Supernodal, StructuredPatternsAgreeWithDenseReference) {
  Rng rng(77);
  for (const NamedPattern& p : structured_patterns()) {
    const Csr a = spd_on_edges(p.n, p.edges, rng);
    const std::vector<double> b = random_vector(p.n, rng);
    const std::vector<double> ref = dense_solve(a, b);
    for (const bool use_ordering : {false, true}) {
      const SymbolicPlan plan = SymbolicPlan::analyze(a, use_ordering);
      expect_partition_invariants(plan);
      SparseLdlt ldlt;
      ldlt.factorize(a, use_ordering);
      const auto x = ldlt.solve(b);
      for (Index i = 0; i < p.n; ++i) {
        EXPECT_NEAR(x[at(i)], ref[at(i)], 1e-12 * (1.0 + std::abs(ref[at(i)])))
            << p.name << " ordered=" << use_ordering;
      }
    }
  }
}

TEST(Supernodal, DenseMatrixIsOneSupernodeAndDiagonalIsOnePerColumn) {
  Rng rng(78);
  const NamedPattern dense = structured_patterns()[2];
  const SymbolicPlan full =
      SymbolicPlan::analyze(spd_on_edges(dense.n, dense.edges, rng));
  EXPECT_EQ(full.supernode_count(), 1);
  EXPECT_EQ(full.factor_nnz(), at(dense.n * (dense.n - 1) / 2));

  // Unconnected columns are etree roots: each is its own one-column
  // supernode, with no row below it.
  const SymbolicPlan diag = SymbolicPlan::analyze(spd_on_edges(40, {}, rng));
  EXPECT_EQ(diag.factor_nnz(), 0u);
  EXPECT_EQ(diag.supernode_count(), 40);
  for (Index s = 0; s < diag.supernode_count(); ++s) {
    EXPECT_EQ(diag.supernode_rows(s).size(), 1u);
  }
}

TEST(Supernodal, EmptyMatrixFactorsAndSolves) {
  const Csr empty = Csr::from_triplets(0, 0, {});
  SparseLdlt ldlt;
  ldlt.factorize(empty);
  EXPECT_TRUE(ldlt.factored());
  EXPECT_EQ(ldlt.factor_nnz(), 0u);
  EXPECT_TRUE(ldlt.solve(std::vector<double>{}).empty());
}

/// A = L D Lᵀ with small-integer unit lower L and D = diag(1, .., 0, .., 1):
/// every step of the factorization is exact, so the pivot at `zero` comes
/// out exactly zero.
Csr singular_at(Index n, Index zero) {
  std::vector<double> l(at(n * n), 0.0);
  for (Index i = 0; i < n; ++i) {
    l[at(i * n + i)] = 1.0;
    for (Index j = 0; j < i; ++j) l[at(i * n + j)] = ((i + 2 * j) % 3) - 1.0;
  }
  std::vector<Triplet<double>> t;
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      double v = 0.0;
      for (Index k = 0; k <= std::min(i, j); ++k) {
        if (k != zero) v += l[at(i * n + k)] * l[at(j * n + k)];
      }
      t.push_back({i, j, v});
    }
  }
  return Csr::from_triplets(n, n, std::move(t));
}

TEST(Supernodal, ZeroPivotInsideWideSupernodeThrowsWithColumn) {
  const Csr a = singular_at(12, 5);
  const auto plan = std::make_shared<const SymbolicPlan>(
      SymbolicPlan::analyze(a, /*use_ordering=*/false));
  ASSERT_EQ(plan->supernode_count(), 1);
  SparseLdlt ldlt;
  try {
    ldlt.factorize(a, plan);
    FAIL() << "expected a zero pivot";
  } catch (const ConvergenceFailure& e) {
    EXPECT_EQ(std::string(e.what()), "sparse LDLt: zero pivot at column 5");
  }
  EXPECT_FALSE(ldlt.factored());
  EXPECT_EQ(ldlt.factor_nnz(), 0u);
  EXPECT_THROW((void)ldlt.solve(std::vector<double>(12, 1.0)), InternalError);
}

TEST(Supernodal, FailedRefactorizationDropsThePreviousFactor) {
  Rng rng(79);
  const Csr good = random_spd(12, rng);
  SparseLdlt ldlt;
  ldlt.factorize(good, /*use_ordering=*/false);
  ASSERT_TRUE(ldlt.factored());
  EXPECT_THROW(ldlt.factorize(singular_at(12, 5), /*use_ordering=*/false),
               ConvergenceFailure);
  EXPECT_FALSE(ldlt.factored());
  EXPECT_THROW((void)ldlt.solve(std::vector<double>(12, 1.0)), InternalError);
  // The object stays usable.
  ldlt.factorize(good, /*use_ordering=*/false);
  EXPECT_TRUE(ldlt.factored());
}

TEST(Supernodal, RefactorizationIsBitIdentical) {
  Rng rng(80);
  const Csr a = random_spd(150, rng, 0.05);
  const std::vector<double> b = random_vector(150, rng);
  const auto plan =
      std::make_shared<const SymbolicPlan>(SymbolicPlan::analyze(a));
  SparseLdlt first;
  first.factorize(a, plan);
  const std::vector<double> x1 = first.solve(b);
  first.factorize(a, plan);
  EXPECT_EQ(first.solve(b), x1);
  SparseLdlt second;
  second.factorize(a, plan);
  EXPECT_EQ(second.solve(b), x1);
}

/// The 10k tier: its B′ (the DC truth's matrix) and the Step-1 gain of
/// subsystem 0 at a perturbed state, as the estimator assembles it.
struct Tier10k {
  Csr bprime;
  Csr gain;
};

const Tier10k& tier10k() {
  static const Tier10k tier = [] {
    const io::GeneratedCase gc = io::interconnection10k();
    const grid::Network& net = gc.kase.network;
    Rng rng(101);
    Tier10k out;
    std::vector<std::pair<Index, Index>> edges;
    for (std::size_t b = 0; b < net.num_branches(); ++b) {
      const grid::Branch& br = net.branch(b);
      if (br.from != br.to) edges.emplace_back(br.from, br.to);
    }
    out.bprime = spd_on_edges(net.num_buses(), edges, rng);

    decomp::Decomposition d = decomp::decompose(net, gc.subsystem_of_bus);
    decomp::analyze_sensitivity(net, d, {});
    grid::GridState state(net.num_buses());
    for (auto& t : state.theta) t = rng.uniform(-0.2, 0.2);
    for (auto& v : state.vm) v = rng.uniform(0.95, 1.05);
    grid::MeasurementPlan mplan;
    for (const decomp::Subsystem& s : d.subsystems) {
      mplan.pmu_buses.push_back(s.buses.front());
    }
    const grid::MeasurementSet meas =
        grid::MeasurementGenerator(net, mplan).generate(state, rng);
    const core::LocalEstimator est(net, d, 0, core::LocalEstimatorOptions{});
    const decomp::SubsystemModel& local = est.local_model();
    const grid::MeasurementSet set = local.filter(meas, net);
    const grid::MeasurementModel model(
        local.network, grid::StateIndex(local.network.num_buses(), 0));
    const Csr jac = model.jacobian(set, local.gather_state(state));
    out.gain = NormalAssembler::analyze(jac).assemble(jac, set.weights(), 0.0);
    return out;
  }();
  return tier;
}

TEST(Supernodal, Interconnection10kPartitionInvariants) {
  for (const Csr* a : {&tier10k().bprime, &tier10k().gain}) {
    const SymbolicPlan plan = SymbolicPlan::analyze(*a);
    const Index widest = expect_partition_invariants(plan);
    EXPECT_LT(plan.supernode_count(), plan.dim());
    EXPECT_GE(widest, 8);
  }
}

TEST(Supernodal, Interconnection10kStep1GainSolvesToTightResidual) {
  const Csr& g = tier10k().gain;
  Rng rng(81);
  const std::vector<double> b = random_vector(g.rows(), rng);
  SparseLdlt ldlt;
  ldlt.factorize(g);
  EXPECT_LE(relative_residual(g, ldlt.solve(b), b), 1e-10);
}

}  // namespace
}  // namespace gridse::sparse
