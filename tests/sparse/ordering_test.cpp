#include "sparse/ordering.hpp"

#include <gtest/gtest.h>

#include <set>

#include "io/synthetic.hpp"
#include "sparse/symbolic_plan.hpp"
#include "util/rng.hpp"

namespace gridse::sparse {
namespace {

/// Symmetric matrix with a unit diagonal and the given undirected edges.
Csr pattern_matrix(Index n, const std::vector<std::pair<Index, Index>>& edges) {
  std::vector<Triplet<double>> t;
  for (Index i = 0; i < n; ++i) t.push_back({i, i, 1.0});
  for (const auto& [i, j] : edges) {
    t.push_back({i, j, 1.0});
    t.push_back({j, i, 1.0});
  }
  return Csr::from_triplets(n, n, std::move(t));
}

Csr path_graph_matrix(Index n) {
  std::vector<std::pair<Index, Index>> edges;
  for (Index i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return pattern_matrix(n, edges);
}

Csr random_pattern(Index n, int edges, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Index, Index>> e;
  for (int k = 0; k < edges; ++k) {
    const auto i = static_cast<Index>(rng.uniform_int(0, n - 1));
    const auto j = static_cast<Index>(rng.uniform_int(0, n - 1));
    if (i != j) e.emplace_back(i, j);
  }
  return pattern_matrix(n, e);
}

void expect_permutation(const std::vector<Index>& perm, Index n) {
  ASSERT_EQ(perm.size(), static_cast<std::size_t>(n));
  const std::set<Index> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
  if (n > 0) {
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), n - 1);
  }
}

std::size_t ordered_factor_nnz(const Csr& a) {
  return SymbolicPlan::analyze(a, /*use_ordering=*/true).factor_nnz();
}

TEST(Amd, ProducesValidPermutation) {
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    const Csr a = random_pattern(25, 60, seed);
    expect_permutation(approximate_minimum_degree(a), 25);
  }
  // Denser and larger: exercises supervariables, mass elimination and the
  // garbage collection of the element lists.
  const Csr big = random_pattern(400, 3000, 9);
  expect_permutation(approximate_minimum_degree(big), 400);
}

TEST(Amd, NoFillOnShuffledPath) {
  // A path (a tree) has a perfect elimination order — leaves first — so a
  // minimum degree ordering of any relabelling of it causes no fill.
  const Index n = 50;
  std::vector<Index> shuffle_perm(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) shuffle_perm[static_cast<std::size_t>(i)] = i;
  Rng rng(7);
  rng.shuffle(shuffle_perm);
  const Csr shuffled = permute_symmetric(path_graph_matrix(n), shuffle_perm);
  ASSERT_GT(SymbolicPlan::analyze(shuffled, /*use_ordering=*/false)
                .factor_nnz(),
            static_cast<std::size_t>(n - 1));

  expect_permutation(approximate_minimum_degree(shuffled), n);
  EXPECT_EQ(ordered_factor_nnz(shuffled), static_cast<std::size_t>(n - 1));
}

TEST(Amd, HandlesDisconnectedComponents) {
  // two disjoint triangles and an isolated node
  const Csr a =
      pattern_matrix(7, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  expect_permutation(approximate_minimum_degree(a), 7);
  EXPECT_EQ(ordered_factor_nnz(a), 6u);
}

TEST(Amd, HandlesEmptyAndDiagonalOnlyPatterns) {
  EXPECT_TRUE(
      approximate_minimum_degree(Csr::from_triplets(0, 0, {})).empty());
  // No edges: every node is its own component, taken in index order.
  const Csr diag = pattern_matrix(5, {});
  EXPECT_EQ(approximate_minimum_degree(diag),
            (std::vector<Index>{0, 1, 2, 3, 4}));
  // A single node, with and without its diagonal entry.
  EXPECT_EQ(approximate_minimum_degree(pattern_matrix(1, {})),
            (std::vector<Index>{0}));
  EXPECT_EQ(approximate_minimum_degree(Csr::from_triplets(1, 1, {})),
            (std::vector<Index>{0}));
}

TEST(Amd, OrdersDenseRowsLast) {
  // A hub adjacent to every other node is denser than max(16, 10·√n) and
  // is set aside; the leaves then eliminate with no fill.
  const Index n = 100;
  std::vector<std::pair<Index, Index>> edges;
  for (Index i = 1; i < n; ++i) edges.emplace_back(0, i);
  const Csr star = pattern_matrix(n, edges);
  const auto perm = approximate_minimum_degree(star);
  expect_permutation(perm, n);
  EXPECT_EQ(perm.back(), 0);
  EXPECT_EQ(ordered_factor_nnz(star), static_cast<std::size_t>(n - 1));
}

TEST(Amd, IsDeterministicAcrossCalls) {
  // SymbolicPlan fingerprints assume the ordering is a pure function of the
  // pattern: repeated calls must be bit-identical, including on graphs full
  // of equal-degree ties (ties break on node indices per the contract).
  const Csr a = random_pattern(40, 80, 11);
  const auto first = approximate_minimum_degree(a);
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(approximate_minimum_degree(a), first);
  }

  // A 4-cycle 0-1-3-2 is all equal-degree ties; the index tie-break pins
  // the exact permutation. Node 0 goes first; 1 and 2 then have identical
  // adjacency and merge into one supervariable, which takes 3 with it by
  // mass elimination. The postorder lists the absorbed element 0, then the
  // absorbed variables 1 and 3, then the principal 2.
  const Csr square = pattern_matrix(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(approximate_minimum_degree(square),
            (std::vector<Index>{0, 1, 3, 2}));
}

TEST(Amd, GridLaplacianFillStaysBelowBound) {
  // 5-point Laplacian on a 40×40 grid, nodes row-major. Measured strict-
  // lower factor nnz: 19 030 under AMD, against 62 439 in the natural
  // (banded) order and 43 420 under reverse Cuthill–McKee. The bound leaves
  // 5 % for tie-break changes; a regression toward banded fill fails it.
  const Index k = 40;
  std::vector<std::pair<Index, Index>> edges;
  for (Index r = 0; r < k; ++r) {
    for (Index c = 0; c < k; ++c) {
      if (c + 1 < k) edges.emplace_back(r * k + c, r * k + c + 1);
      if (r + 1 < k) edges.emplace_back(r * k + c, (r + 1) * k + c);
    }
  }
  const Csr grid = pattern_matrix(k * k, edges);
  EXPECT_LT(ordered_factor_nnz(grid), 20'000u);
}

TEST(Amd, Interconnection10kFillStaysBelowBound) {
  // Bus-admittance pattern (B′) of the 10k-bus interconnection tier, the
  // matrix the DC truth factors every cycle (9 490 buses). Measured
  // strict-lower factor nnz: 71 354 under AMD, against 527 874 under
  // reverse Cuthill–McKee. The bound leaves 5 %.
  const io::GeneratedCase gc = io::interconnection10k();
  const grid::Network& net = gc.kase.network;
  std::vector<std::pair<Index, Index>> edges;
  for (std::size_t b = 0; b < net.num_branches(); ++b) {
    const grid::Branch& br = net.branch(b);
    if (br.from != br.to) edges.emplace_back(br.from, br.to);
  }
  const Csr bprime = pattern_matrix(net.num_buses(), edges);
  EXPECT_LT(ordered_factor_nnz(bprime), 75'000u);
}

TEST(Permutation, InvertRoundTrips) {
  const std::vector<Index> perm{2, 0, 3, 1};
  const auto inv = invert_permutation(perm);
  EXPECT_EQ(inv, (std::vector<Index>{1, 3, 0, 2}));
  for (std::size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(inv[static_cast<std::size_t>(perm[i])], static_cast<Index>(i));
  }
}

TEST(Permutation, SymmetricPermutePreservesValues) {
  const Csr a = path_graph_matrix(5);
  const std::vector<Index> perm{4, 3, 2, 1, 0};
  const Csr b = permute_symmetric(a, perm);
  // B[new_i][new_j] = A[perm[new_i]][perm[new_j]]
  for (Index i = 0; i < 5; ++i) {
    for (Index j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(
          b.value_at(i, j),
          a.value_at(perm[static_cast<std::size_t>(i)],
                     perm[static_cast<std::size_t>(j)]));
    }
  }
}

}  // namespace
}  // namespace gridse::sparse
