#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/symbolic_plan.hpp"

namespace gridse::sparse {

/// Sparse simplicial LDLᵀ factorization of a symmetric matrix (up-looking,
/// elimination-tree based). Serves as the direct-solver baseline against the
/// paper's PCG in the solver ablation, and as the robust fallback for small
/// subsystem gain matrices.
class SparseLdlt {
 public:
  /// Factor `a` (must be structurally and numerically symmetric). Analyzes
  /// a one-off SymbolicPlan — with `use_ordering`, under the approximate
  /// minimum degree fill-reducing permutation — and factors on it. Throws
  /// `ConvergenceFailure` on a zero pivot.
  void factorize(const Csr& a, bool use_ordering = true);

  /// Numeric-only refactorization over a precomputed SymbolicPlan: ordering,
  /// permutation, and symbolic analysis are skipped entirely, and the factor
  /// buffers are reused across calls. The plan must have been analyzed on a
  /// matrix with `a`'s sparsity pattern (cheap size/nnz checks are applied;
  /// full fingerprint validation is the caller's — typically a
  /// SolverCache's — job). This is the hot path of repeated Gauss–Newton
  /// iterations on a fixed topology.
  void factorize(const Csr& a, std::shared_ptr<const SymbolicPlan> plan);

  /// Solve A x = b with the current factorization.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  [[nodiscard]] bool factored() const { return n_ > 0; }
  [[nodiscard]] std::size_t factor_nnz() const { return lx_.size(); }

 private:
  Index n_ = 0;
  // L in compressed-sparse-column form over the plan's column pointers,
  // unit diagonal implicit; the permutation lives in the plan.
  std::vector<Index> li_;
  std::vector<double> lx_;
  std::vector<double> d_;
  std::shared_ptr<const SymbolicPlan> plan_;
  detail::LdltScratch scratch_;
};

}  // namespace gridse::sparse
