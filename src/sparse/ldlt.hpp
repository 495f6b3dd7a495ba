#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/symbolic_plan.hpp"

namespace gridse::sparse {

/// Sparse supernodal LDLᵀ factorization of a symmetric matrix, the direct
/// solver of every LDLᵀ user (WLS, DC truth, outputs, bad data, Schur
/// condensation). Left-looking over the plan's supernode partition: each
/// supernode is one dense column-major lower-trapezoid panel that gathers
/// its columns of A, subtracts the dense block update of every earlier
/// supernode reaching its rows, then factors its diagonal block and scales
/// the rows below. No pivoting; the operation order is fixed by the plan,
/// so refactorizing the same values on the same plan is bit-identical.
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
  /// iterations on a fixed topology. On a zero pivot it throws
  /// `ConvergenceFailure` and leaves the object unfactored.
  void factorize(const Csr& a, std::shared_ptr<const SymbolicPlan> plan);

  /// Solve A x = b with the current factorization.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  [[nodiscard]] bool factored() const { return plan_ != nullptr; }
  /// Structural entries of the strict lower triangle of L (the plan's
  /// count, not the panel storage).
  [[nodiscard]] std::size_t factor_nnz() const {
    return plan_ == nullptr ? 0 : plan_->factor_nnz();
  }

 private:
  void factor_numeric(const SymbolicPlan& plan, const Csr& a);

  std::shared_ptr<const SymbolicPlan> plan_;
  // The lower-trapezoid supernode panels at the plan's value offsets: below
  // the diagonal L (unit diagonal implicit), on the diagonal D.
  std::vector<double> lx_;
  // Numeric scratch, sized once per plan.
  std::vector<Index> relmap_;   // row -> panel row of the current supernode
  std::vector<Index> rel_;      // panel rows of one update block
  std::vector<Index> head_;     // supernodes waiting to update supernode s
  std::vector<Index> next_;
  std::vector<Index> pos_;      // first row of d not yet applied
  std::vector<double> update_;  // one column of an update block
};

}  // namespace gridse::sparse
