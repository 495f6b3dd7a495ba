#pragma once

#include <memory>
#include <span>
#include <string>

#include "sparse/csr.hpp"

namespace gridse::sparse {

/// Preconditioner interface for PCG: given a residual r, apply() computes
/// z = M⁻¹ r for the preconditioner matrix M ≈ A. Implementations are built
/// once per gain matrix and applied every iteration (paper §IV-C:
/// "pre-multiplying the inverse of a pre-conditioner matrix P").
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// z = M⁻¹ r. Sizes must equal the matrix dimension.
  virtual void apply(std::span<const double> r, std::span<double> z) const = 0;

  /// Human-readable name for reports ("jacobi", "ic0", ...).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// M = I (plain CG).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(std::span<const double> r, std::span<double> z) const override;
  [[nodiscard]] std::string name() const override { return "none"; }
};

/// M = diag(A). Cheap and effective on diagonally dominant gain matrices.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const Csr& a);
  void apply(std::span<const double> r, std::span<double> z) const override;
  [[nodiscard]] std::string name() const override { return "jacobi"; }

 private:
  std::vector<double> inv_diag_;
};

/// Symmetric SOR preconditioner M = (D/ω + L) D⁻¹ (D/ω + L)ᵀ · ω/(2−ω),
/// applied via one forward and one backward triangular sweep.
class SsorPreconditioner final : public Preconditioner {
 public:
  SsorPreconditioner(const Csr& a, double omega = 1.0);
  void apply(std::span<const double> r, std::span<double> z) const override;
  [[nodiscard]] std::string name() const override { return "ssor"; }

 private:
  Csr lower_;  // strictly lower triangle of A, row-major
  std::vector<double> diag_;
  double omega_;
};

class SymbolicPlan;

/// Incomplete Cholesky with zero fill-in, IC(0): L has the sparsity pattern
/// of tril(A). The factorization shifts the diagonal and retries when a
/// pivot breaks down, so it is robust on barely-SPD Step-2 systems.
class Ic0Preconditioner final : public Preconditioner {
 public:
  explicit Ic0Preconditioner(const Csr& a);

  /// Pattern-reuse construction: the lower-triangle structure comes from a
  /// precomputed unordered SymbolicPlan (one gather pass over a.values(), no
  /// triplet rebuild). Numerically identical to the plain constructor; this
  /// is the per-Gauss–Newton-iteration fast path on a fixed topology.
  Ic0Preconditioner(const Csr& a, const SymbolicPlan& plan);

  void apply(std::span<const double> r, std::span<double> z) const override;
  [[nodiscard]] std::string name() const override { return "ic0"; }

  /// Diagonal shift that was required for the factorization to complete
  /// (0 when A factored cleanly).
  [[nodiscard]] double shift() const { return shift_; }

 private:
  void factorize_with_retries(double max_diag);
  bool try_factorize(double shift);

  Csr l_;  // lower triangle including diagonal, row-major
  std::vector<double> base_vals_;  // pristine tril(A) values for retries
  double shift_ = 0.0;
};

enum class PreconditionerKind { kNone, kJacobi, kSsor, kIc0 };

/// Build the requested preconditioner for matrix `a`.
std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const Csr& a);

/// Parse "none" | "jacobi" | "ssor" | "ic0"; throws InvalidInput otherwise.
PreconditionerKind parse_preconditioner(const std::string& name);

}  // namespace gridse::sparse
