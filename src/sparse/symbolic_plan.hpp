#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace gridse::sparse {

/// Cheap structural identity of a sparse matrix: dimensions, entry count,
/// and an FNV-1a hash over row_ptr/col_idx. Two matrices with equal
/// fingerprints share a sparsity pattern for every practical purpose, so a
/// SymbolicPlan keyed on the fingerprint can be revalidated in O(1) per
/// solve instead of re-walking the pattern.
struct PatternFingerprint {
  Index n = 0;
  Index cols = 0;
  std::uint64_t nnz = 0;
  std::uint64_t hash = 0;

  friend bool operator==(const PatternFingerprint& a,
                         const PatternFingerprint& b) {
    return a.n == b.n && a.cols == b.cols && a.nnz == b.nnz &&
           a.hash == b.hash;
  }
  friend bool operator!=(const PatternFingerprint& a,
                         const PatternFingerprint& b) {
    return !(a == b);
  }
};

template <typename T>
PatternFingerprint fingerprint_pattern(const CsrMatrix<T>& a) {
  constexpr std::uint64_t kOffset = 1469598103934665603ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = kOffset;
  const auto mix = [&](Index v) {
    auto u = static_cast<std::uint32_t>(v);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffU;
      h *= kPrime;
    }
  };
  for (const Index v : a.row_ptr()) mix(v);
  for (const Index v : a.col_idx()) mix(v);
  return {a.rows(), a.cols(), static_cast<std::uint64_t>(a.nnz()), h};
}

/// Everything about factoring a fixed sparsity pattern that does not depend
/// on the numeric values: the fill-reducing ordering, the symmetrically
/// permuted pattern with a gather map back into the source value array, the
/// elimination tree, the supernode partition and row structure of the LDLᵀ
/// factor, and — for unordered plans — the (unpermuted) lower triangle
/// pattern IC(0) factors on. Computed once per (subsystem, topology) and
/// reused across Gauss–Newton iterations and DSE cycles; the fingerprint is
/// the invalidation token — a topology change alters the gain pattern, the
/// fingerprint stops matching, and the plan is rebuilt.
class SymbolicPlan {
 public:
  /// Analyze the pattern of symmetric matrix `a`. With `use_ordering` an
  /// approximate minimum degree permutation is computed first; without it
  /// the permutation is the identity and the IC(0) facet is built (the
  /// IC(0)/PCG path needs no reordering).
  [[nodiscard]] static SymbolicPlan analyze(const Csr& a,
                                            bool use_ordering = true);

  [[nodiscard]] const PatternFingerprint& fingerprint() const { return fp_; }
  [[nodiscard]] bool ordered() const { return ordered_; }
  [[nodiscard]] Index dim() const { return fp_.n; }

  /// True iff `a` has the pattern this plan was analyzed on.
  [[nodiscard]] bool matches(const Csr& a) const {
    return fingerprint_pattern(a) == fp_;
  }

  // --- LDLᵀ facet (permuted pattern) ----------------------------------------
  [[nodiscard]] std::span<const Index> perm() const { return perm_; }
  [[nodiscard]] std::span<const Index> perm_inv() const { return perm_inv_; }
  /// CSR structure of B = P A Pᵀ (rows column-sorted).
  [[nodiscard]] std::span<const Index> permuted_row_ptr() const {
    return ap_ptr_;
  }
  [[nodiscard]] std::span<const Index> permuted_col_idx() const {
    return ap_col_;
  }
  /// value_map()[p] is the offset in a.values() holding B's p-th entry, so a
  /// numeric refactorization gathers values without rebuilding triplets.
  [[nodiscard]] std::span<const Index> value_map() const { return ap_map_; }
  /// Elimination tree over the permuted pattern (-1 = root).
  [[nodiscard]] std::span<const Index> etree() const { return parent_; }
  /// Structural entries of the strict lower triangle of L (explicit zeros
  /// that supernode amalgamation stores are not counted).
  [[nodiscard]] std::size_t factor_nnz() const { return factor_nnz_; }

  // Supernode partition of L. Supernode s owns the contiguous columns
  // [supernode_cols()[s], supernode_cols()[s + 1]); its factor is one dense
  // column-major lower-trapezoid panel over supernode_rows(s): first its own
  // columns, then the sorted rows below them that any of its columns
  // reaches. Column k of a panel with ld rows stores rows k..ld-1 (the
  // diagonal block's strict upper triangle is not stored).
  // supernode_value_ptr()[s] is the panel's offset in a flat store of
  // panel_size() doubles.
  [[nodiscard]] Index supernode_count() const {
    return static_cast<Index>(sn_col_.size()) - 1;
  }
  [[nodiscard]] std::span<const Index> supernode_cols() const {
    return sn_col_;
  }
  [[nodiscard]] std::span<const Index> supernode_rows(Index s) const {
    const auto i = static_cast<std::size_t>(s);
    const auto b = static_cast<std::size_t>(sn_row_ptr_[i]);
    const auto e = static_cast<std::size_t>(sn_row_ptr_[i + 1]);
    return std::span<const Index>(sn_rows_).subspan(b, e - b);
  }
  [[nodiscard]] std::span<const std::size_t> supernode_value_ptr() const {
    return sn_val_ptr_;
  }
  /// column_supernode()[j] is the supernode holding column j.
  [[nodiscard]] std::span<const Index> column_supernode() const {
    return col_sn_;
  }
  [[nodiscard]] std::size_t panel_size() const { return sn_val_ptr_.back(); }

  // --- IC(0) facet (unpermuted lower triangle) ------------------------------
  // Built only for plans analyzed without ordering (the PCG path); empty on
  // ordered plans.
  /// CSR structure of tril(A) including the diagonal.
  [[nodiscard]] std::span<const Index> lower_row_ptr() const {
    return lt_ptr_;
  }
  [[nodiscard]] std::span<const Index> lower_col_idx() const {
    return lt_col_;
  }
  /// lower_value_map()[p] is the offset in a.values() of the p-th tril entry.
  [[nodiscard]] std::span<const Index> lower_value_map() const {
    return lt_map_;
  }

 private:
  void partition_supernodes(std::span<const Index> lnz);

  PatternFingerprint fp_;
  bool ordered_ = true;
  std::vector<Index> perm_;      // perm_[new] = old
  std::vector<Index> perm_inv_;  // perm_inv_[old] = new
  std::vector<Index> ap_ptr_;
  std::vector<Index> ap_col_;
  std::vector<Index> ap_map_;
  std::vector<Index> parent_;
  std::size_t factor_nnz_ = 0;
  std::vector<Index> sn_col_{0};
  std::vector<Index> sn_row_ptr_{0};
  std::vector<Index> sn_rows_;
  std::vector<std::size_t> sn_val_ptr_{0};
  std::vector<Index> col_sn_;
  std::vector<Index> lt_ptr_;
  std::vector<Index> lt_col_;
  std::vector<Index> lt_map_;
};

}  // namespace gridse::sparse
