#include "sparse/symbolic_plan.hpp"

#include <algorithm>
#include <numeric>

#include "sparse/ordering.hpp"
#include "util/error.hpp"

namespace gridse::sparse {

SymbolicPlan SymbolicPlan::analyze(const Csr& a, bool use_ordering) {
  GRIDSE_CHECK(a.rows() == a.cols());
  const Index n = a.rows();
  const auto col = a.col_idx();

  SymbolicPlan plan;
  plan.fp_ = fingerprint_pattern(a);
  plan.ordered_ = use_ordering;

  if (use_ordering) {
    plan.perm_ = approximate_minimum_degree(a);
  } else {
    plan.perm_.resize(static_cast<std::size_t>(n));
    std::iota(plan.perm_.begin(), plan.perm_.end(), 0);
  }
  plan.perm_inv_ = invert_permutation(plan.perm_);

  // --- permuted pattern B = P A Pᵀ with a value gather map ------------------
  // B(inv[r], inv[c]) = A(r, c). Counting sort into rows, then sort each row
  // by column carrying the source offset along — done once here so numeric
  // refactorizations never touch triplets again.
  plan.ap_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (Index r = 0; r < n; ++r) {
    const auto [b, e] = a.row_range(r);
    plan.ap_ptr_[static_cast<std::size_t>(
        plan.perm_inv_[static_cast<std::size_t>(r)]) + 1] += e - b;
  }
  for (Index i = 0; i < n; ++i) {
    plan.ap_ptr_[static_cast<std::size_t>(i) + 1] +=
        plan.ap_ptr_[static_cast<std::size_t>(i)];
  }
  plan.ap_col_.resize(a.nnz());
  plan.ap_map_.resize(a.nnz());
  {
    std::vector<Index> next(plan.ap_ptr_.begin(), plan.ap_ptr_.end() - 1);
    for (Index r = 0; r < n; ++r) {
      const Index nr = plan.perm_inv_[static_cast<std::size_t>(r)];
      const auto [b, e] = a.row_range(r);
      for (Index k = b; k < e; ++k) {
        const Index slot = next[static_cast<std::size_t>(nr)]++;
        plan.ap_col_[static_cast<std::size_t>(slot)] =
            plan.perm_inv_[static_cast<std::size_t>(
                col[static_cast<std::size_t>(k)])];
        plan.ap_map_[static_cast<std::size_t>(slot)] = k;
      }
    }
    std::vector<std::pair<Index, Index>> row;
    for (Index i = 0; i < n; ++i) {
      const Index b = plan.ap_ptr_[static_cast<std::size_t>(i)];
      const Index e = plan.ap_ptr_[static_cast<std::size_t>(i) + 1];
      row.clear();
      for (Index k = b; k < e; ++k) {
        row.emplace_back(plan.ap_col_[static_cast<std::size_t>(k)],
                         plan.ap_map_[static_cast<std::size_t>(k)]);
      }
      std::sort(row.begin(), row.end());
      for (Index k = b; k < e; ++k) {
        plan.ap_col_[static_cast<std::size_t>(k)] =
            row[static_cast<std::size_t>(k - b)].first;
        plan.ap_map_[static_cast<std::size_t>(k)] =
            row[static_cast<std::size_t>(k - b)].second;
      }
    }
  }

  // --- elimination tree and per-column factor counts over B -----------------
  plan.parent_.assign(static_cast<std::size_t>(n), -1);
  std::vector<Index> lnz(static_cast<std::size_t>(n), 0);
  std::vector<Index> flag(static_cast<std::size_t>(n), -1);
  for (Index k = 0; k < n; ++k) {
    flag[static_cast<std::size_t>(k)] = k;
    const Index b = plan.ap_ptr_[static_cast<std::size_t>(k)];
    const Index e = plan.ap_ptr_[static_cast<std::size_t>(k) + 1];
    for (Index p = b; p < e; ++p) {
      Index i = plan.ap_col_[static_cast<std::size_t>(p)];
      if (i >= k) break;
      for (; flag[static_cast<std::size_t>(i)] != k;
           i = plan.parent_[static_cast<std::size_t>(i)]) {
        if (plan.parent_[static_cast<std::size_t>(i)] == -1) {
          plan.parent_[static_cast<std::size_t>(i)] = k;
        }
        ++lnz[static_cast<std::size_t>(i)];
        flag[static_cast<std::size_t>(i)] = k;
      }
    }
  }
  for (const Index c : lnz) plan.factor_nnz_ += static_cast<std::size_t>(c);
  plan.partition_supernodes(lnz);

  // --- unpermuted lower-triangle pattern for IC(0) --------------------------
  // Only the PCG path's unordered plans carry it; an ordered plan serves
  // LDLᵀ alone, and every cached subsystem plan would otherwise hold a copy
  // of tril(A)'s pattern that nothing reads.
  if (use_ordering) return plan;
  plan.lt_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (Index r = 0; r < n; ++r) {
    const auto [b, e] = a.row_range(r);
    for (Index k = b; k < e; ++k) {
      const Index c = col[static_cast<std::size_t>(k)];
      if (c > r) break;  // rows are column-sorted
      plan.lt_col_.push_back(c);
      plan.lt_map_.push_back(k);
    }
    plan.lt_ptr_[static_cast<std::size_t>(r) + 1] =
        static_cast<Index>(plan.lt_col_.size());
  }
  return plan;
}

namespace {

std::size_t at(Index i) { return static_cast<std::size_t>(i); }

// Relaxed amalgamation, one fixed rule: a supernode absorbs the next one up
// its etree chain when the merged panel is at most 16 columns wide with
// under 30 % explicit zeros, or at most 48 wide with under 5 %, or any width
// with under 2 %. A few stored zeros buy wider panels for the dense kernels.
// The thresholds are tighter than CHOLMOD's default relaxation (4 columns
// unconditionally, then 80 % / 10 % / 5 %): on the 10k tier's Step-1 gains
// that rule stores 1.39 M doubles against 1.15 M for this one, and factors
// no faster.
bool amalgamate(std::int64_t width, std::int64_t zeros, std::int64_t stored) {
  const double z = static_cast<double>(zeros) / static_cast<double>(stored);
  return (width <= 16 && z < 0.3) || (width <= 48 && z < 0.05) || z < 0.02;
}

}  // namespace

void SymbolicPlan::partition_supernodes(std::span<const Index> lnz) {
  const Index n = dim();
  std::vector<Index> nchild(at(n), 0);
  for (const Index p : parent_) {
    if (p >= 0) ++nchild[at(p)];
  }

  // --- partition: fundamental supernodes, then chain amalgamation ----------
  // Column j extends the fundamental supernode of j-1 when j is the parent
  // and only child of j-1 and L(:, j-1) = {j} ∪ L(:, j). A fundamental
  // supernode then joins the panel before it when that panel's last column
  // has its parent inside it (so the merged rows below are exactly this
  // supernode's) and `amalgamate` accepts the explicit zeros.
  sn_col_.assign(1, 0);
  std::int64_t panel_entries = 0;  // structural entries of the open panel
  for (Index fb = 0; fb < n;) {
    Index fe = fb + 1;
    std::int64_t entries = lnz[at(fb)] + 1;
    while (fe < n && parent_[at(fe - 1)] == fe && nchild[at(fe)] == 1 &&
           lnz[at(fe - 1)] == lnz[at(fe)] + 1) {
      entries += lnz[at(fe)] + 1;
      ++fe;
    }
    bool merge = false;
    if (fb > 0 && parent_[at(fb - 1)] >= 0 && parent_[at(fb - 1)] < fe) {
      const std::int64_t width = fe - sn_col_.back();
      const std::int64_t below = lnz[at(fe - 1)];
      const std::int64_t stored = width * (width + 1) / 2 + width * below;
      merge = amalgamate(width, stored - panel_entries - entries, stored);
    }
    if (merge) {
      panel_entries += entries;
    } else {
      if (fb > 0) sn_col_.push_back(fb);
      panel_entries = entries;
    }
    fb = fe;
  }
  if (n > 0) sn_col_.push_back(n);
  const Index ns = supernode_count();

  col_sn_.resize(at(n));
  sn_row_ptr_.assign(at(ns) + 1, 0);
  sn_val_ptr_.assign(at(ns) + 1, 0);
  for (Index s = 0; s < ns; ++s) {
    const Index f = sn_col_[at(s)];
    const Index l = sn_col_[at(s) + 1] - 1;
    const Index w = l - f + 1;
    const Index ld = w + lnz[at(l)];
    std::fill(col_sn_.begin() + f, col_sn_.begin() + l + 1, s);
    sn_row_ptr_[at(s) + 1] = sn_row_ptr_[at(s)] + ld;
    sn_val_ptr_[at(s) + 1] =
        sn_val_ptr_[at(s)] + at(w) * at(ld) - at(w) * at(w - 1) / 2;
  }

  // --- row structure, sorted by construction -------------------------------
  // L(k, j) is nonzero exactly for the columns j on the etree paths from the
  // entries of B's row k left of the diagonal up to k. Every column of a
  // supernode but its last has its parent inside it, so at supernode level
  // those paths run along the supernodal etree. Walking them for k = 0, 1,
  // ... appends k to every supernode whose panel has row k below its own
  // columns, in increasing k: the lists come out sorted, in O(Σ panel rows +
  // nnz(B)), with no per-column lists and no sort.
  std::vector<Index> sn_parent(at(ns), -1);
  std::vector<Index> cursor(at(ns));
  sn_rows_.resize(at(sn_row_ptr_.back()));
  for (Index s = 0; s < ns; ++s) {
    const Index p = parent_[at(sn_col_[at(s) + 1] - 1)];
    if (p >= 0) sn_parent[at(s)] = col_sn_[at(p)];
    Index out = sn_row_ptr_[at(s)];
    for (Index c = sn_col_[at(s)]; c < sn_col_[at(s) + 1]; ++c) {
      sn_rows_[at(out++)] = c;
    }
    cursor[at(s)] = out;
  }
  std::vector<Index> flag(at(ns), -1);
  for (Index k = 0; k < n; ++k) {
    flag[at(col_sn_[at(k)])] = k;
    for (Index p = ap_ptr_[at(k)];
         p < ap_ptr_[at(k) + 1] && ap_col_[at(p)] < k; ++p) {
      for (Index s = col_sn_[at(ap_col_[at(p)])]; flag[at(s)] != k;
           s = sn_parent[at(s)]) {
        flag[at(s)] = k;
        sn_rows_[at(cursor[at(s)]++)] = k;
      }
    }
  }
  for (Index s = 0; s < ns; ++s) {
    GRIDSE_CHECK_MSG(
        cursor[at(s)] == sn_row_ptr_[at(s) + 1],
        "SymbolicPlan: supernode rows disagree with column counts");
  }
}

}  // namespace gridse::sparse
