#include "sparse/ldlt.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"

namespace gridse::sparse {

namespace {

using Off = std::ptrdiff_t;

std::size_t at(Index i) { return static_cast<std::size_t>(i); }

/// Column k of a lower-trapezoid panel with ld rows (column-major, column k
/// holding rows k..ld-1), indexed by panel row: [i] is entry (i, k), i ≥ k.
template <typename T>
T* column(T* panel, Off ld, Index k) {
  return panel + (Off{k} * ld - Off{k} * (k + 1) / 2);
}

/// c[i] = Σ_k L(r0 + i, k) · D(k) · L(r0 + j, k) for j ≤ i < m: column j of
/// the lower-trapezoid update one panel (ld rows, w columns, D on its
/// diagonal) applies to a later supernode. The k loop is unrolled by four
/// so each pass over c does four multiply-adds per element.
void update_column(const double* panel, Off ld, Index w, Index r0, Index m,
                   Index j, double* c) {
  std::fill(c + j, c + m, 0.0);
  Index k = 0;
  for (; k + 4 <= w; k += 4) {
    const double* l0 = column(panel, ld, k);
    const double* l1 = column(panel, ld, k + 1);
    const double* l2 = column(panel, ld, k + 2);
    const double* l3 = column(panel, ld, k + 3);
    const double v0 = l0[r0 + j] * l0[k];
    const double v1 = l1[r0 + j] * l1[k + 1];
    const double v2 = l2[r0 + j] * l2[k + 2];
    const double v3 = l3[r0 + j] * l3[k + 3];
    l0 += r0;
    l1 += r0;
    l2 += r0;
    l3 += r0;
    for (Index i = j; i < m; ++i) {
      c[i] += l0[i] * v0 + l1[i] * v1 + l2[i] * v2 + l3[i] * v3;
    }
  }
  for (; k < w; ++k) {
    const double* l0 = column(panel, ld, k);
    const double v0 = l0[r0 + j] * l0[k];
    l0 += r0;
    for (Index i = j; i < m; ++i) c[i] += l0[i] * v0;
  }
}

/// Dense LDLᵀ of a panel whose updates from earlier supernodes are applied:
/// left-looking over its w columns, each column takes the updates of the
/// columns before it (unrolled by four), then its pivot goes on the
/// diagonal and the entries below are divided by it. `first` is the
/// panel's first column, for the zero-pivot message.
void factor_panel(double* panel, Off ld, Index w, Index first) {
  for (Index k = 0; k < w; ++k) {
    double* ck = column(panel, ld, k);
    Index j = 0;
    for (; j + 4 <= k; j += 4) {
      const double* c0 = column(panel, ld, j);
      const double* c1 = column(panel, ld, j + 1);
      const double* c2 = column(panel, ld, j + 2);
      const double* c3 = column(panel, ld, j + 3);
      const double v0 = c0[k] * c0[j];
      const double v1 = c1[k] * c1[j + 1];
      const double v2 = c2[k] * c2[j + 2];
      const double v3 = c3[k] * c3[j + 3];
      for (Off i = k; i < ld; ++i) {
        ck[i] -= c0[i] * v0 + c1[i] * v1 + c2[i] * v2 + c3[i] * v3;
      }
    }
    for (; j < k; ++j) {
      const double* c0 = column(panel, ld, j);
      const double v0 = c0[k] * c0[j];
      for (Off i = k; i < ld; ++i) ck[i] -= c0[i] * v0;
    }
    const double dk = ck[k];
    if (dk == 0.0) {
      throw ConvergenceFailure("sparse LDLt: zero pivot at column " +
                               std::to_string(first + k));
    }
    for (Off i = k + 1; i < ld; ++i) ck[i] /= dk;
  }
}

}  // namespace

void SparseLdlt::factorize(const Csr& a,
                           std::shared_ptr<const SymbolicPlan> plan) {
  GRIDSE_CHECK(plan != nullptr);
  GRIDSE_CHECK_MSG(a.rows() == plan->dim() &&
                       static_cast<std::uint64_t>(a.nnz()) ==
                           plan->fingerprint().nnz,
                   "SparseLdlt: matrix does not match the symbolic plan");
  // The panels are overwritten in place, so a throw below leaves nothing
  // usable: drop the old factor first, adopt the plan only on success.
  plan_.reset();
  factor_numeric(*plan, a);
  plan_ = std::move(plan);
}

void SparseLdlt::factorize(const Csr& a, bool use_ordering) {
  GRIDSE_CHECK(a.rows() == a.cols());
  factorize(a, std::make_shared<const SymbolicPlan>(
                   SymbolicPlan::analyze(a, use_ordering)));
}

void SparseLdlt::factor_numeric(const SymbolicPlan& plan, const Csr& a) {
  const Index n = plan.dim();
  const Index ns = plan.supernode_count();
  const auto sc = plan.supernode_cols();
  const auto vp = plan.supernode_value_ptr();
  const auto col_sn = plan.column_supernode();
  const auto ap = plan.permuted_row_ptr();
  const auto ac = plan.permuted_col_idx();
  const auto amap = plan.value_map();
  const auto aval = a.values();

  // resize() to an unchanged size allocates nothing: a refactorization on
  // the same plan reuses every buffer.
  lx_.resize(plan.panel_size());
  relmap_.resize(at(n));
  rel_.resize(at(n));
  head_.assign(at(ns), -1);
  next_.resize(at(ns));
  pos_.resize(at(ns));
  update_.resize(at(n));

  for (Index s = 0; s < ns; ++s) {
    const Index f = sc[at(s)];
    const Index w = sc[at(s) + 1] - f;
    const auto rows = plan.supernode_rows(s);
    const auto ld = static_cast<Off>(rows.size());
    double* panel = lx_.data() + vp[at(s)];
    std::fill(panel, lx_.data() + vp[at(s) + 1], 0.0);
    for (Off i = 0; i < ld; ++i) {
      relmap_[at(rows[at(i)])] = static_cast<Index>(i);
    }

    // Gather columns f.. of B = PAPᵀ: row j of B from its diagonal on is
    // column j of the lower triangle.
    for (Index k = 0; k < w; ++k) {
      const Index j = f + k;
      double* col = column(panel, ld, k);
      for (Index p = ap[at(j) + 1] - 1; p >= ap[at(j)] && ac[at(p)] >= j; --p) {
        col[relmap_[at(ac[at(p)])]] = aval[at(amap[at(p)])];
      }
    }

    // Left-looking updates: every earlier supernode whose next unapplied
    // row falls in this panel's columns waits on head_[s].
    for (Index d = head_[at(s)]; d >= 0;) {
      const Index d_next = next_[at(d)];
      const Index dw = sc[at(d) + 1] - sc[at(d)];
      const auto drows = plan.supernode_rows(d);
      const auto dld = static_cast<Index>(drows.size());
      const Index r0 = pos_[at(d)];
      Index r1 = r0;
      while (r1 < dld && drows[at(r1)] < f + w) ++r1;
      const Index m = dld - r0;
      for (Index i = 0; i < m; ++i) {
        rel_[at(i)] = relmap_[at(drows[at(r0 + i)])];
      }
      // One column of the (m × (r1 − r0)) update block at a time, each
      // subtracted at the relative positions of d's rows.
      for (Index jj = 0; jj < r1 - r0; ++jj) {
        update_column(lx_.data() + vp[at(d)], dld, dw, r0, m, jj,
                      update_.data());
        double* col = column(panel, ld, rel_[at(jj)]);
        for (Index i = jj; i < m; ++i) col[rel_[at(i)]] -= update_[at(i)];
      }
      pos_[at(d)] = r1;
      if (r1 < dld) {
        const Index t = col_sn[at(drows[at(r1)])];
        next_[at(d)] = head_[at(t)];
        head_[at(t)] = d;
      }
      d = d_next;
    }

    factor_panel(panel, ld, w, f);

    pos_[at(s)] = w;
    if (w < ld) {
      const Index t = col_sn[at(rows[at(w)])];
      next_[at(s)] = head_[at(t)];
      head_[at(t)] = s;
    }
  }
}

std::vector<double> SparseLdlt::solve(std::span<const double> b) const {
  GRIDSE_CHECK_MSG(factored(), "SparseLdlt::solve before factorize");
  const SymbolicPlan& plan = *plan_;
  const Index n = plan.dim();
  GRIDSE_CHECK(static_cast<Index>(b.size()) == n);
  const auto perm = plan.perm();
  const auto sc = plan.supernode_cols();
  const auto vp = plan.supernode_value_ptr();
  const Index ns = plan.supernode_count();

  std::vector<double> x(at(n));
  for (std::size_t i = 0; i < at(n); ++i) x[i] = b[at(perm[i])];
  // L y = Pb, panel by panel: each column scatters into its own rows.
  for (Index s = 0; s < ns; ++s) {
    const Index f = sc[at(s)];
    const Index w = sc[at(s) + 1] - f;
    const auto rows = plan.supernode_rows(s);
    const auto ld = static_cast<Off>(rows.size());
    const double* panel = lx_.data() + vp[at(s)];
    for (Index k = 0; k < w; ++k) {
      const double* col = column(panel, ld, k);
      const double xk = x[at(f + k)];
      for (Off i = k + 1; i < ld; ++i) x[at(rows[at(i)])] -= col[i] * xk;
    }
  }
  // D z = y.
  for (Index s = 0; s < ns; ++s) {
    const Index f = sc[at(s)];
    const Index w = sc[at(s) + 1] - f;
    const auto ld = static_cast<Off>(plan.supernode_rows(s).size());
    const double* panel = lx_.data() + vp[at(s)];
    for (Index k = 0; k < w; ++k) x[at(f + k)] /= column(panel, ld, k)[k];
  }
  // Lᵀ x = z, panels in reverse: each column gathers from its rows.
  for (Index s = ns - 1; s >= 0; --s) {
    const Index f = sc[at(s)];
    const Index w = sc[at(s) + 1] - f;
    const auto rows = plan.supernode_rows(s);
    const auto ld = static_cast<Off>(rows.size());
    const double* panel = lx_.data() + vp[at(s)];
    for (Index k = w - 1; k >= 0; --k) {
      const double* col = column(panel, ld, k);
      double xk = x[at(f + k)];
      for (Off i = k + 1; i < ld; ++i) xk -= col[i] * x[at(rows[at(i)])];
      x[at(f + k)] = xk;
    }
  }
  std::vector<double> out(at(n));
  for (std::size_t i = 0; i < at(n); ++i) out[at(perm[i])] = x[i];
  return out;
}

}  // namespace gridse::sparse
