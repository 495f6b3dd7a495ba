#include "sparse/ordering.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/error.hpp"

namespace gridse::sparse {

namespace {

/// Absorption links share the list-pointer array with list offsets: an
/// absorbed or eliminated node stores flip(parent) (<= -2), a root -1.
constexpr Index flip(Index i) { return -i - 2; }

/// Off-diagonal pattern of structurally symmetric `a`, one list per node:
/// fills ptr[0..n) and len[0..n) and returns the concatenated lists.
std::vector<Index> offdiagonal_adjacency(const Csr& a, Index* ptr,
                                         Index* len) {
  const Index n = a.rows();
  const Index* col = a.col_idx().data();
  std::vector<Index> adj;
  adj.reserve(a.nnz());
  for (Index r = 0; r < n; ++r) {
    ptr[r] = static_cast<Index>(adj.size());
    const auto [b, e] = a.row_range(r);
    for (Index k = b; k < e; ++k) {
      if (col[k] != r) adj.push_back(col[k]);
    }
    len[r] = static_cast<Index>(adj.size()) - ptr[r];
  }
  return adj;
}

/// Appends the postorder of the tree rooted at `root` to `order`; children
/// are the lists head[p] → next[...]. `head` is consumed; `stack` is
/// scratch with room for the tree's depth.
void postorder_subtree(Index root, Index* head, const Index* next,
                       Index* stack, std::vector<Index>& order) {
  Index top = 0;
  stack[0] = root;
  while (top >= 0) {
    const Index p = stack[top];
    const Index child = head[p];
    if (child == -1) {
      --top;
      order.push_back(p);
    } else {
      head[p] = next[child];
      stack[++top] = child;
    }
  }
}

}  // namespace

std::vector<Index> approximate_minimum_degree(const Csr& a) {
  GRIDSE_CHECK(a.rows() == a.cols());
  const Index n = a.rows();
  if (n == 0) return {};
  const auto slots = static_cast<std::size_t>(n) + 1;

  // Quotient-graph state, one slot per node plus slot n: a placeholder
  // element that absorbs the dense rows, so they are ordered last.
  //   pe[i]     offset of i's list in iw; flip(parent) once absorbed or
  //             eliminated into an element; -1 for a root.
  //   len[i]    length of i's list. A variable's list holds its elen[i]
  //             adjacent elements first, then its adjacent variables; an
  //             element's list holds its variables Le.
  //   elen[i]   >= 0: i is a variable; -1: absorbed; -2: an element.
  //   nv[i]     nodes represented by supervariable / element i (0 once
  //             absorbed); negated while i is in the pivot element Lk.
  //   degree[i] approximate external degree of variable i; |Le| of element.
  //   head[d]   degree list d: the variables of approximate degree d, linked
  //             through next/last (which double as hash-bucket links while
  //             a variable sits in the pivot element).
  //   w[e]      0 for a dead element; while a pivot is processed, the
  //             elements adjacent to Lk hold |Le \ Lk| + mark.
  std::vector<Index> pe_v(slots, 0);
  std::vector<Index> len_v(slots, 0);
  std::vector<Index> iw_v =
      offdiagonal_adjacency(a, pe_v.data(), len_v.data());
  Index pfree = static_cast<Index>(iw_v.size());
  // Elbow room for the new elements; compacted when it runs out.
  const Index iwlen = pfree + pfree / 5 + 2 * n;
  iw_v.resize(static_cast<std::size_t>(iwlen));
  std::vector<Index> elen_v(slots, 0);
  std::vector<Index> nv_v(slots, 1);
  std::vector<Index> degree_v(slots, 0);
  std::vector<Index> next_v(slots, -1);
  std::vector<Index> last_v(slots, -1);
  std::vector<Index> hhead_v(slots, -1);
  std::vector<Index> head_v(slots, -1);
  // 64-bit marks: mark grows by at most 2n per pivot, so it cannot wrap.
  std::vector<std::int64_t> w_v(slots, 1);
  Index* pe = pe_v.data();
  Index* len = len_v.data();
  Index* iw = iw_v.data();
  Index* elen = elen_v.data();
  Index* nv = nv_v.data();
  Index* degree = degree_v.data();
  Index* next = next_v.data();
  Index* last = last_v.data();
  Index* hhead = hhead_v.data();
  Index* head = head_v.data();
  std::int64_t* w = w_v.data();

  const auto list_insert = [&](Index i, Index d) {
    if (head[d] != -1) last[head[d]] = i;
    next[i] = head[d];
    last[i] = -1;
    head[d] = i;
  };
  const auto list_remove = [&](Index i) {
    if (next[i] != -1) last[next[i]] = last[i];
    if (last[i] != -1) {
      next[last[i]] = next[i];
    } else {
      head[degree[i]] = next[i];
    }
  };

  const auto ten_sqrt_n =
      static_cast<Index>(10.0 * std::sqrt(static_cast<double>(n)));
  const Index dense = std::min(n - 2, std::max<Index>(16, ten_sqrt_n));
  elen[n] = -2;
  pe[n] = -1;
  w[n] = 0;
  Index nel = 0;  // nodes eliminated so far
  for (Index i = 0; i < n; ++i) {
    degree[i] = len[i];
    if (degree[i] == 0) {  // isolated: an element from the start
      elen[i] = -2;
      pe[i] = -1;
      w[i] = 0;
      ++nel;
    } else if (degree[i] > dense) {  // dense: ordered last, never pivoted
      nv[i] = 0;
      elen[i] = -1;
      pe[i] = flip(n);
      ++nv[n];
      ++nel;
    }
  }
  // Seeded in descending index order, so among equal initial degrees the
  // lowest index is at the head of its list and is pivoted first.
  for (Index i = n - 1; i >= 0; --i) {
    if (elen[i] == 0 && nv[i] > 0) list_insert(i, degree[i]);
  }

  Index mindeg = 0;
  Index lemax = 0;
  std::int64_t mark = 2;  // every w[i] < mark between pivots
  while (nel < n) {
    // --- select pivot k: the head of the least nonempty degree list ---------
    while (head[mindeg] == -1) {
      ++mindeg;
      GRIDSE_CHECK(mindeg < n);
    }
    const Index k = head[mindeg];
    list_remove(k);
    const Index elenk = elen[k];
    Index nvk = nv[k];
    nel += nvk;

    // --- make room for Lk (at most degree[k] entries) at the end of iw -------
    if (elenk > 0 && pfree + degree[k] >= iwlen) {
      for (Index j = 0; j < n; ++j) {
        const Index p = pe[j];
        if (p >= 0) {  // tag the head of each live list with its owner
          pe[j] = iw[p];
          iw[p] = flip(j);
        }
      }
      Index q = 0;
      for (Index p = 0; p < pfree;) {
        const Index j = flip(iw[p++]);
        if (j < 0) continue;  // not a list head
        iw[q] = pe[j];
        pe[j] = q++;
        for (Index t = 1; t < len[j]; ++t) iw[q++] = iw[p++];
      }
      pfree = q;
      GRIDSE_CHECK(pfree + degree[k] < iwlen);
    }

    // --- construct the new element Lk = (Ak ∪ ⋃ Le over e in Ek) \ {k} -------
    // Elements of Ek are absorbed into k. With no elements the list of k is
    // rewritten in place; otherwise Lk is appended at pfree.
    Index dk = 0;
    nv[k] = -nvk;
    Index p = pe[k];
    const Index pk1 = elenk == 0 ? p : pfree;
    Index pk2 = pk1;
    for (Index k1 = 0; k1 <= elenk; ++k1) {
      Index e = k;
      Index pj = p;
      Index ln = len[k] - elenk;
      if (k1 < elenk) {
        e = iw[p++];
        pj = pe[e];
        ln = len[e];
      }
      for (Index k2 = 0; k2 < ln; ++k2) {
        const Index i = iw[pj++];
        const Index nvi = nv[i];
        if (nvi <= 0) continue;  // dead, or already in Lk
        dk += nvi;
        nv[i] = -nvi;
        iw[pk2++] = i;
        list_remove(i);
      }
      if (e != k) {
        pe[e] = flip(k);
        w[e] = 0;
      }
    }
    if (elenk != 0) pfree = pk2;
    degree[k] = dk;
    pe[k] = pk1;
    len[k] = pk2 - pk1;
    elen[k] = -2;

    // --- scan 1: |Le \ Lk| for every live element e adjacent to Lk ----------
    for (Index pk = pk1; pk < pk2; ++pk) {
      const Index i = iw[pk];
      const Index eln = elen[i];
      if (eln <= 0) continue;
      const Index nvi = -nv[i];
      const std::int64_t wnvi = mark - nvi;
      for (Index q = pe[i]; q < pe[i] + eln; ++q) {
        const Index e = iw[q];
        if (w[e] >= mark) {
          w[e] -= nvi;
        } else if (w[e] != 0) {
          w[e] = degree[e] + wnvi;
        }
      }
    }

    // --- scan 2: approximate degrees, absorption, pruning, hashing -----------
    for (Index pk = pk1; pk < pk2; ++pk) {
      const Index i = iw[pk];
      const Index p1 = pe[i];
      const Index p2 = p1 + elen[i];
      Index pn = p1;
      std::uint64_t h = 0;
      Index d = 0;
      for (Index q = p1; q < p2; ++q) {
        const Index e = iw[q];
        if (w[e] == 0) continue;
        const auto dext = static_cast<Index>(w[e] - mark);
        if (dext > 0) {
          d += dext;
          iw[pn++] = e;
          h += static_cast<std::uint64_t>(e);
        } else {  // aggressive absorption: Le ⊆ Lk
          pe[e] = flip(k);
          w[e] = 0;
        }
      }
      elen[i] = pn - p1 + 1;  // the kept elements plus k
      const Index p3 = pn;
      const Index p4 = p1 + len[i];
      for (Index q = p2; q < p4; ++q) {  // prune variables now in Lk
        const Index j = iw[q];
        const Index nvj = nv[j];
        if (nvj <= 0) continue;
        d += nvj;
        iw[pn++] = j;
        h += static_cast<std::uint64_t>(j);
      }
      if (d == 0) {  // mass elimination: i is adjacent to Lk only
        pe[i] = flip(k);
        const Index nvi = -nv[i];
        dk -= nvi;
        nvk += nvi;
        nel += nvi;
        nv[i] = 0;
        elen[i] = -1;
      } else {
        degree[i] = std::min(degree[i], d);
        // k becomes the first element of i: the first variable moves to the
        // end and the first element to the end of the element segment.
        iw[pn] = iw[p3];
        iw[p3] = iw[p1];
        iw[p1] = k;
        len[i] = pn - p1 + 1;
        const auto bucket =
            static_cast<Index>(h % static_cast<std::uint64_t>(n));
        next[i] = hhead[bucket];
        hhead[bucket] = i;
        last[i] = bucket;
      }
    }
    degree[k] = dk;
    lemax = std::max(lemax, dk);
    mark += lemax;

    // --- supervariable detection: equal hash, then exact list compare --------
    for (Index pk = pk1; pk < pk2; ++pk) {
      Index i = iw[pk];
      if (nv[i] >= 0) continue;  // mass-eliminated
      const Index bucket = last[i];
      i = hhead[bucket];
      hhead[bucket] = -1;
      for (; i != -1 && next[i] != -1; i = next[i], ++mark) {
        const Index ln = len[i];
        const Index eln = elen[i];
        for (Index q = pe[i] + 1; q < pe[i] + ln; ++q) w[iw[q]] = mark;
        Index jlast = i;
        for (Index j = next[i]; j != -1;) {
          bool same = len[j] == ln && elen[j] == eln;
          for (Index q = pe[j] + 1; same && q < pe[j] + ln; ++q) {
            same = w[iw[q]] == mark;
          }
          if (same) {  // absorb j into i
            pe[j] = flip(i);
            nv[i] += nv[j];
            nv[j] = 0;
            elen[j] = -1;
            j = next[j];
            next[jlast] = j;
          } else {
            jlast = j;
            j = next[j];
          }
        }
      }
    }

    // --- finalize Lk: external degrees, back into the degree lists ----------
    Index pout = pk1;
    for (Index pk = pk1; pk < pk2; ++pk) {
      const Index i = iw[pk];
      const Index nvi = -nv[i];
      if (nvi <= 0) continue;  // absorbed above
      nv[i] = nvi;
      degree[i] = std::min(degree[i] + dk - nvi, n - nel - nvi);
      list_insert(i, degree[i]);
      mindeg = std::min(mindeg, degree[i]);
      iw[pout++] = i;
    }
    nv[k] = nvk;
    len[k] = pout - pk1;
    if (len[k] == 0) {  // k is a root of the assembly tree
      pe[k] = -1;
      w[k] = 0;
    }
    if (elenk != 0) pfree = pout;
  }

  // --- postorder the assembly tree ------------------------------------------
  // Every node now hangs off its absorbing element (or is a root), so a
  // postorder keeps each supervariable and each subtree contiguous.
  for (Index i = 0; i < n; ++i) {
    pe[i] = flip(pe[i]);
    GRIDSE_CHECK(pe[i] >= -1 && pe[i] <= n);
  }
  std::fill(head_v.begin(), head_v.end(), -1);  // now: children lists
  for (Index j = n; j >= 0; --j) {  // absorbed variables under their parent
    if (nv[j] > 0) continue;
    next[j] = head[pe[j]];
    head[pe[j]] = j;
  }
  for (Index e = n; e >= 0; --e) {  // elements under their parent, first
    if (nv[e] <= 0 || pe[e] == -1) continue;
    next[e] = head[pe[e]];
    head[pe[e]] = e;
  }
  std::vector<Index> order;
  order.reserve(slots);
  std::vector<Index> stack(slots);
  for (Index i = 0; i <= n; ++i) {
    if (pe[i] == -1) postorder_subtree(i, head, next, stack.data(), order);
  }
  GRIDSE_CHECK(order.size() == slots && order.back() == n);
  order.pop_back();
  return order;
}

Csr permute_symmetric(const Csr& a, std::span<const Index> perm) {
  GRIDSE_CHECK(a.rows() == a.cols());
  GRIDSE_CHECK(static_cast<Index>(perm.size()) == a.rows());
  const auto inv = invert_permutation(perm);
  std::vector<Triplet<double>> t;
  t.reserve(a.nnz());
  const auto col = a.col_idx();
  const auto val = a.values();
  for (Index r = 0; r < a.rows(); ++r) {
    const auto [b, e] = a.row_range(r);
    for (Index k = b; k < e; ++k) {
      t.push_back({inv[static_cast<std::size_t>(r)],
                   inv[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])],
                   val[static_cast<std::size_t>(k)]});
    }
  }
  return Csr::from_triplets(a.rows(), a.cols(), std::move(t));
}

std::vector<Index> invert_permutation(std::span<const Index> perm) {
  std::vector<Index> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inv[static_cast<std::size_t>(perm[i])] = static_cast<Index>(i);
  }
  return inv;
}

}  // namespace gridse::sparse
