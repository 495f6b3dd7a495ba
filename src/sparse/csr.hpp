#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace gridse::sparse {

/// Index type used by all sparse structures.
using Index = std::int32_t;

/// One (row, col, value) entry during matrix assembly.
template <typename T>
struct Triplet {
  Index row;
  Index col;
  T value;
};

/// Compressed-sparse-row matrix over `T` (double for real systems,
/// std::complex<double> for the bus admittance matrix). Immutable after
/// construction; assembly goes through `from_triplets`, which buckets the
/// entries by row, sorts each row and sums duplicate entries.
template <typename T>
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from triplets. Duplicates (same row and col) are summed in input
  /// order, which is exactly the accumulation semantics Ybus/Jacobian
  /// assembly needs. A stable counting sort buckets the triplets by row,
  /// then each row is sorted by (column, input position): O(nnz) plus a
  /// sort of each (short) row instead of one global sort.
  static CsrMatrix from_triplets(Index rows, Index cols,
                                 std::vector<Triplet<T>> triplets) {
    GRIDSE_CHECK(rows >= 0 && cols >= 0);
    GRIDSE_CHECK(triplets.size() <
                 static_cast<std::size_t>(std::numeric_limits<Index>::max()));
    std::vector<Index> start(static_cast<std::size_t>(rows) + 1, 0);
    for (const auto& t : triplets) {
      GRIDSE_CHECK_MSG(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols,
                       "triplet index out of range");
      ++start[static_cast<std::size_t>(t.row) + 1];
    }
    for (Index r = 0; r < rows; ++r) {
      start[static_cast<std::size_t>(r) + 1] +=
          start[static_cast<std::size_t>(r)];
    }
    // (column, input position) per triplet, bucketed by row in input order.
    std::vector<std::pair<Index, Index>> keyed(triplets.size());
    {
      std::vector<Index> next(start.begin(), start.end() - 1);
      for (std::size_t k = 0; k < triplets.size(); ++k) {
        const auto slot = static_cast<std::size_t>(
            next[static_cast<std::size_t>(triplets[k].row)]++);
        keyed[slot] = {triplets[k].col, static_cast<Index>(k)};
      }
    }
    CsrMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
    for (Index r = 0; r < rows; ++r) {
      const auto b = keyed.begin() + start[static_cast<std::size_t>(r)];
      const auto e = keyed.begin() + start[static_cast<std::size_t>(r) + 1];
      std::sort(b, e);
      Index distinct = 0;
      for (auto it = b; it != e; ++it) {
        if (it == b || it->first != (it - 1)->first) ++distinct;
      }
      m.row_ptr_[static_cast<std::size_t>(r) + 1] =
          m.row_ptr_[static_cast<std::size_t>(r)] + distinct;
    }
    m.col_idx_.resize(static_cast<std::size_t>(m.row_ptr_.back()));
    m.values_.resize(m.col_idx_.size());
    std::size_t out = 0;
    for (Index r = 0; r < rows; ++r) {
      const auto e = keyed.begin() + start[static_cast<std::size_t>(r) + 1];
      for (auto it = keyed.begin() + start[static_cast<std::size_t>(r)];
           it != e; ++out) {
        const Index c = it->first;
        T sum{};
        for (; it != e && it->first == c; ++it) {
          sum += triplets[static_cast<std::size_t>(it->second)].value;
        }
        m.col_idx_[out] = c;
        m.values_[out] = sum;
      }
    }
    return m;
  }

  /// Adopt prebuilt CSR arrays. Rows must be column-sorted with no duplicate
  /// entries — the invariant from_triplets establishes. Plan-driven assembly
  /// paths (SymbolicPlan gather maps, NormalAssembler) use this to skip the
  /// triplet sort on every numeric refactorization.
  static CsrMatrix from_parts(Index rows, Index cols,
                              std::vector<Index> row_ptr,
                              std::vector<Index> col_idx,
                              std::vector<T> values) {
    GRIDSE_CHECK(rows >= 0 && cols >= 0);
    GRIDSE_CHECK(row_ptr.size() == static_cast<std::size_t>(rows) + 1);
    GRIDSE_CHECK(col_idx.size() == values.size());
    GRIDSE_CHECK(!row_ptr.empty() && row_ptr.front() == 0 &&
                 row_ptr.back() == static_cast<Index>(col_idx.size()));
    CsrMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.row_ptr_ = std::move(row_ptr);
    m.col_idx_ = std::move(col_idx);
    m.values_ = std::move(values);
    return m;
  }

  /// Identity matrix of size n.
  static CsrMatrix identity(Index n) {
    std::vector<Triplet<T>> t;
    t.reserve(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) {
      t.push_back({i, i, T{1}});
    }
    return from_triplets(n, n, std::move(t));
  }

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  [[nodiscard]] std::span<const Index> row_ptr() const { return row_ptr_; }
  [[nodiscard]] std::span<const Index> col_idx() const { return col_idx_; }
  [[nodiscard]] std::span<const T> values() const { return values_; }
  [[nodiscard]] std::span<T> mutable_values() { return values_; }

  /// Begin/end offsets of row r inside col_idx()/values().
  [[nodiscard]] std::pair<Index, Index> row_range(Index r) const {
    return {row_ptr_[static_cast<std::size_t>(r)],
            row_ptr_[static_cast<std::size_t>(r) + 1]};
  }

  /// Value at (r, c), or T{} when the entry is structurally absent.
  [[nodiscard]] T value_at(Index r, Index c) const {
    const auto [b, e] = row_range(r);
    const auto* first = col_idx_.data() + b;
    const auto* last = col_idx_.data() + e;
    const auto* it = std::lower_bound(first, last, c);
    if (it != last && *it == c) {
      return values_[static_cast<std::size_t>(b + (it - first))];
    }
    return T{};
  }

  /// y = A x
  void multiply(std::span<const T> x, std::span<T> y) const {
    GRIDSE_CHECK(static_cast<Index>(x.size()) == cols_ &&
                 static_cast<Index>(y.size()) == rows_);
    for (Index r = 0; r < rows_; ++r) {
      T acc{};
      const auto [b, e] = row_range(r);
      for (Index k = b; k < e; ++k) {
        acc += values_[static_cast<std::size_t>(k)] *
               x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
      }
      y[static_cast<std::size_t>(r)] = acc;
    }
  }

  /// y = Aᵀ x
  void multiply_transpose(std::span<const T> x, std::span<T> y) const {
    GRIDSE_CHECK(static_cast<Index>(x.size()) == rows_ &&
                 static_cast<Index>(y.size()) == cols_);
    std::fill(y.begin(), y.end(), T{});
    for (Index r = 0; r < rows_; ++r) {
      const auto [b, e] = row_range(r);
      const T xr = x[static_cast<std::size_t>(r)];
      for (Index k = b; k < e; ++k) {
        y[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] +=
            values_[static_cast<std::size_t>(k)] * xr;
      }
    }
  }

  /// Explicit transpose.
  [[nodiscard]] CsrMatrix transpose() const {
    std::vector<Triplet<T>> t;
    t.reserve(nnz());
    for (Index r = 0; r < rows_; ++r) {
      const auto [b, e] = row_range(r);
      for (Index k = b; k < e; ++k) {
        t.push_back({col_idx_[static_cast<std::size_t>(k)], r,
                     values_[static_cast<std::size_t>(k)]});
      }
    }
    return from_triplets(cols_, rows_, std::move(t));
  }

  /// Main diagonal (zero where structurally absent).
  [[nodiscard]] std::vector<T> diagonal() const {
    const Index n = std::min(rows_, cols_);
    std::vector<T> d(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) {
      d[static_cast<std::size_t>(i)] = value_at(i, i);
    }
    return d;
  }

  /// Dense row-major copy; for tests and tiny reference solves only.
  [[nodiscard]] std::vector<T> to_dense() const {
    std::vector<T> d(static_cast<std::size_t>(rows_) *
                     static_cast<std::size_t>(cols_));
    for (Index r = 0; r < rows_; ++r) {
      const auto [b, e] = row_range(r);
      for (Index k = b; k < e; ++k) {
        d[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
          static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] =
            values_[static_cast<std::size_t>(k)];
      }
    }
    return d;
  }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> row_ptr_{0};
  std::vector<Index> col_idx_;
  std::vector<T> values_;
};

using Csr = CsrMatrix<double>;
using CsrComplex = CsrMatrix<std::complex<double>>;

}  // namespace gridse::sparse
