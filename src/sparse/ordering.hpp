#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace gridse::sparse {

/// Approximate minimum degree (AMD) fill-reducing ordering of a symmetric
/// sparsity pattern (Amestoy, Davis & Duff, SIAM J. Matrix Anal. Appl.
/// 17(4), 1996). Returns perm such that perm[new_index] = old_index.
///
/// Eliminates on a quotient graph with element absorption, approximate
/// external degrees, supervariable detection (hash + exact compare), mass
/// elimination and aggressive absorption; rows denser than
/// max(16, 10·√n) are ordered last. The result is a postorder of the
/// assembly tree, so supervariables stay contiguous. Runs in time close
/// to linear in nnz(A). `a` must be structurally symmetric; its diagonal
/// is ignored, and disconnected or empty rows are fine.
///
/// Fully deterministic: the next pivot is the head of the least nonempty
/// degree list. The lists are seeded in node-index order (lowest index
/// first) and every later insertion follows the order of the pivot
/// element's list, so ties are broken on node indices alone — no step
/// hashes addresses or sorts unstably — and the permutation, and every
/// SymbolicPlan derived from it, is bit-identical across runs and
/// platforms.
std::vector<Index> approximate_minimum_degree(const Csr& a);

/// Symmetric permutation B = P A Pᵀ where perm[new] = old.
Csr permute_symmetric(const Csr& a, std::span<const Index> perm);

/// Inverse of a permutation vector.
std::vector<Index> invert_permutation(std::span<const Index> perm);

}  // namespace gridse::sparse
