/**
 * @file
 * SpMV communication-trace synthesis (Fig 15a): rows are distributed
 * over PEs; for y = A*x, the owner of vector entry x[j] streams it to
 * every PE holding a row with a nonzero in column j. Throughput-bound:
 * all messages are available at cycle 0 and the workload completion
 * time measures how fast the NoC can route them.
 */

#ifndef FT_WORKLOADS_SPMV_HPP
#define FT_WORKLOADS_SPMV_HPP

#include "traffic/trace.hpp"
#include "workloads/sparse_matrix.hpp"

namespace fasttrack {

/** How matrix rows / vector entries map onto PEs. */
enum class RowMapping
{
    /** owner(i) = i mod PEs - spreads bands over all PEs (turns any
     *  matrix into near-uniform traffic). */
    cyclic,
    /** owner(i) = i / ceil(rows/PEs) - keeps bands local, so strongly
     *  banded matrices produce mostly self/neighbour messages (the
     *  paper's "predominantly local" benchmarks). Default. */
    block,
};

/**
 * Build the SpMV trace for @p matrix on an @p n x @p n NoC, with
 * @p n in [2, kMaxTraceSide].
 * One message per (column owner -> distinct consumer PE) pair;
 * messages to the owner itself become local (self) deliveries.
 */
Trace spmvTrace(const SparseMatrix &matrix, std::uint32_t n,
                RowMapping mapping = RowMapping::block);

} // namespace fasttrack

#endif // FT_WORKLOADS_SPMV_HPP
