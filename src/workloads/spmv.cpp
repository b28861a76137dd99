#include "workloads/spmv.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/logging.hpp"

namespace fasttrack {

namespace {

NodeId
owner(std::uint32_t row, std::uint32_t rows, std::uint32_t pes,
      RowMapping mapping)
{
    if (mapping == RowMapping::cyclic)
        return row % pes;
    const std::uint32_t chunk = (rows + pes - 1) / pes;
    return std::min(row / chunk, pes - 1);
}

} // namespace

Trace
spmvTrace(const SparseMatrix &matrix, std::uint32_t n,
          RowMapping mapping)
{
    FT_ASSERT(n >= 2 && n <= kMaxTraceSide, "NoC side ", n,
              " is outside [2, ", kMaxTraceSide, "]");
    const std::uint32_t pes = n * n;

    // Transpose the CSR pattern with a counting sort: the consumers of
    // vector entry x[j], the owners of the rows with a nonzero in
    // column j, land in owners[start[j] .. start[j + 1]) by ascending
    // row.
    std::vector<std::uint32_t> start(matrix.cols + 1, 0);
    for (std::uint32_t j : matrix.colIdx)
        ++start[j + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    std::vector<NodeId> owners(matrix.colIdx.size());
    std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
    for (std::uint32_t i = 0; i < matrix.rows; ++i) {
        const NodeId row_owner = owner(i, matrix.rows, pes, mapping);
        for (std::uint32_t k = matrix.rowPtr[i];
             k < matrix.rowPtr[i + 1]; ++k) {
            owners[next[matrix.colIdx[k]]++] = row_owner;
        }
    }

    // Deduplicate each span in place and pack the spans to the front,
    // so the trace reserves its exact size. Block owners of ascending
    // rows are already sorted; cyclic ones are sorted first.
    std::uint32_t kept = 0;
    for (std::uint32_t j = 0; j < matrix.cols; ++j) {
        const auto first = owners.begin() + start[j];
        const auto last = owners.begin() + start[j + 1];
        if (mapping == RowMapping::cyclic)
            std::sort(first, last);
        start[j] = kept;
        for (auto it = first; it != last; ++it) {
            if (kept == start[j] || owners[kept - 1] != *it)
                owners[kept++] = *it;
        }
    }
    start[matrix.cols] = kept;

    Trace trace;
    trace.name = "spmv:" + matrix.name;
    trace.n = n;
    trace.reserve(kept, 0);
    for (std::uint32_t j = 0; j < matrix.cols; ++j) {
        const NodeId src = owner(j, matrix.rows, pes, mapping);
        for (std::uint32_t k = start[j]; k < start[j + 1]; ++k)
            trace.add({.src = src, .dst = owners[k]});
    }
    trace.validate();
    return trace;
}

} // namespace fasttrack
