#include "workloads/spmv.hpp"

#include <algorithm>
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
    FT_ASSERT(n >= 2, "NoC side must be >= 2");
    const std::uint32_t pes = n * n;

    // Invert the CSR pattern: consumers of each vector entry x[j] are
    // the owners of rows with a nonzero in column j.
    std::vector<std::vector<NodeId>> consumers(matrix.cols);
    for (std::uint32_t i = 0; i < matrix.rows; ++i) {
        const NodeId row_owner = owner(i, matrix.rows, pes, mapping);
        for (std::uint32_t k = matrix.rowPtr[i];
             k < matrix.rowPtr[i + 1]; ++k) {
            consumers[matrix.colIdx[k]].push_back(row_owner);
        }
    }

    // Deduplicate first, so the trace reserves its exact size.
    std::size_t messages = 0;
    for (auto &dests : consumers) {
        std::sort(dests.begin(), dests.end());
        dests.erase(std::unique(dests.begin(), dests.end()),
                    dests.end());
        messages += dests.size();
    }

    Trace trace;
    trace.name = "spmv:" + matrix.name;
    trace.n = n;
    trace.reserve(messages, 0);
    for (std::uint32_t j = 0; j < matrix.cols; ++j) {
        const NodeId src = owner(j, matrix.rows, pes, mapping);
        for (NodeId dst : consumers[j])
            trace.add({.src = src, .dst = dst});
    }
    trace.validate();
    return trace;
}

} // namespace fasttrack
