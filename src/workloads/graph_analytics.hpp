/**
 * @file
 * Vertex-push graph-analytics traffic (Fig 15b): vertices partitioned
 * over PEs; each superstep every active vertex pushes an update along
 * its out-edges, producing one NoC message per (owner(u) -> owner(v))
 * edge endpoint pair. Road networks use spatial block partitioning
 * (local traffic), power-law graphs use hashed partitioning.
 */

#ifndef FT_WORKLOADS_GRAPH_ANALYTICS_HPP
#define FT_WORKLOADS_GRAPH_ANALYTICS_HPP

#include "traffic/trace.hpp"
#include "workloads/graph.hpp"

namespace fasttrack {

/** Vertex-to-PE assignment. */
enum class VertexPartition
{
    /** Hash-spread (destroys locality; right for web/social graphs). */
    hashed,
    /** Spatial blocks of a lattice onto the PE grid (right for road
     *  networks). Falls back to hashed for non-square graphs. */
    spatialBlocks,
};

/**
 * Build a push-model trace for @p graph on an @p n x @p n NoC, with
 * @p n in [2, kMaxTraceSide]. Its working memory follows the graph,
 * not the n * n PEs.
 * @param supersteps BSP rounds; each round's messages depend on the
 *        previous round's delivery into the same destination vertex
 *        partition (modelled per-PE to bound the trace size).
 */
Trace graphPushTrace(const Graph &graph, std::uint32_t n,
                     VertexPartition partition, std::uint32_t supersteps = 1);

/** Partition choice the catalog uses for each benchmark. */
VertexPartition defaultPartition(const GraphBenchmark &bench);

} // namespace fasttrack

#endif // FT_WORKLOADS_GRAPH_ANALYTICS_HPP
