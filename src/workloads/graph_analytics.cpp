#include "workloads/graph_analytics.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hpp"

namespace fasttrack {

namespace {

std::uint32_t
hashVertex(std::uint32_t v)
{
    // Fibonacci hashing: cheap, well-spread, deterministic.
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ull) >> 32);
}

NodeId
assign(std::uint32_t vertex, const Graph &graph, std::uint32_t n,
       VertexPartition partition)
{
    const std::uint32_t pes = n * n;
    if (partition == VertexPartition::spatialBlocks) {
        const auto side = static_cast<std::uint32_t>(
            std::lround(std::sqrt(static_cast<double>(graph.nodes))));
        if (side * side == graph.nodes) {
            // Map lattice blocks onto the PE grid so street neighbours
            // stay on the same or adjacent PEs.
            const std::uint32_t vx = vertex % side;
            const std::uint32_t vy = vertex / side;
            const std::uint32_t px =
                std::min(vx * n / side, n - 1);
            const std::uint32_t py =
                std::min(vy * n / side, n - 1);
            return py * n + px;
        }
    }
    return hashVertex(vertex) % pes;
}

} // namespace

Trace
graphPushTrace(const Graph &graph, std::uint32_t n,
               VertexPartition partition, std::uint32_t supersteps)
{
    FT_ASSERT(n >= 2 && n <= kMaxTraceSide, "NoC side ", n,
              " is outside [2, ", kMaxTraceSide, "]");
    FT_ASSERT(supersteps >= 1, "need at least one superstep");

    // Precompute vertex owners once.
    std::vector<NodeId> owner(graph.nodes);
    for (std::uint32_t v = 0; v < graph.nodes; ++v)
        owner[v] = assign(v, graph, n, partition);

    // Rank the PEs that own a vertex densely, so the per-PE state below
    // follows the graph rather than the n * n PEs of the NoC.
    std::vector<NodeId> owners = owner;
    std::sort(owners.begin(), owners.end());
    owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
    std::vector<std::uint32_t> rank(graph.nodes);
    for (std::uint32_t v = 0; v < graph.nodes; ++v)
        rank[v] = static_cast<std::uint32_t>(
            std::lower_bound(owners.begin(), owners.end(), owner[v]) -
            owners.begin());

    Trace trace;
    trace.name = "graph:" + graph.name;
    trace.n = n;
    // Every round sends every edge; from the second round on, each
    // message waits on at most one earlier message.
    trace.reserve(std::size_t{supersteps} * graph.edges.size(),
                  std::size_t{supersteps - 1} * graph.edges.size());

    // Coarse BSP phasing: each round's messages depend on the last
    // previous-round update that arrived at their source PE (indexed
    // by the PE's rank).
    std::vector<std::int64_t> last_incoming(owners.size(), -1);
    for (std::uint32_t s = 0; s < supersteps; ++s) {
        std::vector<std::int64_t> round_incoming(owners.size(), -1);
        for (const auto &[u, v] : graph.edges) {
            const TraceMessage m{.src = owner[u], .dst = owner[v]};
            const std::int64_t last = last_incoming[rank[u]];
            const std::uint64_t id =
                last >= 0 ? trace.add(m, {static_cast<std::uint64_t>(last)})
                          : trace.add(m);
            round_incoming[rank[v]] = static_cast<std::int64_t>(id);
        }
        last_incoming.swap(round_incoming);
    }
    trace.validate();
    return trace;
}

VertexPartition
defaultPartition(const GraphBenchmark &bench)
{
    return bench.isRoad ? VertexPartition::spatialBlocks
                        : VertexPartition::hashed;
}

} // namespace fasttrack
