#include "workloads/dataflow.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace fasttrack {

std::uint64_t
DataflowDag::edgeCount() const
{
    std::uint64_t edges = 0;
    for (const auto &s : succs)
        edges += s.size();
    return edges;
}

std::uint32_t
DataflowDag::depth() const
{
    std::uint32_t d = 0;
    for (std::uint32_t l : level)
        d = std::max(d, l + 1);
    return d;
}

double
DataflowDag::avgWidth() const
{
    const std::uint32_t d = depth();
    return d ? static_cast<double>(nodeCount) / d : 0.0;
}

std::vector<std::uint32_t>
DataflowDag::inDegrees() const
{
    std::vector<std::uint32_t> deg(nodeCount, 0);
    for (const auto &s : succs) {
        for (std::uint32_t v : s)
            ++deg[v];
    }
    return deg;
}

DataflowDag
sparseLuDag(const LuDagParams &params)
{
    FT_ASSERT(params.nodes >= 8, "DAG too small");
    FT_ASSERT(params.avgWidth >= 1.0, "width must be >= 1");
    Rng rng(params.seed);

    DataflowDag dag;
    dag.name = params.name;
    dag.nodeCount = params.nodes;
    dag.succs.resize(params.nodes);
    dag.level.resize(params.nodes);

    // LU elimination fronts start wide and narrow towards the final
    // pivots: linear width decay from 1.6x to 0.4x of the average.
    const auto levels = std::max<std::uint32_t>(
        2, static_cast<std::uint32_t>(params.nodes / params.avgWidth));
    std::vector<std::vector<std::uint32_t>> by_level(levels);
    std::uint32_t next = 0;
    for (std::uint32_t l = 0; l < levels && next < params.nodes; ++l) {
        const double frac = static_cast<double>(l) / levels;
        const double w = params.avgWidth * (1.6 - 1.2 * frac);
        auto width = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(std::lround(w)));
        if (l + 1 == levels)
            width = params.nodes - next; // absorb the remainder
        width = std::min(width, params.nodes - next);
        for (std::uint32_t i = 0; i < width; ++i) {
            dag.level[next] = l;
            by_level[l].push_back(next++);
        }
    }
    const std::uint32_t used_levels = dag.depth();

    // Wire predecessors: mostly from the immediately previous level
    // (long chains), occasionally further back.
    for (std::uint32_t l = 1; l < used_levels; ++l) {
        for (std::uint32_t v : by_level[l]) {
            const double extra = params.avgFanin - 1.0;
            std::uint32_t fanin = 1;
            if (extra > 0.0 && rng.nextBool(std::min(extra, 1.0)))
                ++fanin;
            if (extra > 1.0 && rng.nextBool(extra - 1.0))
                ++fanin;
            for (std::uint32_t f = 0; f < fanin; ++f) {
                std::uint32_t back = 1;
                while (back < params.maxLookback && back < l &&
                       rng.nextBool(0.25)) {
                    ++back;
                }
                const auto &pool = by_level[l - back];
                const std::uint32_t u = pool[rng.nextBelow(pool.size())];
                auto &s = dag.succs[u];
                if (std::find(s.begin(), s.end(), v) == s.end())
                    s.push_back(v);
            }
        }
    }
    return dag;
}

Trace
dataflowTrace(const DataflowDag &dag, std::uint32_t n,
              Cycle compute_delay)
{
    FT_ASSERT(n >= 2 && n <= kMaxTraceSide, "NoC side ", n,
              " is outside [2, ", kMaxTraceSide, "]");
    const std::uint32_t pes = n * n;

    // In-edge CSR: the tokens entering node v are
    // tokens_in[in_start[v] .. in_start[v + 1]), in id order.
    std::vector<std::uint32_t> in_start(dag.nodeCount + 1, 0);
    for (const auto &s : dag.succs) {
        for (std::uint32_t v : s)
            ++in_start[v + 1];
    }
    std::partial_sum(in_start.begin(), in_start.end(), in_start.begin());

    Trace trace;
    trace.name = "dataflow:" + dag.name;
    trace.n = n;
    // One message per edge; each of u's waits on every token into u.
    std::size_t deps = 0;
    for (std::uint32_t u = 0; u < dag.nodeCount; ++u)
        deps += dag.succs[u].size() * (in_start[u + 1] - in_start[u]);
    trace.reserve(in_start.back(), deps);

    // Every edge runs from a lower id to a higher one, so the tokens
    // into u are all sent, and filled in source order, before u sends.
    std::vector<std::uint64_t> tokens_in(in_start.back());
    std::vector<std::uint32_t> next(in_start.begin(), in_start.end() - 1);
    for (std::uint32_t u = 0; u < dag.nodeCount; ++u) {
        const std::span<const std::uint64_t> waits(
            tokens_in.data() + in_start[u], in_start[u + 1] - in_start[u]);
        for (std::uint32_t v : dag.succs[u]) {
            FT_ASSERT(v > u, "DAG ", dag.name, " has edge ", u, " -> ", v,
                      " against id order");
            tokens_in[next[v]++] =
                trace.add({.src = u % pes,
                           .dst = v % pes,
                           .delayAfterDeps = compute_delay},
                          waits);
        }
    }
    trace.validate();
    return trace;
}

const std::vector<LuDagParams> &
luCatalog()
{
    // Node counts follow the paper's benchmark names (matrix_opcount);
    // widths are kept low to preserve the "notoriously hard to
    // parallelize" character.
    static const std::vector<LuDagParams> catalog = {
        {"bomhof3_10656", 10656, 24.0, 1.9, 3, 41},
        {"ram8k_10823", 10823, 20.0, 1.8, 3, 42},
        {"s1423_2582", 2582, 8.0, 1.7, 2, 43},
        {"s1423_6648", 6648, 12.0, 1.8, 3, 44},
        {"s1488_4872", 4872, 10.0, 1.8, 3, 45},
        {"s1494_9156", 9156, 14.0, 1.9, 3, 46},
        {"s953_3197", 3197, 9.0, 1.7, 2, 47},
        {"s953_4568", 4568, 11.0, 1.8, 3, 48},
    };
    return catalog;
}

} // namespace fasttrack
