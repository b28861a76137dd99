/**
 * @file
 * Token-dataflow workload synthesis for the sparse LU factorization
 * case study (Fig 15c). SPICE sparse-LU dataflow graphs are notorious
 * for low ILP: long dependency chains with narrow width, which makes
 * the workload latency-sensitive -- exactly where express links help.
 * The generator builds layered DAGs with a controlled width profile
 * and converts them to dependency-carrying traces: a node's outgoing
 * tokens may inject only after all its inputs were delivered plus a
 * compute delay.
 */

#ifndef FT_WORKLOADS_DATAFLOW_HPP
#define FT_WORKLOADS_DATAFLOW_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "traffic/trace.hpp"

namespace fasttrack {

/** Layered operation DAG (ids are topologically ordered). */
struct DataflowDag
{
    std::string name;
    std::uint32_t nodeCount = 0;
    /** Successor lists, indexed by node id. */
    std::vector<std::vector<std::uint32_t>> succs;
    /** Level (layer index) of each node. */
    std::vector<std::uint32_t> level;

    std::uint64_t edgeCount() const;
    std::uint32_t depth() const;
    /** Average nodes per level: the available ILP. */
    double avgWidth() const;
    /** Predecessor counts (for firing rules). */
    std::vector<std::uint32_t> inDegrees() const;
};

/** Generation parameters for one synthetic LU dataflow graph. */
struct LuDagParams
{
    std::string name;
    std::uint32_t nodes = 4096;
    /** Mean operation width of a level; small = low ILP. */
    double avgWidth = 12.0;
    /** Mean predecessors per non-root node (1..3 typical). */
    double avgFanin = 1.8;
    /** How far back predecessor levels reach (1 = chain-like). */
    std::uint32_t maxLookback = 3;
    std::uint64_t seed = 31;
};

/** Build a layered low-ILP DAG with the requested statistics. */
DataflowDag sparseLuDag(const LuDagParams &params);

/**
 * Convert a DAG to a NoC trace on an n x n NoC: ops are dealt
 * round-robin to PEs; every DAG edge is one token message whose
 * dependencies are all tokens entering its producer. Every edge of
 * @p dag must run from a lower id to a higher one, as sparseLuDag's
 * do, and @p n must lie in [2, kMaxTraceSide].
 * @param compute_delay PE cycles between last input and first output.
 */
Trace dataflowTrace(const DataflowDag &dag, std::uint32_t n,
                    Cycle compute_delay = 2);

/** Fig 15c catalog: analogs of the paper's SPICE LU benchmarks
 *  (s953_*, s1423_*, s1488/s1494, ram8k, bomhof3). */
const std::vector<LuDagParams> &luCatalog();

} // namespace fasttrack

#endif // FT_WORKLOADS_DATAFLOW_HPP
