/**
 * @file
 * Tests for the workload synthesizers: sparse matrices, graphs, LU
 * dataflow DAGs and multiprocessor overlay traces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "workloads/dataflow.hpp"
#include "workloads/graph.hpp"
#include "workloads/graph_analytics.hpp"
#include "workloads/mp_overlay.hpp"
#include "workloads/sparse_matrix.hpp"
#include "workloads/spmv.hpp"

namespace fasttrack {
namespace {

// --- sparse matrices ---

TEST(SparseMatrix, DiagonalAlwaysPresent)
{
    MatrixParams params;
    params.rows = 500;
    const SparseMatrix m = generateMatrix(params);
    for (std::uint32_t i = 0; i < m.rows; ++i) {
        bool diag = false;
        for (std::uint32_t k = m.rowPtr[i]; k < m.rowPtr[i + 1]; ++k)
            diag |= m.colIdx[k] == i;
        EXPECT_TRUE(diag) << "row " << i;
    }
}

TEST(SparseMatrix, RowsSortedAndUnique)
{
    MatrixParams params;
    params.rows = 300;
    params.avgNnzPerRow = 8.0;
    const SparseMatrix m = generateMatrix(params);
    for (std::uint32_t i = 0; i < m.rows; ++i) {
        for (std::uint32_t k = m.rowPtr[i] + 1; k < m.rowPtr[i + 1];
             ++k) {
            EXPECT_LT(m.colIdx[k - 1], m.colIdx[k]);
        }
    }
}

TEST(SparseMatrix, DensityNearTarget)
{
    MatrixParams params;
    params.rows = 4000;
    params.avgNnzPerRow = 6.0;
    const SparseMatrix m = generateMatrix(params);
    const double avg =
        static_cast<double>(m.nnz()) / m.rows;
    EXPECT_NEAR(avg, 6.0, 1.5);
}

TEST(SparseMatrix, LocalityKnobControlsBandedness)
{
    MatrixParams local;
    local.rows = 2000;
    local.localFraction = 0.95;
    local.bandFraction = 0.01;
    MatrixParams global = local;
    global.localFraction = 0.05;
    const SparseMatrix lm = generateMatrix(local);
    const SparseMatrix gm = generateMatrix(global);
    const auto band = static_cast<std::uint32_t>(0.01 * 2000);
    EXPECT_GT(lm.bandedFraction(band), gm.bandedFraction(band) + 0.3);
}

TEST(SparseMatrix, CatalogGeneratesAllEntries)
{
    for (const MatrixParams &params : spmvCatalog()) {
        const SparseMatrix m = generateMatrix(params);
        EXPECT_EQ(m.rows, params.rows) << params.name;
        EXPECT_GT(m.nnz(), m.rows) << params.name;
    }
}

// --- SpMV traces ---

TEST(Spmv, TraceIsValidAndDeduplicated)
{
    MatrixParams params;
    params.rows = 1000;
    const SparseMatrix m = generateMatrix(params);
    const Trace trace = spmvTrace(m, 4);
    trace.validate();
    EXPECT_GT(trace.messages.size(), 0u);
    // No duplicate (src, dst) pair may originate from one column:
    // total messages <= cols * PEs.
    EXPECT_LE(trace.messages.size(), 1000ull * 16);
}

TEST(Spmv, BlockMappingKeepsBandsLocal)
{
    MatrixParams params;
    params.rows = 4096;
    params.localFraction = 0.95;
    params.bandFraction = 0.005;
    const SparseMatrix m = generateMatrix(params);
    const Trace block = spmvTrace(m, 8, RowMapping::block);
    const Trace cyclic = spmvTrace(m, 8, RowMapping::cyclic);
    auto self_fraction = [](const Trace &t) {
        std::uint64_t self = 0;
        for (const auto &msg : t.messages)
            self += msg.src == msg.dst;
        return static_cast<double>(self) /
               static_cast<double>(t.messages.size());
    };
    // Block mapping turns most banded communication into local
    // (self) messages; cyclic spreads it across PEs.
    EXPECT_GT(self_fraction(block), self_fraction(cyclic) + 0.2);
}

// --- graphs ---

TEST(Graph, RmatHasPowerLawSkew)
{
    const Graph g = rmat(10, 8192, 0.6, 0.16, 0.16, 5);
    EXPECT_EQ(g.nodes, 1024u);
    const auto deg = g.outDegrees();
    const std::uint32_t max_deg =
        *std::max_element(deg.begin(), deg.end());
    const double mean =
        static_cast<double>(g.edges.size()) / g.nodes;
    // Power-law: the hub degree dwarfs the mean.
    EXPECT_GT(max_deg, mean * 8);
}

TEST(Graph, RoadNetworkIsNearlyRegular)
{
    const Graph g = roadNetwork(20, 0.01, 6);
    EXPECT_EQ(g.nodes, 400u);
    const auto deg = g.outDegrees();
    const std::uint32_t max_deg =
        *std::max_element(deg.begin(), deg.end());
    EXPECT_LE(max_deg, 6u); // 4 street edges + rare shortcuts
}

TEST(Graph, EdgesStayInRange)
{
    for (const GraphBenchmark &bench : graphCatalog()) {
        const Graph g = bench.build();
        for (const auto &[u, v] : g.edges) {
            EXPECT_LT(u, g.nodes);
            EXPECT_LT(v, g.nodes);
            EXPECT_NE(u, v);
        }
    }
}

TEST(GraphAnalytics, SpatialPartitionLocalizesRoadTraffic)
{
    const Graph road = roadNetwork(64, 0.01, 7);
    const Trace spatial =
        graphPushTrace(road, 8, VertexPartition::spatialBlocks);
    const Trace hashed =
        graphPushTrace(road, 8, VertexPartition::hashed);
    auto avg_distance = [](const Trace &t, std::uint32_t n) {
        double sum = 0;
        for (const auto &m : t.messages) {
            const Coord s = toCoord(m.src, n);
            const Coord d = toCoord(m.dst, n);
            sum += ringDistance(s.x, d.x, n) +
                   ringDistance(s.y, d.y, n);
        }
        return sum / static_cast<double>(t.messages.size());
    };
    EXPECT_LT(avg_distance(spatial, 8), avg_distance(hashed, 8) * 0.6);
}

TEST(GraphAnalytics, SuperstepsChainDependencies)
{
    const Graph g = rmat(8, 1024, 0.57, 0.17, 0.17, 8);
    const Trace two = graphPushTrace(g, 4,
                                     VertexPartition::hashed, 2);
    two.validate();
    EXPECT_EQ(two.messages.size(), g.edges.size() * 2);
    bool any_dep = false;
    for (std::size_t id = 0; id < two.messages.size(); ++id)
        any_dep |= !two.depsOf(id).empty();
    EXPECT_TRUE(any_dep);
}

// --- dataflow DAGs ---

TEST(Dataflow, DagIsAcyclicTopological)
{
    LuDagParams params{"t", 2000, 10.0, 1.8, 3, 9};
    const DataflowDag dag = sparseLuDag(params);
    EXPECT_EQ(dag.nodeCount, 2000u);
    for (std::uint32_t u = 0; u < dag.nodeCount; ++u) {
        for (std::uint32_t v : dag.succs[u]) {
            EXPECT_GT(v, u); // ids are topologically ordered
            EXPECT_GT(dag.level[v], dag.level[u]);
        }
    }
}

TEST(Dataflow, EveryNonRootHasPredecessor)
{
    LuDagParams params{"t", 1500, 8.0, 1.8, 3, 10};
    const DataflowDag dag = sparseLuDag(params);
    const auto indeg = dag.inDegrees();
    for (std::uint32_t v = 0; v < dag.nodeCount; ++v) {
        if (dag.level[v] > 0) {
            EXPECT_GE(indeg[v], 1u) << "node " << v;
        }
    }
}

TEST(Dataflow, WidthProfileIsLowIlp)
{
    LuDagParams params{"t", 4000, 12.0, 1.8, 3, 11};
    const DataflowDag dag = sparseLuDag(params);
    EXPECT_NEAR(dag.avgWidth(), 12.0, 4.0);
    EXPECT_GT(dag.depth(), 200u);
}

TEST(Dataflow, TraceDependenciesMirrorDag)
{
    LuDagParams params{"t", 300, 6.0, 1.8, 2, 12};
    const DataflowDag dag = sparseLuDag(params);
    const Trace trace = dataflowTrace(dag, 4, 3);
    trace.validate();
    EXPECT_EQ(trace.messages.size(), dag.edgeCount());
    // A root node's outgoing tokens must have no dependencies.
    const auto indeg = dag.inDegrees();
    std::size_t idx = 0;
    for (std::uint32_t u = 0; u < dag.nodeCount; ++u) {
        for (std::size_t e = 0; e < dag.succs[u].size(); ++e, ++idx) {
            EXPECT_EQ(trace.depsOf(idx).size(), indeg[u])
                << "message " << idx;
            EXPECT_EQ(trace.messages[idx].delayAfterDeps, 3u);
        }
    }
}

TEST(Dataflow, CatalogSizesMatchNames)
{
    for (const LuDagParams &params : luCatalog()) {
        const DataflowDag dag = sparseLuDag(params);
        EXPECT_EQ(dag.nodeCount, params.nodes) << params.name;
        EXPECT_GT(dag.edgeCount(), dag.nodeCount / 2) << params.name;
    }
}

// --- multiprocessor overlay ---

TEST(MpOverlay, TimestampsSortedAndActiveOnly)
{
    const ParsecBenchmark bench = parsecCatalog()[0];
    const Trace trace = mpOverlayTrace(bench, 6, 32);
    trace.validate();
    Cycle prev = 0;
    for (const auto &m : trace.messages) {
        EXPECT_GE(m.earliest, prev);
        prev = m.earliest;
        EXPECT_LT(m.src, 32u);
        EXPECT_LT(m.dst, 32u);
    }
    EXPECT_EQ(trace.messages.size(),
              static_cast<std::size_t>(bench.msgsPerPe) * 32);
}

TEST(MpOverlay, CommIntensityOrdersMakespanPotential)
{
    // A smaller compute gap compresses the timestamp span.
    ParsecBenchmark chatty = parsecCatalog()[5];  // x264
    ParsecBenchmark quiet = parsecCatalog()[0];   // blackscholes
    chatty.msgsPerPe = quiet.msgsPerPe = 512;
    const Trace a = mpOverlayTrace(chatty, 6, 32);
    const Trace b = mpOverlayTrace(quiet, 6, 32);
    EXPECT_LT(a.messages.back().earliest,
              b.messages.back().earliest);
}

TEST(MpOverlay, HubTrafficShare)
{
    ParsecBenchmark bench = parsecCatalog()[1]; // dedup, hub-heavy
    const Trace trace = mpOverlayTrace(bench, 6, 32);
    std::map<NodeId, std::uint64_t> by_dst;
    for (const auto &m : trace.messages)
        ++by_dst[m.dst];
    std::vector<std::uint64_t> counts;
    for (const auto &[node, c] : by_dst)
        counts.push_back(c);
    std::sort(counts.rbegin(), counts.rend());
    const double top4 = static_cast<double>(
        counts[0] + counts[1] + counts[2] + counts[3]);
    EXPECT_GT(top4 / static_cast<double>(trace.messages.size()), 0.35);
}

} // namespace
} // namespace fasttrack
