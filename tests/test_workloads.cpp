/**
 * @file
 * Tests for the workload synthesizers: sparse matrices, graphs, LU
 * dataflow DAGs and multiprocessor overlay traces.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <span>

#include "common/fnv1a.hpp"
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

TEST(GraphAnalytics, PushTraceMemoryFollowsTheGraphNotTheNoc)
{
    // Four vertices on a 2048 x 2048 NoC: per-PE state sized by the
    // 4,194,304 PEs would take 2 x 32 MiB.
    Graph g;
    g.name = "ring4";
    g.nodes = 4;
    g.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
    rusage before{};
    getrusage(RUSAGE_SELF, &before);
    const Trace two = graphPushTrace(g, 2048, VertexPartition::hashed, 2);
    rusage after{};
    getrusage(RUSAGE_SELF, &after);
    EXPECT_EQ(two.messages.size(), 8u);
    EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 16 * 1024) // KiB
        << "peak RSS grew by " << after.ru_maxrss - before.ru_maxrss
        << " KiB";
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

// --- generated-trace pins ---

/** FNV-1a over @p trace's name and side, then every message's id,
 *  fields and dependencies, in id order. */
std::uint64_t
traceHash(const Trace &trace)
{
    Fnv1a h;
    h.addBytes(trace.name.data(), trace.name.size());
    h.add(trace.n);
    trace.forEachMessage([&h](std::uint64_t id, const TraceMessage &m,
                              std::span<const std::uint64_t> deps) {
        h.add(id);
        visitFields(m, [&h](auto... fields) { (h.add(fields), ...); });
        h.add(deps.size());
        for (std::uint64_t dep : deps)
            h.add(dep);
    });
    return h.value();
}

// Every SpMV and LU trace that perfbench and the Fig 15 benches build,
// and the graph and multiprocessor-overlay traces of every catalog
// entry at sides 4, 8 and 16, pinned message by message: a rewrite of
// a generator must emit the same messages, fields, dependencies and
// ids in the same order. An intended change of a workload re-records
// them (copy the "actual" values the failures print).
TEST(Workloads, GeneratedTracesArePinned)
{
    const std::uint32_t spmv_sides[] = {2, 4, 8, 16};
    // Per catalog matrix, in catalog order: its block-mapped traces at
    // spmv_sides, then its cyclic-mapped ones.
    const std::uint64_t spmv_pins[][2][4] = {
        // add20
        {{16279494903894872862ull, 2316126026022057091ull,
          9828428343431652969ull, 4361284752702384702ull},
         {10999751806248192228ull, 1010830510864021346ull,
          14964968847765230448ull, 12604594467335891841ull}},
        // bomhof_circuit_1
        {{9524559519107672114ull, 14824779998073540897ull,
          18104199208824400366ull, 11580089830760782744ull},
         {12526277441967379003ull, 14256188445924459820ull,
          2441966966251123028ull, 16077780361844813248ull}},
        // bomhof_circuit_2
        {{12831086309739324828ull, 6505704423019716054ull,
          11532430904781072422ull, 6360107534989035139ull},
         {12928459938207288671ull, 7440510604430169563ull,
          18145315829435712471ull, 8796800671639855197ull}},
        // bomhof_circuit_3
        {{4994853994667090955ull, 2437040901928067216ull,
          4862712873609198247ull, 14901867537132174710ull},
         {1057161365883313223ull, 1072369647883051939ull,
          9548669504024344009ull, 8585764333001941075ull}},
        // hamm_memplus
        {{13654059244222238875ull, 1757247240952359886ull,
          4899068939990764536ull, 3642849393561332963ull},
         {13889564298936826590ull, 15175956102736234370ull,
          9164586453297279241ull, 1573540979596217529ull}},
        // human_gene2
        {{5572389423472480265ull, 2157481674477357360ull,
          15698636353638016311ull, 7927010000610776522ull},
         {518750958151147248ull, 3505393685631068237ull,
          4558754463134680304ull, 10732294712759248387ull}},
        // sandia_12944
        {{11368086646858281352ull, 516568787225114224ull,
          15210833718645248498ull, 4006065029826820350ull},
         {7710163594069485051ull, 3522487822744151303ull,
          13346441780198917588ull, 2885161122787703134ull}},
        // sandia_20105
        {{12850619223523234557ull, 15035919711573228399ull,
          3874678184208893183ull, 2409861609602941271ull},
         {8533088317826161441ull, 2467237306386277424ull,
          12422790274872406468ull, 11481447766197677825ull}},
        // simucad_dac
        {{10666810054190995271ull, 14400096208075097294ull,
          11954121404735742958ull, 16934467459320295203ull},
         {1135626105239856772ull, 7664518816461157487ull,
          4012691501172638445ull, 14626749085513622752ull}},
        // simucad_ram2k
        {{16476368249952711207ull, 1558321676429460627ull,
          3024141951690983947ull, 17142047743252655903ull},
         {16542393076460795157ull, 2039021655070559693ull,
          8456262057500121390ull, 12238602152317162695ull}},
    };
    const auto &matrices = spmvCatalog();
    ASSERT_EQ(matrices.size(), std::size(spmv_pins));
    for (std::size_t i = 0; i < matrices.size(); ++i) {
        const SparseMatrix m = generateMatrix(matrices[i]);
        for (std::size_t map = 0; map < 2; ++map) {
            const RowMapping mapping =
                map == 0 ? RowMapping::block : RowMapping::cyclic;
            for (std::size_t s = 0; s < std::size(spmv_sides); ++s) {
                EXPECT_EQ(traceHash(spmvTrace(m, spmv_sides[s], mapping)),
                          spmv_pins[i][map][s])
                    << m.name << " n=" << spmv_sides[s]
                    << (map == 0 ? " block" : " cyclic");
            }
        }
    }

    const std::uint32_t lu_sides[] = {4, 8, 16};
    // Per catalog DAG, in catalog order, at lu_sides.
    const std::uint64_t lu_pins[][3] = {
        // bomhof3_10656
        {185697369725258726ull, 15308916321745956418ull,
         1529399528613786250ull},
        // ram8k_10823
        {9970222903179271933ull, 9045595915642916569ull,
         8011868218533447185ull},
        // s1423_2582
        {7292312559137392724ull, 14682105030091664680ull,
         8268925154694570720ull},
        // s1423_6648
        {13598455961054501770ull, 8727777047330935182ull,
         17526433717638807334ull},
        // s1488_4872
        {10867603480878904308ull, 14271254723173174264ull,
         102804033283628688ull},
        // s1494_9156
        {12759832752306876702ull, 10474598576004645538ull,
         3509164655596582938ull},
        // s953_3197
        {17433028999556822817ull, 12969425447198828773ull,
         16228317997467383293ull},
        // s953_4568
        {13245274523328633450ull, 5406513807854060534ull,
         4275467311659298830ull},
    };
    const auto &dags = luCatalog();
    ASSERT_EQ(dags.size(), std::size(lu_pins));
    for (std::size_t i = 0; i < dags.size(); ++i) {
        const DataflowDag dag = sparseLuDag(dags[i]);
        for (std::size_t s = 0; s < std::size(lu_sides); ++s) {
            EXPECT_EQ(traceHash(dataflowTrace(dag, lu_sides[s])),
                      lu_pins[i][s])
                << dag.name << " n=" << lu_sides[s];
        }
    }
    EXPECT_EQ(traceHash(dataflowTrace(sparseLuDag(dags[2]), 8, 5)),
              2548174452810641444ull)
        << "compute delay 5";

    const std::uint32_t graph_sides[] = {4, 8, 16};
    // Per catalog graph, in catalog order, at graph_sides, with its
    // catalog partition and one superstep (as Fig 15b builds them).
    const std::uint64_t graph_pins[][3] = {
        // amazon0302
        {9160584699209197584ull, 5916153289318881012ull,
         18096254629415192988ull},
        // roadNet-CA
        {7485326363685273745ull, 3460381194236144994ull,
         14263983483025686820ull},
        // soc-Slashdot0902
        {14043360714981184151ull, 18235740091158065339ull,
         20828969394895379ull},
        // web-Google
        {5437591279055800055ull, 429615332535243259ull,
         18313833536884216307ull},
        // web-Stanford
        {15911335484866719248ull, 10983243535318436308ull,
         10401412694557727516ull},
        // wiki-Vote
        {15439023789380216967ull, 17669269710570154683ull,
         17269094403257591827ull},
    };
    const auto &graphs = graphCatalog();
    ASSERT_EQ(graphs.size(), std::size(graph_pins));
    for (std::size_t i = 0; i < graphs.size(); ++i) {
        const Graph graph = graphs[i].build();
        for (std::size_t s = 0; s < std::size(graph_sides); ++s) {
            EXPECT_EQ(traceHash(graphPushTrace(
                          graph, graph_sides[s],
                          defaultPartition(graphs[i]))),
                      graph_pins[i][s])
                << graphs[i].name << " n=" << graph_sides[s];
        }
    }
    // From the second superstep on, a message waits on the last update
    // that reached its source PE, under either partition.
    EXPECT_EQ(traceHash(graphPushTrace(graphs[1].build(), 8,
                                       VertexPartition::spatialBlocks, 3)),
              2592027668529030704ull)
        << "roadNet-CA, 3 supersteps";
    EXPECT_EQ(traceHash(graphPushTrace(graphs[5].build(), 16,
                                       VertexPartition::hashed, 3)),
              4190458157871146407ull)
        << "wiki-Vote, 3 supersteps";

    const std::uint32_t parsec_sides[] = {4, 8, 16};
    // Per catalog benchmark, in catalog order, at parsec_sides, on
    // min(32, n * n) worker PEs (as trace_tool gen parsec builds them).
    const std::uint64_t parsec_pins[][3] = {
        // blackscholes
        {13502704789287135574ull, 10938658550405563526ull,
         12055380154628217645ull},
        // dedup
        {1296732217480306490ull, 16093990346101477225ull,
         15226428850333885407ull},
        // fluidanimate
        {2620454500538601066ull, 17491400348872290748ull,
         8820387600395530623ull},
        // freqmine
        {1580455864236326347ull, 17851692700920933715ull,
         954973382497109703ull},
        // vips
        {2311799202968578409ull, 10907819797861986131ull,
         4078895368303931127ull},
        // x264
        {16319736863179607622ull, 14069275389075444986ull,
         10328472846901481966ull},
    };
    const auto &parsec = parsecCatalog();
    ASSERT_EQ(parsec.size(), std::size(parsec_pins));
    for (std::size_t i = 0; i < parsec.size(); ++i) {
        for (std::size_t s = 0; s < std::size(parsec_sides); ++s) {
            const std::uint32_t n = parsec_sides[s];
            EXPECT_EQ(traceHash(mpOverlayTrace(parsec[i], n,
                                               std::min(32u, n * n))),
                      parsec_pins[i][s])
                << parsec[i].name << " n=" << n;
        }
    }

    // Column 3 has no nonzero, and a 4x4 NoC has more PEs than rows.
    SparseMatrix hand;
    hand.name = "hand";
    hand.rows = hand.cols = 5;
    hand.rowPtr = {0, 2, 4, 5, 7, 9};
    hand.colIdx = {0, 4, 1, 2, 0, 2, 4, 0, 4};
    EXPECT_EQ(traceHash(spmvTrace(hand, 4, RowMapping::block)),
              4636710078315793011ull);
    EXPECT_EQ(traceHash(spmvTrace(hand, 4, RowMapping::cyclic)),
              4636710078315793011ull);
}

} // namespace
} // namespace fasttrack
