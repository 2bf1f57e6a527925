/** @file Graph (CSR) structure tests. */

#include <gtest/gtest.h>

#include <cmath>

#include "graph/graph.hh"

using namespace gnnmark;

TEST(Graph, BuildsCsrFromEdges)
{
    Graph g(4, {{0, 1}, {0, 2}, {2, 3}});
    EXPECT_EQ(g.numNodes(), 4);
    EXPECT_EQ(g.numEdges(), 3);
    EXPECT_EQ(g.degree(0), 2);
    EXPECT_EQ(g.degree(1), 0);
    auto [begin, end] = g.neighbors(0);
    EXPECT_EQ(end - begin, 2);
    EXPECT_EQ(begin[0], 1);
    EXPECT_EQ(begin[1], 2);
}

TEST(Graph, DeduplicatesEdges)
{
    Graph g(3, {{0, 1}, {0, 1}, {1, 2}});
    EXPECT_EQ(g.numEdges(), 2);
}

TEST(Graph, SymmetricAddsReverses)
{
    Graph g(3, {{0, 1}}, /*symmetric=*/true);
    EXPECT_EQ(g.numEdges(), 2);
    EXPECT_EQ(g.degree(1), 1);
}

TEST(Graph, CooAlignedWithCsr)
{
    Graph g(4, {{2, 0}, {0, 3}, {2, 3}});
    for (size_t e = 0; e < g.edgeSrc().size(); ++e) {
        int32_t s = g.edgeSrc()[e];
        EXPECT_GE(static_cast<int32_t>(e), g.rowPtr()[s]);
        EXPECT_LT(static_cast<int32_t>(e), g.rowPtr()[s + 1]);
        EXPECT_EQ(g.colIdx()[e], g.edgeDst()[e]);
    }
}

TEST(Graph, TransposeFlipsEdges)
{
    Graph g(3, {{0, 1}, {0, 2}});
    Graph t = g.transposed();
    EXPECT_EQ(t.degree(0), 0);
    EXPECT_EQ(t.degree(1), 1);
    EXPECT_EQ(t.degree(2), 1);
    // Double transpose is the original.
    Graph tt = t.transposed();
    EXPECT_EQ(tt.edgeSrc(), g.edgeSrc());
    EXPECT_EQ(tt.edgeDst(), g.edgeDst());
}

TEST(Graph, SelfLoopsAdded)
{
    Graph g(3, {{0, 1}});
    Graph wl = g.withSelfLoops();
    EXPECT_EQ(wl.numEdges(), 4);
    for (int64_t v = 0; v < 3; ++v) {
        auto [begin, end] = wl.neighbors(v);
        bool has_self = false;
        for (const int32_t *p = begin; p != end; ++p)
            has_self |= *p == v;
        EXPECT_TRUE(has_self);
    }
}

TEST(Graph, AdjacencyCsrValid)
{
    Graph g(5, {{0, 1}, {1, 2}, {3, 4}}, true);
    CsrMatrix m = g.adjacency().csr();
    m.validate();
    EXPECT_EQ(m.nnz(), g.numEdges());
    for (float v : m.vals)
        EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(Graph, AdjacencyFormatParameter)
{
    Graph g(12, {{0, 1}, {1, 2}, {2, 3}, {4, 9}, {10, 11}}, true);
    const SparseMatrix csr = g.adjacency();
    EXPECT_EQ(csr.format(), SparseFormat::Csr);
    const SparseMatrix coo = g.adjacency(SparseFormat::Coo);
    EXPECT_EQ(coo.format(), SparseFormat::Coo);
    const SparseMatrix bell = g.adjacency(SparseFormat::BlockedEll);
    EXPECT_EQ(bell.format(), SparseFormat::BlockedEll);
    // All formats carry the same entries in the same order.
    EXPECT_EQ(coo.toCsr().colIdx, csr.csr().colIdx);
    EXPECT_EQ(bell.toCsr().vals, csr.csr().vals);
    // The normalised variants honour the parameter too.
    EXPECT_EQ(g.gcnNormAdjacency(SparseFormat::Coo).format(),
              SparseFormat::Coo);
    EXPECT_EQ(g.meanAdjacency(SparseFormat::BlockedEll).format(),
              SparseFormat::BlockedEll);
}

TEST(Graph, GcnNormSymmetricValues)
{
    Graph g(3, {{0, 1}}, true);
    CsrMatrix m = g.gcnNormAdjacency().csr();
    m.validate();
    // With self loops, degrees: node0=2, node1=2, node2=1.
    // Edge (0,1) value = 1/sqrt(2*2) = 0.5.
    bool found = false;
    for (int32_t e = m.rowPtr[0]; e < m.rowPtr[1]; ++e) {
        if (m.colIdx[e] == 1) {
            EXPECT_NEAR(m.vals[e], 0.5f, 1e-6f);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    // Self loop on isolated node 2: 1/sqrt(1*1) = 1.
    for (int32_t e = m.rowPtr[2]; e < m.rowPtr[3]; ++e) {
        if (m.colIdx[e] == 2) {
            EXPECT_NEAR(m.vals[e], 1.0f, 1e-6f);
        }
    }
}

TEST(Graph, MeanAdjacencyRowsSumToOne)
{
    Graph g(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}});
    CsrMatrix m = g.meanAdjacency().csr();
    for (int64_t r = 0; r < 4; ++r) {
        double sum = 0;
        for (int32_t e = m.rowPtr[r]; e < m.rowPtr[r + 1]; ++e)
            sum += m.vals[e];
        if (g.degree(r) > 0) {
            EXPECT_NEAR(sum, 1.0, 1e-6);
        }
    }
}

TEST(GraphDeath, EdgeOutOfRangePanics)
{
    EXPECT_DEATH(Graph(2, {{0, 2}}), "out of range");
}

TEST(GraphDeath, NeighborsOutOfRangePanics)
{
    Graph g(2, {});
    EXPECT_DEATH(g.neighbors(5), "out of range");
}
