/** @file HeteroGraph and GraphBatch tests. */

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "graph/batch.hh"
#include "graph/generators.hh"
#include "graph/hetero_graph.hh"

using namespace gnnmark;

TEST(HeteroGraph, TypesAndRelations)
{
    HeteroGraph g;
    int user = g.addNodeType("user", 10);
    int item = g.addNodeType("item", 5);
    EXPECT_EQ(g.numNodeTypes(), 2);
    EXPECT_EQ(g.typeName(user), "user");
    EXPECT_EQ(g.typeCount(item), 5);

    Relation rel{"clicked", user, item, {{0, 1}, {0, 2}, {9, 4}}};
    int rid = g.addRelation(rel);
    EXPECT_EQ(g.numRelations(), 1);
    EXPECT_EQ(g.relation(rid).edges.size(), 3u);
}

TEST(HeteroGraph, AdjListMatchesEdges)
{
    HeteroGraph g;
    int a = g.addNodeType("a", 3);
    int b = g.addNodeType("b", 3);
    g.addRelation(Relation{"r", a, b, {{1, 0}, {1, 2}, {2, 1}}});
    auto adj = g.relationAdjList(0);
    ASSERT_EQ(adj.size(), 3u);
    EXPECT_TRUE(adj[0].empty());
    EXPECT_EQ(adj[1].size(), 2u);
    EXPECT_EQ(adj[2].size(), 1u);
}

TEST(HeteroGraphDeath, BadEndpointsPanic)
{
    HeteroGraph g;
    int a = g.addNodeType("a", 2);
    EXPECT_DEATH(g.addRelation(Relation{"r", a, a, {{0, 5}}}),
                 "out of range");
    EXPECT_DEATH(g.addRelation(Relation{"r", a, 7, {}}),
                 "bad destination type");
}

TEST(GraphBatch, DisjointUnionStructure)
{
    Rng rng(3);
    auto mols = gen::molecules(rng, 4, 5, 8, 6);
    GraphBatch batch = GraphBatch::build(mols);

    int64_t nodes = 0, edges = 0;
    for (const auto &m : mols) {
        nodes += m.graph.numNodes();
        edges += m.graph.numEdges();
    }
    EXPECT_EQ(batch.graph.numNodes(), nodes);
    EXPECT_EQ(batch.graph.numEdges(), edges);
    EXPECT_EQ(batch.numGraphs(), 4);
    EXPECT_EQ(batch.nodeOffsets.front(), 0);
    EXPECT_EQ(batch.nodeOffsets.back(), nodes);

    // No edge crosses a graph boundary.
    for (size_t e = 0; e < batch.graph.edgeSrc().size(); ++e) {
        int32_t s = batch.graph.edgeSrc()[e];
        int32_t d = batch.graph.edgeDst()[e];
        int gs = 0, gd = 0;
        for (size_t g = 0; g + 1 < batch.nodeOffsets.size(); ++g) {
            if (s >= batch.nodeOffsets[g] && s < batch.nodeOffsets[g + 1])
                gs = static_cast<int>(g);
            if (d >= batch.nodeOffsets[g] && d < batch.nodeOffsets[g + 1])
                gd = static_cast<int>(g);
        }
        EXPECT_EQ(gs, gd);
    }
}

TEST(GraphBatch, FeaturesStackedInOrder)
{
    Rng rng(4);
    auto mols = gen::molecules(rng, 3, 5, 8, 6);
    GraphBatch batch = GraphBatch::build(mols);
    int64_t row = 0;
    for (const auto &m : mols) {
        for (int64_t v = 0; v < m.graph.numNodes(); ++v, ++row) {
            for (int64_t f = 0; f < 6; ++f)
                EXPECT_FLOAT_EQ(batch.features(row, f), m.features(v, f));
        }
    }
    EXPECT_EQ(batch.labels.size(), 3u);
    EXPECT_EQ(batch.targets.size(), 3u);
}

TEST(GraphBatchDeath, InconsistentFeatureWidthPanics)
{
    Rng rng(5);
    auto mols = gen::molecules(rng, 2, 5, 8, 6);
    mols[1].features = Tensor::zeros({mols[1].graph.numNodes(), 4});
    EXPECT_DEATH(GraphBatch::build(mols), "inconsistent features");
}
