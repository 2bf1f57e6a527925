#include "graph/hetero_graph.hh"

#include <algorithm>

#include "base/logging.hh"

namespace gnnmark {

int
HeteroGraph::addNodeType(std::string name, int64_t count)
{
    GNN_ASSERT(count >= 0, "negative node count for type '%s'",
               name.c_str());
    types_.push_back(TypeInfo{std::move(name), count});
    return static_cast<int>(types_.size()) - 1;
}

int
HeteroGraph::addRelation(Relation relation)
{
    GNN_ASSERT(relation.srcType >= 0 && relation.srcType < numNodeTypes(),
               "relation '%s': bad source type", relation.name.c_str());
    GNN_ASSERT(relation.dstType >= 0 && relation.dstType < numNodeTypes(),
               "relation '%s': bad destination type",
               relation.name.c_str());
    const int64_t sc = typeCount(relation.srcType);
    const int64_t dc = typeCount(relation.dstType);
    for (auto [s, d] : relation.edges) {
        GNN_ASSERT(s >= 0 && s < sc && d >= 0 && d < dc,
                   "relation '%s': edge (%d, %d) out of range",
                   relation.name.c_str(), s, d);
    }
    relations_.push_back(std::move(relation));
    return static_cast<int>(relations_.size()) - 1;
}

std::vector<std::vector<int32_t>>
HeteroGraph::relationAdjList(int r) const
{
    const Relation &rel = relations_[r];
    std::vector<std::vector<int32_t>> adj(typeCount(rel.srcType));
    for (auto [s, d] : rel.edges)
        adj[s].push_back(d);
    return adj;
}

} // namespace gnnmark
