/**
 * @file
 * Heterogeneous graph: multiple node types connected by typed edge
 * relations (each relation a bipartite CSR block). Used by the
 * PinSAGE recommender (user/item) and GraphWriter (knowledge graph).
 */

#ifndef GNNMARK_GRAPH_HETERO_GRAPH_HH
#define GNNMARK_GRAPH_HETERO_GRAPH_HH

#include <string>
#include <vector>

#include "graph/graph.hh"

namespace gnnmark {

/**
 * One typed relation: edges from nodes of srcType to nodes of dstType.
 * The underlying Graph is indexed in a combined space where node v of
 * the source type is vertex v and node u of the destination type is
 * vertex srcCount + u.
 */
struct Relation
{
    std::string name;
    int srcType;
    int dstType;
    /** Per-edge (src-local, dst-local) pairs. */
    std::vector<std::pair<int32_t, int32_t>> edges;
};

/** Heterogeneous graph container. */
class HeteroGraph
{
  public:
    /** Register a node type; returns its id. */
    int addNodeType(std::string name, int64_t count);

    /** Register a relation; endpoints are validated. */
    int addRelation(Relation relation);

    int numNodeTypes() const { return static_cast<int>(types_.size()); }
    int numRelations() const
    {
        return static_cast<int>(relations_.size());
    }

    const std::string &typeName(int t) const { return types_[t].name; }
    int64_t typeCount(int t) const { return types_[t].count; }
    const Relation &relation(int r) const { return relations_[r]; }

    /** Per-source neighbour lists of a relation. */
    std::vector<std::vector<int32_t>> relationAdjList(int r) const;

  private:
    struct TypeInfo
    {
        std::string name;
        int64_t count;
    };
    std::vector<TypeInfo> types_;
    std::vector<Relation> relations_;
};

} // namespace gnnmark

#endif // GNNMARK_GRAPH_HETERO_GRAPH_HH
