/**
 * @file
 * Homogeneous graph in CSR form with the GCN-normalised adjacency GNN
 * layers aggregate over.
 */

#ifndef GNNMARK_GRAPH_GRAPH_HH
#define GNNMARK_GRAPH_GRAPH_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/csr.hh"
#include "tensor/sparse.hh"

namespace gnnmark {

/** Directed homogeneous graph; nodes are 0..numNodes-1. */
class Graph
{
  public:
    Graph() = default;

    /**
     * Build from an edge list (duplicates removed).
     * @param symmetric also insert the reverse of every edge.
     */
    Graph(int64_t num_nodes,
          std::vector<std::pair<int32_t, int32_t>> edges,
          bool symmetric = false);

    int64_t numNodes() const { return numNodes_; }
    int64_t numEdges() const { return static_cast<int64_t>(dst_.size()); }

    /** CSR row pointers (numNodes + 1). */
    const std::vector<int32_t> &rowPtr() const { return rowPtr_; }

    /** CSR column indices, i.e. destination of each edge. */
    const std::vector<int32_t> &colIdx() const { return dst_; }

    /** COO source of each edge (aligned with colIdx order). */
    const std::vector<int32_t> &edgeSrc() const { return src_; }

    /** COO destination of each edge (alias of colIdx). */
    const std::vector<int32_t> &edgeDst() const { return dst_; }

    /** Out-degree of node v. */
    int32_t degree(int64_t v) const;

    /** Neighbours of v as a (begin, end) range into colIdx. */
    std::pair<const int32_t *, const int32_t *>
    neighbors(int64_t v) const;

    /** Graph with self loops added to every node. */
    Graph withSelfLoops() const;

    /**
     * GCN normalisation D^-1/2 (A + I) D^-1/2 (Kipf & Welling), in CSR;
     * symmetric for undirected graphs.
     */
    SparseMatrix gcnNormAdjacency() const;

  private:
    int64_t numNodes_ = 0;
    std::vector<int32_t> rowPtr_;
    std::vector<int32_t> src_;
    std::vector<int32_t> dst_;
};

} // namespace gnnmark

#endif // GNNMARK_GRAPH_GRAPH_HH
