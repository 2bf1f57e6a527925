#include "graph/graph.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace gnnmark {

Graph::Graph(int64_t num_nodes,
             std::vector<std::pair<int32_t, int32_t>> edges,
             bool symmetric)
    : numNodes_(num_nodes)
{
    GNN_ASSERT(num_nodes >= 0, "negative node count");
    if (symmetric) {
        const size_t n = edges.size();
        edges.reserve(2 * n);
        for (size_t i = 0; i < n; ++i)
            edges.emplace_back(edges[i].second, edges[i].first);
    }
    for (auto [s, d] : edges) {
        GNN_ASSERT(s >= 0 && s < num_nodes && d >= 0 && d < num_nodes,
                   "edge (%d, %d) out of range", s, d);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    rowPtr_.assign(numNodes_ + 1, 0);
    src_.reserve(edges.size());
    dst_.reserve(edges.size());
    for (auto [s, d] : edges) {
        ++rowPtr_[s + 1];
        src_.push_back(s);
        dst_.push_back(d);
    }
    for (int64_t v = 0; v < numNodes_; ++v)
        rowPtr_[v + 1] += rowPtr_[v];
}

int32_t
Graph::degree(int64_t v) const
{
    GNN_ASSERT(v >= 0 && v < numNodes_, "node %lld out of range",
               static_cast<long long>(v));
    return rowPtr_[v + 1] - rowPtr_[v];
}

std::pair<const int32_t *, const int32_t *>
Graph::neighbors(int64_t v) const
{
    GNN_ASSERT(v >= 0 && v < numNodes_, "node %lld out of range",
               static_cast<long long>(v));
    return {dst_.data() + rowPtr_[v], dst_.data() + rowPtr_[v + 1]};
}

Graph
Graph::withSelfLoops() const
{
    std::vector<std::pair<int32_t, int32_t>> edges;
    edges.reserve(dst_.size() + numNodes_);
    for (size_t e = 0; e < dst_.size(); ++e)
        edges.emplace_back(src_[e], dst_[e]);
    for (int64_t v = 0; v < numNodes_; ++v) {
        edges.emplace_back(static_cast<int32_t>(v),
                           static_cast<int32_t>(v));
    }
    return Graph(numNodes_, std::move(edges));
}

SparseMatrix
Graph::gcnNormAdjacency() const
{
    Graph with_loops = withSelfLoops();
    std::vector<float> inv_sqrt_deg(numNodes_);
    // Symmetric norm uses the (self-loop-augmented) degree; for
    // directed graphs this degrades to out-degree scaling.
    for (int64_t v = 0; v < numNodes_; ++v) {
        inv_sqrt_deg[v] =
            1.0f / std::sqrt(static_cast<float>(with_loops.degree(v)));
    }
    CsrMatrix m;
    m.rows = numNodes_;
    m.cols = numNodes_;
    m.rowPtr = with_loops.rowPtr_;
    m.colIdx = with_loops.dst_;
    m.vals.resize(m.colIdx.size());
    for (size_t e = 0; e < m.colIdx.size(); ++e) {
        const int32_t s = with_loops.src_[e];
        const int32_t d = with_loops.dst_[e];
        m.vals[e] = inv_sqrt_deg[s] * inv_sqrt_deg[d];
    }
    return SparseMatrix(std::move(m));
}

} // namespace gnnmark
