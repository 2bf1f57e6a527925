/**
 * @file
 * Streaming degree-distribution validation: a fixed-size accumulator
 * that watches the edge stream go by and answers the shape questions
 * each family is judged on — power-law slope for the scale-free
 * generators, regularity for the lattice, degree spread for RGG. At
 * very large n the accumulator samples a deterministic stride of the
 * vertex space so its memory stays bounded while the fitted shape is
 * unchanged in expectation.
 */

#ifndef GNNMARK_GEN_DEGREE_STATS_HH
#define GNNMARK_GEN_DEGREE_STATS_HH

#include <cstdint>
#include <map>
#include <vector>

#include "gen/edge_stream.hh"
#include "gen/report.hh"

namespace gnnmark {
namespace gen {

class DegreeAccumulator
{
  public:
    /**
     * @param num_vertices  the graph's resolved vertex count
     * @param max_tracked   memory cap; above it every stride-th
     *                      vertex is tracked (stride chosen so the
     *                      tracked count stays under the cap)
     */
    explicit DegreeAccumulator(int64_t num_vertices,
                               int64_t max_tracked = int64_t{1} << 26);

    /** Count both endpoints of every edge in the block. */
    void accumulate(const EdgeBlock &block);

    /** Bytes held by the accumulator (for resident accounting). */
    int64_t residentBytes() const;

    DegreeStats finalize() const;

  private:
    int64_t numVertices_;
    int64_t stride_;
    std::vector<int32_t> counts_; ///< tracked-vertex degree counts
    int64_t endpoints_ = 0;
};

} // namespace gen
} // namespace gnnmark

#endif // GNNMARK_GEN_DEGREE_STATS_HH
