/**
 * @file
 * Compressed-sparse-row matrix used by the SpMM operator and by the
 * graph layer (adjacency matrices are CSR).
 */

#ifndef GNNMARK_TENSOR_CSR_HH
#define GNNMARK_TENSOR_CSR_HH

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "base/allocator.hh"

namespace gnnmark {

/** A rows x cols sparse fp32 matrix in CSR form. */
struct CsrMatrix
{
    int64_t rows = 0;
    int64_t cols = 0;
    std::vector<int32_t> rowPtr;  ///< rows + 1 entries
    std::vector<int32_t> colIdx;  ///< nnz entries
    std::vector<float> vals;      ///< nnz entries

    int64_t nnz() const { return static_cast<int64_t>(colIdx.size()); }

    /** Structural sanity check; aborts (panic) on violation. */
    void validate() const;

    /**
     * Device addresses of the index/value arrays (for the GPU model).
     * Mapped lazily from DeviceAddrSpace on first use and shared by
     * copies of the matrix, so they are deterministic and stable for
     * the graph's lifetime. Call after the arrays are final.
     */
    uint64_t rowPtrAddr() const;
    uint64_t colIdxAddr() const;
    uint64_t valsAddr() const;

  private:
    mutable std::shared_ptr<DeviceSpan> rowPtrSpan_;
    mutable std::shared_ptr<DeviceSpan> colIdxSpan_;
    mutable std::shared_ptr<DeviceSpan> valsSpan_;
};

/** Build a CSR from (row, col, val) triples; duplicates are summed. */
CsrMatrix csrFromTriples(int64_t rows, int64_t cols,
                         std::vector<std::tuple<int32_t, int32_t, float>>
                             triples);

class Rng;

/**
 * A seeded random rows x cols matrix: cells are visited row-major and
 * each is kept with probability `density`, valued uniform in [-1, 1).
 */
CsrMatrix uniformCsr(Rng &rng, int64_t rows, int64_t cols, double density);

} // namespace gnnmark

#endif // GNNMARK_TENSOR_CSR_HH
