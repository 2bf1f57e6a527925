/**
 * @file
 * Multi-format sparse matrix storage: COO and blocked-ELL companions
 * to the CSR baseline (tensor/csr.hh), plus the `SparseMatrix` value
 * type that wraps exactly one format behind a uniform surface.
 *
 * Every format stores its per-row entries in the same order CSR does
 * (ascending column within a row, rows ascending), so the SpMM host
 * kernels accumulate each output element in an identical floating-
 * point order and all formats produce bitwise-equal results — the
 * property the per-format equivalence tests assert exactly.
 */

#ifndef GNNMARK_TENSOR_SPARSE_HH
#define GNNMARK_TENSOR_SPARSE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/csr.hh"

namespace gnnmark {

/** Storage layouts understood by ops::spmm. */
enum class SparseFormat
{
    Csr,        ///< compressed sparse row (the baseline)
    Coo,        ///< coordinate triples, row-major sorted
    BlockedEll, ///< 8-row blocks padded to the block's max row degree
};

/** Short lower-case name ("csr", "coo", "bell") for CLI/report use. */
const char *sparseFormatName(SparseFormat format);

/**
 * Coordinate-format sparse matrix. The invariant ops::spmm relies on:
 * entries are sorted by (row, col) ascending — the same order as the
 * CSR entry stream — so per-row accumulation order matches CSR.
 */
struct CooMatrix
{
    int64_t rows = 0;
    int64_t cols = 0;
    std::vector<int32_t> rowIdx; ///< nnz entries, sorted ascending
    std::vector<int32_t> colIdx; ///< nnz entries
    std::vector<float> vals;     ///< nnz entries

    int64_t nnz() const { return static_cast<int64_t>(colIdx.size()); }

    /** Structural sanity check (incl. sort order); panics on violation. */
    void validate() const;

    /** @{ Lazy, stable device addresses (see CsrMatrix). */
    uint64_t rowIdxAddr() const;
    uint64_t colIdxAddr() const;
    uint64_t valsAddr() const;
    /** @} */

  private:
    mutable std::shared_ptr<DeviceSpan> rowIdxSpan_;
    mutable std::shared_ptr<DeviceSpan> colIdxSpan_;
    mutable std::shared_ptr<DeviceSpan> valsSpan_;
};

/**
 * Blocked-ELL: rows are grouped into blocks of kBlockRows; each block
 * is padded to the widest row it contains and stored row-major, so a
 * warp sweeping a block reads fully regular slabs (the cuSPARSE
 * blocked-ELL trade: padding waste buys coalesced access). Padded
 * slots carry col 0 / val 0 but are never touched by the host kernel
 * — `rowNnz` bounds each row's loop — so padding cannot perturb the
 * accumulation (no -0.0 + 0.0 hazards, no NaN leakage from B).
 */
struct BlockedEllMatrix
{
    static constexpr int64_t kBlockRows = 8;

    int64_t rows = 0;
    int64_t cols = 0;
    /** Slot offset of each row block (blockCount() + 1 entries). */
    std::vector<int64_t> blockOff;
    /** True (unpadded) entry count of each row (rows entries). */
    std::vector<int32_t> rowNnz;
    std::vector<int32_t> colIdx; ///< padded slots, CSR entry order
    std::vector<float> vals;     ///< padded slots

    int64_t blockCount() const
    {
        return (rows + kBlockRows - 1) / kBlockRows;
    }

    /** Padded row width of block `br` (slots per row). */
    int64_t width(int64_t br) const
    {
        return (blockOff[br + 1] - blockOff[br]) / kBlockRows;
    }

    /** First slot of row `r` inside its block. */
    int64_t rowOff(int64_t r) const
    {
        const int64_t br = r / kBlockRows;
        return blockOff[br] + (r - br * kBlockRows) * width(br);
    }

    /** True nnz (excludes padding). */
    int64_t nnz() const;

    /** Total slots including padding. */
    int64_t paddedNnz() const
    {
        return static_cast<int64_t>(colIdx.size());
    }

    /** Structural sanity check; panics on violation. */
    void validate() const;

    /** @{ Lazy, stable device addresses (see CsrMatrix). */
    uint64_t rowNnzAddr() const;
    uint64_t colIdxAddr() const;
    uint64_t valsAddr() const;
    /** @} */

  private:
    mutable std::shared_ptr<DeviceSpan> rowNnzSpan_;
    mutable std::shared_ptr<DeviceSpan> colIdxSpan_;
    mutable std::shared_ptr<DeviceSpan> valsSpan_;
};

/** @{ Format conversions. All preserve CSR entry order exactly. */
CooMatrix cooFromCsr(const CsrMatrix &csr);
BlockedEllMatrix bellFromCsr(const CsrMatrix &csr);
/** @} */

/**
 * Value-semantic wrapper around exactly one sparse storage format.
 * Copies share the underlying buffers (and therefore the lazy device
 * spans, keeping simulated addresses stable), so passing a
 * SparseMatrix around is cheap.
 *
 * The CsrMatrix constructor is deliberately implicit: it is the
 * migration path that lets pre-existing `CsrMatrix` producers feed
 * the redesigned `ops::spmm(const SparseMatrix &, ...)` surface.
 */
class SparseMatrix
{
  public:
    SparseMatrix() : SparseMatrix(CsrMatrix{}) {}
    SparseMatrix(CsrMatrix csr); // NOLINT(google-explicit-constructor)
    SparseMatrix(CooMatrix coo); // NOLINT(google-explicit-constructor)
    SparseMatrix(BlockedEllMatrix bell); // NOLINT

    /** Convert a CSR into the requested storage format. */
    static SparseMatrix fromCsr(CsrMatrix csr, SparseFormat format);

    SparseFormat format() const { return format_; }
    int64_t rows() const { return rows_; }
    int64_t cols() const { return cols_; }
    int64_t nnz() const { return nnz_; }

    /**
     * Bytes the active format occupies (index + value arrays,
     * including blocked-ELL padding) — the per-format term of the
     * roofline traffic model in `gnnmark ops`.
     */
    int64_t footprintBytes() const;

    /** @{ Typed accessors; panic if the format does not match. */
    const CsrMatrix &csr() const;
    const CooMatrix &coo() const;
    const BlockedEllMatrix &bell() const;
    /** @} */

  private:
    SparseFormat format_ = SparseFormat::Csr;
    int64_t rows_ = 0;
    int64_t cols_ = 0;
    int64_t nnz_ = 0;
    std::shared_ptr<const CsrMatrix> csr_;
    std::shared_ptr<const CooMatrix> coo_;
    std::shared_ptr<const BlockedEllMatrix> bell_;
};

} // namespace gnnmark

#endif // GNNMARK_TENSOR_SPARSE_HH
