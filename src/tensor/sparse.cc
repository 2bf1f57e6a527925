#include "tensor/sparse.hh"

#include <algorithm>

#include "base/logging.hh"

namespace gnnmark {

const char *
sparseFormatName(SparseFormat format)
{
    switch (format) {
      case SparseFormat::Csr:
        return "csr";
      case SparseFormat::Coo:
        return "coo";
      case SparseFormat::BlockedEll:
        return "bell";
    }
    GNN_PANIC("bad SparseFormat %d", static_cast<int>(format));
}

namespace {

uint64_t
lazySpanAddr(std::shared_ptr<DeviceSpan> &span, size_t bytes)
{
    if (span == nullptr)
        span = std::make_shared<DeviceSpan>(bytes);
    return span->addr();
}

} // namespace

void
CooMatrix::validate() const
{
    GNN_ASSERT(rows >= 0 && cols >= 0, "negative coo dimensions");
    GNN_ASSERT(rowIdx.size() == colIdx.size() &&
               colIdx.size() == vals.size(),
               "coo array size mismatch: %zu/%zu/%zu", rowIdx.size(),
               colIdx.size(), vals.size());
    for (size_t i = 0; i < rowIdx.size(); ++i) {
        GNN_ASSERT(rowIdx[i] >= 0 && rowIdx[i] < rows,
                   "row index %d out of range", rowIdx[i]);
        GNN_ASSERT(colIdx[i] >= 0 && colIdx[i] < cols,
                   "column index %d out of range", colIdx[i]);
        if (i > 0) {
            const bool sorted =
                rowIdx[i - 1] < rowIdx[i] ||
                (rowIdx[i - 1] == rowIdx[i] &&
                 colIdx[i - 1] < colIdx[i]);
            GNN_ASSERT(sorted, "coo entries not (row, col) sorted at %zu",
                       i);
        }
    }
}

uint64_t
CooMatrix::rowIdxAddr() const
{
    return lazySpanAddr(rowIdxSpan_, rowIdx.size() * sizeof(int32_t));
}

uint64_t
CooMatrix::colIdxAddr() const
{
    return lazySpanAddr(colIdxSpan_, colIdx.size() * sizeof(int32_t));
}

uint64_t
CooMatrix::valsAddr() const
{
    return lazySpanAddr(valsSpan_, vals.size() * sizeof(float));
}

int64_t
BlockedEllMatrix::nnz() const
{
    int64_t n = 0;
    for (int32_t c : rowNnz)
        n += c;
    return n;
}

void
BlockedEllMatrix::validate() const
{
    GNN_ASSERT(rows >= 0 && cols >= 0, "negative bell dimensions");
    GNN_ASSERT(static_cast<int64_t>(rowNnz.size()) == rows,
               "rowNnz size %zu != rows %lld", rowNnz.size(),
               static_cast<long long>(rows));
    GNN_ASSERT(static_cast<int64_t>(blockOff.size()) == blockCount() + 1,
               "blockOff size %zu != blockCount+1 %lld", blockOff.size(),
               static_cast<long long>(blockCount() + 1));
    GNN_ASSERT(blockOff.empty() || blockOff.front() == 0,
               "blockOff must start at 0");
    GNN_ASSERT(colIdx.size() == vals.size(),
               "colIdx/vals size mismatch: %zu vs %zu", colIdx.size(),
               vals.size());
    for (int64_t br = 0; br < blockCount(); ++br) {
        GNN_ASSERT(blockOff[br] <= blockOff[br + 1],
                   "blockOff not monotone at block %lld",
                   static_cast<long long>(br));
        GNN_ASSERT((blockOff[br + 1] - blockOff[br]) % kBlockRows == 0,
                   "block %lld slots not divisible by block height",
                   static_cast<long long>(br));
        const int64_t w = width(br);
        const int64_t r_end = std::min(rows, (br + 1) * kBlockRows);
        for (int64_t r = br * kBlockRows; r < r_end; ++r) {
            GNN_ASSERT(rowNnz[r] >= 0 && rowNnz[r] <= w,
                       "rowNnz[%lld]=%d exceeds block width %lld",
                       static_cast<long long>(r), rowNnz[r],
                       static_cast<long long>(w));
        }
    }
    GNN_ASSERT(blockOff.empty() ||
               blockOff.back() ==
                   static_cast<int64_t>(colIdx.size()),
               "blockOff end %lld != padded nnz %zu",
               static_cast<long long>(blockOff.back()), colIdx.size());
    for (int32_t c : colIdx) {
        GNN_ASSERT(c >= 0 && (c < cols || (c == 0 && cols == 0)),
                   "column index %d out of range", c);
    }
}

uint64_t
BlockedEllMatrix::rowNnzAddr() const
{
    return lazySpanAddr(rowNnzSpan_, rowNnz.size() * sizeof(int32_t));
}

uint64_t
BlockedEllMatrix::colIdxAddr() const
{
    return lazySpanAddr(colIdxSpan_, colIdx.size() * sizeof(int32_t));
}

uint64_t
BlockedEllMatrix::valsAddr() const
{
    return lazySpanAddr(valsSpan_, vals.size() * sizeof(float));
}

CooMatrix
cooFromCsr(const CsrMatrix &csr)
{
    CooMatrix coo;
    coo.rows = csr.rows;
    coo.cols = csr.cols;
    coo.rowIdx.reserve(csr.nnz());
    for (int64_t r = 0; r < csr.rows; ++r) {
        for (int32_t e = csr.rowPtr[r]; e < csr.rowPtr[r + 1]; ++e)
            coo.rowIdx.push_back(static_cast<int32_t>(r));
    }
    coo.colIdx = csr.colIdx;
    coo.vals = csr.vals;
    return coo;
}

BlockedEllMatrix
bellFromCsr(const CsrMatrix &csr)
{
    BlockedEllMatrix bell;
    bell.rows = csr.rows;
    bell.cols = csr.cols;
    bell.rowNnz.resize(csr.rows);
    const int64_t blocks = bell.blockCount();
    bell.blockOff.assign(blocks + 1, 0);
    for (int64_t br = 0; br < blocks; ++br) {
        int64_t w = 0;
        const int64_t r_end =
            std::min(csr.rows, (br + 1) * BlockedEllMatrix::kBlockRows);
        for (int64_t r = br * BlockedEllMatrix::kBlockRows; r < r_end;
             ++r) {
            const int64_t d = csr.rowPtr[r + 1] - csr.rowPtr[r];
            bell.rowNnz[r] = static_cast<int32_t>(d);
            w = std::max(w, d);
        }
        bell.blockOff[br + 1] =
            bell.blockOff[br] + w * BlockedEllMatrix::kBlockRows;
    }
    bell.colIdx.assign(bell.blockOff[blocks], 0);
    bell.vals.assign(bell.blockOff[blocks], 0.0f);
    for (int64_t r = 0; r < csr.rows; ++r) {
        int64_t slot = bell.rowOff(r);
        for (int32_t e = csr.rowPtr[r]; e < csr.rowPtr[r + 1];
             ++e, ++slot) {
            bell.colIdx[slot] = csr.colIdx[e];
            bell.vals[slot] = csr.vals[e];
        }
    }
    return bell;
}

SparseMatrix::SparseMatrix(CsrMatrix csr)
    : format_(SparseFormat::Csr), rows_(csr.rows), cols_(csr.cols),
      nnz_(csr.nnz()),
      csr_(std::make_shared<const CsrMatrix>(std::move(csr)))
{
}

SparseMatrix::SparseMatrix(CooMatrix coo)
    : format_(SparseFormat::Coo), rows_(coo.rows), cols_(coo.cols),
      nnz_(coo.nnz()),
      coo_(std::make_shared<const CooMatrix>(std::move(coo)))
{
}

SparseMatrix::SparseMatrix(BlockedEllMatrix bell)
    : format_(SparseFormat::BlockedEll), rows_(bell.rows),
      cols_(bell.cols), nnz_(bell.nnz()),
      bell_(std::make_shared<const BlockedEllMatrix>(std::move(bell)))
{
}

SparseMatrix
SparseMatrix::fromCsr(CsrMatrix csr, SparseFormat format)
{
    switch (format) {
      case SparseFormat::Csr:
        return SparseMatrix(std::move(csr));
      case SparseFormat::Coo:
        return SparseMatrix(cooFromCsr(csr));
      case SparseFormat::BlockedEll:
        return SparseMatrix(bellFromCsr(csr));
    }
    GNN_PANIC("bad SparseFormat %d", static_cast<int>(format));
}

int64_t
SparseMatrix::footprintBytes() const
{
    switch (format_) {
      case SparseFormat::Csr:
        return static_cast<int64_t>(
            (csr_->rowPtr.size() + csr_->colIdx.size()) *
                sizeof(int32_t) +
            csr_->vals.size() * sizeof(float));
      case SparseFormat::Coo:
        return static_cast<int64_t>(
            (coo_->rowIdx.size() + coo_->colIdx.size()) *
                sizeof(int32_t) +
            coo_->vals.size() * sizeof(float));
      case SparseFormat::BlockedEll:
        return static_cast<int64_t>(
            bell_->blockOff.size() * sizeof(int64_t) +
            (bell_->rowNnz.size() + bell_->colIdx.size()) *
                sizeof(int32_t) +
            bell_->vals.size() * sizeof(float));
    }
    GNN_PANIC("bad SparseFormat %d", static_cast<int>(format_));
}

const CsrMatrix &
SparseMatrix::csr() const
{
    GNN_ASSERT(format_ == SparseFormat::Csr && csr_ != nullptr,
               "SparseMatrix is %s, not csr", sparseFormatName(format_));
    return *csr_;
}

const CooMatrix &
SparseMatrix::coo() const
{
    GNN_ASSERT(format_ == SparseFormat::Coo && coo_ != nullptr,
               "SparseMatrix is %s, not coo", sparseFormatName(format_));
    return *coo_;
}

const BlockedEllMatrix &
SparseMatrix::bell() const
{
    GNN_ASSERT(format_ == SparseFormat::BlockedEll && bell_ != nullptr,
               "SparseMatrix is %s, not bell",
               sparseFormatName(format_));
    return *bell_;
}

} // namespace gnnmark
