/** @file Sparse-format storage, conversion and wrapper tests. */

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "tensor/sparse.hh"

using namespace gnnmark;

namespace {

CsrMatrix
randomCsr(Rng &rng, int64_t rows, int64_t cols, double density)
{
    std::vector<std::tuple<int32_t, int32_t, float>> triples;
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t c = 0; c < cols; ++c) {
            if (rng.bernoulli(density)) {
                triples.emplace_back(
                    static_cast<int32_t>(r), static_cast<int32_t>(c),
                    static_cast<float>(rng.normal()));
            }
        }
    }
    return csrFromTriples(rows, cols, std::move(triples));
}

/** The row of every CSR entry, in entry order. */
std::vector<int32_t>
entryRows(const CsrMatrix &csr)
{
    std::vector<int32_t> rows;
    for (int64_t r = 0; r < csr.rows; ++r)
        rows.insert(rows.end(), csr.rowPtr[r + 1] - csr.rowPtr[r],
                    static_cast<int32_t>(r));
    return rows;
}

/** Blocked-ELL holds each CSR row's entries, in order, at rowOff(r). */
bool
bellHoldsCsrRows(const BlockedEllMatrix &bell, const CsrMatrix &csr)
{
    for (int64_t r = 0; r < csr.rows; ++r) {
        const int32_t n = csr.rowPtr[r + 1] - csr.rowPtr[r];
        if (bell.rowNnz[r] != n)
            return false;
        for (int32_t t = 0; t < n; ++t) {
            const int64_t slot = bell.rowOff(r) + t;
            const int64_t e = csr.rowPtr[r] + t;
            if (bell.colIdx[slot] != csr.colIdx[e] ||
                bell.vals[slot] != csr.vals[e])
                return false;
        }
    }
    return true;
}

} // namespace

TEST(SparseConvert, CooRoundTripPreservesEntryOrder)
{
    Rng rng(11);
    const CsrMatrix csr = randomCsr(rng, 37, 29, 0.15);
    const CooMatrix coo = cooFromCsr(csr);
    coo.validate();
    EXPECT_EQ(coo.nnz(), csr.nnz());
    // Entry streams are identical, not merely equivalent.
    EXPECT_EQ(coo.colIdx, csr.colIdx);
    EXPECT_EQ(coo.vals, csr.vals);
    EXPECT_EQ(coo.rowIdx, entryRows(csr));
}

TEST(SparseConvert, BellRoundTripPreservesEntryOrder)
{
    Rng rng(12);
    const CsrMatrix csr = randomCsr(rng, 41, 33, 0.2);
    const BlockedEllMatrix bell = bellFromCsr(csr);
    bell.validate();
    EXPECT_EQ(bell.nnz(), csr.nnz());
    EXPECT_GE(bell.paddedNnz(), bell.nnz());
    EXPECT_TRUE(bellHoldsCsrRows(bell, csr));
}

TEST(SparseConvert, BellPadsToBlockMaxDegree)
{
    // One 8-row block with degrees 3 and 1: width is 3, rows 2..7
    // are all padding.
    CsrMatrix csr = csrFromTriples(
        8, 8,
        {{0, 1, 1.0f}, {0, 3, 2.0f}, {0, 5, 3.0f}, {1, 2, 4.0f}});
    const BlockedEllMatrix bell = bellFromCsr(csr);
    EXPECT_EQ(bell.blockCount(), 1);
    EXPECT_EQ(bell.width(0), 3);
    EXPECT_EQ(bell.paddedNnz(), 8 * 3);
    EXPECT_EQ(bell.rowNnz[0], 3);
    EXPECT_EQ(bell.rowNnz[1], 1);
    EXPECT_EQ(bell.rowNnz[2], 0);
}

TEST(SparseConvert, EmptyMatrixAllFormats)
{
    const CsrMatrix csr = csrFromTriples(5, 7, {});
    const CooMatrix coo = cooFromCsr(csr);
    const BlockedEllMatrix bell = bellFromCsr(csr);
    coo.validate();
    bell.validate();
    EXPECT_EQ(coo.nnz(), 0);
    EXPECT_EQ(bell.nnz(), 0);
    EXPECT_EQ(coo.rows, csr.rows);
    EXPECT_EQ(bell.cols, csr.cols);
}

TEST(SparseMatrixWrap, FormatAndShapeSurface)
{
    Rng rng(13);
    SparseMatrix m(randomCsr(rng, 24, 18, 0.3));
    EXPECT_EQ(m.format(), SparseFormat::Csr);
    EXPECT_EQ(m.rows(), 24);
    EXPECT_EQ(m.cols(), 18);
    EXPECT_GT(m.nnz(), 0);
    EXPECT_GT(m.footprintBytes(), 0);
}

TEST(SparseMatrixWrap, ToFormatRoundTripsAndShares)
{
    Rng rng(14);
    const CsrMatrix csr = randomCsr(rng, 30, 30, 0.2);
    SparseMatrix bell = SparseMatrix::fromCsr(csr, SparseFormat::BlockedEll);
    EXPECT_EQ(bell.format(), SparseFormat::BlockedEll);
    EXPECT_EQ(bell.nnz(), csr.nnz());
    EXPECT_TRUE(bellHoldsCsrRows(bell.bell(), csr));
    // Copies share storage (same underlying blocked-ELL).
    SparseMatrix same = bell;
    EXPECT_EQ(&same.bell(), &bell.bell());
    // Blocked-ELL pads, so its footprint is never smaller than COO's
    // value+index payload for the same entries.
    EXPECT_GE(bell.footprintBytes(), bell.nnz() * 8);
}

TEST(SparseMatrixWrapDeath, WrongAccessorPanics)
{
    SparseMatrix m(csrFromTriples(4, 4, {{0, 1, 1.0f}}));
    EXPECT_DEATH(m.coo(), "not coo");
    EXPECT_DEATH(m.bell(), "not bell");
}

TEST(SparseCooDeath, UnsortedEntriesPanic)
{
    CooMatrix coo;
    coo.rows = 2;
    coo.cols = 2;
    coo.rowIdx = {1, 0};
    coo.colIdx = {0, 1};
    coo.vals = {1.0f, 2.0f};
    EXPECT_DEATH(coo.validate(), "sorted");
}
