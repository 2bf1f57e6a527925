/**
 * @file
 * Per-format SpMM equivalence: CSR, COO and blocked-ELL must produce
 * *bitwise identical* outputs (not merely close) because every format
 * stores its entries in CSR order and every host kernel accumulates
 * per output element in that order. Exercises random matrices plus
 * the pathological sparsity patterns where padding or entry-order
 * bugs would first show.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "base/rng.hh"
#include "ops/exec_context.hh"
#include "ops/spmm.hh"
#include "profiler/profiler.hh"

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

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

/** Run spmm in every format and assert all outputs bit-match CSR. */
void
expectAllFormatsEqual(const CsrMatrix &csr, int64_t f, uint64_t seed)
{
    Rng rng(seed);
    Tensor b = Tensor::randn({csr.cols, f}, rng);
    const SparseMatrix base(csr);
    const Tensor ref = ops::spmm(base, b);
    for (SparseFormat format :
         {SparseFormat::Coo, SparseFormat::BlockedEll}) {
        const SparseMatrix m = SparseMatrix::fromCsr(csr, format);
        const Tensor out = ops::spmm(m, b);
        EXPECT_TRUE(bitwiseEqual(ref, out))
            << "format " << sparseFormatName(format)
            << " diverged bitwise (rows=" << csr.rows
            << " cols=" << csr.cols << " f=" << f << ")";
    }
}

} // namespace

TEST(SpmmFormats, RandomMatricesBitwiseEqual)
{
    Rng rng(21);
    for (double density : {0.02, 0.1, 0.5}) {
        for (int64_t f : {1, 16, 33, 64}) {
            const CsrMatrix csr = randomCsr(rng, 67, 53, density);
            expectAllFormatsEqual(csr, f, 100 + f);
        }
    }
}

TEST(SpmmFormats, EmptyMatrix)
{
    expectAllFormatsEqual(csrFromTriples(16, 16, {}), 8, 1);
}

TEST(SpmmFormats, DiagonalMatrix)
{
    std::vector<std::tuple<int32_t, int32_t, float>> eye;
    for (int32_t i = 0; i < 19; ++i)
        eye.emplace_back(i, i, 0.5f + i);
    expectAllFormatsEqual(csrFromTriples(19, 19, std::move(eye)), 24,
                          2);
}

TEST(SpmmFormats, SingleDenseRow)
{
    // One fully dense row in an otherwise empty matrix: the worst
    // blocked-ELL padding case (one block padded to full width).
    std::vector<std::tuple<int32_t, int32_t, float>> triples;
    for (int32_t c = 0; c < 40; ++c)
        triples.emplace_back(7, c, 0.25f * (c + 1));
    expectAllFormatsEqual(csrFromTriples(30, 40, std::move(triples)),
                          17, 3);
}

TEST(SpmmFormats, SingleDenseColumn)
{
    // Every row has exactly one entry in the same column: maximally
    // skewed COO row-run lengths.
    std::vector<std::tuple<int32_t, int32_t, float>> triples;
    for (int32_t r = 0; r < 33; ++r)
        triples.emplace_back(r, 5, 1.0f / (r + 1));
    expectAllFormatsEqual(csrFromTriples(33, 12, std::move(triples)),
                          9, 4);
}

TEST(SpmmFormats, RowCountNotMultipleOfBlockRows)
{
    // rows % 8 != 0: the final partial block must not touch padding
    // rows beyond `rows`.
    Rng rng(22);
    expectAllFormatsEqual(randomCsr(rng, 13, 21, 0.3), 11, 5);
}

TEST(SpmmFormats, EachFormatEmitsItsOwnSimKernel)
{
    Rng rng(23);
    const CsrMatrix csr = randomCsr(rng, 64, 64, 0.1);
    Tensor b = Tensor::randn({64, 32}, rng);
    const char *expected[] = {"spmm_csr", "spmm_coo", "spmm_bell"};
    const SparseFormat formats[] = {SparseFormat::Csr,
                                    SparseFormat::Coo,
                                    SparseFormat::BlockedEll};
    for (int i = 0; i < 3; ++i) {
        GpuDevice dev;
        Profiler prof;
        dev.addObserver(&prof);
        {
            ContextGuard guard(&dev);
            ops::spmm(SparseMatrix::fromCsr(csr, formats[i]), b);
        }
        const auto &kernels = prof.kernelStats();
        ASSERT_EQ(kernels.size(), 1u);
        // Kernel names are "<base>_<shape...>"; the base identifies
        // the per-format sim kernel.
        EXPECT_EQ(kernels.begin()->first.rfind(expected[i], 0), 0u)
            << kernels.begin()->first;
        EXPECT_EQ(prof.classStats(OpClass::SpMM).launches, 1);
    }
}
