/**
 * @file
 * Direct tests of the ops::kern host-kernel variants: the tiled /
 * vectorized paths must be *bitwise identical* to the historical
 * scalar loops for any shape, including strip tails (n % 16, f % 16),
 * row-group tails (m % 4), and operands with exact zeros (the naive
 * GEMM's skip path).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "base/rng.hh"
#include "ops/cpu_kernels.hh"
#include "tensor/sparse.hh"

using namespace gnnmark;

namespace {

std::vector<float>
operand(Rng &rng, int64_t elems, double zero_frac = 0.0)
{
    std::vector<float> v(elems);
    for (float &x : v) {
        x = rng.bernoulli(zero_frac)
                ? 0.0f
                : rng.uniform(-1.0f, 1.0f);
    }
    return v;
}

CsrMatrix
randomCsr(Rng &rng, int64_t rows, int64_t cols, double density)
{
    std::vector<std::tuple<int32_t, int32_t, float>> triples;
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t c = 0; c < cols; ++c) {
            if (rng.bernoulli(density)) {
                triples.emplace_back(static_cast<int32_t>(r),
                                     static_cast<int32_t>(c),
                                     rng.uniform(-1.0f, 1.0f));
            }
        }
    }
    return csrFromTriples(rows, cols, std::move(triples));
}

bool
bitwiseEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

/** The naive GEMM's order as a plain scalar loop: each C element
 *  accumulates over ascending kk, skipping zero A elements. */
std::vector<float>
gemmReference(const std::vector<float> &a, const std::vector<float> &b,
              int64_t m, int64_t n, int64_t k)
{
    std::vector<float> c(m * n, 0.0f);
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t kk = 0; kk < k; ++kk) {
            const float aik = a[i * k + kk];
            if (aik == 0.0f)
                continue;
            for (int64_t j = 0; j < n; ++j)
                c[i * n + j] += aik * b[kk * n + j];
        }
    }
    return c;
}

} // namespace

TEST(CpuKernels, GemmTiledBitwiseMatchesNaive)
{
    Rng rng(31);
    // Shapes chosen to hit every tail: m % 4, n % 16 (including the
    // 8-column tile: n = 8, 24, 72), small k.
    const struct { int64_t m, n, k; double zf; } cases[] = {
        {1, 1, 1, 0.0},    {4, 16, 8, 0.0},   {5, 17, 9, 0.0},
        {33, 40, 48, 0.5}, {7, 15, 3, 0.0},   {64, 64, 64, 0.25},
        {8, 31, 12, 1.0},  {4, 8, 5, 0.0},    {9, 24, 20, 0.3},
        {12, 72, 40, 0.25}, {18, 72, 72, 0.0},
    };
    for (const auto &tc : cases) {
        const std::vector<float> a = operand(rng, tc.m * tc.k, tc.zf);
        const std::vector<float> b = operand(rng, tc.k * tc.n);
        std::vector<float> c_naive(tc.m * tc.n, 0.0f);
        std::vector<float> c_tiled(tc.m * tc.n, 0.0f);
        ops::kern::gemmNaive(a.data(), b.data(), c_naive.data(), tc.m,
                             tc.n, tc.k);
        ops::kern::gemmTiled(a.data(), b.data(), c_tiled.data(), tc.m,
                             tc.n, tc.k);
        EXPECT_TRUE(bitwiseEqual(c_naive, c_tiled))
            << "m=" << tc.m << " n=" << tc.n << " k=" << tc.k
            << " zero_frac=" << tc.zf;
        EXPECT_TRUE(bitwiseEqual(
            gemmReference(a, b, tc.m, tc.n, tc.k), c_naive))
            << "naive vs scalar loop: m=" << tc.m << " n=" << tc.n
            << " k=" << tc.k;
    }
}

TEST(CpuKernels, SpmmVariantsBitwiseMatchScalar)
{
    Rng rng(32);
    const struct { int64_t rows, cols, f; double density; } cases[] = {
        {1, 1, 1, 1.0},    {16, 16, 16, 0.2}, {17, 23, 33, 0.15},
        {96, 80, 40, 0.05}, {9, 64, 15, 0.5},  {13, 21, 7, 0.0},
    };
    for (const auto &tc : cases) {
        const CsrMatrix csr =
            randomCsr(rng, tc.rows, tc.cols, tc.density);
        const CooMatrix coo = cooFromCsr(csr);
        const BlockedEllMatrix bell = bellFromCsr(csr);
        const std::vector<float> b = operand(rng, tc.cols * tc.f);
        const size_t elems = static_cast<size_t>(tc.rows) * tc.f;
        std::vector<float> c_scalar(elems, 0.0f);
        std::vector<float> c_vector(elems, 0.0f);
        std::vector<float> c_coo(elems, 0.0f);
        std::vector<float> c_bell(elems, 0.0f);
        ops::kern::spmmCsrScalar(csr, b.data(), c_scalar.data(), tc.f);
        ops::kern::spmmCsrVector(csr, b.data(), c_vector.data(), tc.f);
        ops::kern::spmmCoo(coo, b.data(), c_coo.data(), tc.f);
        ops::kern::spmmBell(bell, b.data(), c_bell.data(), tc.f);
        const auto label = [&](const char *what) {
            return ::testing::Message()
                   << what << " rows=" << tc.rows << " cols=" << tc.cols
                   << " f=" << tc.f << " d=" << tc.density;
        };
        EXPECT_TRUE(bitwiseEqual(c_scalar, c_vector))
            << label("csr_vector");
        EXPECT_TRUE(bitwiseEqual(c_scalar, c_coo)) << label("coo");
        EXPECT_TRUE(bitwiseEqual(c_scalar, c_bell)) << label("bell");
    }
}

TEST(CpuKernels, GemmNegativeZeroPreserved)
{
    // -0.0 in A is NOT skipped (only +0.0 compares equal to 0.0f via
    // ==, and both do); the result sign must match the scalar loop.
    const std::vector<float> a = {-0.0f, 2.0f};
    const std::vector<float> b = {-3.0f, 1.0f};
    std::vector<float> c_naive(1, 0.0f), c_tiled(1, 0.0f);
    ops::kern::gemmNaive(a.data(), b.data(), c_naive.data(), 1, 1, 2);
    ops::kern::gemmTiled(a.data(), b.data(), c_tiled.data(), 1, 1, 2);
    EXPECT_EQ(std::memcmp(c_naive.data(), c_tiled.data(),
                          sizeof(float)),
              0);
}

TEST(CpuKernels, SimdActiveIsStable)
{
    // Whatever the host supports, the answer must not flip mid-run
    // (the dispatch cost model and the calibration probes rely on it).
    const bool first = ops::kern::simdActive();
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(ops::kern::simdActive(), first);
}
