/** @file GEMM/GEMV correctness (vs. a reference) and emission tests. */

#include <gtest/gtest.h>

#include <tuple>

#include "base/rng.hh"
#include "ops/exec_context.hh"
#include "ops/gemm.hh"
#include "profiler/profiler.hh"

using namespace gnnmark;

namespace {

/** Independent reference: explicit dot products, untransposed view. */
Tensor
refGemm(const Tensor &a, const Tensor &b, bool ta, bool tb)
{
    const int64_t m = ta ? a.size(1) : a.size(0);
    const int64_t k = ta ? a.size(0) : a.size(1);
    const int64_t n = tb ? b.size(0) : b.size(1);
    Tensor c = Tensor::zeros({m, n});
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            double acc = 0;
            for (int64_t kk = 0; kk < k; ++kk) {
                float av = ta ? a(kk, i) : a(i, kk);
                float bv = tb ? b(j, kk) : b(kk, j);
                acc += static_cast<double>(av) * bv;
            }
            c(i, j) = static_cast<float>(acc);
        }
    }
    return c;
}

} // namespace

/** Sweep: all transpose combinations across shapes. */
class GemmSweep
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, bool, bool>>
{
};

TEST_P(GemmSweep, MatchesReference)
{
    auto [m, n, k, ta, tb] = GetParam();
    Rng rng(m * 31 + n * 7 + k + ta * 2 + tb);
    Tensor a = ta ? Tensor::randn({k, m}, rng) : Tensor::randn({m, k}, rng);
    Tensor b = tb ? Tensor::randn({n, k}, rng) : Tensor::randn({k, n}, rng);
    Tensor c = ops::gemm(a, b, {.trans_a = ta, .trans_b = tb});
    EXPECT_TRUE(allClose(c, refGemm(a, b, ta, tb), 1e-3f, 1e-4f))
        << "m=" << m << " n=" << n << " k=" << k << " ta=" << ta
        << " tb=" << tb;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Combine(::testing::Values(1, 5, 33, 64),
                       ::testing::Values(1, 17, 64),
                       ::testing::Values(1, 8, 65),
                       ::testing::Bool(), ::testing::Bool()));

TEST(Gemm, IdentityMatrix)
{
    Rng rng(4);
    Tensor a = Tensor::randn({6, 6}, rng);
    Tensor eye = Tensor::zeros({6, 6});
    for (int64_t i = 0; i < 6; ++i)
        eye(i, i) = 1.0f;
    EXPECT_TRUE(allClose(ops::gemm(a, eye), a));
}

TEST(GemmDeath, InnerDimMismatchPanics)
{
    Tensor a = Tensor::zeros({2, 3});
    Tensor b = Tensor::zeros({4, 2});
    EXPECT_DEATH(ops::gemm(a, b), "inner-dimension mismatch");
}

TEST(Gemm, EmitsGemmClassKernelWithFlops)
{
    GpuDevice dev;
    Profiler prof;
    dev.addObserver(&prof);
    Rng rng(5);
    Tensor a = Tensor::randn({64, 64}, rng);
    Tensor b = Tensor::randn({64, 64}, rng);
    {
        ContextGuard guard(&dev);
        ops::gemm(a, b);
    }
    const OpClassStats &s = prof.classStats(OpClass::Gemm);
    EXPECT_EQ(s.launches, 1);
    // Tiled kernel executes the padded 64x64x64 tile exactly.
    EXPECT_NEAR(s.flops, 2.0 * 64 * 64 * 64, 2.0 * 64 * 64 * 64 * 0.2);
}
