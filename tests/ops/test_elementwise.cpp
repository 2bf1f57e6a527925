/** @file Numerics + emission tests for the element-wise operators. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "base/rng.hh"
#include "ops/elementwise.hh"
#include "ops/exec_context.hh"
#include "profiler/profiler.hh"

using namespace gnnmark;

namespace {

Tensor
iota(std::vector<int64_t> shape, float start = -3.0f, float step = 0.5f)
{
    Tensor t = Tensor::zeros(std::move(shape));
    for (int64_t i = 0; i < t.numel(); ++i)
        t.data()[i] = start + step * static_cast<float>(i);
    return t;
}

/** Finite values mixed with +-0, NaN, +-inf and denormals, so every
 *  special value lands in both block lanes and tail positions. */
std::vector<float>
edgeValues(Rng &rng, int64_t n)
{
    using Lim = std::numeric_limits<float>;
    static const float kSpecial[] = {
        0.0f, -0.0f, Lim::quiet_NaN(), Lim::infinity(), -Lim::infinity(),
        Lim::denorm_min(), -Lim::denorm_min(), 3e-39f, -1e-40f, Lim::min(),
    };
    std::vector<float> v(n);
    for (float &x : v) {
        x = rng.bernoulli(0.3)
                ? kSpecial[rng.randint(uint64_t{std::size(kSpecial)})]
                : rng.uniform(-4.0f, 4.0f);
    }
    return v;
}

bool
bitwiseEqual(const Tensor &t, const std::vector<float> &want)
{
    return t.numel() == static_cast<int64_t>(want.size()) &&
           std::memcmp(t.data(), want.data(),
                       want.size() * sizeof(float)) == 0;
}

} // namespace

TEST(Elementwise, AddSubMul)
{
    Tensor a = iota({2, 3});
    Tensor b = Tensor::full({2, 3}, 2.0f);
    EXPECT_FLOAT_EQ(ops::add(a, b)(0, 0), a(0, 0) + 2.0f);
    EXPECT_FLOAT_EQ(ops::sub(a, b)(1, 2), a(1, 2) - 2.0f);
    EXPECT_FLOAT_EQ(ops::mul(a, b)(0, 2), a(0, 2) * 2.0f);
}

TEST(Elementwise, Div)
{
    Tensor a = Tensor::fromVector({3}, {6.0f, -9.0f, 1.0f});
    Tensor b = Tensor::fromVector({3}, {2.0f, 3.0f, 4.0f});
    Tensor c = ops::div(a, b);
    EXPECT_FLOAT_EQ(c(0), 3.0f);
    EXPECT_FLOAT_EQ(c(1), -3.0f);
    EXPECT_FLOAT_EQ(c(2), 0.25f);
}

TEST(Elementwise, ScaledOps)
{
    Tensor a = iota({4});
    EXPECT_FLOAT_EQ(ops::scale(a, -2.0f)(1), -2.0f * a(1));
    EXPECT_FLOAT_EQ(ops::addScalar(a, 10.0f)(2), a(2) + 10.0f);
}

TEST(Elementwise, AddIntoAccumulates)
{
    Tensor dst = Tensor::full({3}, 1.0f);
    Tensor src = Tensor::full({3}, 2.0f);
    ops::addInto(dst, src);
    ops::addInto(dst, src);
    EXPECT_FLOAT_EQ(dst(0), 5.0f);
}

TEST(Elementwise, AddIntoOverlappingOperands)
{
    Rng rng(42);
    // Fully aliased: every element doubles.
    Tensor t = Tensor::randn({3, 5}, rng);
    std::vector<float> doubled(t.data(), t.data() + t.numel());
    for (float &v : doubled)
        v += v;
    ops::addInto(t, t);
    EXPECT_TRUE(bitwiseEqual(t, doubled));

    // Partly overlapping row views: rows 1..2 += rows 0..1, which must
    // read row 1 after it was updated, as one ascending pass does.
    Tensor u = Tensor::randn({3, 5}, rng);
    std::vector<float> sequential(u.data(), u.data() + u.numel());
    for (int64_t i = 0; i < 10; ++i)
        sequential[5 + i] += sequential[i];
    Tensor rows12 = u.viewRows(1, 3);
    ops::addInto(rows12, u.viewRows(0, 2));
    EXPECT_TRUE(bitwiseEqual(u, sequential));

    // Overlap at distance 1 across a whole lane block: a running sum.
    Tensor col = Tensor::randn({10, 1}, rng);
    std::vector<float> running(col.data(), col.data() + col.numel());
    for (int64_t i = 1; i < 10; ++i)
        running[i] += running[i - 1];
    Tensor rows1to9 = col.viewRows(1, 10);
    ops::addInto(rows1to9, col.viewRows(0, 9));
    EXPECT_TRUE(bitwiseEqual(col, running));
}

TEST(Elementwise, ReluAndGrad)
{
    Tensor a = Tensor::fromVector({4}, {-1.0f, 0.0f, 2.0f, -3.0f});
    Tensor y = ops::relu(a);
    EXPECT_FLOAT_EQ(y(0), 0.0f);
    EXPECT_FLOAT_EQ(y(2), 2.0f);
    Tensor g = Tensor::ones({4});
    Tensor dx = ops::reluGrad(g, a);
    EXPECT_FLOAT_EQ(dx(0), 0.0f);
    EXPECT_FLOAT_EQ(dx(2), 1.0f);
}

TEST(Elementwise, Prelu)
{
    Tensor a = Tensor::fromVector({2}, {-2.0f, 4.0f});
    Tensor y = ops::prelu(a, 0.25f);
    EXPECT_FLOAT_EQ(y(0), -0.5f);
    EXPECT_FLOAT_EQ(y(1), 4.0f);
    Tensor g = Tensor::ones({2});
    EXPECT_FLOAT_EQ(ops::preluGradInput(g, a, 0.25f)(0), 0.25f);
    EXPECT_FLOAT_EQ(ops::preluGradSlope(g, a), -2.0f);
}

TEST(Elementwise, SigmoidTanhExpLog)
{
    Tensor a = Tensor::fromVector({2}, {0.0f, 1.0f});
    EXPECT_FLOAT_EQ(ops::sigmoid(a)(0), 0.5f);
    EXPECT_NEAR(ops::tanh(a)(1), std::tanh(1.0f), 1e-6f);
    EXPECT_NEAR(ops::exp(a)(1), std::exp(1.0f), 1e-5f);
    Tensor p = Tensor::fromVector({2}, {1.0f, static_cast<float>(M_E)});
    EXPECT_NEAR(ops::log(p)(1), 1.0f, 1e-6f);
}

TEST(Elementwise, SigmoidGradMatchesDerivative)
{
    Tensor a = Tensor::fromVector({1}, {0.3f});
    Tensor y = ops::sigmoid(a);
    Tensor g = Tensor::ones({1});
    float expected = y(0) * (1.0f - y(0));
    EXPECT_NEAR(ops::sigmoidGrad(g, y)(0), expected, 1e-6f);
}

TEST(Elementwise, DropoutMaskConsistent)
{
    Rng rng(3);
    Tensor a = Tensor::full({1000}, 2.0f);
    Tensor mask;
    Tensor y = ops::dropout(a, 0.4f, rng, &mask);
    int zeros = 0;
    for (int64_t i = 0; i < y.numel(); ++i) {
        EXPECT_FLOAT_EQ(y(i), a(i) * mask(i));
        zeros += y(i) == 0.0f;
    }
    EXPECT_NEAR(zeros / 1000.0, 0.4, 0.06);
    // Inverted dropout preserves the expectation.
    double sum = 0;
    for (int64_t i = 0; i < y.numel(); ++i)
        sum += y(i);
    EXPECT_NEAR(sum / y.numel(), 2.0, 0.25);
}

TEST(Elementwise, AddBiasRows)
{
    Tensor a = Tensor::zeros({2, 3});
    Tensor b = Tensor::fromVector({3}, {1, 2, 3});
    Tensor y = ops::addBiasRows(a, b);
    EXPECT_FLOAT_EQ(y(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(y(1, 2), 3.0f);
}

TEST(Elementwise, ConcatAndSliceRows)
{
    Tensor a = Tensor::full({2, 2}, 1.0f);
    Tensor b = Tensor::full({3, 2}, 2.0f);
    Tensor c = ops::concatRows({a, b});
    EXPECT_EQ(c.size(0), 5);
    EXPECT_FLOAT_EQ(c(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(c(4, 1), 2.0f);
    Tensor s = ops::sliceRows(c, 2, 5);
    EXPECT_EQ(s.size(0), 3);
    EXPECT_FLOAT_EQ(s(0, 0), 2.0f);
}

TEST(Elementwise, ConcatCols)
{
    Tensor a = Tensor::full({2, 2}, 1.0f);
    Tensor b = Tensor::full({2, 3}, 2.0f);
    Tensor c = ops::concatCols(a, b);
    EXPECT_EQ(c.size(1), 5);
    EXPECT_FLOAT_EQ(c(1, 1), 1.0f);
    EXPECT_FLOAT_EQ(c(1, 2), 2.0f);
}

TEST(Elementwise, Transpose2d)
{
    Tensor a = iota({2, 3});
    Tensor t = ops::transpose2d(a);
    EXPECT_EQ(t.size(0), 3);
    for (int64_t i = 0; i < 2; ++i) {
        for (int64_t j = 0; j < 3; ++j)
            EXPECT_FLOAT_EQ(t(j, i), a(i, j));
    }
}

TEST(Elementwise, EmitsKernelsWhenDeviceBound)
{
    GpuDevice dev;
    Profiler prof;
    dev.addObserver(&prof);
    Tensor a = iota({64, 64});
    {
        ContextGuard guard(&dev);
        ops::relu(a);
    }
    EXPECT_EQ(prof.totalLaunches(), 1);
    EXPECT_GT(prof.classStats(OpClass::ElementWise).timeSec, 0);
}

TEST(Elementwise, NoEmissionWithoutDevice)
{
    GpuDevice dev;
    Profiler prof;
    dev.addObserver(&prof);
    Tensor a = iota({8, 8});
    ops::relu(a); // no ContextGuard
    EXPECT_EQ(prof.totalLaunches(), 0);
}

TEST(ElementwiseDeath, ShapeMismatchPanics)
{
    Tensor a = Tensor::zeros({2, 2});
    Tensor b = Tensor::zeros({3, 2});
    EXPECT_DEATH(ops::add(a, b), "shape mismatch");
}

/** Property sweep: add/mul identities over many sizes. */
class ElementwiseSizes : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(ElementwiseSizes, AddZeroIsIdentity)
{
    Rng rng(GetParam());
    Tensor a = Tensor::randn({GetParam()}, rng);
    EXPECT_TRUE(allClose(ops::add(a, Tensor::zeros({GetParam()})), a));
}

TEST_P(ElementwiseSizes, MulOneIsIdentity)
{
    Rng rng(GetParam() + 1);
    Tensor a = Tensor::randn({GetParam()}, rng);
    EXPECT_TRUE(allClose(ops::mul(a, Tensor::ones({GetParam()})), a));
}

TEST_P(ElementwiseSizes, ReluIdempotent)
{
    Rng rng(GetParam() + 2);
    Tensor a = Tensor::randn({GetParam()}, rng);
    Tensor once = ops::relu(a);
    EXPECT_TRUE(allClose(ops::relu(once), once));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ElementwiseSizes,
                         ::testing::Values(1, 7, 32, 100, 1000, 4097));

/**
 * The lane-blocked maps against a plain scalar loop of the same
 * expression, bit for bit, at lengths around the 8-lane block and the
 * 4096-element chunk.
 */
class ElementwiseLanes : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(ElementwiseLanes, MapsMatchScalarLoopBitwise)
{
    const int64_t n = GetParam();
    Rng rng(static_cast<uint64_t>(n) + 100);
    const std::vector<float> a = edgeValues(rng, n);
    const std::vector<float> b = edgeValues(rng, n);
    const Tensor ta = Tensor::fromVector({n}, a);
    const Tensor tb = Tensor::fromVector({n}, b);

    const struct
    {
        const char *name;
        Tensor (*op)(const Tensor &);
        float (*ref)(float);
    } unary[] = {
        {"scale", [](const Tensor &t) { return ops::scale(t, -1.5f); },
         [](float x) { return -1.5f * x; }},
        {"addScalar",
         [](const Tensor &t) { return ops::addScalar(t, 0.25f); },
         [](float x) { return x + 0.25f; }},
        {"relu", &ops::relu, [](float x) { return x > 0 ? x : 0.0f; }},
        {"prelu", [](const Tensor &t) { return ops::prelu(t, 0.2f); },
         [](float x) { return x >= 0 ? x : 0.2f * x; }},
        {"sigmoid", &ops::sigmoid,
         [](float x) { return 1.0f / (1.0f + std::exp(-x)); }},
        {"tanh", &ops::tanh, [](float x) { return std::tanh(x); }},
        {"exp", &ops::exp, [](float x) { return std::exp(x); }},
        {"log", &ops::log, [](float x) { return std::log(x); }},
    };
    for (const auto &u : unary) {
        std::vector<float> want(n);
        for (int64_t i = 0; i < n; ++i)
            want[i] = u.ref(a[i]);
        EXPECT_TRUE(bitwiseEqual(u.op(ta), want)) << u.name << " n=" << n;
    }

    const struct
    {
        const char *name;
        Tensor (*op)(const Tensor &, const Tensor &);
        float (*ref)(float, float);
    } binary[] = {
        {"add", &ops::add, [](float x, float y) { return x + y; }},
        {"sub", &ops::sub, [](float x, float y) { return x - y; }},
        {"mul", &ops::mul, [](float x, float y) { return x * y; }},
        {"div", &ops::div, [](float x, float y) { return x / y; }},
        {"reluGrad", &ops::reluGrad,
         [](float g, float x) { return x > 0 ? g : 0.0f; }},
        {"preluGradInput",
         [](const Tensor &g, const Tensor &x) {
             return ops::preluGradInput(g, x, 0.2f);
         },
         [](float g, float x) { return x >= 0 ? g : 0.2f * g; }},
        {"sigmoidGrad", &ops::sigmoidGrad,
         [](float g, float v) { return g * v * (1.0f - v); }},
        {"tanhGrad", &ops::tanhGrad,
         [](float g, float v) { return g * (1.0f - v * v); }},
    };
    for (const auto &op : binary) {
        std::vector<float> want(n);
        for (int64_t i = 0; i < n; ++i)
            want[i] = op.ref(a[i], b[i]);
        EXPECT_TRUE(bitwiseEqual(op.op(ta, tb), want))
            << op.name << " n=" << n;
    }

    Tensor acc = Tensor::fromVector({n}, a);
    ops::addInto(acc, tb);
    std::vector<float> want(n);
    for (int64_t i = 0; i < n; ++i)
        want[i] = a[i] + b[i];
    EXPECT_TRUE(bitwiseEqual(acc, want)) << "addInto n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Lengths, ElementwiseLanes,
                         ::testing::Values(1, 7, 8, 9, 4095, 4096, 4097,
                                           70001));
