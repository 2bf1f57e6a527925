/** @file Convolution and normalisation tests (with gradient checks). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "common/thread_count_guard.hh"
#include "ops/batchnorm.hh"
#include "ops/conv2d.hh"
#include "ops/dispatch.hh"

using namespace gnnmark;

namespace {

/** Numerically differentiate sum(conv2d(x, w)) wrt one element. */
float
numericConvGrad(Tensor &pert, const Tensor &input, const Tensor &weight,
                int pad, int64_t flat_index)
{
    const float eps = 1e-2f;
    float *slot = pert.data() + flat_index;
    const float saved = *slot;
    auto total = [&]() {
        Tensor out = ops::conv2d(input, weight, pad);
        double s = 0;
        for (int64_t i = 0; i < out.numel(); ++i)
            s += out.data()[i];
        return s;
    };
    *slot = saved + eps;
    double plus = total();
    *slot = saved - eps;
    double minus = total();
    *slot = saved;
    return static_cast<float>((plus - minus) / (2 * eps));
}

/** Every output of one batch-norm forward and backward pass. */
struct BatchNormOutputs
{
    std::vector<float> y, xhat, mean, invStd, gradX, gradGamma, gradBeta;
};

/**
 * The column-loop batch norm that the row-walking kernels replaced,
 * kept as their bitwise reference: each column is summed over the rows
 * in ascending order, in double, one column at a time.
 */
BatchNormOutputs
referenceBatchNorm(const std::vector<float> &x,
                   const std::vector<float> &gamma,
                   const std::vector<float> &beta,
                   const std::vector<float> &grad_out, int64_t n,
                   int64_t f, float eps)
{
    BatchNormOutputs r;
    r.y.resize(n * f);
    r.xhat.resize(n * f);
    r.mean.resize(f);
    r.invStd.resize(f);
    r.gradX.resize(n * f);
    r.gradGamma.resize(f);
    r.gradBeta.resize(f);
    for (int64_t j = 0; j < f; ++j) {
        double sum = 0.0, sq = 0.0;
        for (int64_t i = 0; i < n; ++i) {
            const double v = x[i * f + j];
            sum += v;
            sq += v * v;
        }
        const double mean = sum / n;
        const double var = std::max(0.0, sq / n - mean * mean);
        r.mean[j] = static_cast<float>(mean);
        r.invStd[j] = static_cast<float>(1.0 / std::sqrt(var + eps));
    }
    for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < f; ++j) {
            const float xh = (x[i * f + j] - r.mean[j]) * r.invStd[j];
            r.xhat[i * f + j] = xh;
            r.y[i * f + j] = gamma[j] * xh + beta[j];
        }
    }
    for (int64_t j = 0; j < f; ++j) {
        double sum_g = 0.0, sum_gx = 0.0;
        for (int64_t i = 0; i < n; ++i) {
            sum_g += grad_out[i * f + j];
            sum_gx += grad_out[i * f + j] * r.xhat[i * f + j];
        }
        r.gradBeta[j] = static_cast<float>(sum_g);
        r.gradGamma[j] = static_cast<float>(sum_gx);
        const float inv_n = 1.0f / static_cast<float>(n);
        for (int64_t i = 0; i < n; ++i) {
            r.gradX[i * f + j] =
                gamma[j] * r.invStd[j] *
                (grad_out[i * f + j] - static_cast<float>(sum_g) * inv_n -
                 r.xhat[i * f + j] * static_cast<float>(sum_gx) * inv_n);
        }
    }
    return r;
}

/** Uniform values with exact zeros and negative zeros mixed in. */
float
signedZeroOr(Rng &rng, float lo, float hi)
{
    const double u = rng.uniform();
    if (u < 0.1)
        return 0.0f;
    if (u < 0.2)
        return -0.0f;
    return rng.uniform(lo, hi);
}

bool
bitwiseEqual(const Tensor &t, const std::vector<float> &want)
{
    return t.numel() == static_cast<int64_t>(want.size()) &&
           std::memcmp(t.data(), want.data(),
                       want.size() * sizeof(float)) == 0;
}

/** ReLU-like activations: a run of four zeros (some of them -0.0) in
 *  every twenty values, and scattered -0.0 between uniform values. */
std::vector<float>
reluLike(Rng &rng, int64_t count)
{
    std::vector<float> v(count);
    for (int64_t i = 0; i < count; ++i) {
        const float u = rng.uniform(-1.0f, 1.0f);
        if ((i / 4) % 5 == 0)
            v[i] = i % 3 == 0 ? -0.0f : 0.0f;
        else
            v[i] = u < -0.8f ? -0.0f : u;
    }
    return v;
}

/** Convolution geometry of the reference loops below. */
struct RefConvDims
{
    int64_t n, c, h, w; // input
    int64_t k, r, s;    // filters
    int64_t oh, ow;     // output
};

/** Patch matrix [N*OH*OW, C*R*S] of an NCHW input, zero-padded. */
std::vector<float>
referenceIm2col(const std::vector<float> &input, const RefConvDims &d,
                int pad)
{
    const int64_t gemm_k = d.c * d.r * d.s;
    std::vector<float> patches(d.n * d.oh * d.ow * gemm_k, 0.0f);
    int64_t m = 0;
    for (int64_t n = 0; n < d.n; ++n) {
        for (int64_t oh = 0; oh < d.oh; ++oh) {
            for (int64_t ow = 0; ow < d.ow; ++ow, ++m) {
                for (int64_t c = 0; c < d.c; ++c) {
                    for (int64_t r = 0; r < d.r; ++r) {
                        const int64_t ih = oh + r - pad;
                        for (int64_t sx = 0; sx < d.s; ++sx) {
                            const int64_t iw = ow + sx - pad;
                            if (ih >= 0 && ih < d.h && iw >= 0 &&
                                iw < d.w) {
                                patches[m * gemm_k + (c * d.r + r) * d.s +
                                        sx] =
                                    input[((n * d.c + c) * d.h + ih) *
                                              d.w +
                                          iw];
                            }
                        }
                    }
                }
            }
        }
    }
    return patches;
}

/*
 * The hand-written GEMM loops conv2d ran before it moved onto the
 * shared dispatched kernels, kept as the bitwise reference for the
 * forward, grad-input and grad-weight results.
 */

std::vector<float>
referenceConv2d(const std::vector<float> &input, const std::vector<float> &w,
                const RefConvDims &d, int pad)
{
    const int64_t gemm_m = d.n * d.oh * d.ow;
    const int64_t gemm_k = d.c * d.r * d.s;
    std::vector<float> patches = referenceIm2col(input, d, pad);
    std::vector<float> out(d.n * d.k * d.oh * d.ow);

    std::vector<float> wt(gemm_k * d.k);
    for (int64_t ko = 0; ko < d.k; ++ko) {
        for (int64_t kk = 0; kk < gemm_k; ++kk)
            wt[kk * d.k + ko] = w[ko * gemm_k + kk];
    }

    const int64_t ohow = d.oh * d.ow;
    float *po = out.data();
    parallel_for(0, gemm_m, 32, [&](int64_t m0, int64_t m1) {
        std::vector<float> out_row(d.k);
        for (int64_t m = m0; m < m1; ++m) {
            std::fill(out_row.begin(), out_row.end(), 0.0f);
            const float *prow = patches.data() + m * gemm_k;
            for (int64_t kk = 0; kk < gemm_k; ++kk) {
                const float p = prow[kk];
                if (p == 0.0f)
                    continue;
                const float *wrow = wt.data() + kk * d.k;
                for (int64_t ko = 0; ko < d.k; ++ko)
                    out_row[ko] += p * wrow[ko];
            }
            const int64_t n = m / ohow;
            const int64_t pix = m % ohow;
            for (int64_t ko = 0; ko < d.k; ++ko)
                po[(n * d.k + ko) * ohow + pix] = out_row[ko];
        }
    });
    return out;
}

std::vector<float>
referenceConv2dGradInput(const std::vector<float> &grad_out,
                         const std::vector<float> &weight,
                         const RefConvDims &d, int pad)
{
    const int64_t gemm_m = d.n * d.oh * d.ow;
    const int64_t gemm_k = d.c * d.r * d.s;
    const int64_t ohow = d.oh * d.ow;

    std::vector<float> dpatches(gemm_m * gemm_k, 0.0f);
    const float *go = grad_out.data();
    const float *w = weight.data();
    parallel_for(0, gemm_m, 32, [&](int64_t m0, int64_t m1) {
        for (int64_t m = m0; m < m1; ++m) {
            const int64_t n = m / ohow;
            const int64_t pix = m % ohow;
            float *drow = dpatches.data() + m * gemm_k;
            for (int64_t ko = 0; ko < d.k; ++ko) {
                const float g = go[(n * d.k + ko) * ohow + pix];
                if (g == 0.0f)
                    continue;
                const float *wrow = w + ko * gemm_k;
                for (int64_t kk = 0; kk < gemm_k; ++kk)
                    drow[kk] += g * wrow[kk];
            }
        }
    });

    // col2im: patch rows accumulate into the input in ascending order.
    std::vector<float> gin(d.n * d.c * d.h * d.w, 0.0f);
    int64_t m = 0;
    for (int64_t n = 0; n < d.n; ++n) {
        for (int64_t oh = 0; oh < d.oh; ++oh) {
            for (int64_t ow = 0; ow < d.ow; ++ow, ++m) {
                const float *row = dpatches.data() + m * gemm_k;
                for (int64_t c = 0; c < d.c; ++c) {
                    for (int64_t r = 0; r < d.r; ++r) {
                        const int64_t ih = oh + r - pad;
                        for (int64_t sx = 0; sx < d.s; ++sx) {
                            const int64_t iw = ow + sx - pad;
                            if (ih >= 0 && ih < d.h && iw >= 0 &&
                                iw < d.w) {
                                gin[((n * d.c + c) * d.h + ih) * d.w +
                                    iw] += row[(c * d.r + r) * d.s + sx];
                            }
                        }
                    }
                }
            }
        }
    }
    return gin;
}

std::vector<float>
referenceConv2dGradWeight(const std::vector<float> &grad_out,
                          const std::vector<float> &input,
                          const RefConvDims &d, int pad)
{
    const int64_t gemm_m = d.n * d.oh * d.ow;
    const int64_t gemm_k = d.c * d.r * d.s;
    const int64_t ohow = d.oh * d.ow;

    std::vector<float> patches = referenceIm2col(input, d, pad);
    const float *go = grad_out.data();
    const int64_t wg_elems = d.k * gemm_k;
    using Acc = std::vector<float>;
    return parallel_reduce(
        0, gemm_m, 512, Acc(wg_elems, 0.0f),
        [&](int64_t m0, int64_t m1) {
            Acc local(wg_elems, 0.0f);
            for (int64_t m = m0; m < m1; ++m) {
                const int64_t n = m / ohow;
                const int64_t pix = m % ohow;
                const float *prow = patches.data() + m * gemm_k;
                for (int64_t ko = 0; ko < d.k; ++ko) {
                    const float g = go[(n * d.k + ko) * ohow + pix];
                    if (g == 0.0f)
                        continue;
                    float *wrow = local.data() + ko * gemm_k;
                    for (int64_t kk = 0; kk < gemm_k; ++kk)
                        wrow[kk] += g * prow[kk];
                }
            }
            return local;
        },
        [&](Acc acc, const Acc &local) {
            for (int64_t i = 0; i < wg_elems; ++i)
                acc[i] += local[i];
            return acc;
        });
}

} // namespace

TEST(Conv2d, KnownSmallConvolution)
{
    // 1x1x3x3 input, 1x1x2x2 kernel of ones => sliding window sums.
    Tensor in = Tensor::fromVector({1, 1, 3, 3},
                                   {1, 2, 3, 4, 5, 6, 7, 8, 9});
    Tensor w = Tensor::ones({1, 1, 2, 2});
    Tensor out = ops::conv2d(in, w);
    EXPECT_EQ(out.shape(), (std::vector<int64_t>{1, 1, 2, 2}));
    EXPECT_FLOAT_EQ(out(0, 0, 0, 0), 12.0f);
    EXPECT_FLOAT_EQ(out(0, 0, 1, 1), 28.0f);
}

TEST(Conv2d, PaddingGrowsOutput)
{
    Tensor in = Tensor::ones({1, 1, 3, 3});
    Tensor w = Tensor::ones({1, 1, 3, 3});
    Tensor out = ops::conv2d(in, w, /*pad=*/1);
    EXPECT_EQ(out.size(2), 3);
    EXPECT_FLOAT_EQ(out(0, 0, 1, 1), 9.0f); // centre sees all 9
    EXPECT_FLOAT_EQ(out(0, 0, 0, 0), 4.0f); // corner sees 4
}

TEST(Conv2d, MultiChannelAccumulates)
{
    Rng rng(21);
    Tensor in = Tensor::randn({2, 3, 5, 4}, rng);
    Tensor w = Tensor::randn({4, 3, 2, 2}, rng);
    Tensor out = ops::conv2d(in, w);
    EXPECT_EQ(out.shape(), (std::vector<int64_t>{2, 4, 4, 3}));
    // Cross-check one output element by hand.
    double acc = 0;
    for (int64_t c = 0; c < 3; ++c) {
        for (int64_t r = 0; r < 2; ++r) {
            for (int64_t s = 0; s < 2; ++s)
                acc += in(1, c, 2 + r, 1 + s) * w(3, c, r, s);
        }
    }
    EXPECT_NEAR(out(1, 3, 2, 1), acc, 1e-4);
}

TEST(Conv2d, GradInputMatchesFiniteDifference)
{
    Rng rng(22);
    Tensor in = Tensor::randn({1, 2, 4, 4}, rng);
    Tensor w = Tensor::randn({2, 2, 3, 3}, rng);
    Tensor gout = Tensor::ones({1, 2, 2, 2});
    Tensor gin = ops::conv2dGradInput(gout, w, in, 0);
    for (int64_t idx : {0L, 5L, 17L, 31L}) {
        float numeric = numericConvGrad(in, in, w, 0, idx);
        EXPECT_NEAR(gin.data()[idx], numeric, 5e-2)
            << "at flat index " << idx;
    }
}

TEST(Conv2d, GradWeightMatchesFiniteDifference)
{
    Rng rng(23);
    Tensor in = Tensor::randn({1, 2, 4, 4}, rng);
    Tensor w = Tensor::randn({2, 2, 3, 3}, rng);
    Tensor gout = Tensor::ones({1, 2, 2, 2});
    Tensor gw = ops::conv2dGradWeight(gout, in, w, 0);
    for (int64_t idx : {0L, 7L, 20L, 35L}) {
        float numeric = numericConvGrad(w, in, w, 0, idx);
        EXPECT_NEAR(gw.data()[idx], numeric, 5e-2)
            << "at flat index " << idx;
    }
}

TEST(Conv2d, BitwiseMatchesScalarLoopReference)
{
    // N*OH*OW runs from 600 to 840: more than one 512-row grad-weight
    // chunk and never a multiple of it. K = 1 and 5 take the scalar
    // column tail, 24 and 72 the 16-wide and 8-wide tiles; both C*R*S
    // are odd, and 21 also tiles grad-input and grad-weight.
    const int64_t n = 4, h = 12, w = 15;
    const struct { int64_t c, r, s; } filters[] = {{3, 3, 1}, {7, 1, 3}};
    const int64_t tiled_before =
        ops::Dispatch::instance().stats().gemmTiled;
    for (const int threads : {1, 4}) {
        test::ThreadCountGuard guard(threads);
        Rng rng(30);
        for (const auto &f : filters) {
            for (const int64_t k : {1, 5, 24, 72}) {
                for (const int pad : {0, 1}) {
                    RefConvDims d{n, f.c, h, w, k, f.r, f.s, 0, 0};
                    d.oh = h + 2 * pad - f.r + 1;
                    d.ow = w + 2 * pad - f.s + 1;
                    const std::vector<float> x =
                        reluLike(rng, n * f.c * h * w);
                    const std::vector<float> wv =
                        reluLike(rng, k * f.c * f.r * f.s);
                    const std::vector<float> g =
                        reluLike(rng, n * k * d.oh * d.ow);
                    const Tensor tx = Tensor::fromVector({n, f.c, h, w}, x);
                    const Tensor tw =
                        Tensor::fromVector({k, f.c, f.r, f.s}, wv);
                    const Tensor tg =
                        Tensor::fromVector({n, k, d.oh, d.ow}, g);
                    const std::string where =
                        "crs=" + std::to_string(f.c * f.r * f.s) +
                        " k=" + std::to_string(k) +
                        " pad=" + std::to_string(pad) +
                        " threads=" + std::to_string(threads);
                    EXPECT_TRUE(bitwiseEqual(ops::conv2d(tx, tw, pad),
                                             referenceConv2d(x, wv, d, pad)))
                        << "forward " << where;
                    EXPECT_TRUE(bitwiseEqual(
                        ops::conv2dGradInput(tg, tw, tx, pad),
                        referenceConv2dGradInput(g, wv, d, pad)))
                        << "grad_input " << where;
                    EXPECT_TRUE(bitwiseEqual(
                        ops::conv2dGradWeight(tg, tx, tw, pad),
                        referenceConv2dGradWeight(g, x, d, pad)))
                        << "grad_weight " << where;
                }
            }
        }
    }
    // The shapes reach the register-tiled kernel, not only the naive one.
    EXPECT_GT(ops::Dispatch::instance().stats().gemmTiled, tiled_before);
}

TEST(Conv2dDeath, ChannelMismatchPanics)
{
    Tensor in = Tensor::zeros({1, 3, 4, 4});
    Tensor w = Tensor::zeros({2, 2, 2, 2});
    EXPECT_DEATH(ops::conv2d(in, w), "channel mismatch");
}

TEST(BatchNorm, NormalisesColumns)
{
    Rng rng(24);
    Tensor x = Tensor::randn({200, 5}, rng, 3.0f);
    // Shift each column.
    for (int64_t i = 0; i < 200; ++i) {
        for (int64_t j = 0; j < 5; ++j)
            x(i, j) += static_cast<float>(j) * 10.0f;
    }
    ops::BatchNormState state;
    Tensor y = ops::batchNorm(x, Tensor::ones({5}), Tensor::zeros({5}), 1e-5f,
                              state);
    for (int64_t j = 0; j < 5; ++j) {
        double sum = 0, sq = 0;
        for (int64_t i = 0; i < 200; ++i) {
            sum += y(i, j);
            sq += y(i, j) * y(i, j);
        }
        EXPECT_NEAR(sum / 200, 0.0, 1e-3);
        EXPECT_NEAR(sq / 200, 1.0, 1e-2);
    }
}

TEST(BatchNorm, GammaBetaApplied)
{
    Rng rng(25);
    Tensor x = Tensor::randn({50, 2}, rng);
    Tensor gamma = Tensor::fromVector({2}, {2.0f, 0.5f});
    Tensor beta = Tensor::fromVector({2}, {1.0f, -1.0f});
    ops::BatchNormState state;
    Tensor y = ops::batchNorm(x, gamma, beta, 1e-5f, state);
    double sum0 = 0;
    for (int64_t i = 0; i < 50; ++i)
        sum0 += y(i, 0);
    EXPECT_NEAR(sum0 / 50, 1.0, 1e-3); // beta shifts the mean
}

TEST(BatchNorm, BackwardGradientsSumProperty)
{
    // Sum over batch of dL/dx is ~0 for batch norm (mean subtraction).
    Rng rng(26);
    Tensor x = Tensor::randn({64, 3}, rng);
    ops::BatchNormState state;
    ops::batchNorm(x, Tensor::ones({3}), Tensor::zeros({3}), 1e-5f, state);
    Tensor gout = Tensor::randn({64, 3}, rng);
    Tensor gx, ggamma, gbeta;
    ops::batchNormBackward(gout, Tensor::ones({3}), state, gx, ggamma,
                           gbeta);
    for (int64_t j = 0; j < 3; ++j) {
        double col = 0, gb = 0;
        for (int64_t i = 0; i < 64; ++i) {
            col += gx(i, j);
            gb += gout(i, j);
        }
        EXPECT_NEAR(col, 0.0, 1e-3);
        EXPECT_NEAR(gbeta(j), gb, 1e-3);
    }
}

TEST(BatchNorm, BitwiseMatchesColumnLoopReference)
{
    const struct { int64_t n, f; } shapes[] = {
        {1, 1}, {3, 7}, {5, 8}, {17, 9}, {1632, 72},
    };
    const float eps = 1e-5f;
    for (const int threads : {1, 4}) {
        test::ThreadCountGuard guard(threads);
        Rng rng(28);
        for (const auto &s : shapes) {
            const int64_t n = s.n, f = s.f;
            std::vector<float> x(n * f), grad_out(n * f), gamma(f), beta(f);
            // Every third column sits on a large offset, so the variance
            // cancels catastrophically and any change in the order of a
            // column's sum shows in the float outputs.
            for (int64_t i = 0; i < n; ++i) {
                for (int64_t j = 0; j < f; ++j) {
                    const float v = signedZeroOr(rng, -1.0f, 1.0f);
                    x[i * f + j] = j % 3 == 0 ? 1e4f + v : v;
                }
            }
            // Huge gradients that cancel in each column do the same for
            // grad_beta and grad_gamma.
            for (int64_t i = 0; i < n; ++i) {
                for (int64_t j = 0; j < f; ++j) {
                    float g = signedZeroOr(rng, -1.0f, 1.0f);
                    if (i % 64 == 1 && i + 1 < n)
                        g = 1e12f;
                    else if (i % 64 == 2)
                        g = -1e12f;
                    grad_out[i * f + j] = g;
                }
            }
            for (int64_t j = 0; j < f; ++j) {
                gamma[j] = signedZeroOr(rng, 0.5f, 2.0f);
                beta[j] = signedZeroOr(rng, -1.0f, 1.0f);
            }
            const BatchNormOutputs want =
                referenceBatchNorm(x, gamma, beta, grad_out, n, f, eps);

            const Tensor tgamma = Tensor::fromVector({f}, gamma);
            ops::BatchNormState state;
            const Tensor y = ops::batchNorm(Tensor::fromVector({n, f}, x),
                                            tgamma,
                                            Tensor::fromVector({f}, beta),
                                            eps, state);
            Tensor gx, ggamma, gbeta;
            ops::batchNormBackward(Tensor::fromVector({n, f}, grad_out),
                                   tgamma, state, gx, ggamma, gbeta);
            const std::string where = "n=" + std::to_string(n) +
                                      " f=" + std::to_string(f) +
                                      " threads=" + std::to_string(threads);
            EXPECT_TRUE(bitwiseEqual(y, want.y)) << "y " << where;
            EXPECT_TRUE(bitwiseEqual(state.xhat, want.xhat))
                << "xhat " << where;
            EXPECT_TRUE(bitwiseEqual(state.mean, want.mean))
                << "mean " << where;
            EXPECT_TRUE(bitwiseEqual(state.invStd, want.invStd))
                << "invStd " << where;
            EXPECT_TRUE(bitwiseEqual(gx, want.gradX)) << "grad_x " << where;
            EXPECT_TRUE(bitwiseEqual(ggamma, want.gradGamma))
                << "grad_gamma " << where;
            EXPECT_TRUE(bitwiseEqual(gbeta, want.gradBeta))
                << "grad_beta " << where;
        }
    }
}

TEST(BatchNormDeath, BackwardRejectsMismatchedGamma)
{
    Rng rng(29);
    Tensor x = Tensor::randn({6, 4}, rng);
    ops::BatchNormState state;
    ops::batchNorm(x, Tensor::ones({4}), Tensor::zeros({4}), 1e-5f, state);
    Tensor gout = Tensor::randn({6, 4}, rng);
    Tensor gx, ggamma, gbeta;
    EXPECT_DEATH(ops::batchNormBackward(gout, Tensor::ones({5}), state, gx,
                                        ggamma, gbeta),
                 "gamma must be \\[4\\]");
}

TEST(LayerNorm, RowStatistics)
{
    Rng rng(28);
    Tensor x = Tensor::randn({6, 128}, rng, 2.0f);
    ops::LayerNormState state;
    Tensor y = ops::layerNorm(x, Tensor::ones({128}), Tensor::zeros({128}),
                              1e-5f, state);
    for (int64_t i = 0; i < 6; ++i) {
        double sum = 0, sq = 0;
        for (int64_t j = 0; j < 128; ++j) {
            sum += y(i, j);
            sq += y(i, j) * y(i, j);
        }
        EXPECT_NEAR(sum / 128, 0.0, 1e-3);
        EXPECT_NEAR(sq / 128, 1.0, 1e-2);
    }
}

TEST(LayerNorm, BackwardRowGradSumsToZero)
{
    Rng rng(29);
    Tensor x = Tensor::randn({8, 32}, rng);
    ops::LayerNormState state;
    ops::layerNorm(x, Tensor::ones({32}), Tensor::zeros({32}), 1e-5f, state);
    Tensor gout = Tensor::randn({8, 32}, rng);
    Tensor gx, ggamma, gbeta;
    ops::layerNormBackward(gout, Tensor::ones({32}), state, gx, ggamma,
                           gbeta);
    for (int64_t i = 0; i < 8; ++i) {
        double row = 0;
        for (int64_t j = 0; j < 32; ++j)
            row += gx(i, j);
        EXPECT_NEAR(row, 0.0, 1e-3);
    }
}
