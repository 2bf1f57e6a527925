/** @file Reverse-mode autograd tests: finite-difference checks for
 *  every differentiable operator plus graph-structure behaviour. */

#include <gtest/gtest.h>

#include <functional>

#include "base/rng.hh"
#include "ops/var_ops.hh"

using namespace gnnmark;

namespace {

/**
 * Check d(sum(f(x)))/dx against central differences for a few probe
 * elements.
 */
void
checkGrad(Tensor x, const std::function<Variable(const Variable &)> &f,
          float tol = 2e-2f, float eps = 1e-3f)
{
    Variable vx = Variable::param(x);
    Variable y = ag::sumAll(f(vx));
    y.backward();
    const Tensor &grad = vx.grad();

    Rng probe_rng(x.numel() * 31 + 7);
    const int probes = static_cast<int>(
        std::min<int64_t>(8, x.numel()));
    for (int p = 0; p < probes; ++p) {
        const int64_t idx = static_cast<int64_t>(probe_rng.randint(
            static_cast<uint64_t>(x.numel())));
        const float saved = x.data()[idx];
        auto eval = [&]() {
            Variable v(x);
            Variable out = f(v);
            double s = 0;
            for (int64_t i = 0; i < out.value().numel(); ++i)
                s += out.value().data()[i];
            return s;
        };
        x.data()[idx] = saved + eps;
        double plus = eval();
        x.data()[idx] = saved - eps;
        double minus = eval();
        x.data()[idx] = saved;
        const double numeric = (plus - minus) / (2.0 * eps);
        EXPECT_NEAR(grad.data()[idx], numeric,
                    tol * (1.0 + std::abs(numeric)))
            << "probe " << idx;
    }
}

} // namespace

TEST(Autograd, LeafGradAccumulates)
{
    Variable x = Variable::param(Tensor::full({3}, 2.0f));
    Variable y = ag::sumAll(ag::mul(x, x));
    y.backward();
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_NEAR(x.grad()(i), 4.0f, 1e-5f);
}

TEST(Autograd, DiamondReuseSumsGradients)
{
    Variable x = Variable::param(Tensor::full({2}, 3.0f));
    // y = x + x: dy/dx = 2
    Variable y = ag::sumAll(ag::add(x, x));
    y.backward();
    EXPECT_NEAR(x.grad()(0), 2.0f, 1e-6f);
}

TEST(Autograd, DetachBlocksGradient)
{
    Variable x = Variable::param(Tensor::full({2}, 3.0f));
    Variable y = ag::sumAll(ag::mul(x.detach(), x));
    y.backward();
    // Only the non-detached factor contributes.
    EXPECT_NEAR(x.grad()(0), 3.0f, 1e-6f);
}

TEST(Autograd, ZeroGradResets)
{
    Variable x = Variable::param(Tensor::full({1}, 1.0f));
    ag::sumAll(ag::scale(x, 2.0f)).backward();
    EXPECT_NEAR(x.grad()(0), 2.0f, 1e-6f);
    x.zeroGrad();
    EXPECT_FALSE(x.hasGrad());
    ag::sumAll(ag::scale(x, 5.0f)).backward();
    EXPECT_NEAR(x.grad()(0), 5.0f, 1e-6f);
}

TEST(Autograd, NoGradGraphWhenNoParamInvolved)
{
    Variable a(Tensor::full({2}, 1.0f));
    Variable b(Tensor::full({2}, 2.0f));
    Variable c = ag::add(a, b);
    EXPECT_FALSE(c.requiresGrad());
}

TEST(AutogradGradCheck, ElementwiseOps)
{
    Rng rng(41);
    Tensor x = Tensor::randn({4, 5}, rng);
    checkGrad(x.clone(), [](const Variable &v) { return ag::relu(v); });
    checkGrad(x.clone(),
              [](const Variable &v) { return ag::sigmoid(v); });
    checkGrad(x.clone(), [](const Variable &v) { return ag::tanh(v); });
    checkGrad(x.clone(), [](const Variable &v) { return ag::exp(v); });
    checkGrad(x.clone(),
              [](const Variable &v) { return ag::scale(v, -1.7f); });
    checkGrad(x.clone(),
              [](const Variable &v) { return ag::addScalar(v, 3.0f); });
}

TEST(AutogradGradCheck, BinaryOps)
{
    Rng rng(42);
    Tensor x = Tensor::randn({3, 4}, rng);
    Tensor other = Tensor::randn({3, 4}, rng);
    Variable o(other);
    checkGrad(x.clone(),
              [&](const Variable &v) { return ag::add(v, o); });
    checkGrad(x.clone(),
              [&](const Variable &v) { return ag::sub(v, o); });
    checkGrad(x.clone(),
              [&](const Variable &v) { return ag::mul(v, o); });
}

TEST(AutogradGradCheck, Div)
{
    Rng rng(142);
    Tensor x = Tensor::randn({3, 4}, rng);
    Tensor denom = Tensor::uniform({3, 4}, rng, 0.5f, 2.0f);
    Variable d(denom);
    checkGrad(x.clone(),
              [&](const Variable &v) { return ag::div(v, d); });
    // Gradient wrt the denominator.
    Tensor num = Tensor::randn({3, 4}, rng);
    Variable nvar(num);
    checkGrad(denom.clone(),
              [&](const Variable &v) { return ag::div(nvar, v); });
}

TEST(AutogradGradCheck, GemmAllTransposes)
{
    Rng rng(43);
    for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
            Tensor x = ta ? Tensor::randn({6, 4}, rng)
                          : Tensor::randn({4, 6}, rng);
            Tensor w = tb ? Tensor::randn({5, 6}, rng)
                          : Tensor::randn({6, 5}, rng);
            // Grad wrt first operand.
            Variable vw(w);
            checkGrad(x.clone(), [&](const Variable &v) {
                return ag::gemm(v, vw,
                                {.trans_a = ta, .trans_b = tb});
            });
            // Grad wrt second operand.
            Variable vx(x);
            checkGrad(w.clone(), [&](const Variable &v) {
                return ag::gemm(vx, v,
                                {.trans_a = ta, .trans_b = tb});
            });
        }
    }
}

TEST(AutogradGradCheck, Spmm)
{
    Rng rng(44);
    std::vector<std::tuple<int32_t, int32_t, float>> triples;
    for (int32_t r = 0; r < 6; ++r) {
        for (int32_t c = 0; c < 5; ++c) {
            if (rng.bernoulli(0.4)) {
                triples.emplace_back(r, c,
                                     static_cast<float>(rng.normal()));
            }
        }
    }
    SparseMatrix a(csrFromTriples(6, 5, triples));
    std::vector<std::tuple<int32_t, int32_t, float>> t_triples;
    const CsrMatrix &ac = a.csr();
    for (int64_t r = 0; r < 6; ++r) {
        for (int32_t e = ac.rowPtr[r]; e < ac.rowPtr[r + 1]; ++e) {
            t_triples.emplace_back(ac.colIdx[e],
                                   static_cast<int32_t>(r), ac.vals[e]);
        }
    }
    SparseMatrix at(csrFromTriples(5, 6, t_triples));
    Tensor x = Tensor::randn({5, 3}, rng);
    checkGrad(x.clone(), [&](const Variable &v) {
        return ag::spmm(a, at, v);
    });
}

TEST(AutogradGradCheck, BiasSoftmaxSlices)
{
    Rng rng(45);
    Tensor x = Tensor::randn({4, 6}, rng);
    Variable bias = Variable(Tensor::randn({6}, rng));
    checkGrad(x.clone(), [&](const Variable &v) {
        return ag::addBiasRows(v, bias);
    });
    checkGrad(x.clone(),
              [](const Variable &v) { return ag::softmaxRows(v); });
    checkGrad(x.clone(),
              [](const Variable &v) { return ag::logSoftmaxRows(v); });
    checkGrad(x.clone(), [](const Variable &v) {
        return ag::sliceCols(v, 2, 5);
    });
    checkGrad(x.clone(),
              [](const Variable &v) { return ag::transpose2d(v); });
    checkGrad(x.clone(), [](const Variable &v) {
        return ag::reshape(v, {2, 12});
    });
    checkGrad(x.clone(),
              [](const Variable &v) { return ag::meanRows(v); });
}

TEST(AutogradGradCheck, BiasGradient)
{
    Rng rng(46);
    Tensor bias = Tensor::randn({6}, rng);
    Variable x(Tensor::randn({4, 6}, rng));
    checkGrad(bias.clone(), [&](const Variable &v) {
        return ag::addBiasRows(x, v);
    });
}

TEST(AutogradGradCheck, IndexOps)
{
    Rng rng(47);
    Tensor x = Tensor::randn({5, 3}, rng);
    std::vector<int32_t> idx = {4, 0, 2, 0};
    checkGrad(x.clone(), [&](const Variable &v) {
        return ag::indexSelectRows(v, idx);
    });
    checkGrad(x.clone(), [&](const Variable &v) {
        return ag::gatherRows(v, idx);
    });
    Tensor src = Tensor::randn({4, 3}, rng);
    checkGrad(src.clone(), [&](const Variable &v) {
        return ag::scatterSumRows(v, idx, 5);
    });
}

TEST(AutogradGradCheck, SegmentOps)
{
    Rng rng(48);
    Tensor x = Tensor::randn({6, 2}, rng);
    std::vector<int32_t> offsets = {0, 2, 2, 6};
    checkGrad(x.clone(), [&](const Variable &v) {
        return ag::segmentSumRows(v, offsets);
    });
    checkGrad(x.clone(), [&](const Variable &v) {
        return ag::segmentMeanRows(v, offsets);
    });
}

TEST(AutogradGradCheck, ConcatOps)
{
    Rng rng(49);
    Tensor x = Tensor::randn({3, 4}, rng);
    Variable other(Tensor::randn({2, 4}, rng));
    checkGrad(x.clone(), [&](const Variable &v) {
        return ag::concatRows({v, other});
    });
    Variable cols(Tensor::randn({3, 2}, rng));
    checkGrad(x.clone(), [&](const Variable &v) {
        return ag::concatCols(v, cols);
    });
}

TEST(AutogradGradCheck, Conv2dAndNorms)
{
    Rng rng(50);
    Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
    Variable w(Tensor::randn({2, 2, 3, 3}, rng));
    checkGrad(x.clone(), [&](const Variable &v) {
        return ag::conv2d(v, w);
    }, 5e-2f);

    Tensor feats = Tensor::randn({16, 5}, rng);
    Variable gamma = Variable(Tensor::ones({5}));
    Variable beta = Variable(Tensor::zeros({5}));
    checkGrad(feats.clone(), [&](const Variable &v) {
        return ag::batchNorm(v, gamma, beta);
    }, 5e-2f);
    checkGrad(feats.clone(), [&](const Variable &v) {
        return ag::layerNorm(v, gamma, beta);
    }, 5e-2f);
}

TEST(AutogradGradCheck, Losses)
{
    Rng rng(51);
    Tensor logits = Tensor::randn({6, 4}, rng);
    std::vector<int32_t> labels = {0, 3, 1, 2, 3, 0};
    checkGrad(logits.clone(), [&](const Variable &v) {
        return ag::nllLoss(ag::logSoftmaxRows(v), labels);
    });

    Tensor pred = Tensor::randn({5, 2}, rng);
    Variable target(Tensor::randn({5, 2}, rng));
    checkGrad(pred.clone(), [&](const Variable &v) {
        return ag::mseLoss(v, target);
    });

    Tensor x = Tensor::randn({4, 3}, rng);
    Tensor y = Tensor::zeros({4, 3});
    for (int64_t i = 0; i < y.numel(); ++i)
        y.data()[i] = rng.bernoulli(0.5) ? 1.0f : 0.0f;
    checkGrad(x.clone(), [&](const Variable &v) {
        return ag::bceWithLogits(v, y);
    });
}

TEST(Autograd, BackwardOnNonScalarWithSeed)
{
    Variable x = Variable::param(Tensor::full({3}, 2.0f));
    Variable y = ag::mul(x, x);
    Tensor seed = Tensor::fromVector({3}, {1.0f, 0.0f, 2.0f});
    y.backward(seed);
    EXPECT_NEAR(x.grad()(0), 4.0f, 1e-6f);
    EXPECT_NEAR(x.grad()(1), 0.0f, 1e-6f);
    EXPECT_NEAR(x.grad()(2), 8.0f, 1e-6f);
}

TEST(AutogradDeath, BackwardOnNonGradVariablePanics)
{
    Variable x(Tensor::zeros({2}));
    EXPECT_DEATH(x.backward(), "non-grad");
}
