/** @file Optimiser tests. */

#include <gtest/gtest.h>

#include "nn/optim.hh"
#include "ops/var_ops.hh"

using namespace gnnmark;

namespace {

/** A quadratic with its minimum at 3. */
Variable
quadraticLoss(const Variable &x)
{
    // L = sum((x - 3)^2)
    return ag::sumAll(
        ag::mul(ag::addScalar(x, -3.0f), ag::addScalar(x, -3.0f)));
}

} // namespace

TEST(Adam, ConvergesOnQuadratic)
{
    Variable p = Variable::param(Tensor::full({4}, 10.0f));
    nn::Adam opt({p}, 0.2f);
    for (int i = 0; i < 300; ++i) {
        opt.zeroGrad();
        quadraticLoss(p).backward();
        opt.step();
    }
    for (int64_t j = 0; j < 4; ++j)
        EXPECT_NEAR(p.value()(j), 3.0f, 0.05f);
}

TEST(Adam, FirstStepIsLrSized)
{
    Variable p = Variable::param(Tensor::full({1}, 0.0f));
    nn::Adam opt({p}, 0.01f);
    opt.zeroGrad();
    ag::sumAll(ag::scale(p, 5.0f)).backward();
    opt.step();
    // Bias-corrected Adam moves ~lr on the first step.
    EXPECT_NEAR(p.value()(0), -0.01f, 1e-4f);
}

TEST(Optimizer, ParameterBytes)
{
    Variable a = Variable::param(Tensor::zeros({10, 10}));
    Variable b = Variable::param(Tensor::zeros({5}));
    nn::Adam opt({a, b}, 0.1f);
    EXPECT_DOUBLE_EQ(opt.parameterBytes(), (100 + 5) * 4.0);
}

TEST(Optimizer, ZeroGradClearsAll)
{
    Variable p = Variable::param(Tensor::full({2}, 1.0f));
    nn::Adam opt({p}, 0.1f);
    ag::sumAll(p).backward();
    EXPECT_TRUE(p.hasGrad());
    opt.zeroGrad();
    EXPECT_FALSE(p.hasGrad());
}

TEST(OptimizerDeath, RejectsNonTrainableParams)
{
    Variable frozen(Tensor::zeros({2}));
    EXPECT_DEATH(nn::Adam({frozen}, 0.1f), "non-trainable");
}
