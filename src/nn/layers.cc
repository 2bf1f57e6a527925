#include "nn/layers.hh"

#include <cmath>

#include "base/logging.hh"

namespace gnnmark {
namespace nn {

namespace {

/** Glorot-uniform initialisation for a [in, out] weight. */
Tensor
glorot(int64_t in, int64_t out, Rng &rng)
{
    const float bound =
        std::sqrt(6.0f / static_cast<float>(in + out));
    return Tensor::uniform({in, out}, rng, -bound, bound);
}

} // namespace

Linear::Linear(int64_t in, int64_t out, Rng &rng, bool bias)
    : weight_(addParam(glorot(in, out, rng)))
{
    if (bias)
        bias_ = addParam(Tensor::zeros({out}));
}

Variable
Linear::forward(const Variable &x) const
{
    Variable y = ag::gemm(x, weight_);
    if (bias_.defined())
        y = ag::addBiasRows(y, bias_);
    return y;
}

Embedding::Embedding(int64_t count, int64_t dim, Rng &rng)
    : dim_(dim),
      table_(addParam(Tensor::randn({count, dim}, rng, 0.1f)))
{
}

Variable
Embedding::forward(const std::vector<int32_t> &idx) const
{
    return ag::indexSelectRows(table_, idx);
}

BatchNorm1d::BatchNorm1d(int64_t features, float eps)
    : eps_(eps), gamma_(addParam(Tensor::ones({features}))),
      beta_(addParam(Tensor::zeros({features})))
{
}

Variable
BatchNorm1d::forward(const Variable &x) const
{
    return ag::batchNorm(x, gamma_, beta_, eps_);
}

LayerNorm::LayerNorm(int64_t features, float eps)
    : eps_(eps), gamma_(addParam(Tensor::ones({features}))),
      beta_(addParam(Tensor::zeros({features})))
{
}

Variable
LayerNorm::forward(const Variable &x) const
{
    return ag::layerNorm(x, gamma_, beta_, eps_);
}

LstmCell::LstmCell(int64_t input, int64_t hidden, Rng &rng)
    : hidden_(hidden), gates_(input + hidden, 4 * hidden, rng)
{
    addChild(&gates_);
}

LstmCell::State
LstmCell::forward(const Variable &x, const State &prev) const
{
    Variable fused = gates_.forward(ag::concatCols(x, prev.h));
    Variable i = ag::sigmoid(ag::sliceCols(fused, 0, hidden_));
    Variable f =
        ag::sigmoid(ag::sliceCols(fused, hidden_, 2 * hidden_));
    Variable g =
        ag::tanh(ag::sliceCols(fused, 2 * hidden_, 3 * hidden_));
    Variable o =
        ag::sigmoid(ag::sliceCols(fused, 3 * hidden_, 4 * hidden_));
    State next;
    next.c = ag::add(ag::mul(f, prev.c), ag::mul(i, g));
    next.h = ag::mul(o, ag::tanh(next.c));
    return next;
}

LstmCell::State
LstmCell::initial(int64_t n) const
{
    State s;
    s.h = Variable(Tensor::zeros({n, hidden_}));
    s.c = Variable(Tensor::zeros({n, hidden_}));
    return s;
}

MultiheadAttention::MultiheadAttention(int64_t dim, int heads, Rng &rng)
    : dim_(dim), heads_(heads), projQ_(dim, dim, rng),
      projK_(dim, dim, rng), projV_(dim, dim, rng),
      projOut_(dim, dim, rng)
{
    GNN_ASSERT(dim % heads == 0, "attention dim %lld not divisible by %d",
               static_cast<long long>(dim), heads);
    addChild(&projQ_);
    addChild(&projK_);
    addChild(&projV_);
    addChild(&projOut_);
}

Variable
MultiheadAttention::forward(const Variable &q, const Variable &k,
                            const Variable &v) const
{
    const int64_t dh = dim_ / heads_;
    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));

    Variable pq = projQ_.forward(q);
    Variable pk = projK_.forward(k);
    Variable pv = projV_.forward(v);

    Variable out;
    for (int h = 0; h < heads_; ++h) {
        Variable qh = ag::sliceCols(pq, h * dh, (h + 1) * dh);
        Variable kh = ag::sliceCols(pk, h * dh, (h + 1) * dh);
        Variable vh = ag::sliceCols(pv, h * dh, (h + 1) * dh);
        Variable scores =
            ag::scale(ag::gemm(qh, kh, {.trans_b = true}), inv_sqrt);
        Variable attn = ag::softmaxRows(scores);
        Variable ctx = ag::gemm(attn, vh);
        out = h == 0 ? ctx : ag::concatCols(out, ctx);
    }
    return projOut_.forward(out);
}

Variable
glu(const Variable &a, const Variable &b)
{
    return ag::mul(a, ag::sigmoid(b));
}

} // namespace nn
} // namespace gnnmark
