/**
 * @file
 * Common layers: Linear, Embedding, BatchNorm/LayerNorm wrappers,
 * LSTMCell and scaled-dot attention.
 */

#ifndef GNNMARK_NN_LAYERS_HH
#define GNNMARK_NN_LAYERS_HH

#include <cstdint>
#include <vector>

#include "base/rng.hh"
#include "nn/module.hh"
#include "ops/var_ops.hh"

namespace gnnmark {
namespace nn {

/** Fully connected layer y = x W + b, Glorot-initialised. */
class Linear : public Module
{
  public:
    Linear(int64_t in, int64_t out, Rng &rng, bool bias = true);

    /** x is [N, in]; returns [N, out]. */
    Variable forward(const Variable &x) const;

  private:
    Variable weight_; ///< [in, out]
    Variable bias_;   ///< [out] (undefined if bias = false)
};

/** Token/node embedding table with IndexSelect lookups. */
class Embedding : public Module
{
  public:
    Embedding(int64_t count, int64_t dim, Rng &rng);

    /** Look up rows; returns [idx.size(), dim]. */
    Variable forward(const std::vector<int32_t> &idx) const;

    int64_t dim() const { return dim_; }

  private:
    int64_t dim_;
    Variable table_;
};

/** Learnable batch norm over [N, F]. */
class BatchNorm1d : public Module
{
  public:
    explicit BatchNorm1d(int64_t features, float eps = 1e-5f);
    Variable forward(const Variable &x) const;

  private:
    float eps_;
    Variable gamma_, beta_;
};

/** Learnable row-wise layer norm over [N, F]. */
class LayerNorm : public Module
{
  public:
    explicit LayerNorm(int64_t features, float eps = 1e-5f);
    Variable forward(const Variable &x) const;

  private:
    float eps_;
    Variable gamma_, beta_;
};

/** LSTM cell with a fused gate projection ([x, h] -> 4H), as cuDNN
 *  and production PyTorch models run it. */
class LstmCell : public Module
{
  public:
    LstmCell(int64_t input, int64_t hidden, Rng &rng);

    struct State
    {
        Variable h; ///< [N, hidden]
        Variable c; ///< [N, hidden]
    };

    /** One step; x is [N, input]. */
    State forward(const Variable &x, const State &prev) const;

    /** Zero-filled initial state for a batch of n. */
    State initial(int64_t n) const;

    int64_t hidden() const { return hidden_; }

  private:
    int64_t hidden_;
    Linear gates_; ///< [input + hidden] -> 4 * hidden (i, f, g, o)
};

/** Multi-head scaled-dot-product attention (the GEMM-heavy core of
 *  GraphWriter's graph transformer). */
class MultiheadAttention : public Module
{
  public:
    MultiheadAttention(int64_t dim, int heads, Rng &rng);

    /**
     * q [Nq, dim], k/v [Nk, dim]; returns [Nq, dim].
     */
    Variable forward(const Variable &q, const Variable &k,
                     const Variable &v) const;

  private:
    int64_t dim_;
    int heads_;
    Linear projQ_, projK_, projV_, projOut_;
};

/** Gated linear unit: a * sigmoid(b). */
Variable glu(const Variable &a, const Variable &b);

} // namespace nn
} // namespace gnnmark

#endif // GNNMARK_NN_LAYERS_HH
