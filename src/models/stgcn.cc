#include "models/stgcn.hh"

#include <cmath>

#include "base/logging.hh"
#include "graph/graph.hh"

namespace gnnmark {

namespace {

/** Kaiming-ish init for a conv filter [K, C, R, S]. */
Tensor
convInit(int64_t k, int64_t c, int64_t r, int64_t s, Rng &rng)
{
    const float std_dev =
        std::sqrt(2.0f / static_cast<float>(c * r * s));
    return Tensor::randn({k, c, r, s}, rng, std_dev);
}

/**
 * Apply the (sparse) graph aggregation along the node axis of a
 * [B, C, T, N] tensor via one large SpMM over [N, B*C*T].
 */
Variable
spatialAggregate(const Variable &x, const SparseMatrix &adj,
                 const SparseMatrix &adj_t)
{
    const auto &shape = x.value().shape();
    const int64_t rows = shape[0] * shape[1] * shape[2];
    const int64_t n = shape[3];
    Variable flat = ag::reshape(x, {rows, n});
    Variable nodes_major = ag::transpose2d(flat);
    Variable agg = ag::spmm(adj, adj_t, nodes_major);
    return ag::reshape(ag::transpose2d(agg), shape);
}

} // namespace

StConvBlock::StConvBlock(int64_t c_in, int64_t c_mid, int64_t c_out,
                         Rng &rng)
    : convA1_(addParam(convInit(c_mid, c_in, 3, 1, rng))),
      convB1_(addParam(convInit(c_mid, c_in, 3, 1, rng))),
      theta_(addParam(convInit(c_mid, c_mid, 1, 1, rng))),
      convA2_(addParam(convInit(c_out, c_mid, 3, 1, rng))),
      convB2_(addParam(convInit(c_out, c_mid, 3, 1, rng)))
{
}

Variable
StConvBlock::temporalGlu(const Variable &x, const Variable &wa,
                         const Variable &wb) const
{
    return nn::glu(ag::conv2d(x, wa), ag::conv2d(x, wb));
}

Variable
StConvBlock::forward(const Variable &x, const SparseMatrix &adj,
                     const SparseMatrix &adj_t) const
{
    Variable t1 = temporalGlu(x, convA1_, convB1_);
    Variable mixed = ag::conv2d(t1, theta_);
    Variable s = ag::relu(spatialAggregate(mixed, adj, adj_t));
    return temporalGlu(s, convA2_, convB2_);
}

void
Stgcn::setup(const WorkloadConfig &config)
{
    cfg_ = config;
    rng_.emplace(config.seed ^ 0x53544743u); // "STGC"
    const double s = checkedScale(config.scale);

    const int64_t sensors = std::max<int64_t>(32, 207 * s);
    const int64_t steps = std::max<int64_t>(64, 600 * s);
    data_ = gen::traffic(*rng_, sensors, steps);
    adj_ = data_.sensors.gcnNormAdjacency();
    adjT_ = adj_; // symmetric by construction
    adj_.csr().validate();

    block1_ = std::make_unique<StConvBlock>(1, 12, 24, *rng_);
    block2_ = std::make_unique<StConvBlock>(24, 24, 36, *rng_);
    // After two blocks the window shrinks 12 -> 4; the output conv
    // collapses the remaining time axis to one step.
    outConv_ = Variable::param(convInit(1, 36, window_ - 8, 1, *rng_));

    std::vector<Variable> params = block1_->parameters();
    for (const auto &p : block2_->parameters())
        params.push_back(p);
    params.push_back(outConv_);
    optim_ = std::make_unique<nn::Adam>(std::move(params), 1e-3f);
}

float
Stgcn::trainIteration()
{
    const int64_t n = data_.sensors.numNodes();
    const int64_t total_steps = data_.series.size(0);

    // Under DDP the global batch is sharded across replicas.
    const int64_t local_batch =
        std::max<int64_t>(1, batch_ / cfg_.worldSize);

    Tensor input = Tensor::zeros({local_batch, 1, window_, n});
    Tensor target = Tensor::zeros({local_batch, n});
    for (int64_t b = 0; b < local_batch; ++b) {
        const int64_t t0 = static_cast<int64_t>(rng_->randint(
            static_cast<uint64_t>(total_steps - window_ - 1)));
        for (int64_t t = 0; t < window_; ++t) {
            for (int64_t v = 0; v < n; ++v)
                input(b, 0, t, v) = data_.series(t0 + t, v);
        }
        for (int64_t v = 0; v < n; ++v)
            target(b, v) = data_.series(t0 + window_, v);
    }
    uploadInput(input, "speed_window");
    uploadInput(target, "speed_target");

    Variable x(input);
    Variable h1 = block1_->forward(x, adj_, adjT_);
    Variable h2 = block2_->forward(h1, adj_, adjT_);
    Variable out = ag::conv2d(h2, outConv_); // [B, 1, 1, N]
    Variable pred = ag::reshape(out, {local_batch, n});

    Variable loss = ag::mseLoss(pred, Variable(target));
    if (!cfg_.inferenceOnly) {
        optim_->zeroGrad();
        loss.backward();
        optim_->step();
    }
    return loss.value()(0);
}

int64_t
Stgcn::iterationsPerEpoch() const
{
    // One pass over the time series in non-overlapping windows.
    return std::max<int64_t>(
        1, data_.series.size(0) / (window_ * batch_));
}

double
Stgcn::parameterBytes() const
{
    return optim_->parameterBytes();
}

void
Stgcn::visitState(StateVisitor &visitor)
{
    visitor.rng(*rng_);
    visitor.optimizer(*optim_);
}

} // namespace gnnmark
