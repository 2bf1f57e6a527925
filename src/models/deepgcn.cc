#include "models/deepgcn.hh"

#include <algorithm>

#include "base/logging.hh"

namespace gnnmark {

DeepGcnLayer::DeepGcnLayer(int64_t hidden, Rng &rng)
    : mlp1_(hidden, hidden, rng), bn_(hidden)
{
    addChild(&mlp1_);
    addChild(&bn_);
}

Variable
DeepGcnLayer::forward(const Variable &h, const std::vector<int32_t> &src,
                      const std::vector<int32_t> &dst,
                      const Tensor &inv_deg) const
{
    (void)inv_deg;
    const int64_t n = h.value().size(0);
    // GENConv softmax aggregation: per-edge messages are combined per
    // destination with softmax weights — the exp/mul/div element-wise
    // chains plus gather/scatter traffic that make DGCN's profile
    // element-wise-dominated in the paper (Fig. 2).
    Variable msgs =
        ag::addScalar(ag::relu(ag::gatherRows(h, src)), 1e-7f);
    Variable expm = ag::exp(msgs);
    Variable denom = ag::scatterSumRows(expm, dst, n);
    Variable weights = ag::div(expm, ag::gatherRows(denom, dst));
    Variable weighted = ag::mul(msgs, weights);
    Variable agg = ag::scatterSumRows(weighted, dst, n);
    // Update: one projection (GENConv's MLP), batch norm, residual.
    Variable u = mlp1_.forward(ag::add(h, agg));
    return ag::add(h, ag::relu(bn_.forward(u)));
}

void
DeepGcn::setup(const WorkloadConfig &config)
{
    cfg_ = config;
    rng_.emplace(config.seed ^ 0x4447434eu); // "DGCN"
    const double s = checkedScale(config.scale);

    const int count = std::max(64, static_cast<int>(512 * s));
    dataset_ = gen::molecules(*rng_, count, 10, 24, featDim_);

    encoder_ = std::make_unique<nn::Linear>(featDim_, hidden_, *rng_);
    layers_.clear();
    for (int l = 0; l < numLayers_; ++l)
        layers_.push_back(std::make_unique<DeepGcnLayer>(hidden_, *rng_));
    readout_ = std::make_unique<nn::Linear>(hidden_, 2, *rng_);

    std::vector<Variable> params = encoder_->parameters();
    for (const auto &layer : layers_) {
        for (const auto &p : layer->parameters())
            params.push_back(p);
    }
    for (const auto &p : readout_->parameters())
        params.push_back(p);
    optim_ = std::make_unique<nn::Adam>(std::move(params), 1e-3f);
    cursor_ = 0;
}

float
DeepGcn::trainIteration()
{
    // Shard the global batch across DDP replicas.
    const int64_t local_batch =
        std::max<int64_t>(1, batch_ / cfg_.worldSize);
    const int64_t n_graphs = static_cast<int64_t>(dataset_.size());

    std::vector<SmallGraph> chosen;
    chosen.reserve(local_batch);
    for (int64_t i = 0; i < local_batch; ++i)
        chosen.push_back(dataset_[(cursor_ + i) % n_graphs]);
    cursor_ += batch_;

    GraphBatch batch = GraphBatch::build(chosen);
    uploadInput(batch.features, "atom_features");
    uploadInput(batch.graph.edgeSrc(), "edge_index");

    const int64_t n = batch.graph.numNodes();
    Tensor inv_deg = Tensor::zeros({n});
    for (int64_t v = 0; v < n; ++v) {
        // In-degree of v equals out-degree here (symmetric graphs).
        const int32_t d = std::max<int32_t>(1, batch.graph.degree(v));
        inv_deg(v) = 1.0f / static_cast<float>(d);
    }

    Variable h = ag::relu(encoder_->forward(Variable(batch.features)));
    for (const auto &layer : layers_) {
        h = layer->forward(h, batch.graph.edgeSrc(),
                           batch.graph.edgeDst(), inv_deg);
    }

    Variable pooled = ag::segmentMeanRows(h, batch.nodeOffsets);
    Variable logits = readout_->forward(pooled);
    Variable loss = nn::crossEntropy(logits, batch.labels);

    if (!cfg_.inferenceOnly) {
        optim_->zeroGrad();
        loss.backward();
        optim_->step();
    }
    return loss.value()(0);
}

int64_t
DeepGcn::iterationsPerEpoch() const
{
    return std::max<int64_t>(
        1, static_cast<int64_t>(dataset_.size()) / batch_);
}

double
DeepGcn::parameterBytes() const
{
    return optim_->parameterBytes();
}

void
DeepGcn::visitState(StateVisitor &visitor)
{
    visitor.rng(*rng_);
    visitor.scalar(cursor_);
    visitor.optimizer(*optim_);
}

} // namespace gnnmark
