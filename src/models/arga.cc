#include "models/arga.hh"

#include "base/logging.hh"
#include "ops/sort.hh"

namespace gnnmark {

void
Arga::setup(const WorkloadConfig &config)
{
    cfg_ = config;
    rng_.emplace(config.seed ^ 0x41524741u); // "ARGA"

    // A scaled Cora: 2708 nodes, 1433 one-hot features at scale 1.
    data_ = gen::cora(*rng_, 0.45 * checkedScale(config.scale));
    adj_ = data_.graph.gcnNormAdjacency();
    adjT_ = adj_;

    const int64_t n = data_.graph.numNodes();
    adjDense_ = Tensor::zeros({n, n});
    for (int64_t v = 0; v < n; ++v) {
        auto [begin, end] = data_.graph.neighbors(v);
        for (const int32_t *p = begin; p != end; ++p)
            adjDense_(v, *p) = 1.0f;
        adjDense_(v, v) = 1.0f;
    }

    const int64_t fdim = data_.features.size(1);
    enc1_ = std::make_unique<GcnLayer>(fdim, hidden_, *rng_);
    enc2_ = std::make_unique<GcnLayer>(hidden_, zDim_, *rng_);
    disc1_ = std::make_unique<nn::Linear>(zDim_, hidden_, *rng_);
    disc2_ = std::make_unique<nn::Linear>(hidden_, 1, *rng_);

    preluSlope_ = Variable::param(Tensor::full({1}, 0.25f));
    std::vector<Variable> enc_params = enc1_->parameters();
    for (const auto &p : enc2_->parameters())
        enc_params.push_back(p);
    enc_params.push_back(preluSlope_);
    optimEnc_ = std::make_unique<nn::Adam>(std::move(enc_params), 1e-3f);

    std::vector<Variable> disc_params = disc1_->parameters();
    for (const auto &p : disc2_->parameters())
        disc_params.push_back(p);
    optimDisc_ =
        std::make_unique<nn::Adam>(std::move(disc_params), 1e-3f);
}

float
Arga::trainIteration()
{
    const int64_t n = data_.graph.numNodes();

    // ARGA ships the whole graph to the GPU every step.
    uploadInput(data_.features, "node_features");
    uploadInput(data_.graph.colIdx(), "edge_index");

    // Negative-edge shuffling for the reconstruction loss runs a
    // device sort over the edge list (ARGA's 6.1% sorting, Fig. 2).
    {
        std::vector<int32_t> edge_perm(data_.graph.numEdges());
        for (size_t i = 0; i < edge_perm.size(); ++i) {
            edge_perm[i] = static_cast<int32_t>(rng_->randint(
                static_cast<uint64_t>(n * n)));
        }
        ops::sortKeys(edge_perm);
    }

    // --- Autoencoder step ---
    Variable x(data_.features);
    // PReLU, as in the ARGA reference (the activation the paper's
    // sparsity discussion calls out).
    Variable h = ag::prelu(enc1_->forward(adj_, adjT_, x), preluSlope_);
    Variable z = enc2_->forward(adj_, adjT_, h);

    // Inner-product decoder over all node pairs.
    Variable logits = ag::gemm(z, z, {.trans_b = true}); // [N, N]
    Variable recon_loss = ag::bceWithLogits(logits, adjDense_);

    // Generator half of the adversarial game: fool the discriminator.
    Variable d_fake =
        disc2_->forward(ag::relu(disc1_->forward(z)));
    Tensor ones_label = Tensor::ones({n, 1});
    Variable gen_loss = ag::bceWithLogits(d_fake, ones_label);

    Variable enc_loss = ag::add(recon_loss, ag::scale(gen_loss, 0.1f));
    if (!cfg_.inferenceOnly) {
        optimEnc_->zeroGrad();
        disc1_->zeroGrad();
        disc2_->zeroGrad();
        enc_loss.backward();
        optimEnc_->step();
    }

    // --- Discriminator step ---
    Tensor prior = Tensor::randn({n, zDim_}, *rng_);
    uploadInput(prior, "gaussian_prior");
    Variable d_real =
        disc2_->forward(ag::relu(disc1_->forward(Variable(prior))));
    Variable d_fake2 = disc2_->forward(
        ag::relu(disc1_->forward(z.detach())));
    Variable disc_loss =
        ag::add(ag::bceWithLogits(d_real, Tensor::ones({n, 1})),
                ag::bceWithLogits(d_fake2, Tensor::zeros({n, 1})));

    if (!cfg_.inferenceOnly) {
        optimDisc_->zeroGrad();
        disc_loss.backward();
        optimDisc_->step();
    }

    return enc_loss.value()(0);
}

int64_t
Arga::iterationsPerEpoch() const
{
    return 1; // full-graph training: one step per epoch
}

double
Arga::parameterBytes() const
{
    return optimEnc_->parameterBytes() + optimDisc_->parameterBytes();
}

void
Arga::visitState(StateVisitor &visitor)
{
    visitor.rng(*rng_);
    visitor.optimizer(*optimEnc_);
    visitor.optimizer(*optimDisc_);
}

} // namespace gnnmark
