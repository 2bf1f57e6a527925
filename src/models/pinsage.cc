#include "models/pinsage.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "base/logging.hh"
#include "nn/loss.hh"
#include "ops/elementwise.hh"
#include "ops/index.hh"
#include "ops/reduce.hh"
#include "ops/sort.hh"

namespace gnnmark {

std::vector<int32_t>
positionsIn(const std::vector<int32_t> &sorted_ids,
            const std::vector<int32_t> &queries)
{
    std::vector<int32_t> out;
    out.reserve(queries.size());
    for (int32_t q : queries) {
        auto it = std::lower_bound(sorted_ids.begin(), sorted_ids.end(),
                                   q);
        GNN_ASSERT(it != sorted_ids.end() && *it == q,
                   "id %d missing from unique list", q);
        out.push_back(static_cast<int32_t>(it - sorted_ids.begin()));
    }
    return out;
}

PinSageEncoder::PinSageEncoder(
    std::vector<std::vector<int32_t>> item_to_user,
    std::vector<std::vector<int32_t>> user_to_item, int64_t feature_dim,
    int64_t hidden, Rng &rng)
    : sampler_(std::move(item_to_user), std::move(user_to_item),
               /*walks=*/8, /*walk_length=*/2, /*top_t=*/6),
      proj_(feature_dim, hidden, rng), sage1_(hidden, hidden, rng),
      sage2_(hidden, hidden, rng)
{
}

PinSageEncoder::Inputs
PinSageEncoder::gather(const std::vector<int32_t> &seeds,
                       const Tensor &item_features, Rng &rng) const
{
    Inputs in;
    // Two-layer sampled computation graph, built outside-in.
    in.outer = sampler_.sample(seeds, rng);
    in.inner = sampler_.sample(in.outer.srcNodes, rng);

    // Block construction (DGL to_block): every block compacts its
    // node space with a sorted unique and relabels both endpoint
    // arrays with sorted key/value passes — the source of PSAGE's
    // sorting time (20.7% on MVL in the paper's Fig. 2).
    for (const SampledBlock *block : {&in.inner, &in.outer}) {
        std::vector<int32_t> endpoint_ids;
        endpoint_ids.reserve(block->neighbors.size() +
                             block->dstNodes.size());
        for (int32_t p : block->neighbors)
            endpoint_ids.push_back(block->srcNodes[p]);
        endpoint_ids.insert(endpoint_ids.end(), block->dstNodes.begin(),
                            block->dstNodes.end());
        ops::sortedUnique(endpoint_ids);

        std::vector<int32_t> edge_order(block->neighbors.size());
        for (size_t i = 0; i < edge_order.size(); ++i)
            edge_order[i] = static_cast<int32_t>(i);
        std::vector<int32_t> edge_keys = block->neighbors;
        ops::sortKeyValue(edge_keys, edge_order);
    }

    // Host-side feature slicing + upload of the batch's features: the
    // CPU-to-GPU copies whose sparsity Fig. 7 characterises.
    const int64_t fdim = item_features.size(1);
    in.raw = Tensor::zeros(
        {static_cast<int64_t>(in.inner.srcNodes.size()), fdim});
    for (size_t i = 0; i < in.inner.srcNodes.size(); ++i) {
        const float *src = item_features.data() +
                           static_cast<int64_t>(in.inner.srcNodes[i]) * fdim;
        std::copy(src, src + fdim, in.raw.data() + i * fdim);
    }
    uploadInput(in.raw, "item_features");
    uploadInput(in.inner.neighbors, "block_inner");
    uploadInput(in.outer.neighbors, "block_outer");

    // Standardise and l2-normalise on the device: element-wise passes
    // whose cost scales with the feature width (why PSAGE-NWP is
    // element-wise-dominated at 10x the feature dimension, paper
    // Fig. 2).
    in.shifted = ops::addScalar(in.raw, -0.01f);
    in.squared = ops::mul(in.shifted, in.shifted);
    in.norms = ops::reduceSumRows(in.squared);
    in.inv = Tensor::zeros({in.norms.size(0)});
    for (int64_t i = 0; i < in.norms.size(0); ++i)
        in.inv(i) = 1.0f / std::sqrt(in.norms(i) + 1e-6f);
    in.features = ops::mulRowsBy(in.shifted, in.inv);
    return in;
}

PinSageEncoder::Embeddings
PinSageEncoder::encode(const Inputs &in, const Variable &x) const
{
    Embeddings e;
    e.x = x;
    e.h0 = ag::relu(proj_.forward(x));
    e.h1 = sage1_.forward(in.inner, e.h0,
                          positionsIn(in.inner.srcNodes, in.inner.dstNodes));
    // h1 rows are inner.dstNodes == outer.srcNodes, in order.
    e.out = sage2_.forward(in.outer, e.h1,
                           positionsIn(in.outer.srcNodes, in.outer.dstNodes));
    return e;
}

std::vector<Variable>
PinSageEncoder::parameters() const
{
    std::vector<Variable> params = proj_.parameters();
    for (const auto &p : sage1_.parameters())
        params.push_back(p);
    for (const auto &p : sage2_.parameters())
        params.push_back(p);
    return params;
}

PinSage::PinSage(PinSageDataset dataset) : dataset_(dataset)
{
}

std::string
PinSage::name() const
{
    return dataset_ == PinSageDataset::MVL ? "PSAGE-MVL" : "PSAGE-NWP";
}

void
PinSage::setup(const WorkloadConfig &config)
{
    cfg_ = config;
    rng_.emplace(config.seed ^ 0x50534147u); // "PSAG"
    const double s = checkedScale(config.scale);

    // MVL: narrow, moderately sparse features. NWP: 10x wider and
    // denser (the paper's 22% vs 11% zero fractions).
    const bool mvl = dataset_ == PinSageDataset::MVL;
    const int64_t users = std::max<int64_t>(64, (mvl ? 900 : 1200) * s);
    const int64_t items = std::max<int64_t>(64, (mvl ? 700 : 1000) * s);
    const int64_t clicks = std::max<int64_t>(512, (mvl ? 14000 : 20000) * s);
    const int64_t fdim = mvl ? 64 : 640;
    const double zero_frac = mvl ? 0.22 : 0.11;

    data_ = gen::bipartiteRecsys(*rng_, users, items, clicks, fdim,
                                 zero_frac);
    itemToUser_ = data_.graph.relationAdjList(data_.relItemUser);
    userToItem_ = data_.graph.relationAdjList(data_.relUserItem);
    encoder_ = std::make_unique<PinSageEncoder>(itemToUser_, userToItem_,
                                                fdim, hidden_, *rng_);
    optim_ = std::make_unique<nn::Adam>(encoder_->parameters(), 1e-3f);
    cursor_ = 0;
}

int32_t
PinSage::samplePositive(int32_t item)
{
    const auto &users = itemToUser_[item];
    if (users.empty())
        return item;
    const int32_t user = users[rng_->randint(users.size())];
    const auto &items = userToItem_[user];
    return items[rng_->randint(items.size())];
}

float
PinSage::trainIteration()
{
    // The DGL PinSAGE batch sampler is not DDP-aware: every replica
    // draws the full batch (the replication pathology of Fig. 9).
    const int64_t bsz = batch_;
    std::vector<int32_t> batch(bsz), pos(bsz), neg(bsz);
    for (int64_t i = 0; i < bsz; ++i) {
        batch[i] = static_cast<int32_t>((cursor_ + i) % data_.items);
        pos[i] = samplePositive(batch[i]);
        neg[i] = static_cast<int32_t>(rng_->randint(
            static_cast<uint64_t>(data_.items)));
    }
    cursor_ += bsz;

    // Compact the id space on the device: DGL's to_block() performs
    // sorted unique + relabel, the source of PSAGE's sort time.
    std::vector<int32_t> all_ids;
    all_ids.reserve(3 * bsz);
    all_ids.insert(all_ids.end(), batch.begin(), batch.end());
    all_ids.insert(all_ids.end(), pos.begin(), pos.end());
    all_ids.insert(all_ids.end(), neg.begin(), neg.end());
    std::vector<int32_t> seeds = ops::sortedUnique(all_ids);

    const PinSageEncoder::Inputs in =
        encoder_->gather(seeds, data_.itemFeatures, *rng_);

    // Clamp, rescale and dropout the normalised features: more
    // element-wise passes over the full feature width.
    Tensor clamped = ops::relu(ops::addScalar(in.features, 4.0f));
    Tensor rescaled = ops::addScalar(ops::scale(clamped, 0.25f), -1.0f);
    Tensor dropped = ops::dropout(rescaled, 0.1f, *rng_);
    const PinSageEncoder::Embeddings h =
        encoder_->encode(in, Variable(dropped));

    // h.out rows follow `seeds`; pull out batch/pos/neg embeddings.
    Variable eb = ag::indexSelectRows(h.out, positionsIn(seeds, batch));
    Variable ep = ag::indexSelectRows(h.out, positionsIn(seeds, pos));
    Variable en = ag::indexSelectRows(h.out, positionsIn(seeds, neg));

    const float dim_scale = static_cast<float>(hidden_);
    Variable pos_score =
        ag::scale(ag::meanRows(ag::mul(eb, ep)), dim_scale);
    Variable neg_score =
        ag::scale(ag::meanRows(ag::mul(eb, en)), dim_scale);
    Variable loss = nn::maxMarginLoss(pos_score, neg_score, 1.0f);

    if (!cfg_.inferenceOnly) {
        optim_->zeroGrad();
        loss.backward();
        optim_->step();
    }
    return loss.value()(0);
}

int64_t
PinSage::iterationsPerEpoch() const
{
    return std::max<int64_t>(1, data_.items / batch_);
}

double
PinSage::parameterBytes() const
{
    return optim_->parameterBytes();
}

void
PinSage::visitState(StateVisitor &visitor)
{
    visitor.rng(*rng_);
    visitor.scalar(cursor_);
    visitor.optimizer(*optim_);
}

} // namespace gnnmark
