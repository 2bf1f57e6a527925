#include "models/treelstm.hh"

#include <algorithm>

#include "base/logging.hh"

namespace gnnmark {

void
TreeLstm::setup(const WorkloadConfig &config)
{
    cfg_ = config;
    rng_.emplace(config.seed ^ 0x544c5354u); // "TLST"
    const double s = checkedScale(config.scale);

    const int count = std::max(64, static_cast<int>(768 * s));
    dataset_ = gen::sentimentTrees(*rng_, count, static_cast<int>(vocab_),
                                   /*min_leaves=*/4, /*max_leaves=*/18,
                                   numClasses_);

    emb_ = std::make_unique<nn::Embedding>(vocab_, hidden_, *rng_);
    wIou_ = std::make_unique<nn::Linear>(hidden_, 3 * hidden_, *rng_);
    uIou_ = std::make_unique<nn::Linear>(hidden_, 3 * hidden_, *rng_,
                                         /*bias=*/false);
    uF_ = std::make_unique<nn::Linear>(hidden_, hidden_, *rng_);
    cls_ = std::make_unique<nn::Linear>(hidden_, numClasses_, *rng_);

    std::vector<Variable> params;
    for (nn::Module *m : std::initializer_list<nn::Module *>{
             emb_.get(), wIou_.get(), uIou_.get(), uF_.get(),
             cls_.get()}) {
        for (const auto &p : m->parameters())
            params.push_back(p);
    }
    optim_ = std::make_unique<nn::Adam>(std::move(params), 1e-3f);
    cursor_ = 0;
}

float
TreeLstm::trainIteration()
{
    const int64_t local_batch =
        std::max<int64_t>(1, batch_ / cfg_.worldSize);
    const int64_t n_trees = static_cast<int64_t>(dataset_.size());
    const int64_t start = cursor_;
    cursor_ += batch_;

    std::vector<Tree> chosen;
    chosen.reserve(local_batch);
    for (int64_t i = 0; i < local_batch; ++i)
        chosen.push_back(dataset_[(start + i) % n_trees]);
    TreeBatch batch = TreeBatch::build(chosen);
    uploadInput(batch.tokens, "leaf_tokens");
    // DGL ships a leaf mask and the batched level structure alongside
    // the tokens; internal-node entries are zero.
    Tensor leaf_mask = Tensor::zeros({batch.totalNodes});
    for (int64_t v = 0; v < batch.totalNodes; ++v)
        leaf_mask(v) = batch.tokens[v] >= 0 ? 1.0f : 0.0f;
    uploadInput(leaf_mask, "leaf_mask");
    for (const auto &level : batch.levels)
        uploadInput(level.childOffsets, "level_offsets");

    const int64_t total = batch.totalNodes;
    // Node states assembled level by level; levels are disjoint, so
    // scatter-sum into the running state acts as a write.
    Variable h_all(Tensor::zeros({total, hidden_}));
    Variable c_all(Tensor::zeros({total, hidden_}));

    for (size_t li = 0; li < batch.levels.size(); ++li) {
        const TreeBatch::Level &level = batch.levels[li];
        const int64_t n = static_cast<int64_t>(level.nodes.size());

        Variable iou;
        Variable fc_sum; // sum of gated child cell states
        if (li == 0) {
            // Leaves: token embedding drives the gates.
            std::vector<int32_t> tokens(n);
            for (int64_t i = 0; i < n; ++i)
                tokens[i] = batch.tokens[level.nodes[i]];
            iou = wIou_->forward(emb_->forward(tokens));
        } else {
            // Internal nodes: child-sum aggregation.
            Variable h_kids = ag::gatherRows(h_all, level.childIds);
            Variable c_kids = ag::gatherRows(c_all, level.childIds);
            Variable h_sum =
                ag::segmentSumRows(h_kids, level.childOffsets);
            iou = uIou_->forward(h_sum);
            Variable f = ag::sigmoid(uF_->forward(h_kids));
            fc_sum = ag::segmentSumRows(ag::mul(f, c_kids),
                                        level.childOffsets);
        }

        Variable i = ag::sigmoid(ag::sliceCols(iou, 0, hidden_));
        Variable o =
            ag::sigmoid(ag::sliceCols(iou, hidden_, 2 * hidden_));
        Variable u =
            ag::tanh(ag::sliceCols(iou, 2 * hidden_, 3 * hidden_));

        Variable c = ag::mul(i, u);
        if (fc_sum.defined())
            c = ag::add(c, fc_sum);
        Variable h = ag::mul(o, ag::tanh(c));

        h_all = ag::add(h_all,
                        ag::scatterSumRows(h, level.nodes, total));
        c_all = ag::add(c_all,
                        ag::scatterSumRows(c, level.nodes, total));
    }

    Variable root_h = ag::indexSelectRows(h_all, batch.roots);
    Variable logits = cls_->forward(root_h);
    Variable loss = nn::crossEntropy(logits, batch.labels);

    if (!cfg_.inferenceOnly) {
        optim_->zeroGrad();
        loss.backward();
        optim_->step();
    }
    return loss.value()(0);
}

int64_t
TreeLstm::iterationsPerEpoch() const
{
    return std::max<int64_t>(
        1, static_cast<int64_t>(dataset_.size()) / batch_);
}

double
TreeLstm::parameterBytes() const
{
    return optim_->parameterBytes();
}

void
TreeLstm::visitState(StateVisitor &visitor)
{
    visitor.rng(*rng_);
    visitor.scalar(cursor_);
    visitor.optimizer(*optim_);
}

} // namespace gnnmark
