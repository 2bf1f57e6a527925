#include "models/graphwriter.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "ops/index.hh"
#include "ops/sort.hh"

namespace gnnmark {

GraphTransformerLayer::GraphTransformerLayer(int64_t dim, int heads,
                                             Rng &rng)
    : attn_(dim, heads, rng), ffn1_(dim, 2 * dim, rng),
      ffn2_(2 * dim, dim, rng), ln1_(dim), ln2_(dim)
{
    addChild(&attn_);
    addChild(&ffn1_);
    addChild(&ffn2_);
    addChild(&ln1_);
    addChild(&ln2_);
}

Variable
GraphTransformerLayer::forward(const Variable &x,
                               const SparseMatrix &adj,
                               const SparseMatrix &adj_t) const
{
    // Graph-aware attention: mix neighbourhood context into the keys
    // (the SpMM), then full multi-head attention.
    Variable neigh = ag::spmm(adj, adj_t, x);
    Variable attended = attn_.forward(x, neigh, neigh);
    Variable h = ln1_.forward(ag::add(x, attended));
    Variable ffn = ffn2_.forward(ag::relu(ffn1_.forward(h)));
    return ln2_.forward(ag::add(h, ffn));
}

void
GraphWriter::setup(const WorkloadConfig &config)
{
    cfg_ = config;
    rng_.emplace(config.seed ^ 0x47575254u); // "GWRT"
    const double s = checkedScale(config.scale);

    const int64_t entities = std::max<int64_t>(64, 600 * s);
    const int samples = std::max(16, static_cast<int>(256 * s));
    vocab_ = std::max<int64_t>(256, static_cast<int64_t>(2048 * s));
    data_ = gen::knowledgeGraph(*rng_, entities, samples,
                                static_cast<int>(vocab_), sentenceLen_,
                                /*feat_dim=*/128);
    adj_ = data_.entities.gcnNormAdjacency();
    adjT_ = adj_;

    encIn_ = std::make_unique<nn::Linear>(128, dim_, *rng_);
    enc1_ = std::make_unique<GraphTransformerLayer>(dim_, 4, *rng_);
    enc2_ = std::make_unique<GraphTransformerLayer>(dim_, 4, *rng_);
    tokenEmb_ = std::make_unique<nn::Embedding>(vocab_, dim_, *rng_);
    decoder_ = std::make_unique<nn::LstmCell>(2 * dim_, dim_, *rng_);
    attnQuery_ = std::make_unique<nn::Linear>(dim_, dim_, *rng_);
    vocabOut_ = std::make_unique<nn::Linear>(2 * dim_, vocab_, *rng_);

    std::vector<Variable> params;
    for (nn::Module *m :
         std::initializer_list<nn::Module *>{
             encIn_.get(), enc1_.get(), enc2_.get(), tokenEmb_.get(),
             decoder_.get(), attnQuery_.get(), vocabOut_.get()}) {
        for (const auto &p : m->parameters())
            params.push_back(p);
    }
    optim_ = std::make_unique<nn::Adam>(std::move(params), 1e-3f);
    cursor_ = 0;
}

float
GraphWriter::trainIteration()
{
    const int64_t samples =
        static_cast<int64_t>(data_.targetTokens.size());
    const int64_t local_batch =
        std::max<int64_t>(1, batch_ / cfg_.worldSize);
    const int64_t start = cursor_;
    cursor_ += batch_;

    // The batch's knowledge subgraph: union of the samples' entity
    // sets, compacted on device (sorted unique, as DGL's to_block).
    std::vector<int32_t> ent_ids;
    for (int64_t b = 0; b < local_batch; ++b) {
        const auto &ents = data_.entitySets[(start + b) % samples];
        ent_ids.insert(ent_ids.end(), ents.begin(), ents.end());
    }
    std::vector<int32_t> ents = ops::sortedUnique(ent_ids);

    // Induced adjacency over the batch entities.
    std::vector<std::pair<int32_t, int32_t>> sub_edges;
    for (size_t i = 0; i < ents.size(); ++i) {
        auto [begin, end] = data_.entities.neighbors(ents[i]);
        for (const int32_t *p = begin; p != end; ++p) {
            auto it =
                std::lower_bound(ents.begin(), ents.end(), *p);
            if (it != ents.end() && *it == *p) {
                sub_edges.emplace_back(
                    static_cast<int32_t>(i),
                    static_cast<int32_t>(it - ents.begin()));
            }
        }
    }
    Graph subgraph(static_cast<int64_t>(ents.size()),
                   std::move(sub_edges));
    SparseMatrix adj = subgraph.gcnNormAdjacency();

    // Batch entity features: device-side row gather plus the H2D copy
    // whose sparsity Fig. 7 tracks.
    Tensor sub_feats = ops::indexSelectRows(data_.entityFeatures, ents);
    uploadInput(sub_feats, "entity_features");

    // Encode the batch subgraph.
    Variable enc_in = ag::relu(encIn_->forward(Variable(sub_feats)));
    Variable enc = enc1_->forward(enc_in, adj, adj);
    enc = enc2_->forward(enc, adj, adj);

    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dim_));

    // Teacher-forced decoding of the batch's target sentences. The
    // per-step decoder states are collected and projected onto the
    // vocabulary in one large GEMM, as the reference implementation
    // does — the TFLOP-class kernel of Fig. 4.
    nn::LstmCell::State state = decoder_->initial(local_batch);
    Variable ctx(Tensor::zeros({local_batch, dim_}));
    std::vector<Variable> step_states;
    std::vector<int32_t> all_labels;
    std::vector<int32_t> tokens(local_batch);

    for (int64_t t = 0; t < sentenceLen_; ++t) {
        for (int64_t b = 0; b < local_batch; ++b) {
            const auto &sent =
                data_.targetTokens[(start + b) % samples];
            tokens[b] = t == 0 ? 0 : sent[t - 1];
            all_labels.push_back(sent[t]);
        }
        if (t == 0)
            uploadInput(tokens, "decoder_tokens");

        Variable emb = tokenEmb_->forward(tokens);
        Variable x = ag::concatCols(emb, ctx);
        state = decoder_->forward(x, state);

        // Attention over the entity encodings.
        Variable q = attnQuery_->forward(state.h);
        Variable scores =
            ag::scale(ag::gemm(q, enc, {.trans_b = true}), inv_sqrt);
        Variable attn = ag::softmaxRows(scores);
        ctx = ag::gemm(attn, enc);

        step_states.push_back(ag::concatCols(state.h, ctx));
    }
    Variable decoded = ag::concatRows(step_states); // [B*L, 2*dim]
    Variable logits = vocabOut_->forward(decoded);
    Variable loss = nn::crossEntropy(logits, all_labels);

    if (!cfg_.inferenceOnly) {
        optim_->zeroGrad();
        loss.backward();
        optim_->step();
    }
    return loss.value()(0);
}

int64_t
GraphWriter::iterationsPerEpoch() const
{
    return std::max<int64_t>(
        1, static_cast<int64_t>(data_.targetTokens.size()) / batch_);
}

double
GraphWriter::parameterBytes() const
{
    return optim_->parameterBytes();
}

void
GraphWriter::visitState(StateVisitor &visitor)
{
    visitor.rng(*rng_);
    visitor.scalar(cursor_);
    visitor.optimizer(*optim_);
}

} // namespace gnnmark
