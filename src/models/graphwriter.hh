/**
 * @file
 * GraphWriter workload (GW): knowledge-graph-to-text generation after
 * Koncel-Kedziorski et al. A graph-transformer encoder contextualises
 * entity representations; an attention LSTM decoder emits the target
 * token sequence. The transformer/vocab-projection GEMMs make GW the
 * suite's only fp32-dominated, TFLOP-class workload (Figs. 3-4).
 */

#ifndef GNNMARK_MODELS_GRAPHWRITER_HH
#define GNNMARK_MODELS_GRAPHWRITER_HH

#include <memory>
#include <optional>

#include "graph/generators.hh"
#include "models/workload.hh"
#include "nn/layers.hh"
#include "nn/loss.hh"
#include "nn/optim.hh"

namespace gnnmark {

/** One graph-transformer encoder layer (MHA + FFN, residual + LN). */
class GraphTransformerLayer : public nn::Module
{
  public:
    GraphTransformerLayer(int64_t dim, int heads, Rng &rng);

    /**
     * @param x   [N, dim] entity states
     * @param adj graph adjacency (sparse neighbourhood mixing)
     */
    Variable forward(const Variable &x, const SparseMatrix &adj,
                     const SparseMatrix &adj_t) const;

  private:
    nn::MultiheadAttention attn_;
    nn::Linear ffn1_, ffn2_;
    nn::LayerNorm ln1_, ln2_;
};

/** The GW workload: graph-transformer + LSTM decoder training. */
class GraphWriter : public Workload
{
  public:
    GraphWriter() = default;

    std::string name() const override { return "GW"; }

    void setup(const WorkloadConfig &config) override;
    float trainIteration() override;
    int64_t iterationsPerEpoch() const override;
    double parameterBytes() const override;
    bool supportsCheckpoint() const override { return true; }
    void visitState(StateVisitor &visitor) override;

  private:
    WorkloadConfig cfg_;
    std::optional<Rng> rng_;

    gen::KnowledgeGraphText data_;
    SparseMatrix adj_, adjT_;
    int64_t dim_ = 320;
    int64_t vocab_ = 0; ///< set from scale in setup()
    int64_t sentenceLen_ = 14;
    int64_t batch_ = 48;

    std::unique_ptr<nn::Linear> encIn_;
    std::unique_ptr<GraphTransformerLayer> enc1_;
    std::unique_ptr<GraphTransformerLayer> enc2_;
    std::unique_ptr<nn::Embedding> tokenEmb_;
    std::unique_ptr<nn::LstmCell> decoder_;
    std::unique_ptr<nn::Linear> attnQuery_;
    std::unique_ptr<nn::Linear> vocabOut_;
    std::unique_ptr<nn::Adam> optim_;

    int64_t cursor_ = 0;
};

} // namespace gnnmark

#endif // GNNMARK_MODELS_GRAPHWRITER_HH
