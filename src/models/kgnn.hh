/**
 * @file
 * k-GNN workload (KGNNL / KGNNH): hierarchical higher-order GNNs after
 * Morris et al., classifying protein-like graphs. The 1-GNN runs on
 * nodes; the 2-GNN on connected node pairs; KGNNH adds a 3-GNN on
 * connected triples. Moving up the hierarchy multiplies the
 * index-manipulation (gather/scatter/index-select) work, which is why
 * the paper includes both variants.
 */

#ifndef GNNMARK_MODELS_KGNN_HH
#define GNNMARK_MODELS_KGNN_HH

#include <memory>
#include <optional>

#include "graph/batch.hh"
#include "graph/generators.hh"
#include "models/gnn_layers.hh"
#include "models/workload.hh"
#include "nn/loss.hh"
#include "nn/optim.hh"

namespace gnnmark {

/** A k-set graph derived from a lower-order graph. */
struct SetGraph
{
    /** For each set, the ids of its two lower-level constituents. */
    std::vector<int32_t> memberA;
    std::vector<int32_t> memberB;
    /** Which underlying small graph each set belongs to. */
    std::vector<int32_t> setGraphId;
    Graph graph; ///< adjacency between sets (shared-constituent)

    int64_t numSets() const
    {
        return static_cast<int64_t>(memberA.size());
    }
};

/** Build the connected 2-sets (edges) of `g`, with graph membership. */
SetGraph buildTwoSets(const Graph &g,
                      const std::vector<int32_t> &node_graph_id);

/** Build connected 3-sets (paths of two incident 2-sets), capped. */
SetGraph buildThreeSets(const SetGraph &two_sets, int max_per_node);

/** The KGNNL/KGNNH workload: hierarchical k-GNN training. */
class KGnn : public Workload
{
  public:
    /** @param k 2 for KGNNL, 3 for KGNNH. */
    explicit KGnn(int k);

    std::string name() const override;

    void setup(const WorkloadConfig &config) override;
    float trainIteration() override;
    int64_t iterationsPerEpoch() const override;
    double parameterBytes() const override;
    bool supportsCheckpoint() const override { return true; }
    void visitState(StateVisitor &visitor) override;

  private:
    int k_;
    WorkloadConfig cfg_;
    std::optional<Rng> rng_;

    std::vector<SmallGraph> dataset_;
    int64_t hidden_ = 48;
    int64_t batch_ = 24;

    std::unique_ptr<GcnLayer> node1_, node2_;
    std::unique_ptr<GcnLayer> two1_, two2_;
    std::unique_ptr<GcnLayer> three1_, three2_;
    std::unique_ptr<nn::Linear> readout_;
    std::unique_ptr<nn::Adam> optim_;

    int64_t cursor_ = 0;
};

} // namespace gnnmark

#endif // GNNMARK_MODELS_KGNN_HH
