/**
 * @file
 * The GNNMark workload interface. Each of the suite's seven models
 * implements it: setup() synthesises the dataset and builds the model,
 * trainIteration() runs one forward/backward/optimiser step against
 * whatever device is bound via ContextGuard, uploading its mini-batch
 * inputs through the device so transfer sparsity is observed.
 */

#ifndef GNNMARK_MODELS_WORKLOAD_HH
#define GNNMARK_MODELS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hh"

namespace gnnmark {

class Rng;

namespace nn {
class Adam;
} // namespace nn

/**
 * Visitor over a workload's mutable training state, used by the
 * checkpoint subsystem. A workload's visitState() must enumerate
 * every piece of state that changes across trainIteration() calls —
 * its Rng stream, batch cursors, and optimisers (which cover the
 * parameter tensors and slot buffers) — in a fixed order. The same
 * traversal serves both save (visitor reads) and restore (visitor
 * writes), which is what makes resume bitwise-exact.
 */
class StateVisitor
{
  public:
    virtual ~StateVisitor() = default;

    /** A tensor whose contents are training state (copied in place). */
    virtual void tensor(Tensor &t) = 0;

    /** An integer scalar (batch cursor, step counter). */
    virtual void scalar(int64_t &v) = 0;

    /** An Rng whose stream position is training state. */
    virtual void rng(Rng &r) = 0;

    /** An optimiser: its parameters, slots and step counter. */
    void optimizer(nn::Adam &opt);
};

/**
 * Largest dataset scale factor a workload accepts. Workloads size
 * their datasets as int(base * scale), with bases up to 20,000; at 16
 * every size stays far below INT_MAX, where the cast would be
 * undefined. No doc, test or bench runs above 1.
 */
inline constexpr double kMaxScale = 16.0;

/** `scale`, asserted to lie in (0, kMaxScale]. */
double checkedScale(double scale);

/** Scale and sharding knobs shared by all workloads. */
struct WorkloadConfig
{
    uint64_t seed = 42;
    /**
     * Dataset scale factor (1.0 = the suite's default sizes), at most
     * kMaxScale.
     */
    double scale = 1.0;
    /**
     * DDP sharding: the world size. Every replica is priced as rank
     * 0, so the batch shard starts at the cursor.
     */
    int worldSize = 1;
    /**
     * Forward-only mode (no backward pass, no optimiser step): used
     * for the training-vs-inference comparison the paper draws
     * against prior inference-focused studies.
     */
    bool inferenceOnly = false;
};

/** One GNNMark training workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Suite identifier, e.g. "PSAGE-MVL" (Table I row key). */
    virtual std::string name() const = 0;

    /** Build datasets and model state; called once. */
    virtual void setup(const WorkloadConfig &config) = 0;

    /** One training step; returns the loss. */
    virtual float trainIteration() = 0;

    /** Mini-batch steps per epoch at the configured scale. */
    virtual int64_t iterationsPerEpoch() const = 0;

    /** Bytes of trainable parameters (the DDP all-reduce payload). */
    virtual double parameterBytes() const = 0;

    /**
     * False for models whose batch sampler replicates work instead of
     * sharding under DistributedDataParallel (the PinSAGE pathology
     * in the paper's Fig. 9).
     */
    virtual bool samplerDdpCompatible() const { return true; }

    /**
     * False for models that inherently train on the whole graph at
     * once (ARGA), which the paper excludes from the scaling study.
     */
    virtual bool supportsMultiGpu() const { return true; }

    /**
     * True if visitState() enumerates the complete mutable training
     * state, i.e. checkpoint/restore round-trips bitwise. All suite
     * workloads support this; external Workload subclasses opt in by
     * overriding both members.
     */
    virtual bool supportsCheckpoint() const { return false; }

    /**
     * Enumerate mutable training state (see StateVisitor). Must only
     * be called after setup(); the traversal order must be identical
     * between the save and the restore of one checkpoint.
     */
    virtual void visitState(StateVisitor &visitor) { (void)visitor; }
};

/** Upload a tensor to the bound device, if any (sparsity-tracked). */
void uploadInput(const Tensor &t, const std::string &tag);

/** Upload an index array to the bound device, if any. */
void uploadInput(const std::vector<int32_t> &idx, const std::string &tag);

} // namespace gnnmark

#endif // GNNMARK_MODELS_WORKLOAD_HH
