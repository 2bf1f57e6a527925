/**
 * @file
 * In-memory checkpoint/resume for workload training state.
 *
 * A checkpoint captures everything a Workload mutates across
 * trainIteration() calls — parameter tensors, optimiser slots and step
 * counters, Rng stream state, batch cursors — as a tagged binary
 * image. Restoring the image into a freshly setup() workload resumes
 * the training stream bitwise-identically to an uninterrupted run.
 * The fault engine keeps its checkpoints in memory and charges their
 * size to simulated storage; nothing is written to disk.
 *
 * A restore refuses an image from another workload before touching
 * any state, and copies into the existing tensor storage (never
 * reallocates), keeping simulated device addresses stable for the
 * GPU cache models.
 */

#ifndef GNNMARK_CORE_CHECKPOINT_HH
#define GNNMARK_CORE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "models/workload.hh"

namespace gnnmark {

/** An in-memory checkpoint image. */
struct Checkpoint
{
    std::string workload; ///< Workload::name() of the producer
    uint64_t step = 0;    ///< training iterations completed at capture
    std::vector<uint8_t> state;

    /** Serialised size, the unit the fault model charges I/O for. */
    double
    sizeBytes() const
    {
        return static_cast<double>(state.size());
    }
};

/** Snapshot a workload's training state after `step` iterations. */
Checkpoint captureCheckpoint(Workload &workload, uint64_t step);

/**
 * Restore a snapshot into `workload`, which must already be setup()
 * with the same dataset seed/scale (the dataset itself is re-derived
 * from the seed, not stored). Fatal on workload-name mismatch or a
 * malformed image; returns the checkpoint's step.
 */
uint64_t restoreCheckpoint(Workload &workload, const Checkpoint &ckpt);

} // namespace gnnmark

#endif // GNNMARK_CORE_CHECKPOINT_HH
