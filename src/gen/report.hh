/**
 * @file
 * Pure-data generation results: the degree statistics, the streamed
 * training outcome and the run report that carries them. Header-only,
 * and it includes nothing of gen that needs linking, so core's report
 * printers and JSON writers read these structs without linking the gen
 * library (neither library links the other), as with serve/report.hh.
 *
 * Every field except the wall-clock throughput figures derives from
 * the seeded generators alone, so the deterministic subset — and its
 * JSON rendering — is byte-identical across processes, thread counts
 * and chunk partitionings for a fixed configuration. The JSON twin
 * emits only that subset; wall-clock rates stay in the human table
 * and the telemetry record.
 */

#ifndef GNNMARK_GEN_REPORT_HH
#define GNNMARK_GEN_REPORT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/window.hh"

namespace gnnmark {
namespace gen {

/** Shape summary of a generated degree distribution. */
struct DegreeStats
{
    int64_t vertices = 0;        ///< vertices tracked (post-stride)
    int64_t sampleStride = 1;    ///< 1 = exact; k = every k-th vertex
    int64_t endpointsCounted = 0;
    int64_t minDegree = 0;
    int64_t maxDegree = 0;
    double meanDegree = 0.0;
    /**
     * Least-squares slope of log(count) vs log(degree) over the
     * degree histogram (degrees >= 1). Scale-free families come out
     * clearly negative (≈ -(gamma-1) for the power-law weights);
     * regular families have too few distinct degrees for a fit and
     * report 0.
     */
    double powerLawSlope = 0.0;
    bool slopeValid = false;
    /** Fraction of tracked vertices at the modal degree. */
    double modalFraction = 0.0;
    int64_t modalDegree = 0;
    /** Count of distinct degree values observed. */
    int64_t distinctDegrees = 0;
};

/** What one streamed-training pass measured (streamTrain()). */
struct StreamTrainResult
{
    int64_t batches = 0;       ///< minibatches trained
    int64_t edgesConsumed = 0; ///< edges pulled off the stream
    int64_t chunks = 0;        ///< chunk blocks consumed
    double firstLoss = 0.0;    ///< MSE of the first minibatch
    double lastLoss = 0.0;     ///< MSE of the final minibatch
    /**
     * Peak bytes resident in the training loop itself: the current
     * block, its compact subgraph, minibatch features, and the
     * optional degree accumulator. The stream's own lookahead window
     * is reported separately by ChunkedEdgeStream.
     */
    int64_t peakResidentBytes = 0;

    /** @{ Windowed series (empty unless opts.windowChunks > 0):
     *  per-window edges consumed and minibatch loss, indexed by
     *  chunk-ordinal windows. */
    std::vector<obs::WindowStats> edgeWindows;
    std::vector<obs::WindowStats> lossWindows;
    /** @} */
};

/**
 * One chunk-ordinal window of the streamed-training timeline: edges
 * consumed and minibatch-loss aggregates over `windowChunks` chunks.
 */
struct GenTrainWindow
{
    int64_t index = 0;
    int64_t firstChunk = 0; ///< inclusive
    int64_t lastChunk = 0;  ///< inclusive
    int64_t chunks = 0;     ///< chunks actually seen in the window
    int64_t edges = 0;
    double meanLoss = 0;
    double minLoss = 0;
    double maxLoss = 0;
};

/** Aggregate results of one generation (and optional training) run. */
struct GenReport
{
    /** @{ Configuration echo. */
    std::string family = "rmat";
    int64_t requestedVertices = 0;
    int64_t vertices = 0; ///< resolved (e.g. rmat rounds to pow2)
    int64_t targetEdges = 0;
    int64_t chunks = 0;   ///< effective chunk count
    int64_t lookahead = 0;
    uint64_t seed = 0;
    int threads = 0;
    /** @} */

    /** @{ Deterministic outcome. */
    int64_t edges = 0;
    int64_t chunksEmitted = 0;
    /** Order-dependent FNV-1a over every (u, v) emitted. */
    uint64_t checksum = 0;
    /** Peak bytes held in the stream's lookahead window. */
    int64_t peakResidentBytes = 0;
    /** Configured ceiling the peak is asserted against. */
    int64_t residentBudgetBytes = 0;
    /** @} */

    /** @{ Wall-clock (human table + telemetry only, never JSON). */
    double wallSec = 0;
    double edgesPerSec = 0;
    /** @} */

    /** Degree-distribution shape (when --stats is on). */
    std::optional<DegreeStats> degrees;

    /** @{ Streamed training (when --stream is on). */
    std::optional<StreamTrainResult> training;
    /** Window width in chunks (0 = windowing off, vector empty). */
    int64_t trainWindowChunks = 0;
    std::vector<GenTrainWindow> trainWindows;
    /** @} */
};

} // namespace gen
} // namespace gnnmark

#endif // GNNMARK_GEN_REPORT_HH
