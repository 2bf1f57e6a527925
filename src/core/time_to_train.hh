/**
 * @file
 * MLPerf-style time-to-train measurement — the metric the paper's
 * Sec. VII plans to adopt. Trains a workload until its smoothed loss
 * reaches a relative target and reports the simulated wall time.
 */

#ifndef GNNMARK_CORE_TIME_TO_TRAIN_HH
#define GNNMARK_CORE_TIME_TO_TRAIN_HH

#include <string>

#include "models/workload.hh"

namespace gnnmark {

/** Dataset and device seed of a time-to-train run. */
inline constexpr uint64_t kTimeToTrainSeed = 42;
/** Exponential smoothing factor for the loss (0 = no smoothing). */
inline constexpr double kLossSmoothing = 0.7;

/** Options for a time-to-train run on a simulated V100. */
struct TimeToTrainOptions
{
    double scale = 1.0;
    /**
     * Convergence target: stop when the smoothed loss drops below
     * `lossFraction` of the initial smoothed loss.
     */
    double lossFraction = 0.85;
    int maxIterations = 400;
};

/** Result of one time-to-train measurement. */
struct TimeToTrainResult
{
    std::string name;
    bool converged = false;
    int iterations = 0;           ///< steps until the target (or max)
    double simulatedTimeSec = 0;  ///< device wall time to the target
    float initialLoss = 0;
    float finalLoss = 0;
};

/** Train `workload` until the loss target and report the sim time. */
TimeToTrainResult measureTimeToTrain(Workload &workload,
                                     const TimeToTrainOptions &options);

} // namespace gnnmark

#endif // GNNMARK_CORE_TIME_TO_TRAIN_HH
