#include "core/time_to_train.hh"

#include "base/logging.hh"
#include "ops/exec_context.hh"
#include "sim/gpu_device.hh"

namespace gnnmark {

TimeToTrainResult
measureTimeToTrain(Workload &workload, const TimeToTrainOptions &options)
{
    GNN_ASSERT(options.lossFraction > 0 && options.lossFraction < 1,
               "loss fraction must be in (0, 1)");
    GNN_ASSERT(options.maxIterations > 0, "need at least one iteration");

    TimeToTrainResult res;
    res.name = workload.name();

    GpuDevice device(GpuConfig::v100(), kTimeToTrainSeed);
    WorkloadConfig cfg;
    cfg.seed = kTimeToTrainSeed;
    cfg.scale = options.scale;
    workload.setup(cfg);

    ContextGuard guard(&device);
    double smoothed = 0;
    double target = 0;
    for (int i = 0; i < options.maxIterations; ++i) {
        const float loss = workload.trainIteration();
        if (i == 0) {
            smoothed = loss;
            res.initialLoss = loss;
            target = smoothed * options.lossFraction;
        } else {
            smoothed = kLossSmoothing * smoothed +
                       (1.0 - kLossSmoothing) * loss;
        }
        res.iterations = i + 1;
        res.finalLoss = static_cast<float>(smoothed);
        if (i > 0 && smoothed <= target) {
            res.converged = true;
            break;
        }
    }
    res.simulatedTimeSec = device.wallTimeSec();
    return res;
}

} // namespace gnnmark
