#include "core/trace_capture.hh"

#include "obs/span.hh"

namespace gnnmark {

trace::RecordedTrace
recordWorkloadTrace(const std::string &workload_name,
                    const RunOptions &options,
                    WorkloadProfile *profile_out)
{
    GNN_SPAN("trace.record");
    trace::TraceRecorder recorder;
    RunOptions recording = options;
    recording.traceHook = &recorder;

    CharacterizationRunner runner(recording);
    WorkloadProfile profile = runner.run(workload_name);

    trace::TraceHeader header;
    header.workload = profile.name;
    header.seed = options.seed;
    header.scale = options.scale;
    header.iterations = options.iterations;
    header.warmupIterations = options.warmupIterations;
    header.inferenceOnly = options.inferenceOnly;
    header.iterationsPerEpoch = profile.iterationsPerEpoch;
    header.parameterBytes = profile.parameterBytes;
    header.losses = profile.losses;
    header.config = options.deviceConfig;

    if (profile_out != nullptr)
        *profile_out = std::move(profile);
    return recorder.finish(std::move(header));
}

} // namespace gnnmark
