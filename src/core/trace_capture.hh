/**
 * @file
 * Glue between the characterization driver and the trace subsystem:
 * capture a workload run into a RecordedTrace. This is the only place
 * live characterization and src/trace meet — the trace library itself
 * never links the tensor/op/model stack, and its ReplayResult already
 * is the WorkloadProfile the report printers read.
 */

#ifndef GNNMARK_CORE_TRACE_CAPTURE_HH
#define GNNMARK_CORE_TRACE_CAPTURE_HH

#include <string>

#include "core/characterization.hh"
#include "trace/replayer.hh"
#include "trace/trace.hh"
#include "trace/writer.hh"

namespace gnnmark {

/**
 * Train `workload_name` once under `options` with a TraceRecorder
 * attached, and return the captured trace (header fully stamped from
 * the run). The live profile of the recording run is returned through
 * `profile_out` when non-null, so callers can compare live vs. replay
 * without running twice.
 */
trace::RecordedTrace
recordWorkloadTrace(const std::string &workload_name,
                    const RunOptions &options,
                    WorkloadProfile *profile_out = nullptr);

} // namespace gnnmark

#endif // GNNMARK_CORE_TRACE_CAPTURE_HH
