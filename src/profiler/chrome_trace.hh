/**
 * @file
 * Chrome-trace exporter: turns the kernel/transfer stream of a run
 * into the Trace Event JSON format that chrome://tracing, Perfetto and
 * speedscope load directly — the visual timeline companion to the
 * aggregate tables, and the model's stand-in for nvprof's timeline
 * export.
 *
 * Events are complete ("ph":"X") events. Device-side events live on
 * pid 1: kernels on tid 2*rank, host-to-device transfers on tid
 * 2*rank+1 (rank 0 keeps the historical tids 0/1). The simulated clock
 * has no epoch, so device timestamps are the running sum of event
 * durations per lane — the visual ordering and widths are what matter.
 *
 * Host-side spans (see obs/span.hh) are merged onto pid 2, one lane
 * per recording thread, timestamped on the host monotonic clock. The
 * two pids carry different clock domains on purpose; process_name
 * metadata labels each.
 */

#ifndef GNNMARK_PROFILER_CHROME_TRACE_HH
#define GNNMARK_PROFILER_CHROME_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/request_trace.hh"
#include "obs/span.hh"
#include "sim/kernel_record.hh"

namespace gnnmark {

/**
 * KernelObserver that accumulates Trace Event JSON. Attach alongside
 * the Profiler (RunOptions::extraObserver or trace replay's extra
 * observers), then call write() once the run finishes.
 */
class ChromeTraceWriter : public KernelObserver
{
  public:
    void onKernel(const KernelRecord &record) override;
    void onTransfer(const TransferRecord &record) override;

    /**
     * Mirror rank 0's device lanes onto ranks 1..world-1. The DDP
     * model simulates one real device and treats replicas as lockstep
     * mirrors of rank 0's stream, so the mirrored lanes are the
     * honest visualisation of that model (args carry mirrored=true).
     */
    void mirrorDeviceLanes(int world);

    /**
     * Merge host-side spans (from SpanTracer::collect()) into the
     * trace as pid-2 lanes, one per recording thread.
     */
    void addHostSpans(const std::vector<obs::ThreadSpans> &threads);

    /**
     * Merge traced serving requests (ServingSimulator::
     * drainRequestTraces()) as pid-3 lanes — one lane per request,
     * labelled "req <id> [exemplar] (<outcome>)", spans on simulated
     * serving time. Instant marks become zero-width events; span
     * details ride in args.
     */
    void addRequestLanes(const std::vector<obs::RequestTrace> &traces);

    /** Number of events collected so far. */
    size_t eventCount() const
    {
        return events_.size() + hostEvents_.size() +
               requestEvents_.size();
    }

    /** Render the collected events as a Trace Event JSON document. */
    std::string json() const;

    /** Write the JSON document to `path`; throws IoError on failure. */
    void write(const std::string &path) const;

  private:
    struct Event
    {
        std::string name;
        std::string category;
        int tid = 0;
        double startUs = 0;
        double durationUs = 0;
        std::vector<std::pair<std::string, std::string>> args;
    };

    std::vector<Event> events_;
    std::vector<Event> hostEvents_;
    std::vector<Event> requestEvents_;
    std::map<int, std::string> requestLaneNames_; ///< tid -> lane label
    std::map<int, std::string> hostLaneNames_; ///< tid -> thread name
    double kernelClockUs_ = 0;   ///< end of the kernel lane
    double transferClockUs_ = 0; ///< end of the copy lane
    int world_ = 1;              ///< ranks with device lanes
};

} // namespace gnnmark

#endif // GNNMARK_PROFILER_CHROME_TRACE_HH
