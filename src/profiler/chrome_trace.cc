#include "profiler/chrome_trace.hh"

#include <algorithm>
#include <sstream>

#include "base/io.hh"
#include "base/string_utils.hh"
#include "obs/json.hh"

namespace gnnmark {

using obs::jsonEscape;

namespace {

/** Kernel lane tid of `rank` (rank 0 keeps the historical tid 0). */
int
kernelTid(int rank)
{
    return 2 * rank;
}

/** Transfer lane tid of `rank`. */
int
transferTid(int rank)
{
    return 2 * rank + 1;
}

} // namespace

void
ChromeTraceWriter::onKernel(const KernelRecord &record)
{
    Event event;
    event.name = record.name;
    event.category = opClassName(record.opClass);
    event.tid = kernelTid(0);
    event.startUs = kernelClockUs_;
    event.durationUs = record.timeSec * 1e6;
    kernelClockUs_ += event.durationUs;
    event.args = {
        {"op_class", opClassName(record.opClass)},
        {"invocation", strfmt("%lld",
                              static_cast<long long>(record.invocation))},
        {"detailed", record.detailed ? "true" : "false"},
        {"ipc", strfmt("%.3f", record.ipc)},
        {"instrs", strfmt("%.0f", record.totalInstrs())},
        {"l1_hit_rate", strfmt("%.4f", record.l1HitRate())},
        {"l2_hit_rate", strfmt("%.4f", record.l2HitRate())},
        {"dram_bytes", strfmt("%.0f", record.dramBytes)},
    };
    events_.push_back(std::move(event));
}

void
ChromeTraceWriter::onTransfer(const TransferRecord &record)
{
    Event event;
    event.name = "H2D " + record.tag;
    event.category = "transfer";
    event.tid = transferTid(0);
    event.startUs = transferClockUs_;
    event.durationUs = record.timeSec * 1e6;
    transferClockUs_ += event.durationUs;
    event.args = {
        {"bytes", strfmt("%.0f", record.bytes)},
        {"zero_fraction", strfmt("%.4f", record.zeroFraction)},
    };
    events_.push_back(std::move(event));
}

void
ChromeTraceWriter::mirrorDeviceLanes(int world)
{
    const size_t original = events_.size();
    for (int rank = 1; rank < world; ++rank) {
        for (size_t i = 0; i < original; ++i) {
            if (events_[i].tid != kernelTid(0) &&
                events_[i].tid != transferTid(0)) {
                continue;
            }
            Event copy = events_[i];
            copy.tid = events_[i].tid == kernelTid(0)
                           ? kernelTid(rank)
                           : transferTid(rank);
            copy.args.emplace_back("mirrored", "true");
            events_.push_back(std::move(copy));
        }
    }
    world_ = std::max(world_, world);
}

void
ChromeTraceWriter::addHostSpans(const std::vector<obs::ThreadSpans> &threads)
{
    for (const obs::ThreadSpans &thread : threads) {
        hostLaneNames_[thread.lane] = thread.threadName;
        for (const obs::SpanEvent &span : thread.spans) {
            Event event;
            event.name = span.name;
            event.category = "host";
            event.tid = thread.lane;
            event.startUs = span.startUs;
            event.durationUs = span.durUs;
            hostEvents_.push_back(std::move(event));
        }
        if (thread.dropped > 0) {
            Event note;
            note.name = strfmt("spans dropped: %lld",
                               static_cast<long long>(thread.dropped));
            note.category = "host";
            note.tid = thread.lane;
            note.startUs = 0;
            note.durationUs = 0;
            hostEvents_.push_back(std::move(note));
        }
    }
}

void
ChromeTraceWriter::addRequestLanes(
    const std::vector<obs::RequestTrace> &traces)
{
    // One lane per retained request, in request-id order (the tracer
    // drains them sorted); tid is just the lane ordinal so ids far
    // apart stay adjacent in the viewer.
    int tid = static_cast<int>(requestLaneNames_.size());
    for (const obs::RequestTrace &trace : traces) {
        std::string label =
            strfmt("req %lld", static_cast<long long>(trace.id));
        if (trace.exemplar)
            label += " [exemplar]";
        label += " (" + trace.outcome + ")";
        requestLaneNames_[tid] = label;
        for (const obs::RequestSpan &span : trace.spans) {
            Event event;
            event.name = span.name;
            event.category = "request";
            event.tid = tid;
            event.startUs = span.startSec * 1e6;
            event.durationUs = (span.endSec - span.startSec) * 1e6;
            if (!span.detail.empty())
                event.args.emplace_back("detail", span.detail);
            requestEvents_.push_back(std::move(event));
        }
        ++tid;
    }
}

std::string
ChromeTraceWriter::json() const
{
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    auto meta = [&](int pid, int tid, const char *what,
                    const std::string &name) {
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
           << ",\"name\":\"" << what << "\",\"args\":{\"name\":\""
           << jsonEscape(name) << "\"}}";
    };
    auto emit = [&](int pid, const Event &event) {
        os << ",\n";
        os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << event.tid
           << ",\"name\":\"" << jsonEscape(event.name) << "\",\"cat\":\""
           << jsonEscape(event.category) << "\""
           << strfmt(",\"ts\":%.4f,\"dur\":%.4f", event.startUs,
                     event.durationUs)
           << ",\"args\":{";
        bool first_arg = true;
        for (const auto &[key, value] : event.args) {
            if (!first_arg)
                os << ",";
            first_arg = false;
            os << "\"" << jsonEscape(key) << "\":\"" << jsonEscape(value)
               << "\"";
        }
        os << "}}";
    };

    // The two pids carry different clock domains: pid 1 runs on
    // simulated device time, pid 2 on the host monotonic clock.
    meta(1, 0, "process_name", "device (sim time)");
    for (int rank = 0; rank < world_; ++rank) {
        const std::string suffix =
            rank == 0 ? "" : strfmt(" rank %d", rank);
        meta(1, kernelTid(rank), "thread_name", "kernels" + suffix);
        meta(1, transferTid(rank), "thread_name",
             "h2d copies" + suffix);
    }
    for (const Event &event : events_)
        emit(1, event);

    if (!hostEvents_.empty()) {
        meta(2, 0, "process_name", "host (wall clock)");
        for (const auto &[lane, name] : hostLaneNames_)
            meta(2, lane, "thread_name", name);
        for (const Event &event : hostEvents_)
            emit(2, event);
    }

    // pid 3 runs on simulated *serving* time (request arrivals are
    // epoch 0), a third clock domain next to device and host.
    if (!requestEvents_.empty()) {
        meta(3, 0, "process_name", "serving requests (sim time)");
        for (const auto &[lane, name] : requestLaneNames_)
            meta(3, lane, "thread_name", name);
        for (const Event &event : requestEvents_)
            emit(3, event);
    }
    os << "\n]}\n";
    return os.str();
}

void
ChromeTraceWriter::write(const std::string &path) const
{
    const std::string doc = json();
    writeFileBytes(path, std::vector<uint8_t>(doc.begin(), doc.end()));
}

} // namespace gnnmark
