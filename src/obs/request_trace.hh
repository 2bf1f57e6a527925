/**
 * @file
 * Request-scoped span tracing for the serving simulator.
 *
 * Unlike obs::SpanTracer (wall-clock scopes on real threads), this
 * tracer records spans with explicit simulated-time extents: the
 * serving event loop calls addSpan()/addMark() as each request moves
 * through admission → queue → batch → inference → retry/hedge →
 * resolution, then finish()es the request with its outcome.
 *
 * Sampling is exemplar-style: every Nth request id is kept
 * (id % sampleEvery == 0), and any request explicitly retain()-ed —
 * the serving loop retains shed, timed-out and hedge-won requests —
 * is kept regardless of sampling, because the interesting requests
 * are precisely the ones a uniform sample misses. Unsampled,
 * unretained requests drop their spans at finish(), so memory is
 * bounded by in-flight requests plus the retained-lane cap.
 *
 * Retained requests become per-request lanes in the Chrome trace
 * (profiler::ChromeTraceWriter::addRequestLanes). Sampled and
 * exemplar traces draw on separate `laneCap` budgets — a long healthy
 * warm-up cannot crowd out the exemplars that arrive once faults
 * start. Each budget keeps its first `laneCap` traces by finish
 * order, re-sorted by request id at drain, so trace output is
 * byte-stable across thread counts and processes.
 */

#ifndef GNNMARK_OBS_REQUEST_TRACE_HH
#define GNNMARK_OBS_REQUEST_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gnnmark {
namespace obs {

/** One simulated-time span or instant within a request's life. */
struct RequestSpan
{
    std::string name;     ///< e.g. "queue_wait", "infer", "hedge"
    double startSec = 0;
    double endSec = 0;    ///< == startSec for instant marks
    std::string detail;   ///< optional, e.g. "replica=2 batch=17"
};

/** A fully traced request: its span chain plus final outcome. */
struct RequestTrace
{
    int64_t id = 0;
    std::string outcome;   ///< outcomeName() of the final state
    bool exemplar = false; ///< retained outside uniform sampling
    std::vector<RequestSpan> spans;
};

/**
 * Collects span chains for sampled/retained requests. All methods
 * are meant for a single-threaded event loop; no locking.
 */
class RequestTracer
{
  public:
    /**
     * @param sampleEvery keep ids with id % sampleEvery == 0
     *                    (0 disables uniform sampling entirely).
     * @param laneCap     max retained traces per class — sampled and
     *                    exemplar each get their own laneCap budget
     *                    (first-N by finish order, re-sorted by id at
     *                    drain).
     */
    explicit RequestTracer(int64_t sampleEvery, size_t laneCap = 256);

    /** Append a [start, end) span to the request's chain. */
    void addSpan(int64_t id, const std::string &name, double startSec,
                 double endSec, const std::string &detail = "");

    /** Append an instant mark (zero-width span). */
    void addMark(int64_t id, const std::string &name, double atSec,
                 const std::string &detail = "");

    /**
     * Force-keep this request even if unsampled (shed / timeout /
     * hedge-won exemplars). Call any time before finish().
     */
    void retain(int64_t id);

    /** Close the request: keep its trace if sampled/retained. */
    void finish(int64_t id, const std::string &outcome);

    /** Retained traces in ascending request-id order. */
    std::vector<RequestTrace> drain();

    int64_t sampleEvery() const { return sampleEvery_; }
    /** Traces actually kept (== lanes the Chrome trace will show). */
    int64_t tracedCount() const { return traced_; }
    /** Keep-eligible traces dropped because a lane budget was full. */
    int64_t droppedByCap() const { return droppedByCap_; }

  private:
    struct Pending
    {
        bool retained = false;
        std::vector<RequestSpan> spans;
    };

    bool sampled(int64_t id) const
    {
        return sampleEvery_ > 0 && id % sampleEvery_ == 0;
    }

    int64_t sampleEvery_;
    size_t laneCap_;
    size_t keptSampled_ = 0;
    size_t keptExemplar_ = 0;
    int64_t traced_ = 0;
    int64_t droppedByCap_ = 0;
    std::map<int64_t, Pending> pending_;
    std::vector<RequestTrace> kept_;
};

} // namespace obs
} // namespace gnnmark

#endif // GNNMARK_OBS_REQUEST_TRACE_HH
