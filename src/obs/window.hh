/**
 * @file
 * Deterministic streaming quantile sketches and tumbling windows over
 * simulated time.
 *
 * QuantileSketch is a fixed-layout log-spaced bucket sketch: an
 * observation lands in bucket floor(8*log2(v)) + offset, so eight
 * sub-buckets cover every octave and a reported quantile is at most
 * ~4.5% from the true value. Buckets hold integer counts and a
 * quantile is read off the cumulative counts by nearest rank — no
 * floating-point accumulation order anywhere, so the same multiset of
 * observations produces the same sketch bytes in any order.
 *
 * WindowedSeries buckets (time, value) observations into tumbling
 * windows of fixed width on the *simulated* clock: window k covers
 * [k*w, (k+1)*w). Each window keeps a count, an exact sum/min/max and
 * a QuantileSketch, so an end-of-run report can print a p50/p95/p99
 * *series* instead of one all-run number. Observations must come from
 * a single thread (both the serving event loop and the streamed
 * trainer are single-threaded consumers), which is what keeps the
 * exact sums deterministic too.
 */

#ifndef GNNMARK_OBS_WINDOW_HH
#define GNNMARK_OBS_WINDOW_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace gnnmark {
namespace obs {

/** Number of log-spaced buckets in a QuantileSketch. */
constexpr size_t kSketchBuckets = 512;

/**
 * Mergeable fixed-bucket quantile sketch. Bucket 0 collects v <= 0
 * (and NaN); bucket b >= 1 covers [2^((b-1)/8 - 24), 2^(b/8 - 24)),
 * i.e. ~6e-8 up to ~2^40 with 8 sub-buckets per octave. A quantile
 * reports the geometric midpoint of the nearest-rank bucket.
 */
class QuantileSketch
{
  public:
    /** Record one observation. */
    void observe(double value);

    /** Total observations recorded. */
    int64_t count() const { return count_; }

    /**
     * Nearest-rank quantile for q in (0, 1]: the representative value
     * of the bucket holding the ceil(q * count)-th observation, or 0
     * when the sketch is empty.
     */
    double quantile(double q) const;

    /** Bucket index an observation lands in (see class doc). */
    static int bucketFor(double value);

    /** Representative (geometric midpoint) value of bucket `b`. */
    static double bucketValue(int b);

    const std::array<int64_t, kSketchBuckets> &buckets() const
    {
        return buckets_;
    }

  private:
    std::array<int64_t, kSketchBuckets> buckets_{};
    int64_t count_ = 0;
};

/** Aggregates of one tumbling window, emitted by WindowedSeries. */
struct WindowStats
{
    int64_t index = 0;   ///< window number (start = index * width)
    double startSec = 0; ///< inclusive window start
    double endSec = 0;   ///< exclusive window end
    int64_t count = 0;
    double sum = 0;
    double minValue = 0; ///< 0 when the window is empty
    double maxValue = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;

    double mean() const { return count > 0 ? sum / count : 0; }
};

/**
 * Tumbling-window series over simulated time. Windows materialize
 * lazily (a quiet window costs nothing until series() fills the gap),
 * and windowCap bounds runaway cardinality from a tiny width against
 * a long horizon: observations past the cap collapse into the last
 * window rather than growing without bound.
 */
class WindowedSeries
{
  public:
    /** @param widthSec  window width; must be > 0. */
    explicit WindowedSeries(double widthSec, int64_t windowCap = 4096);

    /**
     * Window that simulated time `t` falls in: t < 0 clamps to window
     * 0, and a time past the cap (or NaN) to the last window.
     */
    int64_t windowOf(double t) const;

    /** Record `value` in the window windowOf(t). */
    void observe(double t, double value);

    /** Total observations across all windows. */
    int64_t totalCount() const { return total_; }

    /** Observations that hit the windowCap collapse (diagnostic). */
    int64_t cappedCount() const { return capped_; }

    /**
     * Contiguous window stats from window 0 through the later of the
     * last populated window and `horizonSec` (quiet gaps emit empty
     * windows, so every series over the same horizon has the same
     * length). Empty input and horizon <= 0 produce an empty vector.
     */
    std::vector<WindowStats> series(double horizonSec) const;

  private:
    /** Whether `t` falls at or past window windowCap. */
    bool pastCap(double t) const;

    struct Window
    {
        int64_t count = 0;
        double sum = 0;
        double minValue = 0;
        double maxValue = 0;
        QuantileSketch sketch;
    };

    double widthSec_;
    int64_t cap_;
    int64_t total_ = 0;
    int64_t capped_ = 0;
    std::map<int64_t, Window> windows_;
};

} // namespace obs
} // namespace gnnmark

#endif // GNNMARK_OBS_WINDOW_HH
