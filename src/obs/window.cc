#include "obs/window.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace gnnmark {
namespace obs {

// Bucket layout: 8 sub-buckets per octave, octaves offset so that
// 2^-24 (~6e-8) maps to bucket 1. Index math uses std::floor on
// log2(v), which is deterministic for a given libm; all quantile
// reads then operate on integer counts only.
int QuantileSketch::bucketFor(double value)
{
    if (!(value > 0)) // catches v <= 0 and NaN
        return 0;
    double idx = std::floor(8.0 * (std::log2(value) + 24.0)) + 1.0;
    if (idx < 1)
        return 1;
    if (idx > static_cast<double>(kSketchBuckets - 1))
        return static_cast<int>(kSketchBuckets - 1);
    return static_cast<int>(idx);
}

double QuantileSketch::bucketValue(int b)
{
    if (b <= 0)
        return 0;
    // Geometric midpoint of [2^((b-1)/8 - 24), 2^(b/8 - 24)).
    return std::exp2((b - 0.5) / 8.0 - 24.0);
}

void QuantileSketch::observe(double value)
{
    buckets_[bucketFor(value)]++;
    count_++;
}

double QuantileSketch::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    q = std::min(std::max(q, 0.0), 1.0);
    int64_t rank = static_cast<int64_t>(std::ceil(q * count_));
    if (rank < 1)
        rank = 1;
    int64_t seen = 0;
    for (size_t i = 0; i < kSketchBuckets; i++) {
        seen += buckets_[i];
        if (seen >= rank)
            return bucketValue(static_cast<int>(i));
    }
    return bucketValue(static_cast<int>(kSketchBuckets - 1));
}

WindowedSeries::WindowedSeries(double widthSec, int64_t windowCap)
    : widthSec_(widthSec), cap_(windowCap)
{
    GNN_ASSERT(widthSec > 0, "WindowedSeries width must be > 0");
    GNN_ASSERT(windowCap > 0, "WindowedSeries cap must be > 0");
}

bool WindowedSeries::pastCap(double t) const
{
    return !(std::max(t, 0.0) / widthSec_ < static_cast<double>(cap_));
}

int64_t WindowedSeries::windowOf(double t) const
{
    // Test the cap in double and convert only values in range: past
    // int64_t's range the conversion is undefined.
    if (pastCap(t))
        return cap_ - 1;
    return static_cast<int64_t>(std::floor(std::max(t, 0.0) / widthSec_));
}

void WindowedSeries::observe(double t, double value)
{
    if (pastCap(t))
        capped_++;
    Window &w = windows_[windowOf(t)];
    if (w.count == 0) {
        w.minValue = value;
        w.maxValue = value;
    } else {
        w.minValue = std::min(w.minValue, value);
        w.maxValue = std::max(w.maxValue, value);
    }
    w.count++;
    w.sum += value;
    w.sketch.observe(value);
    total_++;
}

std::vector<WindowStats> WindowedSeries::series(double horizonSec) const
{
    int64_t last = -1;
    if (!windows_.empty())
        last = windows_.rbegin()->first;
    if (horizonSec > 0) {
        // ceil(horizon / width) windows cover [0, horizon); a horizon
        // landing exactly on a boundary does not open a new window.
        // Capped in double before the conversion, as in windowOf().
        const double windows = std::ceil(horizonSec / widthSec_);
        const int64_t fromHorizon =
            windows < static_cast<double>(cap_)
                ? static_cast<int64_t>(windows) - 1
                : cap_ - 1;
        last = std::max(last, fromHorizon);
    }
    std::vector<WindowStats> out;
    if (last < 0)
        return out;
    out.reserve(static_cast<size_t>(last) + 1);
    for (int64_t i = 0; i <= last; i++) {
        WindowStats s;
        s.index = i;
        s.startSec = i * widthSec_;
        s.endSec = (i + 1) * widthSec_;
        auto it = windows_.find(i);
        if (it != windows_.end()) {
            const Window &w = it->second;
            s.count = w.count;
            s.sum = w.sum;
            s.minValue = w.minValue;
            s.maxValue = w.maxValue;
            s.p50 = w.sketch.quantile(0.50);
            s.p95 = w.sketch.quantile(0.95);
            s.p99 = w.sketch.quantile(0.99);
        }
        out.push_back(s);
    }
    return out;
}

} // namespace obs
} // namespace gnnmark
