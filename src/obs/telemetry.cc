#include "obs/telemetry.hh"

#include "base/io.hh"
#include "obs/json.hh"

namespace gnnmark {
namespace obs {

TelemetrySink::TelemetrySink(const std::string &path)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc)
{
    if (!out_.is_open()) {
        throw IoError(IoError::Kind::OpenFailed,
                      "telemetry file '" + path + "': cannot open for "
                      "writing");
    }
}

void
TelemetrySink::writeRecord(const std::string &json_object)
{
    out_ << json_object << '\n';
    ++records_;
    if (!out_) {
        throw IoError(IoError::Kind::ShortWrite,
                      "telemetry file '" + path_ + "': write failed");
    }
}

void
writeMetricsSnapshot(JsonWriter &w, const MetricsSnapshot &snapshot)
{
    w.beginObject();
    w.key("counters").beginObject();
    for (const auto &[name, value] : snapshot.counters)
        w.key(name).value(value);
    w.endObject();
    w.key("gauges").beginObject();
    for (const auto &[name, value] : snapshot.gauges)
        w.key(name).value(value);
    w.endObject();
    w.key("histograms").beginObject();
    for (const auto &[name, buckets] : snapshot.histograms) {
        size_t last = buckets.size();
        while (last > 0 && buckets[last - 1] == 0)
            --last;
        w.key(name).beginArray();
        for (size_t b = 0; b < last; ++b)
            w.value(buckets[b]);
        w.endArray();
    }
    w.endObject();
    w.endObject();
}

} // namespace obs
} // namespace gnnmark
