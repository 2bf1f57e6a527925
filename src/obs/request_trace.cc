#include "obs/request_trace.hh"

#include <algorithm>

namespace gnnmark {
namespace obs {

RequestTracer::RequestTracer(int64_t sampleEvery, size_t laneCap)
    : sampleEvery_(sampleEvery), laneCap_(laneCap)
{
}

void RequestTracer::addSpan(int64_t id, const std::string &name,
                            double startSec, double endSec,
                            const std::string &detail)
{
    // Spans accumulate for every request until finish() decides its
    // fate: a request only becomes an exemplar (shed/timeout/hedge
    // win) partway through its life, and by then the early spans must
    // already exist. pending_ stays bounded by in-flight requests.
    Pending &p = pending_[id];
    RequestSpan s;
    s.name = name;
    s.startSec = startSec;
    s.endSec = std::max(startSec, endSec);
    s.detail = detail;
    p.spans.push_back(std::move(s));
}

void RequestTracer::addMark(int64_t id, const std::string &name,
                            double atSec, const std::string &detail)
{
    addSpan(id, name, atSec, atSec, detail);
}

void RequestTracer::retain(int64_t id)
{
    pending_[id].retained = true;
}

void RequestTracer::finish(int64_t id, const std::string &outcome)
{
    auto it = pending_.find(id);
    if (it == pending_.end())
        return;
    const bool exemplar = it->second.retained && !sampled(id);
    const bool keep = sampled(id) || it->second.retained;
    if (keep) {
        // Sampled and exemplar traces spend separate lane budgets so
        // a healthy warm-up full of sampled requests cannot starve
        // the exemplars that only appear once faults kick in.
        size_t &used = exemplar ? keptExemplar_ : keptSampled_;
        if (used < laneCap_) {
            ++used;
            RequestTrace t;
            t.id = id;
            t.outcome = outcome;
            t.exemplar = exemplar;
            t.spans = std::move(it->second.spans);
            kept_.push_back(std::move(t));
            traced_++;
        } else {
            droppedByCap_++;
        }
    }
    pending_.erase(it);
}

std::vector<RequestTrace> RequestTracer::drain()
{
    std::vector<RequestTrace> out = std::move(kept_);
    kept_.clear();
    std::sort(out.begin(), out.end(),
              [](const RequestTrace &a, const RequestTrace &b) {
                  return a.id < b.id;
              });
    return out;
}

} // namespace obs
} // namespace gnnmark
