#include "ledger.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace hostbench {

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<TailPercentile>
tailPercentile(std::vector<double> samples, size_t beyond)
{
    const size_t n = samples.size();
    if (n <= beyond)
        return std::nullopt;
    std::sort(samples.begin(), samples.end());
    TailPercentile tail;
    const size_t rank = n - beyond; // 1-based nearest rank
    tail.value = samples[rank - 1];
    tail.percentile = 100.0 * static_cast<double>(rank) /
                      static_cast<double>(n);
    tail.beyond = beyond;
    tail.count = n;
    return tail;
}

namespace {

/** Spans grouped by lane, each lane sorted parents-first. */
std::map<int, std::vector<const Span *>>
byLane(const std::vector<Span> &spans)
{
    std::map<int, std::vector<const Span *>> lanes;
    for (const Span &s : spans)
        lanes[s.lane].push_back(&s);
    for (auto &[lane, list] : lanes) {
        std::sort(list.begin(), list.end(),
                  [](const Span *a, const Span *b) {
                      if (a->startUs != b->startUs)
                          return a->startUs < b->startUs;
                      return a->durUs > b->durUs;
                  });
    }
    return lanes;
}

/**
 * Walk one lane's parents-first list, calling visit(span, parent)
 * with the innermost span still open at span's start (or nullptr).
 */
template <typename Visit>
void
walkNesting(const std::vector<const Span *> &list, Visit visit)
{
    std::vector<const Span *> open;
    for (const Span *s : list) {
        while (!open.empty() &&
               open.back()->startUs + open.back()->durUs <= s->startUs)
            open.pop_back();
        visit(*s, open.empty() ? nullptr : open.back());
        open.push_back(s);
    }
}

} // namespace

std::map<std::string, double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::map<std::string, double> self;
    for (const auto &[lane, list] : byLane(spans)) {
        walkNesting(list, [&](const Span &s, const Span *parent) {
            self[s.name] += s.durUs;
            if (parent != nullptr) {
                const double end =
                    std::min(s.startUs + s.durUs,
                             parent->startUs + parent->durUs);
                self[parent->name] -= std::max(0.0, end - s.startUs);
            }
        });
    }
    return self;
}

double
outermostUs(const std::vector<Span> &spans)
{
    double total = 0;
    for (const auto &[lane, list] : byLane(spans)) {
        walkNesting(list, [&](const Span &s, const Span *parent) {
            if (parent == nullptr)
                total += s.durUs;
        });
    }
    return total;
}

bool
operator==(const StepOutputs &a, const StepOutputs &b)
{
    return a.lossBits == b.lossBits && a.launches == b.launches &&
           a.kernelBits == b.kernelBits && a.l1HitBits == b.l1HitBits &&
           a.l2HitBits == b.l2HitBits;
}

uint32_t
floatBits(float v)
{
    uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

uint64_t
doubleBits(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

std::string
formatOutputs(const StepOutputs &out)
{
    char line[128];
    std::snprintf(line, sizeof line,
                  "%08" PRIx32 " %" PRId64 " %016" PRIx64 " %016" PRIx64
                  " %016" PRIx64,
                  out.lossBits, out.launches, out.kernelBits,
                  out.l1HitBits, out.l2HitBits);
    return line;
}

std::optional<StepOutputs>
parseOutputs(const std::string &line)
{
    StepOutputs out;
    char tail = 0;
    const int n = std::sscanf(
        line.c_str(),
        "%" SCNx32 " %" SCNd64 " %" SCNx64 " %" SCNx64 " %" SCNx64 " %c",
        &out.lossBits, &out.launches, &out.kernelBits, &out.l1HitBits,
        &out.l2HitBits, &tail);
    if (n != 5)
        return std::nullopt;
    return out;
}

std::vector<StepOutputs>
readExpected(const std::string &path)
{
    std::vector<StepOutputs> table;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto out = parseOutputs(line);
        if (!out)
            return {}; // a damaged table fails every step it would check
        table.push_back(*out);
    }
    return table;
}

std::string
checkStep(const StepOutputs &got, size_t step,
          const std::vector<StepOutputs> *expected)
{
    float loss = 0;
    std::memcpy(&loss, &got.lossBits, sizeof loss);
    if (!std::isfinite(loss))
        return "step " + std::to_string(step) + ": loss is not finite";
    if (expected == nullptr)
        return {};
    if (step >= expected->size())
        return "step " + std::to_string(step) +
               ": no expected values (table has " +
               std::to_string(expected->size()) + " steps)";
    if (!(got == (*expected)[step]))
        return "step " + std::to_string(step) + ": got " +
               formatOutputs(got) + ", expected " +
               formatOutputs((*expected)[step]);
    return {};
}

} // namespace hostbench
