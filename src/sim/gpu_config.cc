#include "sim/gpu_config.hh"

#include <bit>

#include "base/string_utils.hh"

namespace gnnmark {

namespace {

/** Largest maxTraceInstrs accepted: the trace decoder sizes a recorded
 *  warp's op list by it. */
constexpr int kMaxTraceInstrsLimit = 65536;

/** "" when CacheModel accepts the geometry; 1 GiB caps its tag array. */
std::string
validateCache(const char *name, uint64_t bytes, int assoc, int line)
{
    if (assoc >= 1 && assoc <= 64 && line >= 1 &&
        std::has_single_bit(static_cast<unsigned>(line)) && bytes > 0 &&
        bytes % (static_cast<uint64_t>(line) * assoc) == 0 && bytes <= GiB)
        return "";
    return strfmt("%s of %llu B, %d-way, %d B lines: needs a power-of-two "
                  "line, 1 to 64 ways and a size that is a positive "
                  "multiple of line x ways, up to 1 GiB",
                  name, static_cast<unsigned long long>(bytes), assoc, line);
}

} // namespace

std::string
validateConfig(const GpuConfig &cfg)
{
    if (cfg.simSmCount < 1 || cfg.simSmCount > cfg.numSms)
        return strfmt("need 1 <= detailed SMs (%d) <= SMs (%d)",
                      cfg.simSmCount, cfg.numSms);
    if (cfg.maxWarpsPerSm < 1 || cfg.maxBlocksPerSm < 1)
        return strfmt("need at least one resident warp (%d) and block "
                      "(%d) per SM",
                      cfg.maxWarpsPerSm, cfg.maxBlocksPerSm);
    if (cfg.maxTraceInstrs < 1 || cfg.maxTraceInstrs > kMaxTraceInstrsLimit)
        return strfmt("need 1 <= recorded instructions per warp (%d) <= %d",
                      cfg.maxTraceInstrs, kMaxTraceInstrsLimit);
    const struct
    {
        const char *name;
        uint64_t bytes;
        int assoc;
    } caches[] = {
        {"L1", cfg.l1SizeBytes, cfg.l1Assoc},
        {"L2", cfg.l2SizeBytes, cfg.l2Assoc},
        {"L0I", cfg.l0ISizeBytes, cfg.l0IAssoc},
        {"L1I", cfg.l1ISizeBytes, kL1IAssoc},
    };
    for (const auto &cache : caches) {
        std::string problem = validateCache(cache.name, cache.bytes,
                                            cache.assoc, cfg.cacheLineBytes);
        if (!problem.empty())
            return problem;
    }
    return "";
}

bool
sameButDataCaches(const GpuConfig &a, const GpuConfig &b)
{
    GpuConfig b_as_a = b;
    b_as_a.l1SizeBytes = a.l1SizeBytes;
    b_as_a.l1Assoc = a.l1Assoc;
    b_as_a.l2SizeBytes = a.l2SizeBytes;
    b_as_a.l2Assoc = a.l2Assoc;
    return a == b_as_a;
}

GpuConfig
GpuConfig::v100()
{
    // The defaults in the struct definition are the V100 numbers; this
    // factory exists so call sites read explicitly and so alternative
    // presets can be added without touching the defaults.
    return GpuConfig{};
}

GpuConfig
GpuConfig::a100()
{
    GpuConfig cfg;
    cfg.numSms = 108;
    cfg.clockGhz = 1.41;
    cfg.l1SizeBytes = 192 * KiB;
    cfg.l2SizeBytes = 40 * MiB;
    cfg.dramBandwidth = 1555e9;
    cfg.dramLatency = 470;  // HBM2e is slightly further away
    cfg.l2HitLatency = 200; // larger, partitioned L2
    return cfg;
}

} // namespace gnnmark
