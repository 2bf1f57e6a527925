#include "trace/replayer.hh"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "obs/span.hh"
#include "sim/gpu_device.hh"

namespace gnnmark {
namespace trace {

namespace {

/**
 * All warp traces ever recorded for one kernel name, the fallback
 * pool when a replay config's geometry requests warps the recording
 * config never simulated in detail.
 */
struct WarpArchive
{
    std::unordered_map<int64_t, size_t> byId; ///< warp id -> pool index
    std::vector<const WarpTrace *> pool;      ///< insertion order
};

/**
 * Replay `trace` on configs[p] for each p in `points`, which must
 * differ only in data-cache geometry: one device per point walks the
 * stream in step, and GpuDevice::launchGroup runs each detailed wave
 * once for all of them. Point p's result and observers are results[p]
 * and observers[p] (none when observers is shorter).
 */
void
replayLockstep(const RecordedTrace &trace,
               const std::vector<GpuConfig> &configs,
               const std::vector<size_t> &points,
               const std::vector<std::vector<KernelObserver *>> &observers,
               std::vector<ReplayResult> &results)
{
    GNN_SPAN("trace.replay");
    std::vector<std::unique_ptr<GpuDevice>> owned;
    std::vector<GpuDevice *> devices;
    std::vector<std::unique_ptr<TimelineCollector>> timelines;
    for (size_t p : points) {
        const GpuConfig &config = configs[p];
        owned.push_back(
            std::make_unique<GpuDevice>(config, trace.header.seed));
        GpuDevice &device = *owned.back();
        devices.push_back(&device);
        results[p].name = trace.header.workload;
        device.addObserver(&results[p].profiler);
        timelines.push_back(
            std::make_unique<TimelineCollector>(config.launchOverheadSec));
        device.addObserver(timelines.back().get());
        if (p < observers.size()) {
            for (KernelObserver *observer : observers[p])
                device.addObserver(observer);
        }
    }

    std::unordered_map<std::string, WarpArchive> archives;

    // Hoisted so its string/vector capacity is reused across launches.
    KernelDesc desc;

    for (const TraceEvent &event : trace.events) {
        if (const auto *launch = std::get_if<LaunchEvent>(&event)) {
            WarpArchive &archive = archives[launch->name];
            for (const TracedWarp &warp : launch->warps) {
                auto [it, fresh] =
                    archive.byId.try_emplace(warp.warpId,
                                             archive.pool.size());
                if (fresh)
                    archive.pool.push_back(&warp.trace);
                else
                    archive.pool[it->second] = &warp.trace;
            }

            static_cast<KernelShape &>(desc) = *launch;

            // Pure function of the warp id (required by the device):
            // exact recorded warp first, then the kernel's archive by
            // id, then by index modulo the archived sample. Returns a
            // borrowed reference — the trace and archive outlive the
            // launch, and skipping the deep copy is a large share of
            // the replay speedup over live simulation.
            const LaunchEvent *ev = launch;
            const WarpArchive *arch = &archive;
            desc.replay =
                [ev, arch](int64_t warp_id) -> const WarpTrace & {
                for (const TracedWarp &warp : ev->warps) {
                    if (warp.warpId == warp_id)
                        return warp.trace;
                }
                auto it = arch->byId.find(warp_id);
                if (it != arch->byId.end())
                    return *arch->pool[it->second];
                if (!arch->pool.empty()) {
                    return *arch->pool[static_cast<size_t>(warp_id) %
                                       arch->pool.size()];
                }
                GNN_FATAL(
                    "trace replay: no recorded warp trace for kernel "
                    "'%s' (warp %lld) — the replay config asks for "
                    "more detail than the recording captured; "
                    "re-record with detailSampleLimit >= the replay "
                    "config's",
                    ev->name.c_str(),
                    static_cast<long long>(warp_id));
            };
            GpuDevice::launchGroup(devices, desc);
        } else if (const auto *transfer =
                       std::get_if<TransferEvent>(&event)) {
            for (GpuDevice *device : devices) {
                device->replayHostToDevice(transfer->addr, transfer->bytes,
                                           transfer->zeroFraction,
                                           transfer->tag);
            }
        } else {
            const TraceMarker marker = std::get<TraceMarker>(event);
            for (GpuDevice *device : devices) {
                switch (marker) {
                  case TraceMarker::IterationBegin:
                    // Fans out to the profiler and timeline collector
                    // exactly like the live driver's mark call did.
                    device->markIterationBegin();
                    break;
                  case TraceMarker::TimersReset:
                    device->resetTimers();
                    break;
                  case TraceMarker::CachesFlushed:
                    device->flushCaches();
                    break;
                  case TraceMarker::SamplingReset:
                    device->resetSampling();
                    break;
                  case TraceMarker::BackwardBegin:
                    device->markBackwardBegin();
                    break;
                  case TraceMarker::BackwardEnd:
                    device->markBackwardEnd();
                    break;
                  case TraceMarker::NumMarkers:
                    break;
                }
            }
        }
    }

    for (size_t i = 0; i < points.size(); ++i) {
        ReplayResult &result = results[points[i]];
        result.losses = trace.header.losses;
        result.iterations = timelines[i]->iterations();
        result.wallTimeSec = devices[i]->wallTimeSec();
        result.iterationsPerEpoch = trace.header.iterationsPerEpoch;
        result.parameterBytes = trace.header.parameterBytes;
        if (trace.header.iterations > 0) {
            result.epochTimeSec =
                result.wallTimeSec / trace.header.iterations *
                static_cast<double>(result.iterationsPerEpoch);
        }
    }
}

/**
 * The lockstep groups of a sweep, as lists of config indices: each
 * class of configs that differ only in data-cache geometry, in order of
 * first appearance, split into at most `threads` contiguous groups of
 * near-equal size, so that every pool thread has a group to run.
 */
std::vector<std::vector<size_t>>
lockstepGroups(const std::vector<GpuConfig> &configs, int threads)
{
    std::vector<std::vector<size_t>> classes;
    for (size_t p = 0; p < configs.size(); ++p) {
        auto it = std::find_if(
            classes.begin(), classes.end(),
            [&](const std::vector<size_t> &c) {
                return sameButDataCaches(configs[c[0]], configs[p]);
            });
        if (it == classes.end())
            classes.push_back({p});
        else
            it->push_back(p);
    }
    std::vector<std::vector<size_t>> groups;
    for (const std::vector<size_t> &c : classes) {
        const size_t n = std::min(c.size(), static_cast<size_t>(threads));
        size_t begin = 0;
        for (size_t g = 0; g < n; ++g) {
            const size_t size = c.size() / n + (g < c.size() % n ? 1 : 0);
            groups.emplace_back(c.begin() + static_cast<long>(begin),
                                c.begin() + static_cast<long>(begin + size));
            begin += size;
        }
    }
    return groups;
}

} // namespace

ReplayResult
replayTrace(const RecordedTrace &trace, const GpuConfig &config,
            const std::vector<KernelObserver *> &extra_observers)
{
    std::vector<ReplayResult> results(1);
    replayLockstep(trace, {config}, {0}, {extra_observers}, results);
    return std::move(results[0]);
}

ReplayResult
replayTrace(const RecordedTrace &trace)
{
    return replayTrace(trace, trace.header.config);
}

std::vector<ReplayResult>
sweepTrace(const RecordedTrace &trace, const std::vector<GpuConfig> &configs,
           const std::vector<std::vector<KernelObserver *>> &observers)
{
    // Each group owns its devices and results and the trace is
    // read-only, so groups run concurrently on the shared pool. The sim
    // itself never touches the pool (only CPU numeric kernels do, and a
    // replay runs none), so there is no nesting to degrade.
    ThreadPool &pool = ThreadPool::instance();
    const std::vector<std::vector<size_t>> groups =
        lockstepGroups(configs, pool.threadCount());
    std::vector<ReplayResult> results(configs.size());
    pool.parallelFor(0, static_cast<int64_t>(groups.size()), 1,
                     [&](int64_t begin, int64_t end) {
                         for (int64_t g = begin; g < end; ++g) {
                             replayLockstep(trace, configs,
                                            groups[static_cast<size_t>(g)],
                                            observers, results);
                         }
                     });
    return results;
}

} // namespace trace
} // namespace gnnmark
