#include "sim/gpu_device.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "obs/span.hh"
#include "sim/warp_pipeline.hh"

namespace gnnmark {

namespace {

/** Fraction of zero-valued elements in a host buffer (0 when empty). */
template <typename T>
double
zeroFraction(const T *data, size_t count)
{
    size_t zeros = 0;
    for (size_t i = 0; i < count; ++i) {
        if (data[i] == T{0})
            ++zeros;
    }
    return count == 0 ? 0.0
                      : static_cast<double>(zeros) /
                            static_cast<double>(count);
}

} // namespace

GpuDevice::GpuDevice(GpuConfig config, uint64_t seed)
    : cfg_(config), rng_(seed),
      l2_(config.l2SizeBytes, config.l2Assoc, config.cacheLineBytes)
{
    GNN_ASSERT(cfg_.simSmCount >= 1 && cfg_.simSmCount <= cfg_.numSms,
               "simSmCount out of range");
    for (int s = 0; s < cfg_.simSmCount; ++s) {
        l1s_.emplace_back(cfg_.l1SizeBytes, cfg_.l1Assoc,
                          cfg_.cacheLineBytes);
    }
}

GpuDevice::Geometry
GpuDevice::computeGeometry(const KernelDesc &desc) const
{
    GNN_ASSERT(desc.blocks >= 1, "kernel '%s' has no blocks",
               desc.name.c_str());
    GNN_ASSERT(desc.warpsPerBlock >= 1 &&
               desc.warpsPerBlock <= cfg_.maxWarpsPerSm,
               "kernel '%s' has invalid block size", desc.name.c_str());

    Geometry geo;
    geo.totalWarps = desc.totalWarps();
    int by_warps = cfg_.maxWarpsPerSm / desc.warpsPerBlock;
    geo.residentBlocks =
        std::clamp(std::min(by_warps, cfg_.maxBlocksPerSm), 1,
                   cfg_.maxBlocksPerSm);
    int64_t blocks_per_sm =
        (desc.blocks + cfg_.numSms - 1) / cfg_.numSms;
    geo.waves = std::max<int64_t>(
        1, (blocks_per_sm + geo.residentBlocks - 1) / geo.residentBlocks);
    geo.activeSms = static_cast<int>(
        std::min<int64_t>(cfg_.numSms, desc.blocks));
    return geo;
}

void
GpuDevice::simulateDetailed(
    std::span<GpuDevice *const> group, const KernelDesc &desc,
    const Geometry &geo, std::span<SampleState *const> states,
    std::vector<std::pair<int64_t, WarpTrace>> *captured,
    std::vector<KernelRecord> &records)
{
    GNN_ASSERT(desc.trace != nullptr || desc.replay != nullptr,
               "kernel '%s' has no trace generator", desc.name.c_str());
    GpuDevice &lead = *group[0];
    const GpuConfig &cfg = lead.cfg_;

    double sim_warps = 0;
    std::vector<double> cycles_per_wave(group.size(), 0.0);

    // Generated traces are owned here; replayed traces are borrowed
    // from the recording. Reserve up front so pointers into `generated`
    // survive the push_backs.
    std::vector<WarpTrace> generated;
    if (!desc.replay) {
        generated.reserve(static_cast<size_t>(geo.residentBlocks) *
                          desc.warpsPerBlock);
    }

    std::vector<MemberCaches> members(group.size());
    for (int s = 0; s < cfg.simSmCount; ++s) {
        // Blocks are distributed to SMs round-robin; simulate the first
        // resident wave of SM `s`.
        std::vector<const WarpTrace *> traces;
        generated.clear();
        {
            GNN_SPAN("sim.trace_gen");
            for (int rb = 0; rb < geo.residentBlocks; ++rb) {
                int64_t block = s + static_cast<int64_t>(rb) * cfg.numSms;
                if (block >= desc.blocks)
                    break;
                for (int w = 0; w < desc.warpsPerBlock; ++w) {
                    int64_t warp_id = block * desc.warpsPerBlock + w;
                    const WarpTrace *trace;
                    if (desc.replay) {
                        trace = &desc.replay(warp_id);
                    } else {
                        generated.emplace_back();
                        WarpTraceSink sink(generated.back(),
                                           cfg.maxTraceInstrs,
                                           cfg.cacheLineBytes);
                        desc.trace(warp_id, sink);
                        trace = &generated.back();
                    }
                    if (captured != nullptr)
                        captured->emplace_back(warp_id, *trace);
                    traces.push_back(trace);
                }
            }
        }
        if (traces.empty())
            continue;

        // Volta invalidates the (non-coherent) L1 at kernel
        // boundaries; only the L2 persists across launches.
        for (size_t i = 0; i < group.size(); ++i) {
            group[i]->l1s_[s].flush();
            members[i] = {&group[i]->l1s_[s], &group[i]->l2_};
        }
        std::vector<WaveResult> waves;
        {
            GNN_SPAN("sim.pipeline");
            WarpPipeline pipeline(cfg, members, lead.rng_);
            waves = pipeline.runGroup(traces, desc);
        }
        for (size_t i = 1; i < group.size(); ++i)
            group[i]->rng_ = lead.rng_;

        sim_warps += static_cast<double>(traces.size());
        for (size_t i = 0; i < group.size(); ++i) {
            cycles_per_wave[i] += waves[i].cycles;
            records[i] += waves[i];
        }
    }
    GNN_ASSERT(sim_warps > 0, "kernel '%s' produced no simulated warps",
               desc.name.c_str());

    for (size_t i = 0; i < group.size(); ++i) {
        KernelRecord &rec = records[i];
        SampleState &state = *states[i];
        cycles_per_wave[i] /= cfg.simSmCount;

        // Scale sampled counters to the full grid.
        rec *= static_cast<double>(geo.totalWarps) / sim_warps;
        rec.cycles = cycles_per_wave[i] * static_cast<double>(geo.waves);
        rec.detailed = true;

        // Update the per-name running averages used for replay.
        SimCounters per_warp = rec;
        per_warp /= static_cast<double>(geo.totalWarps);
        state.perWarp += per_warp;
        state.cyclesPerWave += cycles_per_wave[i];
        ++state.detailedRuns;
    }
}

KernelRecord
GpuDevice::replayFromSample(const Geometry &geo, const SampleState &state)
{
    const double n = static_cast<double>(state.detailedRuns);

    // Average over the detailed runs, then scale to this grid; the
    // digest gate pins the rounding of that order.
    KernelRecord rec;
    static_cast<SimCounters &>(rec) = state.perWarp;
    rec /= n;
    rec *= static_cast<double>(geo.totalWarps);
    rec.cycles = state.cyclesPerWave / n * static_cast<double>(geo.waves);
    return rec;
}

void
GpuDevice::finishRecord(KernelRecord &record, const Geometry &geo)
{
    double time_pipe = record.cycles / cfg_.clockHz();
    double time_bw = record.dramBytes / cfg_.dramBandwidth;
    if (time_bw > time_pipe) {
        // Bandwidth-bound: the extra wait shows up as memory throttle.
        double extra_cycles = (time_bw - time_pipe) * cfg_.clockHz();
        record.stallCycles[static_cast<size_t>(
            StallReason::MemoryThrottle)] += extra_cycles;
    }
    record.timeSec =
        std::max(time_pipe, time_bw) + cfg_.kernelBaseTimeSec;
    record.cycles = record.timeSec * cfg_.clockHz();
    record.activeSms = geo.activeSms;
    double per_sm_instrs =
        record.totalInstrs() / std::max(1, geo.activeSms);
    record.ipc = record.cycles > 0 ? per_sm_instrs / record.cycles : 0;
}

std::vector<KernelRecord>
GpuDevice::launchGroup(std::span<GpuDevice *const> group,
                       const KernelDesc &desc)
{
    GNN_SPAN("sim.launch");
    GNN_ASSERT(!group.empty(), "launch on an empty group");
    GpuDevice &lead = *group[0];
    const Geometry geo = lead.computeGeometry(desc);

    std::vector<SampleState *> states(group.size());
    for (size_t i = 0; i < group.size(); ++i) {
        GpuDevice &d = *group[i];
        states[i] = &d.samples_[desc.name];
        if (i == 0)
            continue;
        GNN_ASSERT(sameButDataCaches(lead.cfg_, d.cfg_) &&
                       d.hook_ == nullptr &&
                       states[i]->invocations == states[0]->invocations &&
                       states[i]->detailedRuns == states[0]->detailedRuns &&
                       d.rng_.state() == lead.rng_.state(),
                   "device %zu of a lockstep group left the step at "
                   "kernel '%s'",
                   i, desc.name.c_str());
    }

    std::vector<KernelRecord> records(group.size());
    std::vector<std::pair<int64_t, WarpTrace>> captured;
    if (states[0]->detailedRuns < lead.cfg_.detailSampleLimit) {
        simulateDetailed(group, desc, geo, states,
                         lead.hook_ != nullptr ? &captured : nullptr,
                         records);
    } else {
        for (size_t i = 0; i < group.size(); ++i)
            records[i] = replayFromSample(geo, *states[i]);
    }

    for (size_t i = 0; i < group.size(); ++i) {
        GpuDevice &d = *group[i];
        KernelRecord &rec = records[i];
        rec.name = desc.name;
        rec.opClass = desc.opClass;
        rec.invocation = states[i]->invocations++;
        d.finishRecord(rec, geo);

        // Install the kernel's full data footprint into the L2 (the
        // sampled warps covered only a slice of it): the write-allocate
        // output spans first, then the grid-wide read spans with
        // whatever is left of the line budget. The install is deferred:
        // the next detailed launch's pipeline folds in only the sets it
        // reads.
        {
            GNN_SPAN("sim.l2_install");
            int64_t line_budget = 32768;
            for (const auto *ranges :
                 {&desc.outputRanges, &desc.inputRanges}) {
                for (const auto &[addr, bytes] : *ranges) {
                    if (line_budget <= 0)
                        break;
                    line_budget -= d.l2_.deferLines(addr, bytes, line_budget);
                }
            }
        }

        d.kernelTime_ += rec.timeSec;
        ++d.kernelCount_;

        d.notify(rec);
    }
    if (lead.hook_ != nullptr)
        lead.hook_->onLaunch(desc, std::move(captured));
    return records;
}

TransferRecord
GpuDevice::recordTransfer(double bytes, double zero_fraction,
                          const std::string &tag)
{
    TransferRecord tr;
    tr.tag = tag;
    tr.bytes = bytes;
    tr.zeroFraction = zero_fraction;
    double wire_bytes = bytes;
    if (cfg_.h2dCompression) {
        // Zero-value compression ablation: non-zeros plus a bitmap.
        wire_bytes = bytes * (1.0 - zero_fraction) + bytes / 32.0;
    }
    tr.timeSec = cfg_.pcieLatencySec + wire_bytes / cfg_.pcieBandwidth;
    transferTime_ += tr.timeSec;
    for (auto *obs : observers_)
        obs->onTransfer(tr);
    return tr;
}

TransferRecord
GpuDevice::copyHostToDevice(const float *data, size_t count,
                            uint64_t device_addr, const std::string &tag)
{
    return replayHostToDevice(
        device_addr, count * static_cast<size_t>(cfg_.elemBytes),
        zeroFraction(data, count), tag);
}

TransferRecord
GpuDevice::copyHostToDevice(const int32_t *data, size_t count,
                            uint64_t device_addr, const std::string &tag)
{
    return replayHostToDevice(device_addr, count * sizeof(int32_t),
                              zeroFraction(data, count), tag);
}

TransferRecord
GpuDevice::replayHostToDevice(uint64_t addr, uint64_t bytes,
                              double zero_fraction, const std::string &tag)
{
    installInL2(addr, static_cast<size_t>(bytes));
    if (hook_ != nullptr)
        hook_->onTransfer(addr, bytes, zero_fraction, tag);
    return recordTransfer(static_cast<double>(bytes), zero_fraction, tag);
}

void
GpuDevice::installInL2(uint64_t addr, size_t bytes)
{
    // Host-to-device DMA writes allocate in the L2 on Volta.
    GNN_SPAN("sim.l2_install");
    l2_.deferLines(addr, bytes, 32768);
}

void
GpuDevice::addObserver(KernelObserver *observer)
{
    observers_.push_back(observer);
}

void
GpuDevice::notify(const KernelRecord &record)
{
    for (auto *obs : observers_)
        obs->onKernel(record);
}

void
GpuDevice::markIterationBegin()
{
    for (auto *obs : observers_)
        obs->onPhase(PhaseMark::IterationBegin);
    if (hook_ != nullptr)
        hook_->onMarker(TraceMarker::IterationBegin);
}

void
GpuDevice::markBackwardBegin()
{
    for (auto *obs : observers_)
        obs->onPhase(PhaseMark::BackwardBegin);
    if (hook_ != nullptr)
        hook_->onMarker(TraceMarker::BackwardBegin);
}

void
GpuDevice::markBackwardEnd()
{
    for (auto *obs : observers_)
        obs->onPhase(PhaseMark::BackwardEnd);
    if (hook_ != nullptr)
        hook_->onMarker(TraceMarker::BackwardEnd);
}

void
GpuDevice::resetTimers()
{
    kernelTime_ = 0;
    transferTime_ = 0;
    kernelCount_ = 0;
    if (hook_ != nullptr)
        hook_->onMarker(TraceMarker::TimersReset);
}

void
GpuDevice::flushCaches()
{
    l2_.flush();
    for (auto &l1 : l1s_)
        l1.flush();
    if (hook_ != nullptr)
        hook_->onMarker(TraceMarker::CachesFlushed);
}

void
GpuDevice::resetSampling()
{
    samples_.clear();
    if (hook_ != nullptr)
        hook_->onMarker(TraceMarker::SamplingReset);
}

uint64_t
GpuDevice::workspace(size_t bytes)
{
    if (workspace_.bytes() < bytes)
        workspace_ = DeviceSpan(bytes);
    return workspace_.addr();
}

} // namespace gnnmark
