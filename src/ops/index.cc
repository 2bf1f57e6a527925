#include "ops/index.hh"

#include <algorithm>

#include "base/allocator.hh"
#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "obs/span.hh"
#include "ops/exec_context.hh"
#include "ops/kernel_common.hh"
#include "ops/lanes.hh"

namespace gnnmark {
namespace ops {

namespace {

/**
 * Emit the row-lookup kernel shared by index-select and gather.
 * Threads are assigned to flattened (row, feature) positions, so when
 * F < 32 one warp touches several (scattered) table rows — the source
 * of the divergent loads the paper measures with NVBit.
 */
void
emitRowLookup(const char *base, OpClass cls, int64_t f, uint64_t tbl_addr,
              uint64_t out_addr, uint64_t idx_addr,
              const std::vector<int32_t> &idx)
{
    if (ExecContext::device() == nullptr || idx.empty() || f == 0)
        return;
    const int eb = deviceElemBytes();
    const int64_t m = static_cast<int64_t>(idx.size());
    const int64_t elems = m * f;
    const int32_t *pidx = idx.data();

    KernelDesc desc;
    desc.name = kernelName(base, {m, f});
    desc.opClass = cls;
    desc.blocks = std::max<int64_t>(1, (elems + 255) / 256);
    desc.warpsPerBlock = 8;
    desc.codeBytes = 4 * 1024;
    desc.aluIlp = 2.0;
    desc.loadDepFraction = 0.7; // loaded row goes (mostly) to the store
    desc.irregular = true;
    const bool is_scatter = cls == OpClass::Scatter;
    // For gather-style lookups `out_addr` is the written array and the
    // table is read; scatter-add flips the roles (atomic adds into the
    // table, contiguous reads of the source).
    if (is_scatter) {
        desc.outputRanges.emplace_back(
            tbl_addr, static_cast<uint64_t>(m) * f * eb);
        desc.inputRanges.emplace_back(
            out_addr, static_cast<uint64_t>(elems) * eb);
    } else {
        desc.outputRanges.emplace_back(
            out_addr, static_cast<uint64_t>(elems) * eb);
        desc.inputRanges.emplace_back(
            tbl_addr, static_cast<uint64_t>(m) * f * eb);
    }
    desc.trace = [=](int64_t warp_id, WarpTraceSink &sink) {
        const int64_t first = warp_id * 32;
        if (first >= elems)
            return;
        const int lanes =
            static_cast<int>(std::min<int64_t>(32, elems - first));
        // Index fetch: one idx element per distinct row in the warp.
        uint64_t iaddrs[32];
        uint64_t taddrs[32];
        for (int l = 0; l < lanes; ++l) {
            const int64_t flat = first + l;
            const int64_t i = flat / f;
            const int64_t j = flat % f;
            iaddrs[l] = idx_addr + i * 4;
            taddrs[l] =
                tbl_addr + (static_cast<int64_t>(pidx[i]) * f + j) * eb;
        }
        sink.int32(22); // row/col decompose: div, mod, muls
        sink.loadGlobal(iaddrs, lanes, 4);
        if (is_scatter) {
            // Read the contiguous source, atomically add into the table.
            sink.loadCoalesced(out_addr + first * eb, eb, lanes);
            sink.fp32(1);
            sink.atomicGlobal(taddrs, lanes, eb);
        } else {
            sink.loadGlobal(taddrs, lanes, eb);
            sink.storeCoalesced(out_addr + first * eb, eb, lanes);
        }
        sink.misc(1);
    };
    emitKernel(desc);
}

Tensor
rowLookup(const Tensor &a, const std::vector<int32_t> &idx,
          const char *base, OpClass cls)
{
    GNN_SPAN("op.row_lookup");
    GNN_ASSERT(a.dim() == 2, "%s needs a 2-d table, got %s", base,
               a.shapeString().c_str());
    const int64_t n = a.size(0);
    const int64_t f = a.size(1);
    const int64_t m = static_cast<int64_t>(idx.size());

    Tensor out = Tensor::empty({m, f});
    const float *pa = a.data();
    float *po = out.data();
    parallel_for(0, m, 256, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            const int32_t r = idx[i];
            GNN_ASSERT(r >= 0 && r < n,
                       "%s: index %d out of range [0, %lld)", base, r,
                       static_cast<long long>(n));
            std::copy(pa + static_cast<int64_t>(r) * f,
                      pa + static_cast<int64_t>(r + 1) * f, po + i * f);
        }
    });
    DeviceSpan idx_span(idx.size() * sizeof(int32_t));
    emitRowLookup(base, cls, f, a.deviceAddr(), out.deviceAddr(),
                  idx_span.addr(), idx);
    return out;
}

} // namespace

Tensor
indexSelectRows(const Tensor &a, const std::vector<int32_t> &idx)
{
    return rowLookup(a, idx, "index_select", OpClass::IndexSelect);
}

Tensor
gatherRows(const Tensor &a, const std::vector<int32_t> &idx)
{
    return rowLookup(a, idx, "gather_rows", OpClass::Gather);
}

void
scatterAddRows(Tensor &out, const std::vector<int32_t> &idx,
               const Tensor &src)
{
    GNN_SPAN("op.scatter_add");
    GNN_ASSERT(out.dim() == 2 && src.dim() == 2 &&
               out.size(1) == src.size(1),
               "scatterAddRows: bad shapes %s, %s",
               out.shapeString().c_str(), src.shapeString().c_str());
    GNN_ASSERT(static_cast<int64_t>(idx.size()) == src.size(0),
               "scatterAddRows: %zu indices for %lld rows", idx.size(),
               static_cast<long long>(src.size(0)));
    const int64_t n = out.size(0);
    const int64_t f = out.size(1);
    float *po = out.data();
    const float *ps = src.data();
    // Rows are added in index order either way; the lane path needs
    // `out` and `src` to be distinct memory.
    const bool lanes = disjoint(po, out.numel(), ps, src.numel());
    for (size_t i = 0; i < idx.size(); ++i) {
        const int32_t r = idx[i];
        GNN_ASSERT(r >= 0 && r < n,
                   "scatterAddRows: index %d out of range [0, %lld)", r,
                   static_cast<long long>(n));
        float *orow = po + static_cast<int64_t>(r) * f;
        const float *srow = ps + static_cast<int64_t>(i) * f;
        if (lanes) {
            addLanes(orow, srow, f);
        } else {
            for (int64_t j = 0; j < f; ++j)
                orow[j] += srow[j];
        }
    }
    // In the kernel trace the roles flip: coalesced reads of src,
    // atomic adds into the table.
    DeviceSpan idx_span(idx.size() * sizeof(int32_t));
    emitRowLookup("scatter_add", OpClass::Scatter, f, out.deviceAddr(),
                  src.deviceAddr(), idx_span.addr(), idx);
}

} // namespace ops
} // namespace gnnmark
