#include "ops/spmm.hh"

#include <algorithm>

#include "base/logging.hh"
#include "obs/span.hh"
#include "ops/cpu_kernels.hh"
#include "ops/dispatch.hh"
#include "ops/exec_context.hh"
#include "ops/kernel_common.hh"

namespace gnnmark {
namespace ops {

namespace {

/**
 * The CSR SpMM footprint the paper characterises: one warp per (row,
 * 32-feature chunk), gathering B rows by column index. Emitted for
 * CSR storage whatever host variant ran, so existing workload
 * baselines are untouched by dispatch decisions.
 */
void
emitSpmmCsrKernel(const CsrMatrix &a, const Tensor &b, const Tensor &c)
{
    if (ExecContext::device() == nullptr)
        return;
    const int64_t m = a.rows;
    const int64_t f = b.size(1);
    const int eb = deviceElemBytes();
    const int64_t fchunks = std::max<int64_t>(1, (f + 31) / 32);
    const uint64_t b_addr = b.deviceAddr();
    const uint64_t c_addr = c.deviceAddr();
    const uint64_t rp_addr = a.rowPtrAddr();
    const uint64_t ci_addr = a.colIdxAddr();
    const uint64_t v_addr = a.valsAddr();
    // Capturing raw pointers into `a` is safe: launch is synchronous.
    const int32_t *row_ptr = a.rowPtr.data();
    const int32_t *col_idx = a.colIdx.data();

    KernelDesc desc;
    desc.name = kernelName("spmm_csr", {m, f, a.nnz()});
    desc.opClass = OpClass::SpMM;
    desc.blocks = std::max<int64_t>(1, (m * fchunks + 7) / 8);
    desc.warpsPerBlock = 8;
    desc.codeBytes = 12 * 1024;
    desc.aluIlp = 2.5;
    desc.loadDepFraction = 0.6; // gathered row feeds the FMA
    desc.irregular = true;
    desc.outputRanges.emplace_back(
        c_addr, static_cast<uint64_t>(m) * f * eb);
    desc.inputRanges.emplace_back(
        b_addr, static_cast<uint64_t>(b.size(0)) * f * eb);
    desc.trace = [=](int64_t warp_id, WarpTraceSink &sink) {
        const int64_t row = warp_id / fchunks;
        const int64_t chunk = warp_id % fchunks;
        if (row >= m)
            return;
        const int lanes = static_cast<int>(
            std::min<int64_t>(32, f - chunk * 32));
        // Row extent from rowPtr (two scalar loads).
        uint64_t rp = rp_addr + row * 4;
        sink.loadGlobal(&rp, 1, 8);
        sink.int32(2);
        const int32_t begin = row_ptr[row];
        const int32_t end = row_ptr[row + 1];
        int64_t done = 0;
        const int64_t nnz_row = end - begin;
        for (int32_t e = begin; e < end; ++e, ++done) {
            if (sink.full())
                break;
            if ((e - begin) % 32 == 0) {
                // One coalesced colIdx/vals fetch per 32 edges.
                sink.loadCoalesced(ci_addr + e * 4, 4);
                sink.loadCoalesced(v_addr + e * eb, eb);
            }
            // Gather the 32-wide feature slice of row colIdx[e].
            const int64_t col = col_idx[e];
            sink.loadCoalesced(
                b_addr + (col * f + chunk * 32) * eb, eb, lanes);
            sink.fma(1);
            sink.int32(5);
        }
        if (done < nnz_row && done > 0) {
            sink.scaleRemainder(static_cast<double>(nnz_row) /
                                static_cast<double>(done));
        }
        sink.storeCoalesced(c_addr + (row * f + chunk * 32) * eb, eb,
                            lanes);
        sink.misc(1);
    };
    emitKernel(desc);
}

/**
 * COO footprint: edge-parallel, one warp per (32-edge group,
 * 32-feature chunk). Every edge scatters into its output row with a
 * global atomic — the contention cost that makes COO the worst GPU
 * format for power-law graphs despite its simplicity.
 */
void
emitSpmmCooKernel(const CooMatrix &a, const Tensor &b, const Tensor &c)
{
    if (ExecContext::device() == nullptr)
        return;
    const int64_t m = a.rows;
    const int64_t f = b.size(1);
    const int64_t nnz = a.nnz();
    const int eb = deviceElemBytes();
    const int64_t fchunks = std::max<int64_t>(1, (f + 31) / 32);
    const int64_t egroups = std::max<int64_t>(1, (nnz + 31) / 32);
    const uint64_t b_addr = b.deviceAddr();
    const uint64_t c_addr = c.deviceAddr();
    const uint64_t ri_addr = a.rowIdxAddr();
    const uint64_t ci_addr = a.colIdxAddr();
    const uint64_t v_addr = a.valsAddr();
    const int32_t *row_idx = a.rowIdx.data();
    const int32_t *col_idx = a.colIdx.data();

    KernelDesc desc;
    desc.name = kernelName("spmm_coo", {m, f, nnz});
    desc.opClass = OpClass::SpMM;
    desc.blocks = std::max<int64_t>(1, (egroups * fchunks + 7) / 8);
    desc.warpsPerBlock = 8;
    desc.codeBytes = 10 * 1024;
    desc.aluIlp = 2.0;
    desc.loadDepFraction = 0.7; // gather feeds the atomic directly
    desc.irregular = true;
    desc.outputRanges.emplace_back(
        c_addr, static_cast<uint64_t>(m) * f * eb);
    desc.inputRanges.emplace_back(
        b_addr, static_cast<uint64_t>(b.size(0)) * f * eb);
    desc.trace = [=](int64_t warp_id, WarpTraceSink &sink) {
        const int64_t group = warp_id / fchunks;
        const int64_t chunk = warp_id % fchunks;
        if (group >= egroups)
            return;
        const int lanes = static_cast<int>(
            std::min<int64_t>(32, f - chunk * 32));
        const int64_t e0 = group * 32;
        const int64_t e1 = std::min<int64_t>(nnz, e0 + 32);
        // One coalesced fetch of the group's triples.
        sink.loadCoalesced(ri_addr + e0 * 4, 4);
        sink.loadCoalesced(ci_addr + e0 * 4, 4);
        sink.loadCoalesced(v_addr + e0 * eb, eb);
        sink.int32(6);
        int64_t done = 0;
        for (int64_t e = e0; e < e1; ++e, ++done) {
            if (sink.full())
                break;
            const int64_t col = col_idx[e];
            const int64_t row = row_idx[e];
            sink.loadCoalesced(
                b_addr + (col * f + chunk * 32) * eb, eb, lanes);
            sink.fma(1);
            // Scatter: feature-strip atomics into the output row.
            uint64_t addrs[32];
            for (int l = 0; l < lanes; ++l) {
                addrs[l] = c_addr +
                           (row * f + chunk * 32 +
                            static_cast<int64_t>(l)) *
                               eb;
            }
            sink.atomicGlobal(addrs, lanes, eb);
            sink.int32(4);
        }
        const int64_t span = e1 - e0;
        if (done < span && done > 0) {
            sink.scaleRemainder(static_cast<double>(span) /
                                static_cast<double>(done));
        }
    };
    emitKernel(desc);
}

/**
 * Blocked-ELL footprint: one warp per (row, 32-feature chunk) like
 * CSR, but sweeping the block's padded width with fully regular
 * index/value slab reads — padding waste buys back coalescing and
 * predictable control flow (irregular = false).
 */
void
emitSpmmBellKernel(const BlockedEllMatrix &a, const Tensor &b,
                   const Tensor &c)
{
    if (ExecContext::device() == nullptr)
        return;
    const int64_t m = a.rows;
    const int64_t f = b.size(1);
    const int eb = deviceElemBytes();
    const int64_t fchunks = std::max<int64_t>(1, (f + 31) / 32);
    const uint64_t b_addr = b.deviceAddr();
    const uint64_t c_addr = c.deviceAddr();
    const uint64_t rn_addr = a.rowNnzAddr();
    const uint64_t ci_addr = a.colIdxAddr();
    const uint64_t v_addr = a.valsAddr();
    const int32_t *col_idx = a.colIdx.data();
    // Copy the tiny per-block geometry so the closure is self-owned.
    const std::vector<int64_t> block_off = a.blockOff;

    KernelDesc desc;
    desc.name = kernelName("spmm_bell", {m, f, a.nnz()});
    desc.opClass = OpClass::SpMM;
    desc.blocks = std::max<int64_t>(1, (m * fchunks + 7) / 8);
    desc.warpsPerBlock = 8;
    desc.codeBytes = 9 * 1024;
    desc.aluIlp = 2.5;
    desc.loadDepFraction = 0.45; // regular slabs prefetch well
    desc.irregular = false;
    desc.outputRanges.emplace_back(
        c_addr, static_cast<uint64_t>(m) * f * eb);
    desc.inputRanges.emplace_back(
        b_addr, static_cast<uint64_t>(b.size(0)) * f * eb);
    desc.trace = [=](int64_t warp_id, WarpTraceSink &sink) {
        const int64_t row = warp_id / fchunks;
        const int64_t chunk = warp_id % fchunks;
        if (row >= m)
            return;
        const int lanes = static_cast<int>(
            std::min<int64_t>(32, f - chunk * 32));
        const int64_t br = row / BlockedEllMatrix::kBlockRows;
        const int64_t width =
            (block_off[br + 1] - block_off[br]) /
            BlockedEllMatrix::kBlockRows;
        const int64_t off =
            block_off[br] +
            (row - br * BlockedEllMatrix::kBlockRows) * width;
        uint64_t rn = rn_addr + row * 4;
        sink.loadGlobal(&rn, 1, 4);
        sink.int32(2);
        int64_t done = 0;
        // The warp sweeps the full padded width: that is the price
        // blocked-ELL pays for regularity.
        for (int64_t t = 0; t < width; ++t, ++done) {
            if (sink.full())
                break;
            if (t % 32 == 0) {
                sink.loadCoalesced(ci_addr + (off + t) * 4, 4);
                sink.loadCoalesced(v_addr + (off + t) * eb, eb);
            }
            const int64_t col = col_idx[off + t];
            sink.loadCoalesced(
                b_addr + (col * f + chunk * 32) * eb, eb, lanes);
            sink.fma(1);
            sink.int32(3);
        }
        if (done < width && done > 0) {
            sink.scaleRemainder(static_cast<double>(width) /
                                static_cast<double>(done));
        }
        sink.storeCoalesced(c_addr + (row * f + chunk * 32) * eb, eb,
                            lanes);
        sink.misc(1);
    };
    emitKernel(desc);
}

Tensor
spmmCsrImpl(const CsrMatrix &a, const Tensor &b, SpmmVariant variant)
{
    const int64_t f = b.size(1);
    Tensor c = Tensor::zeros({a.rows, f});
    if (variant == SpmmVariant::CsrVector)
        kern::spmmCsrVector(a, b.data(), c.data(), f);
    else
        kern::spmmCsrScalar(a, b.data(), c.data(), f);
    emitSpmmCsrKernel(a, b, c);
    return c;
}

} // namespace

Tensor
spmm(const SparseMatrix &a, const Tensor &b)
{
    GNN_SPAN("op.spmm");
    GNN_ASSERT(b.dim() == 2 && b.size(0) == a.cols(),
               "spmm: A is %lldx%lld but B is %s",
               static_cast<long long>(a.rows()),
               static_cast<long long>(a.cols()),
               b.shapeString().c_str());
    const int64_t f = b.size(1);
    const SpmmVariant variant = Dispatch::instance().chooseSpmm(
        a.format(), a.rows(), f, a.nnz());
    switch (a.format()) {
      case SparseFormat::Coo: {
        Tensor c = Tensor::zeros({a.rows(), f});
        kern::spmmCoo(a.coo(), b.data(), c.data(), f);
        emitSpmmCooKernel(a.coo(), b, c);
        return c;
      }
      case SparseFormat::BlockedEll: {
        Tensor c = Tensor::zeros({a.rows(), f});
        kern::spmmBell(a.bell(), b.data(), c.data(), f);
        emitSpmmBellKernel(a.bell(), b, c);
        return c;
      }
      case SparseFormat::Csr:
      default:
        return spmmCsrImpl(a.csr(), b, variant);
    }
}

} // namespace ops
} // namespace gnnmark
