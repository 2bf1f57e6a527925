#include "ops/gemm.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "obs/span.hh"
#include "ops/cpu_kernels.hh"
#include "ops/dispatch.hh"
#include "ops/exec_context.hh"
#include "ops/kernel_common.hh"

namespace gnnmark {
namespace ops {

namespace {

/** Plain row-major transpose into an allocator-recycled workspace
 *  tensor (no kernel emitted: cuBLAS consumes transposed operands
 *  natively). Under the caching arena the workspace block is reused
 *  across iterations instead of malloc'd per call. */
Tensor
hostTranspose(const float *src, int64_t rows, int64_t cols)
{
    Tensor out = Tensor::empty({cols, rows});
    float *po = out.data();
    parallel_for(0, rows, 64, [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
            for (int64_t j = 0; j < cols; ++j)
                po[j * rows + i] = src[i * cols + j];
        }
    });
    return out;
}

/**
 * Emit the tiled-GEMM kernel trace: 64x64 output tiles, 8 warps per
 * block, K consumed in 32-wide steps staged through shared memory.
 */
void
emitGemmKernel(const std::string &base, int64_t m, int64_t n, int64_t k,
               uint64_t a_addr, uint64_t b_addr, uint64_t c_addr)
{
    if (ExecContext::device() == nullptr)
        return;

    const int eb = deviceElemBytes();
    const int64_t tiles_m = (m + 63) / 64;
    const int64_t tiles_n = (n + 63) / 64;
    const int64_t ksteps = std::max<int64_t>(1, (k + 31) / 32);

    // Skinny GEMMs (few output tiles, deep K) use split-K kernels, as
    // cuBLAS does: the K loop is parallelised across blocks and the
    // partial products reduced in the epilogue.
    int64_t split_k = 1;
    while (tiles_m * tiles_n * split_k < 40 &&
           ksteps / split_k >= 8) {
        split_k *= 2;
    }
    const int64_t ksteps_per_split =
        (ksteps + split_k - 1) / split_k;

    KernelDesc desc;
    desc.name = kernelName(base, {m, n, k});
    desc.opClass = OpClass::Gemm;
    desc.blocks = tiles_m * tiles_n * split_k;
    desc.warpsPerBlock = 8;
    desc.codeBytes = 32 * 1024; // heavily unrolled main loop
    desc.aluIlp = 2.5;          // software pipelined
    desc.loadDepFraction = 0.35;
    desc.outputRanges.emplace_back(
        c_addr, static_cast<uint64_t>(m) * n * eb);
    desc.inputRanges.emplace_back(
        a_addr, static_cast<uint64_t>(m) * k * eb);
    desc.inputRanges.emplace_back(
        b_addr, static_cast<uint64_t>(k) * n * eb);
    desc.trace = [=](int64_t warp_id, WarpTraceSink &sink) {
        const int64_t block = (warp_id / 8) / split_k;
        const int64_t kslice = (warp_id / 8) % split_k;
        const int warp = static_cast<int>(warp_id % 8);
        const int64_t tile_i = (block / tiles_n) * 64;
        const int64_t tile_j = (block % tiles_n) * 64;
        // Kernel prologue: tile coordinates, predicates, pointer setup.
        sink.int32(48);
        sink.misc(12);
        // Partial edge tiles execute predicated-off lanes: scale the
        // useful arithmetic by the live fraction of the tile.
        const double live_rows =
            static_cast<double>(std::min<int64_t>(64, m - tile_i)) / 64.0;
        const double live_cols =
            static_cast<double>(std::min<int64_t>(64, n - tile_j)) / 64.0;
        const int live_fma = std::max(
            32, static_cast<int>(512.0 * live_rows * live_cols));

        const int64_t s_begin = kslice * ksteps_per_split;
        const int64_t s_end =
            std::min<int64_t>(ksteps, s_begin + ksteps_per_split);
        int64_t done = 0;
        for (int64_t s = s_begin; s < s_end; ++s, ++done) {
            if (sink.full())
                break;
            const int64_t k0 = s * 32;
            // Only the live K lanes of the last (padded) step do work.
            const double live_k = static_cast<double>(
                std::min<int64_t>(32, k - k0)) / 32.0;
            const int step_fma = std::max(
                16, static_cast<int>(live_fma * live_k));
            // Cooperative tile staging: this warp loads 8 rows of the
            // A tile (64x32) and 4 rows of the B tile (32x64), each
            // row a fully coalesced 32-lane access.
            for (int r = 0; r < 8; ++r) {
                int64_t row = tile_i + warp * 8 + r;
                sink.loadCoalesced(
                    a_addr + (row * k + k0) * eb, eb);
            }
            for (int r = 0; r < 4; ++r) {
                int64_t row = k0 + warp * 4 + r;
                sink.loadCoalesced(
                    b_addr + (row * n + tile_j) * eb, eb);
            }
            sink.sharedStore(12);
            sink.int32(56);
            sink.barrier();
            // Each thread computes a 4x4 register tile over 32 k's.
            sink.sharedLoad(32);
            sink.fma(step_fma);
            sink.misc(6);
        }
        const int64_t my_steps = s_end - s_begin;
        if (done < my_steps && done > 0) {
            sink.scaleRemainder(static_cast<double>(my_steps) /
                                static_cast<double>(done));
        }
        // Epilogue: write the 64x64 tile (16 outputs per thread);
        // split-K slices accumulate into the workspace atomically.
        for (int r = 0; r < 2; ++r) {
            uint64_t addr =
                c_addr + ((tile_i + warp * 8 + r) * n + tile_j) * eb;
            if (split_k > 1) {
                uint64_t addrs[32];
                for (int l = 0; l < 32; ++l)
                    addrs[l] = addr + static_cast<uint64_t>(l) * eb;
                sink.atomicGlobal(addrs, 32, eb);
            } else {
                sink.storeCoalesced(addr, eb);
            }
        }
        sink.int32(4);
    };
    emitKernel(desc);
}

} // namespace

Tensor
gemm(const Tensor &a, const Tensor &b, GemmOpts opts)
{
    GNN_SPAN("op.gemm");
    GNN_ASSERT(a.dim() == 2 && b.dim() == 2,
               "gemm needs 2-d operands, got %s and %s",
               a.shapeString().c_str(), b.shapeString().c_str());
    const int64_t m = opts.trans_a ? a.size(1) : a.size(0);
    const int64_t ka = opts.trans_a ? a.size(0) : a.size(1);
    const int64_t kb = opts.trans_b ? b.size(1) : b.size(0);
    const int64_t n = opts.trans_b ? b.size(0) : b.size(1);
    GNN_ASSERT(ka == kb, "gemm inner-dimension mismatch: %lld vs %lld",
               static_cast<long long>(ka), static_cast<long long>(kb));
    const int64_t k = ka;

    // Normalise to row-major [M,K] x [K,N] on the host.
    Tensor at, bt;
    const float *pa = a.data();
    const float *pb = b.data();
    uint64_t a_addr = a.deviceAddr();
    uint64_t b_addr = b.deviceAddr();
    if (opts.trans_a) {
        at = hostTranspose(a.data(), a.size(0), a.size(1));
        pa = at.data();
        a_addr = at.deviceAddr();
    }
    if (opts.trans_b) {
        bt = hostTranspose(b.data(), b.size(0), b.size(1));
        pb = bt.data();
        b_addr = bt.deviceAddr();
    }

    // Pick the host variant from the shape and the sampled sparsity
    // of the normalised A; every variant is bitwise-equal (see
    // ops/cpu_kernels.hh), and each output row has exactly one
    // writer, so the result is identical for any thread count.
    Tensor c = Tensor::zeros({m, n});
    const GemmVariant variant = Dispatch::instance().chooseGemm(
        m, n, k, Dispatch::sampledZeroFraction(pa, m * k));
    if (variant == GemmVariant::Tiled)
        kern::gemmTiled(pa, pb, c.data(), m, n, k);
    else
        kern::gemmNaive(pa, pb, c.data(), m, n, k);

    emitGemmKernel("gemm", m, n, k, a_addr, b_addr, c.deviceAddr());
    return c;
}

} // namespace ops
} // namespace gnnmark
