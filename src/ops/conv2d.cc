#include "ops/conv2d.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "obs/span.hh"
#include "ops/cpu_kernels.hh"
#include "ops/exec_context.hh"
#include "ops/gemm.hh"
#include "ops/kernel_common.hh"

namespace gnnmark {
namespace ops {

namespace {

struct ConvDims
{
    int64_t n, c, h, w; // input
    int64_t k, r, s;    // filters
    int64_t oh, ow;     // output
};

ConvDims
checkDims(const Tensor &input, const Tensor &weight, int pad)
{
    GNN_ASSERT(input.dim() == 4 && weight.dim() == 4,
               "conv2d: need NCHW input and KCRS weight, got %s / %s",
               input.shapeString().c_str(), weight.shapeString().c_str());
    GNN_ASSERT(input.size(1) == weight.size(1),
               "conv2d: channel mismatch %lld vs %lld",
               static_cast<long long>(input.size(1)),
               static_cast<long long>(weight.size(1)));
    ConvDims d;
    d.n = input.size(0);
    d.c = input.size(1);
    d.h = input.size(2);
    d.w = input.size(3);
    d.k = weight.size(0);
    d.r = weight.size(2);
    d.s = weight.size(3);
    d.oh = d.h + 2 * pad - d.r + 1;
    d.ow = d.w + 2 * pad - d.s + 1;
    GNN_ASSERT(d.oh >= 1 && d.ow >= 1,
               "conv2d: kernel larger than padded input");
    return d;
}

/**
 * Emit the im2col + GEMM kernel pair of a cuDNN-style convolution.
 * The im2col pass streams the input into the patch workspace (pure
 * data movement, heavy on index arithmetic); the GEMM part computes
 * [N*OH*OW, K] = [N*OH*OW, C*R*S] x [C*R*S, K] from it.
 */
void
emitConvKernel(const char *base, const ConvDims &d, uint64_t in_addr,
               uint64_t w_addr, uint64_t out_addr)
{
    if (ExecContext::device() == nullptr)
        return;
    const int eb = deviceElemBytes();

    // --- im2col pass: pure data movement + index arithmetic ---
    {
        const int64_t patch_elems =
            d.n * d.oh * d.ow * d.c * d.r * d.s;
        const uint64_t ws_addr = ExecContext::device()->workspace(
            static_cast<size_t>(patch_elems) * eb);
        const int64_t in_elems = d.n * d.c * d.h * d.w;

        KernelDesc im2col;
        im2col.name =
            kernelName(std::string(base) + "_im2col", {patch_elems});
        im2col.opClass = OpClass::Conv;
        im2col.blocks =
            std::max<int64_t>(1, (patch_elems + 1023) / 1024);
        im2col.warpsPerBlock = 8;
        im2col.codeBytes = 6 * 1024;
        im2col.aluIlp = 2.5;
        im2col.loadDepFraction = 0.6;
        im2col.outputRanges.emplace_back(
            ws_addr, static_cast<uint64_t>(patch_elems) * eb);
        im2col.trace = [=](int64_t warp_id, WarpTraceSink &sink) {
            const int64_t first = warp_id * 128;
            if (first >= patch_elems)
                return;
            for (int c = 0; c < 6; ++c) {
                // (n, oh, ow, c, r, s) unravelling: div/mod chains.
                sink.int32(12);
                const int64_t src =
                    (first * 7 + c * 131) % std::max<int64_t>(
                                                32, in_elems - 32);
                sink.loadCoalesced(in_addr + src * eb, eb);
                sink.storeCoalesced(
                    ws_addr + ((first + c * 32) % patch_elems) * eb, eb);
            }
            sink.misc(2);
        };
        emitKernel(im2col);
        in_addr = ws_addr; // the GEMM consumes the patch matrix
    }

    const int64_t gemm_m = d.n * d.oh * d.ow;
    const int64_t gemm_k = d.c * d.r * d.s;
    const int64_t tiles_m = (gemm_m + 63) / 64;
    const int64_t tiles_k = std::max<int64_t>(1, (d.k + 63) / 64);
    const int64_t ksteps = std::max<int64_t>(1, (gemm_k + 31) / 32);
    const int64_t hw = d.h * d.w;

    KernelDesc desc;
    desc.name = kernelName(base, {gemm_m, d.k, gemm_k});
    desc.opClass = OpClass::Conv;
    desc.blocks = tiles_m * tiles_k;
    desc.warpsPerBlock = 8;
    desc.codeBytes = 48 * 1024; // implicit-gemm kernels are huge
    desc.aluIlp = 1.2;
    desc.loadDepFraction = 0.85;
    desc.outputRanges.emplace_back(
        out_addr, static_cast<uint64_t>(gemm_m) * d.k * eb);
    desc.trace = [=](int64_t warp_id, WarpTraceSink &sink) {
        const int64_t block = warp_id / 8;
        const int warp = static_cast<int>(warp_id % 8);
        const int64_t tile_row = (block / tiles_k) * 64;
        // Implicit-gemm prologue: im2col coordinate algebra.
        sink.int32(64);
        sink.misc(12);
        const double live_rows =
            static_cast<double>(std::min<int64_t>(64, gemm_m - tile_row)) /
            64.0;
        const double live_cols = static_cast<double>(
            std::min<int64_t>(64, d.k)) / 64.0;
        const int live_fma = std::max(
            32, static_cast<int>(512.0 * live_rows * live_cols));

        int64_t done = 0;
        for (int64_t st = 0; st < ksteps; ++st, ++done) {
            if (sink.full())
                break;
            // Only the live K lanes of the last (padded) step do work.
            const double live_k =
                static_cast<double>(std::min<int64_t>(
                    32, gemm_k - st * 32)) / 32.0;
            const int step_fma = std::max(
                16, static_cast<int>(live_fma * live_k));
            // Cooperative staging of a 64x32 patch tile: 8 distinct
            // 32-element input segments per warp per step, streaming
            // across steps (the tile is reused out of shared memory,
            // not the L1).
            const int64_t in_elems = d.n * d.c * hw;
            for (int rr = 0; rr < 8; ++rr) {
                int64_t offset =
                    (tile_row * gemm_k + st * 2048 +
                     (warp * 8 + rr) * 32) %
                    std::max<int64_t>(32, in_elems - 32);
                sink.loadCoalesced(in_addr + offset * eb, eb);
            }
            // Filter slice (small; high cache residency).
            for (int rr = 0; rr < 2; ++rr) {
                sink.loadCoalesced(
                    w_addr + ((st * 32) % gemm_k) * d.k * eb, eb);
            }
            sink.sharedStore(10);
            sink.int32(96); // address algebra for the implicit gemm
            sink.barrier();
            sink.sharedLoad(32);
            sink.fma(step_fma);
            sink.misc(6);
        }
        if (done < ksteps && done > 0) {
            sink.scaleRemainder(static_cast<double>(ksteps) /
                                static_cast<double>(done));
        }
        for (int rr = 0; rr < 2; ++rr) {
            int64_t out_pos = (tile_row + warp * 8 + rr) % gemm_m;
            sink.storeCoalesced(out_addr + out_pos * d.k * eb, eb);
        }
        sink.int32(6);
    };
    emitKernel(desc);
}

/** im2col: patch matrix [N*OH*OW, C*R*S], zero-padded. */
std::vector<float>
im2col(const Tensor &input, const ConvDims &d, int pad)
{
    const int64_t gemm_m = d.n * d.oh * d.ow;
    const int64_t gemm_k = d.c * d.r * d.s;
    const int64_t ohow = d.oh * d.ow;
    std::vector<float> patches(gemm_m * gemm_k, 0.0f);
    const float *in = input.data();
    parallel_for(0, gemm_m, 64, [&](int64_t m0, int64_t m1) {
        for (int64_t m = m0; m < m1; ++m) {
            const int64_t n = m / ohow;
            const int64_t oh = (m % ohow) / d.ow;
            const int64_t ow = m % d.ow;
            float *row = patches.data() + m * gemm_k;
            for (int64_t c = 0; c < d.c; ++c) {
                for (int64_t r = 0; r < d.r; ++r) {
                    const int64_t ih = oh + r - pad;
                    if (ih < 0 || ih >= d.h)
                        continue;
                    const float *src =
                        in + ((n * d.c + c) * d.h + ih) * d.w;
                    for (int64_t sx = 0; sx < d.s; ++sx) {
                        const int64_t iw = ow + sx - pad;
                        if (iw >= 0 && iw < d.w)
                            row[(c * d.r + r) * d.s + sx] = src[iw];
                    }
                }
            }
        }
    });
    return patches;
}

/**
 * col2im: accumulate patch-space gradients back into input space.
 * Patches of one image overlap in input space, so the parallel grain
 * is a whole image: chunks own disjoint [n0, n1) batch slices.
 */
void
col2im(const std::vector<float> &dpatches, const ConvDims &d, int pad,
       Tensor &gin)
{
    float *out = gin.data();
    parallel_for(0, d.n, 1, [&](int64_t n0, int64_t n1) {
    for (int64_t n = n0; n < n1; ++n) {
        int64_t m = n * d.oh * d.ow;
        for (int64_t oh = 0; oh < d.oh; ++oh) {
            for (int64_t ow = 0; ow < d.ow; ++ow, ++m) {
                const float *row =
                    dpatches.data() + m * (d.c * d.r * d.s);
                for (int64_t c = 0; c < d.c; ++c) {
                    for (int64_t r = 0; r < d.r; ++r) {
                        const int64_t ih = oh + r - pad;
                        if (ih < 0 || ih >= d.h)
                            continue;
                        float *dst =
                            out + ((n * d.c + c) * d.h + ih) * d.w;
                        for (int64_t sx = 0; sx < d.s; ++sx) {
                            const int64_t iw = ow + sx - pad;
                            if (iw >= 0 && iw < d.w)
                                dst[iw] += row[(c * d.r + r) * d.s + sx];
                        }
                    }
                }
            }
        }
    }
    });
}

/** Transpose each of the d.n per-image [rows, cols] blocks of src. */
void
transposeImages(const float *src, float *dst, const ConvDims &d,
                int64_t rows, int64_t cols)
{
    for (int64_t n = 0; n < d.n; ++n) {
        kern::transpose(src + n * rows * cols, dst + n * rows * cols,
                        rows, cols);
    }
}

/** grad_out [N, K, OH, OW] laid out as GEMM rows [N*OH*OW, K]. */
std::vector<float>
gradRows(const Tensor &grad_out, const ConvDims &d)
{
    std::vector<float> rows(d.n * d.oh * d.ow * d.k);
    transposeImages(grad_out.data(), rows.data(), d, d.k, d.oh * d.ow);
    return rows;
}

} // namespace

Tensor
conv2d(const Tensor &input, const Tensor &weight, int pad)
{
    GNN_SPAN("op.conv2d");
    ConvDims d = checkDims(input, weight, pad);
    Tensor out = Tensor::empty({d.n, d.k, d.oh, d.ow});

    const int64_t gemm_m = d.n * d.oh * d.ow;
    const int64_t gemm_k = d.c * d.r * d.s;
    std::vector<float> patches = im2col(input, d, pad);

    // rows [N*OH*OW, K] = patches [N*OH*OW, C*R*S] x W^T [C*R*S, K];
    // each image's [OH*OW, K] block of rows transposes into its
    // [K, OH, OW] output slice.
    std::vector<float> wt(gemm_k * d.k);
    kern::transpose(weight.data(), wt.data(), d.k, gemm_k);
    std::vector<float> rows(gemm_m * d.k, 0.0f);
    hostGemm(patches.data(), wt.data(), rows.data(), gemm_m, d.k, gemm_k);
    transposeImages(rows.data(), out.data(), d, d.oh * d.ow, d.k);
    emitConvKernel("conv2d_fwd", d, input.deviceAddr(),
                   weight.deviceAddr(), out.deviceAddr());
    return out;
}

Tensor
conv2dGradInput(const Tensor &grad_out, const Tensor &weight,
                const Tensor &input, int pad)
{
    GNN_SPAN("op.conv2d.grad_input");
    ConvDims d = checkDims(input, weight, pad);
    GNN_ASSERT(grad_out.dim() == 4 && grad_out.size(0) == d.n &&
               grad_out.size(1) == d.k && grad_out.size(2) == d.oh &&
               grad_out.size(3) == d.ow,
               "conv2dGradInput: grad_out shape %s unexpected",
               grad_out.shapeString().c_str());

    // col2im accumulates, so the gradient buffer must start zeroed.
    Tensor gin = Tensor::zeros({d.n, d.c, d.h, d.w});
    const int64_t gemm_m = d.n * d.oh * d.ow;
    const int64_t gemm_k = d.c * d.r * d.s;

    // dP [N*OH*OW, C*R*S] = grad rows [N*OH*OW, K] x W [K, C*R*S],
    // then col2im.
    const std::vector<float> grows = gradRows(grad_out, d);
    std::vector<float> dpatches(gemm_m * gemm_k, 0.0f);
    hostGemm(grows.data(), weight.data(), dpatches.data(), gemm_m,
             gemm_k, d.k);
    col2im(dpatches, d, pad, gin);
    emitConvKernel("conv2d_bwd_data", d, grad_out.deviceAddr(),
                   weight.deviceAddr(), gin.deviceAddr());
    return gin;
}

Tensor
conv2dGradWeight(const Tensor &grad_out, const Tensor &input,
                 const Tensor &weight, int pad)
{
    GNN_SPAN("op.conv2d.grad_weight");
    ConvDims d = checkDims(input, weight, pad);
    Tensor gw = Tensor::empty({d.k, d.c, d.r, d.s});
    const int64_t gemm_m = d.n * d.oh * d.ow;
    const int64_t gemm_k = d.c * d.r * d.s;

    // dW [K, C*R*S] = grad rows^T [K, N*OH*OW] x P [N*OH*OW, C*R*S].
    // The filter gradient is shared across all rows, so each 512-row
    // chunk is one GEMM into a private copy, and the copies are
    // combined in fixed chunk order (thread-count independent; a
    // single chunk reproduces the serial order exactly).
    std::vector<float> patches = im2col(input, d, pad);
    const std::vector<float> grows = gradRows(grad_out, d);
    const int64_t wg_elems = d.k * gemm_k;
    using Acc = std::vector<float>;
    Acc dw = parallel_reduce(
        0, gemm_m, 512, Acc(wg_elems, 0.0f),
        [&](int64_t m0, int64_t m1) {
            std::vector<float> gt(d.k * (m1 - m0));
            kern::transpose(grows.data() + m0 * d.k, gt.data(), m1 - m0,
                            d.k);
            Acc local(wg_elems, 0.0f);
            hostGemm(gt.data(), patches.data() + m0 * gemm_k,
                     local.data(), d.k, gemm_k, m1 - m0);
            return local;
        },
        [&](Acc acc, const Acc &local) {
            for (int64_t i = 0; i < wg_elems; ++i)
                acc[i] += local[i];
            return acc;
        });
    std::copy(dw.begin(), dw.end(), gw.data());
    emitConvKernel("conv2d_bwd_filter", d, grad_out.deviceAddr(),
                   input.deviceAddr(), gw.deviceAddr());
    return gw;
}

} // namespace ops
} // namespace gnnmark
