#include "ops/reduce.hh"

#include <algorithm>
#include <limits>

#include "base/allocator.hh"
#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "obs/span.hh"
#include "ops/exec_context.hh"
#include "ops/kernel_common.hh"

namespace gnnmark {
namespace ops {

namespace {

/**
 * Flat-reduction grain: inputs below this stay in one chunk and keep
 * the exact serial accumulation order; larger inputs combine
 * fixed-boundary chunk partials in chunk order, which is bitwise
 * stable across thread counts.
 */
constexpr int64_t kReduceGrain = 1 << 16;

/**
 * Emit a row-reduction kernel: one warp per row, coalesced 32-wide
 * strides over the row followed by a shared-memory tree reduce.
 */
void
emitRowReduce(const std::string &base, int64_t n, int64_t f,
              uint64_t in_addr, uint64_t out_addr)
{
    if (ExecContext::device() == nullptr)
        return;
    const int eb = deviceElemBytes();
    const int64_t chunks = std::max<int64_t>(1, (f + 31) / 32);

    KernelDesc desc;
    desc.name = kernelName(base, {n, f});
    desc.opClass = OpClass::Reduction;
    desc.blocks = std::max<int64_t>(1, (n + 7) / 8);
    desc.warpsPerBlock = 8;
    desc.codeBytes = 8 * 1024;
    desc.aluIlp = 2.0; // serial accumulator chain
    desc.loadDepFraction = 0.6;
    desc.outputRanges.emplace_back(out_addr,
                                   static_cast<uint64_t>(n) * eb);
    desc.trace = [=](int64_t warp_id, WarpTraceSink &sink) {
        const int64_t row = warp_id;
        if (row >= n)
            return;
        int64_t done = 0;
        for (int64_t c = 0; c < chunks; ++c, ++done) {
            if (sink.full())
                break;
            sink.loadCoalesced(in_addr + (row * f + c * 32) * eb, eb);
            sink.fp32(1);
            sink.int32(2);
        }
        if (done < chunks && done > 0) {
            sink.scaleRemainder(static_cast<double>(chunks) /
                                static_cast<double>(done));
        }
        sink.sharedLoad(5);
        sink.fp32(5);
        uint64_t addr = out_addr + row * eb;
        sink.storeGlobal(&addr, 1, eb);
    };
    emitKernel(desc);
}

/**
 * Emit a column-reduction kernel: warps stride down the rows with
 * fully coalesced feature-slice loads.
 */
void
emitColReduce(const std::string &base, int64_t n, int64_t f,
              uint64_t in_addr, uint64_t out_addr)
{
    if (ExecContext::device() == nullptr)
        return;
    const int eb = deviceElemBytes();
    const int64_t chunks = std::max<int64_t>(1, (f + 31) / 32);

    // The grid tiles both axes; row-tile partials combine with global
    // atomics, so tall-skinny reductions still fill the device.
    const int64_t rows_per_block = 8 * 64;
    const int64_t row_tiles =
        std::max<int64_t>(1, (n + rows_per_block - 1) / rows_per_block);

    KernelDesc desc;
    desc.name = kernelName(base, {n, f});
    desc.opClass = OpClass::Reduction;
    desc.blocks = chunks * row_tiles;
    desc.warpsPerBlock = 8;
    desc.codeBytes = 8 * 1024;
    desc.aluIlp = 2.0;
    desc.loadDepFraction = 0.6;
    desc.outputRanges.emplace_back(out_addr,
                                   static_cast<uint64_t>(f) * eb);
    desc.trace = [=](int64_t warp_id, WarpTraceSink &sink) {
        const int64_t block = warp_id / 8;
        const int64_t chunk = block / row_tiles;
        const int64_t row_tile = block % row_tiles;
        const int64_t lane_row = warp_id % 8; // 8 warps split the tile
        const int64_t first =
            row_tile * rows_per_block + lane_row * 64;
        for (int64_t r = 0; r < 64; ++r) {
            int64_t row = first + r;
            if (row >= n || sink.full())
                break;
            sink.loadCoalesced(in_addr + (row * f + chunk * 32) * eb, eb);
            sink.fp32(1);
            sink.int32(1);
        }
        sink.sharedStore(1);
        sink.barrier();
        sink.sharedLoad(3);
        sink.fp32(3);
        if (row_tiles > 1) {
            uint64_t addrs[32];
            for (int l = 0; l < 32; ++l) {
                addrs[l] = out_addr +
                           (chunk * 32 + l) * static_cast<uint64_t>(eb);
            }
            sink.atomicGlobal(addrs, 32, eb);
        } else {
            sink.storeCoalesced(out_addr + chunk * 32 * eb, eb);
        }
    };
    emitKernel(desc);
}

/** Row-broadcast kernels share the element-wise template. */
template <typename F>
Tensor
rowBroadcast(const Tensor &a, const Tensor &v, const char *name, F f)
{
    GNN_ASSERT(a.dim() == 2 && v.dim() == 1 && v.size(0) == a.size(0),
               "%s: bad shapes %s, %s", name, a.shapeString().c_str(),
               v.shapeString().c_str());
    Tensor c = Tensor::empty(a.shape()); // every element written below
    const int64_t n = a.size(0);
    const int64_t cols = a.size(1);
    const float *pa = a.data();
    const float *pv = v.data();
    float *pc = c.data();
    parallel_for(0, n, 128, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            for (int64_t j = 0; j < cols; ++j)
                pc[i * cols + j] = f(pa[i * cols + j], pv[i]);
        }
    });
    ElementwiseSpec spec;
    spec.name = name;
    spec.elems = a.numel();
    spec.inAddrs = {a.deviceAddr(), v.deviceAddr()};
    spec.outAddrs = {c.deviceAddr()};
    spec.fp32PerElem = 1;
    spec.int32PerElem = 12;
    spec.elemBytes = deviceElemBytes();
    emitElementwise(spec);
    return c;
}

} // namespace

float
reduceSumAll(const Tensor &a)
{
    const float *p = a.data();
    const double sum = parallel_reduce(
        0, a.numel(), kReduceGrain, 0.0,
        [&](int64_t i0, int64_t i1) {
            double s = 0.0;
            for (int64_t i = i0; i < i1; ++i)
                s += p[i];
            return s;
        },
        [](double acc, double s) { return acc + s; });
    // Device side: a grid-wide tree reduction over the flat array.
    Tensor result = Tensor::empty({1});
    emitRowReduce("reduce_all", 1, a.numel(), a.deviceAddr(),
                  result.deviceAddr());
    return static_cast<float>(sum);
}

float
reduceMeanAll(const Tensor &a)
{
    GNN_ASSERT(a.numel() > 0, "mean of empty tensor");
    return reduceSumAll(a) / static_cast<float>(a.numel());
}

Tensor
reduceSumRows(const Tensor &a)
{
    GNN_SPAN("op.reduce.sum_rows");
    GNN_ASSERT(a.dim() == 2, "reduceSumRows needs 2-d, got %s",
               a.shapeString().c_str());
    const int64_t n = a.size(0);
    const int64_t f = a.size(1);
    Tensor out = Tensor::empty({n});
    const float *pa = a.data();
    float *po = out.data();
    parallel_for(0, n, 64, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            double s = 0.0;
            for (int64_t j = 0; j < f; ++j)
                s += pa[i * f + j];
            po[i] = static_cast<float>(s);
        }
    });
    emitRowReduce("reduce_rows", n, f, a.deviceAddr(), out.deviceAddr());
    return out;
}

Tensor
reduceMaxRows(const Tensor &a)
{
    GNN_SPAN("op.reduce.max_rows");
    GNN_ASSERT(a.dim() == 2, "reduceMaxRows needs 2-d, got %s",
               a.shapeString().c_str());
    const int64_t n = a.size(0);
    const int64_t f = a.size(1);
    Tensor out = Tensor::empty({n});
    const float *pa = a.data();
    float *po = out.data();
    parallel_for(0, n, 64, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            float best = -std::numeric_limits<float>::infinity();
            for (int64_t j = 0; j < f; ++j)
                best = std::max(best, pa[i * f + j]);
            po[i] = best;
        }
    });
    emitRowReduce("reduce_max_rows", n, f, a.deviceAddr(),
                  out.deviceAddr());
    return out;
}

std::vector<int32_t>
argmaxRows(const Tensor &a)
{
    GNN_ASSERT(a.dim() == 2, "argmaxRows needs 2-d, got %s",
               a.shapeString().c_str());
    const int64_t n = a.size(0);
    const int64_t f = a.size(1);
    std::vector<int32_t> out(n);
    const float *pa = a.data();
    parallel_for(0, n, 64, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            int32_t best = 0;
            for (int64_t j = 1; j < f; ++j) {
                if (pa[i * f + j] > pa[i * f + best])
                    best = static_cast<int32_t>(j);
            }
            out[i] = best;
        }
    });
    Tensor dummy = Tensor::empty({n}); // address carrier only
    emitRowReduce("reduce_argmax_rows", n, f, a.deviceAddr(),
                  dummy.deviceAddr());
    return out;
}

Tensor
reduceSumCols(const Tensor &a)
{
    GNN_SPAN("op.reduce.sum_cols");
    GNN_ASSERT(a.dim() == 2, "reduceSumCols needs 2-d, got %s",
               a.shapeString().c_str());
    const int64_t n = a.size(0);
    const int64_t f = a.size(1);
    Tensor out = Tensor::empty({f}); // std::copy fills every element
    const float *pa = a.data();
    float *po = out.data();
    // Row-chunk partial columns, combined in chunk order (exact serial
    // order whenever n fits one chunk).
    const int64_t row_grain = std::max<int64_t>(
        1, kReduceGrain / std::max<int64_t>(1, f));
    using Cols = std::vector<float>;
    Cols sums = parallel_reduce(
        0, n, row_grain, Cols(f, 0.0f),
        [&](int64_t i0, int64_t i1) {
            Cols s(f, 0.0f);
            for (int64_t i = i0; i < i1; ++i) {
                for (int64_t j = 0; j < f; ++j)
                    s[j] += pa[i * f + j];
            }
            return s;
        },
        [&](Cols acc, const Cols &s) {
            for (int64_t j = 0; j < f; ++j)
                acc[j] += s[j];
            return acc;
        });
    std::copy(sums.begin(), sums.end(), po);
    emitColReduce("reduce_cols", n, f, a.deviceAddr(), out.deviceAddr());
    return out;
}

Tensor
segmentSumRows(const Tensor &src, const std::vector<int32_t> &offsets)
{
    GNN_SPAN("op.segment_reduce");
    const char *name = "segment_sum";
    GNN_ASSERT(src.dim() == 2, "%s needs 2-d src, got %s", name,
               src.shapeString().c_str());
    GNN_ASSERT(!offsets.empty(), "%s: empty offsets", name);
    const int64_t segs = static_cast<int64_t>(offsets.size()) - 1;
    const int64_t f = src.size(1);
    GNN_ASSERT(offsets.back() == src.size(0),
               "%s: offsets end %d != src rows %lld", name,
               offsets.back(), static_cast<long long>(src.size(0)));

    // Uninitialised output: every segment row is written below, an
    // empty segment with its zero initial sum.
    Tensor out = Tensor::empty({segs, f});
    const float *ps = src.data();
    float *po = out.data();
    parallel_for(0, segs, 32, [&](int64_t s0, int64_t s1) {
        for (int64_t s = s0; s < s1; ++s) {
            GNN_ASSERT(offsets[s] <= offsets[s + 1],
                       "%s: offsets not monotone at %lld", name,
                       static_cast<long long>(s));
            for (int64_t j = 0; j < f; ++j) {
                float acc = 0.0f;
                for (int32_t r = offsets[s]; r < offsets[s + 1]; ++r)
                    acc += ps[static_cast<int64_t>(r) * f + j];
                po[s * f + j] = acc;
            }
        }
    });

    if (ExecContext::device() != nullptr) {
        const int eb = deviceElemBytes();
        const int64_t chunks = std::max<int64_t>(1, (f + 31) / 32);
        const uint64_t s_addr = src.deviceAddr();
        const uint64_t o_addr = out.deviceAddr();
        DeviceSpan off_span(offsets.size() * sizeof(int32_t));
        const uint64_t off_addr = off_span.addr();
        const int32_t *off = offsets.data();

        KernelDesc desc;
        desc.name = kernelName(name, {segs, f});
        desc.opClass = OpClass::Reduction;
        desc.blocks = std::max<int64_t>(1, (segs * chunks + 7) / 8);
        desc.warpsPerBlock = 8;
        desc.codeBytes = 8 * 1024;
        desc.aluIlp = 2.0;
        desc.loadDepFraction = 0.6;
        desc.outputRanges.emplace_back(
            o_addr, static_cast<uint64_t>(segs) * f * eb);
        desc.trace = [=](int64_t warp_id, WarpTraceSink &sink) {
            const int64_t seg = warp_id / chunks;
            const int64_t chunk = warp_id % chunks;
            if (seg >= segs)
                return;
            const int lanes = static_cast<int>(
                std::min<int64_t>(32, f - chunk * 32));
            uint64_t oa = off_addr + seg * 4;
            sink.loadGlobal(&oa, 1, 8);
            sink.int32(2);
            int64_t rows = off[seg + 1] - off[seg];
            int64_t done = 0;
            for (int32_t r = off[seg]; r < off[seg + 1]; ++r, ++done) {
                if (sink.full())
                    break;
                sink.loadCoalesced(
                    s_addr + (static_cast<int64_t>(r) * f + chunk * 32) *
                                 eb, eb, lanes);
                sink.fp32(1);
                sink.int32(1);
            }
            if (done < rows && done > 0) {
                sink.scaleRemainder(static_cast<double>(rows) /
                                    static_cast<double>(done));
            }
            sink.storeCoalesced(o_addr + (seg * f + chunk * 32) * eb, eb,
                                lanes);
            sink.misc(1);
        };
        emitKernel(desc);
    }
    return out;
}

Tensor
subRowsBy(const Tensor &a, const Tensor &v)
{
    return rowBroadcast(a, v, "ew_sub_rows",
                        [](float x, float y) { return x - y; });
}

Tensor
divRowsBy(const Tensor &a, const Tensor &v)
{
    return rowBroadcast(a, v, "ew_div_rows",
                        [](float x, float y) { return x / y; });
}

Tensor
mulRowsBy(const Tensor &a, const Tensor &v)
{
    return rowBroadcast(a, v, "ew_mul_rows",
                        [](float x, float y) { return x * y; });
}

} // namespace ops
} // namespace gnnmark
