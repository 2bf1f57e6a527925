#include "ops/elementwise.hh"

#include <cmath>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "obs/span.hh"
#include "ops/cpu_kernels.hh"
#include "ops/kernel_common.hh"
#include "ops/lanes.hh"

namespace gnnmark {
namespace ops {

namespace {

/** Emit a standard unary/binary streaming kernel. */
void
emitMap(const std::string &name, const std::vector<const Tensor *> &ins,
        const std::vector<Tensor *> &outs, int fp, int sfu, int int32)
{
    ElementwiseSpec spec;
    spec.name = name;
    spec.elems = outs.empty() ? ins[0]->numel() : outs[0]->numel();
    for (const Tensor *t : ins)
        spec.inAddrs.push_back(t->deviceAddr());
    for (Tensor *t : outs)
        spec.outAddrs.push_back(t->deviceAddr());
    spec.fp32PerElem = fp;
    spec.sfuPerElem = sfu;
    spec.int32PerElem = int32;
    spec.elemBytes = deviceElemBytes();
    emitElementwise(spec);
}

void
checkSameShape(const Tensor &a, const Tensor &b, const char *op)
{
    GNN_ASSERT(a.sameShape(b), "%s: shape mismatch %s vs %s", op,
               a.shapeString().c_str(), b.shapeString().c_str());
}

/** Flat-loop grain: streaming maps only fan out on sizable arrays. */
constexpr int64_t kMapGrain = 4096;

template <typename F>
Tensor
binaryMap(const Tensor &a, const Tensor &b, const char *name, F f, int fp)
{
    GNN_SPAN("op.elementwise");
    checkSameShape(a, b, name);
    Tensor c = Tensor::empty(a.shape());
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    parallel_for(0, a.numel(), kMapGrain, [&](int64_t i0, int64_t i1) {
        mapLanes(pc + i0, i1 - i0, f, pa + i0, pb + i0);
    });
    emitMap(name, {&a, &b}, {&c}, fp, 0, 16);
    return c;
}

template <typename F>
Tensor
unaryMap(const Tensor &a, const char *name, F f, int fp, int sfu)
{
    GNN_SPAN("op.elementwise");
    Tensor c = Tensor::empty(a.shape());
    const float *pa = a.data();
    float *pc = c.data();
    parallel_for(0, a.numel(), kMapGrain, [&](int64_t i0, int64_t i1) {
        mapLanes(pc + i0, i1 - i0, f, pa + i0);
    });
    emitMap(name, {&a}, {&c}, fp, sfu, 16);
    return c;
}

} // namespace

Tensor
add(const Tensor &a, const Tensor &b)
{
    return binaryMap(a, b, "ew_add", [](float x, float y) { return x + y; },
                     1);
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    return binaryMap(a, b, "ew_sub", [](float x, float y) { return x - y; },
                     1);
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    return binaryMap(a, b, "ew_mul", [](float x, float y) { return x * y; },
                     1);
}

Tensor
div(const Tensor &a, const Tensor &b)
{
    return binaryMap(a, b, "ew_div", [](float x, float y) { return x / y; },
                     1);
}

Tensor
scale(const Tensor &a, float alpha)
{
    return unaryMap(a, "ew_scale",
                    [alpha](float x) { return alpha * x; }, 1, 0);
}

Tensor
addScalar(const Tensor &a, float alpha)
{
    return unaryMap(a, "ew_adds",
                    [alpha](float x) { return x + alpha; }, 1, 0);
}

void
addInto(Tensor &dst, const Tensor &src)
{
    GNN_SPAN("op.elementwise");
    checkSameShape(dst, src, "ew_acc");
    float *pd = dst.data();
    const float *ps = src.data();
    const int64_t n = dst.numel();
    if (disjoint(pd, n, ps, n)) {
        parallel_for(0, n, kMapGrain, [&](int64_t i0, int64_t i1) {
            addLanes(pd + i0, ps + i0, i1 - i0);
        });
    } else {
        // Overlapping views of one storage (addInto(t, t) included):
        // one ascending pass, so each element reads src after every
        // earlier element has been written.
        for (int64_t i = 0; i < n; ++i)
            pd[i] += ps[i];
    }
    emitMap("ew_acc", {&dst, &src}, {&dst}, 1, 0, 8);
}

Tensor
relu(const Tensor &a)
{
    return unaryMap(a, "ew_relu",
                    [](float x) { return x > 0 ? x : 0.0f; }, 1, 0);
}

Tensor
reluGrad(const Tensor &grad_out, const Tensor &a)
{
    return binaryMap(grad_out, a, "ew_relu_bwd",
                     [](float g, float x) { return x > 0 ? g : 0.0f; },
                     1);
}

Tensor
prelu(const Tensor &a, float slope)
{
    return unaryMap(a, "ew_prelu",
                    [slope](float x) { return x >= 0 ? x : slope * x; },
                    2, 0);
}

Tensor
preluGradInput(const Tensor &grad_out, const Tensor &a, float slope)
{
    return binaryMap(grad_out, a, "ew_prelu_bwd",
                     [slope](float g, float x) {
                         return x >= 0 ? g : slope * g;
                     },
                     2);
}

float
preluGradSlope(const Tensor &grad_out, const Tensor &a)
{
    checkSameShape(grad_out, a, "ew_prelu_bwd_slope");
    const float *pg = grad_out.data();
    const float *pa = a.data();
    const float sum = parallel_reduce(
        0, a.numel(), kMapGrain, 0.0f,
        [&](int64_t i0, int64_t i1) {
            float s = 0.0f;
            for (int64_t i = i0; i < i1; ++i) {
                if (pa[i] < 0)
                    s += pg[i] * pa[i];
            }
            return s;
        },
        [](float acc, float s) { return acc + s; });
    Tensor dummy = Tensor::empty({1}); // address carrier only
    emitMap("ew_prelu_bwd_slope", {&grad_out, &a}, {&dummy}, 2, 0, 2);
    return sum;
}

Tensor
sigmoid(const Tensor &a)
{
    return unaryMap(a, "ew_sigmoid",
                    [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
                    2, 1);
}

Tensor
sigmoidGrad(const Tensor &grad_out, const Tensor &y)
{
    return binaryMap(grad_out, y, "ew_sigmoid_bwd",
                     [](float g, float v) { return g * v * (1.0f - v); },
                     3);
}

Tensor
tanh(const Tensor &a)
{
    return unaryMap(a, "ew_tanh",
                    [](float x) { return std::tanh(x); }, 1, 1);
}

Tensor
tanhGrad(const Tensor &grad_out, const Tensor &y)
{
    return binaryMap(grad_out, y, "ew_tanh_bwd",
                     [](float g, float v) { return g * (1.0f - v * v); },
                     3);
}

Tensor
exp(const Tensor &a)
{
    return unaryMap(a, "ew_exp", [](float x) { return std::exp(x); }, 1,
                    1);
}

Tensor
log(const Tensor &a)
{
    return unaryMap(a, "ew_log", [](float x) { return std::log(x); }, 1,
                    1);
}

Tensor
dropout(const Tensor &a, float p, Rng &rng, Tensor *mask_out)
{
    GNN_ASSERT(p >= 0.0f && p < 1.0f, "dropout probability %f invalid",
               static_cast<double>(p));
    Tensor c = Tensor::empty(a.shape());
    Tensor mask = Tensor::empty(a.shape());
    const float keep = 1.0f - p;
    const float inv_keep = 1.0f / keep;
    const float *pa = a.data();
    float *pc = c.data();
    float *pm = mask.data();
    for (int64_t i = 0; i < a.numel(); ++i) {
        float m = rng.bernoulli(keep) ? inv_keep : 0.0f;
        pm[i] = m;
        pc[i] = pa[i] * m;
    }
    // Philox-style RNG per element costs a handful of integer ops.
    emitMap("ew_dropout", {&a}, {&c, &mask}, 2, 0, 12);
    if (mask_out != nullptr)
        *mask_out = mask;
    return c;
}

Tensor
addBiasRows(const Tensor &a, const Tensor &bias)
{
    GNN_ASSERT(a.dim() == 2 && bias.dim() == 1 &&
               a.size(1) == bias.size(0),
               "addBiasRows: bad shapes %s, %s", a.shapeString().c_str(),
               bias.shapeString().c_str());
    Tensor c = Tensor::empty(a.shape());
    const int64_t n = a.size(0);
    const int64_t f = a.size(1);
    const float *pa = a.data();
    const float *pb = bias.data();
    float *pc = c.data();
    parallel_for(0, n, 64, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            for (int64_t j = 0; j < f; ++j)
                pc[i * f + j] = pa[i * f + j] + pb[j];
        }
    });
    emitMap("ew_bias", {&a, &bias}, {&c}, 1, 0, 10);
    return c;
}

Tensor
concatRows(const std::vector<Tensor> &parts)
{
    GNN_ASSERT(!parts.empty(), "concatRows: no inputs");
    const int64_t f = parts[0].dim() == 2 ? parts[0].size(1) : 1;
    int64_t rows = 0;
    for (const Tensor &p : parts) {
        GNN_ASSERT(p.dim() == 2 && p.size(1) == f,
                   "concatRows: inconsistent shapes");
        rows += p.size(0);
    }
    Tensor c = Tensor::empty({rows, f});
    float *pc = c.data();
    for (const Tensor &p : parts) {
        std::copy(p.data(), p.data() + p.numel(), pc);
        pc += p.numel();
        const Tensor *pp = &p;
        emitMap("ew_copy", {pp}, {}, 0, 0, 2);
    }
    return c;
}

Tensor
sliceRows(const Tensor &a, int64_t begin, int64_t end)
{
    GNN_ASSERT(a.dim() == 2 && begin >= 0 && begin <= end &&
               end <= a.size(0), "sliceRows: bad range [%lld, %lld)",
               static_cast<long long>(begin), static_cast<long long>(end));
    const int64_t f = a.size(1);
    Tensor c = Tensor::empty({end - begin, f});
    std::copy(a.data() + begin * f, a.data() + end * f, c.data());
    emitMap("ew_copy", {&a}, {&c}, 0, 0, 2);
    return c;
}

Tensor
concatCols(const Tensor &a, const Tensor &b)
{
    GNN_ASSERT(a.dim() == 2 && b.dim() == 2 && a.size(0) == b.size(0),
               "concatCols: bad shapes %s, %s", a.shapeString().c_str(),
               b.shapeString().c_str());
    const int64_t n = a.size(0);
    const int64_t fa = a.size(1);
    const int64_t fb = b.size(1);
    Tensor c = Tensor::empty({n, fa + fb});
    parallel_for(0, n, 128, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            std::copy(a.data() + i * fa, a.data() + (i + 1) * fa,
                      c.data() + i * (fa + fb));
            std::copy(b.data() + i * fb, b.data() + (i + 1) * fb,
                      c.data() + i * (fa + fb) + fa);
        }
    });
    emitMap("ew_concat", {&a, &b}, {&c}, 0, 0, 3);
    return c;
}

Tensor
transpose2d(const Tensor &a)
{
    GNN_ASSERT(a.dim() == 2, "transpose2d needs a 2-d tensor, got %s",
               a.shapeString().c_str());
    Tensor c = Tensor::empty({a.size(1), a.size(0)});
    kern::transpose(a.data(), c.data(), a.size(0), a.size(1));
    emitMap("ew_transpose", {&a}, {&c}, 0, 0, 4);
    return c;
}

} // namespace ops
} // namespace gnnmark
