#include "ops/var_ops.hh"

#include <cmath>

#include "base/allocator.hh"
#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "ops/batchnorm.hh"
#include "ops/conv2d.hh"
#include "ops/elementwise.hh"
#include "ops/gemm.hh"
#include "ops/index.hh"
#include "ops/kernel_common.hh"
#include "ops/reduce.hh"
#include "ops/softmax.hh"
#include "ops/spmm.hh"

namespace gnnmark {
namespace ag {

namespace {

using detail::VarNode;

/** Accumulate into parent `i` of `self` if it wants a gradient. */
void
backInto(VarNode &self, size_t i, const Tensor &g)
{
    GNN_ASSERT(i < self.parents.size(), "bad parent index %zu", i);
    auto &p = self.parents[i];
    if (p != nullptr && p->requiresGrad)
        detail::accumulateGrad(*p, g);
}

bool
wantsGrad(const VarNode &self, size_t i)
{
    return i < self.parents.size() && self.parents[i] != nullptr &&
           self.parents[i]->requiresGrad;
}

/** Filled tensor produced through an (instrumented) element-wise op. */
Tensor
filled(const std::vector<int64_t> &shape, float v)
{
    return ops::addScalar(Tensor::zeros(shape), v);
}

} // namespace

Variable
add(const Variable &a, const Variable &b)
{
    return Variable::makeResult(
        ops::add(a.value(), b.value()), {a, b}, [](VarNode &self) {
            backInto(self, 0, self.grad);
            backInto(self, 1, self.grad);
        });
}

Variable
sub(const Variable &a, const Variable &b)
{
    return Variable::makeResult(
        ops::sub(a.value(), b.value()), {a, b}, [](VarNode &self) {
            backInto(self, 0, self.grad);
            backInto(self, 1, ops::scale(self.grad, -1.0f));
        });
}

Variable
mul(const Variable &a, const Variable &b)
{
    Tensor av = a.value(), bv = b.value();
    return Variable::makeResult(
        ops::mul(av, bv), {a, b}, [av, bv](VarNode &self) {
            if (wantsGrad(self, 0))
                backInto(self, 0, ops::mul(self.grad, bv));
            if (wantsGrad(self, 1))
                backInto(self, 1, ops::mul(self.grad, av));
        });
}

Variable
div(const Variable &a, const Variable &b)
{
    Tensor av = a.value(), bv = b.value();
    Tensor y = ops::div(av, bv);
    return Variable::makeResult(
        y, {a, b}, [av, bv, y](VarNode &self) {
            if (wantsGrad(self, 0))
                backInto(self, 0, ops::div(self.grad, bv));
            if (wantsGrad(self, 1)) {
                // d/db (a/b) = -a / b^2 = -y / b
                Tensor gb = ops::scale(
                    ops::div(ops::mul(self.grad, y), bv), -1.0f);
                backInto(self, 1, gb);
            }
        });
}

Variable
scale(const Variable &a, float alpha)
{
    return Variable::makeResult(
        ops::scale(a.value(), alpha), {a}, [alpha](VarNode &self) {
            backInto(self, 0, ops::scale(self.grad, alpha));
        });
}

Variable
addScalar(const Variable &a, float alpha)
{
    return Variable::makeResult(
        ops::addScalar(a.value(), alpha), {a}, [](VarNode &self) {
            backInto(self, 0, self.grad);
        });
}

Variable
relu(const Variable &a)
{
    Tensor av = a.value();
    return Variable::makeResult(
        ops::relu(av), {a}, [av](VarNode &self) {
            backInto(self, 0, ops::reluGrad(self.grad, av));
        });
}

Variable
prelu(const Variable &a, const Variable &slope)
{
    GNN_ASSERT(slope.value().numel() == 1, "prelu slope must be scalar");
    Tensor av = a.value();
    const float s = slope.value().data()[0];
    return Variable::makeResult(
        ops::prelu(av, s), {a, slope}, [av, s](VarNode &self) {
            if (wantsGrad(self, 0))
                backInto(self, 0,
                         ops::preluGradInput(self.grad, av, s));
            if (wantsGrad(self, 1)) {
                Tensor gs = Tensor::zeros({1});
                gs(0) = ops::preluGradSlope(self.grad, av);
                backInto(self, 1, gs);
            }
        });
}

Variable
sigmoid(const Variable &a)
{
    Tensor y = ops::sigmoid(a.value());
    return Variable::makeResult(y, {a}, [y](VarNode &self) {
        backInto(self, 0, ops::sigmoidGrad(self.grad, y));
    });
}

Variable
tanh(const Variable &a)
{
    Tensor y = ops::tanh(a.value());
    return Variable::makeResult(y, {a}, [y](VarNode &self) {
        backInto(self, 0, ops::tanhGrad(self.grad, y));
    });
}

Variable
exp(const Variable &a)
{
    Tensor y = ops::exp(a.value());
    return Variable::makeResult(y, {a}, [y](VarNode &self) {
        backInto(self, 0, ops::mul(self.grad, y));
    });
}

Variable
gemm(const Variable &a, const Variable &b, ops::GemmOpts opts)
{
    Tensor av = a.value(), bv = b.value();
    return Variable::makeResult(
        ops::gemm(av, bv, opts), {a, b},
        [av, bv, opts](VarNode &self) {
            if (wantsGrad(self, 0)) {
                Tensor ga = opts.trans_a
                    ? ops::gemm(bv, self.grad,
                                {.trans_a = opts.trans_b,
                                 .trans_b = true})
                    : ops::gemm(self.grad, bv,
                                {.trans_b = !opts.trans_b});
                backInto(self, 0, ga);
            }
            if (wantsGrad(self, 1)) {
                Tensor gb = opts.trans_b
                    ? ops::gemm(self.grad, av,
                                {.trans_a = true,
                                 .trans_b = opts.trans_a})
                    : ops::gemm(av, self.grad,
                                {.trans_a = !opts.trans_a});
                backInto(self, 1, gb);
            }
        });
}

Variable
spmm(const SparseMatrix &a, const SparseMatrix &a_t, const Variable &b)
{
    GNN_ASSERT(a.rows() == a_t.cols() && a.cols() == a_t.rows() &&
               a.nnz() == a_t.nnz(),
               "spmm: a_t is not the transpose of a");
    // The backward may run after the caller's adjacency goes out of
    // scope; SparseMatrix copies share storage, so capturing one
    // keeps it alive cheaply.
    return Variable::makeResult(
        ops::spmm(a, b.value()), {b}, [a_t](VarNode &self) {
            backInto(self, 0, ops::spmm(a_t, self.grad));
        });
}

Variable
addBiasRows(const Variable &x, const Variable &bias)
{
    return Variable::makeResult(
        ops::addBiasRows(x.value(), bias.value()), {x, bias},
        [](VarNode &self) {
            backInto(self, 0, self.grad);
            if (wantsGrad(self, 1))
                backInto(self, 1, ops::reduceSumCols(self.grad));
        });
}

namespace {

Variable
rowLookup(const Variable &a, const std::vector<int32_t> &idx, bool gather)
{
    Tensor out = gather ? ops::gatherRows(a.value(), idx)
                        : ops::indexSelectRows(a.value(), idx);
    const int64_t n = a.value().size(0);
    std::vector<int32_t> idx_copy = idx;
    return Variable::makeResult(
        out, {a}, [idx_copy, n](VarNode &self) {
            if (!wantsGrad(self, 0))
                return;
            Tensor ga = Tensor::zeros({n, self.value.size(1)});
            ops::scatterAddRows(ga, idx_copy, self.grad);
            backInto(self, 0, ga);
        });
}

} // namespace

Variable
indexSelectRows(const Variable &a, const std::vector<int32_t> &idx)
{
    return rowLookup(a, idx, false);
}

Variable
gatherRows(const Variable &a, const std::vector<int32_t> &idx)
{
    return rowLookup(a, idx, true);
}

Variable
scatterSumRows(const Variable &src, const std::vector<int32_t> &idx,
               int64_t num_rows)
{
    GNN_ASSERT(src.value().dim() == 2, "scatterSumRows: src must be 2-d");
    Tensor out = Tensor::zeros({num_rows, src.value().size(1)});
    ops::scatterAddRows(out, idx, src.value());
    std::vector<int32_t> idx_copy = idx;
    return Variable::makeResult(
        out, {src}, [idx_copy](VarNode &self) {
            if (wantsGrad(self, 0))
                backInto(self, 0, ops::gatherRows(self.grad, idx_copy));
        });
}

Variable
segmentSumRows(const Variable &src, const std::vector<int32_t> &offsets)
{
    const int64_t segs = static_cast<int64_t>(offsets.size()) - 1;
    Tensor sums = ops::segmentSumRows(src.value(), offsets);
    std::vector<int32_t> row_seg(src.value().size(0));
    for (int64_t s = 0; s < segs; ++s) {
        for (int32_t r = offsets[s]; r < offsets[s + 1]; ++r)
            row_seg[r] = static_cast<int32_t>(s);
    }
    return Variable::makeResult(
        sums, {src}, [row_seg](VarNode &self) {
            if (wantsGrad(self, 0))
                backInto(self, 0, ops::gatherRows(self.grad, row_seg));
        });
}

Variable
transpose2d(const Variable &a)
{
    return Variable::makeResult(
        ops::transpose2d(a.value()), {a}, [](VarNode &self) {
            if (wantsGrad(self, 0))
                backInto(self, 0, ops::transpose2d(self.grad));
        });
}

Variable
mulRowsByConst(const Variable &a, const Tensor &v)
{
    return Variable::makeResult(
        ops::mulRowsBy(a.value(), v), {a}, [v](VarNode &self) {
            if (wantsGrad(self, 0))
                backInto(self, 0, ops::mulRowsBy(self.grad, v));
        });
}

Variable
segmentMeanRows(const Variable &src, const std::vector<int32_t> &offsets)
{
    const int64_t segs = static_cast<int64_t>(offsets.size()) - 1;
    Tensor sums = ops::segmentSumRows(src.value(), offsets);

    Tensor inv_count = Tensor::zeros({segs});
    std::vector<int32_t> row_seg(src.value().size(0));
    for (int64_t s = 0; s < segs; ++s) {
        const int32_t cnt = offsets[s + 1] - offsets[s];
        inv_count(s) = cnt > 0 ? 1.0f / static_cast<float>(cnt) : 0.0f;
        for (int32_t r = offsets[s]; r < offsets[s + 1]; ++r)
            row_seg[r] = static_cast<int32_t>(s);
    }
    Tensor out = ops::mulRowsBy(sums, inv_count);
    return Variable::makeResult(
        out, {src}, [row_seg, inv_count](VarNode &self) {
            if (!wantsGrad(self, 0))
                return;
            Tensor scaled = ops::mulRowsBy(self.grad, inv_count);
            backInto(self, 0, ops::gatherRows(scaled, row_seg));
        });
}

Variable
concatRows(const std::vector<Variable> &parts)
{
    std::vector<Tensor> values;
    std::vector<int64_t> sizes;
    values.reserve(parts.size());
    for (const Variable &p : parts) {
        values.push_back(p.value());
        sizes.push_back(p.value().size(0));
    }
    return Variable::makeResult(
        ops::concatRows(values), parts, [sizes](VarNode &self) {
            int64_t row = 0;
            for (size_t i = 0; i < sizes.size(); ++i) {
                if (wantsGrad(self, i)) {
                    backInto(self, i,
                             ops::sliceRows(self.grad, row,
                                            row + sizes[i]));
                }
                row += sizes[i];
            }
        });
}

Variable
concatCols(const Variable &a, const Variable &b)
{
    const int64_t fa = a.value().size(1);
    const int64_t fb = b.value().size(1);
    return Variable::makeResult(
        ops::concatCols(a.value(), b.value()), {a, b},
        [fa, fb](VarNode &self) {
            const int64_t n = self.value.size(0);
            const float *pg = self.grad.data();
            if (wantsGrad(self, 0)) {
                Tensor ga = Tensor::zeros({n, fa});
                float *pa = ga.data();
                parallel_for(0, n, 128, [&](int64_t i0, int64_t i1) {
                    for (int64_t i = i0; i < i1; ++i) {
                        std::copy(pg + i * (fa + fb),
                                  pg + i * (fa + fb) + fa, pa + i * fa);
                    }
                });
                // Split is another strided copy on the device.
                ElementwiseSpec spec;
                spec.name = "ew_split";
                spec.elems = n * fa;
                spec.inAddrs = {self.grad.deviceAddr()};
                spec.outAddrs = {ga.deviceAddr()};
                spec.fp32PerElem = 0;
                spec.int32PerElem = 3;
                emitElementwise(spec);
                backInto(self, 0, ga);
            }
            if (wantsGrad(self, 1)) {
                Tensor gb = Tensor::zeros({n, fb});
                float *pb = gb.data();
                parallel_for(0, n, 128, [&](int64_t i0, int64_t i1) {
                    for (int64_t i = i0; i < i1; ++i) {
                        std::copy(pg + i * (fa + fb) + fa,
                                  pg + (i + 1) * (fa + fb), pb + i * fb);
                    }
                });
                ElementwiseSpec spec;
                spec.name = "ew_split";
                spec.elems = n * fb;
                spec.inAddrs = {self.grad.deviceAddr()};
                spec.outAddrs = {gb.deviceAddr()};
                spec.fp32PerElem = 0;
                spec.int32PerElem = 3;
                emitElementwise(spec);
                backInto(self, 1, gb);
            }
        });
}

Variable
sliceCols(const Variable &a, int64_t begin, int64_t end)
{
    const Tensor &av = a.value();
    GNN_ASSERT(av.dim() == 2 && begin >= 0 && begin <= end &&
               end <= av.size(1), "sliceCols: bad range [%lld, %lld)",
               static_cast<long long>(begin),
               static_cast<long long>(end));
    const int64_t n = av.size(0);
    const int64_t f = av.size(1);
    const int64_t w = end - begin;

    Tensor out = Tensor::zeros({n, w});
    const float *pa = av.data();
    float *po = out.data();
    parallel_for(0, n, 128, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            std::copy(pa + i * f + begin, pa + i * f + end, po + i * w);
        }
    });
    ElementwiseSpec spec;
    spec.name = "ew_slice_cols";
    spec.elems = out.numel();
    spec.inAddrs = {av.deviceAddr()};
    spec.outAddrs = {out.deviceAddr()};
    spec.fp32PerElem = 0;
    spec.int32PerElem = 3;
    emitElementwise(spec);

    return Variable::makeResult(
        out, {a}, [begin, n, f, w](VarNode &self) {
            if (!wantsGrad(self, 0))
                return;
            Tensor ga = Tensor::zeros({n, f});
            const float *pg = self.grad.data();
            float *pga = ga.data();
            parallel_for(0, n, 128, [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i) {
                    std::copy(pg + i * w, pg + (i + 1) * w,
                              pga + i * f + begin);
                }
            });
            ElementwiseSpec bwd;
            bwd.name = "ew_slice_cols_bwd";
            bwd.elems = self.grad.numel();
            bwd.inAddrs = {self.grad.deviceAddr()};
            bwd.outAddrs = {ga.deviceAddr()};
            bwd.fp32PerElem = 0;
            bwd.int32PerElem = 3;
            emitElementwise(bwd);
            backInto(self, 0, ga);
        });
}

Variable
reshape(const Variable &a, std::vector<int64_t> shape)
{
    std::vector<int64_t> old_shape = a.value().shape();
    return Variable::makeResult(
        a.value().reshape(std::move(shape)), {a},
        [old_shape](VarNode &self) {
            backInto(self, 0, self.grad.reshape(old_shape));
        });
}

Variable
softmaxRows(const Variable &a)
{
    Tensor y = ops::softmaxRows(a.value());
    return Variable::makeResult(y, {a}, [y](VarNode &self) {
        backInto(self, 0, ops::softmaxRowsBackward(self.grad, y));
    });
}

Variable
logSoftmaxRows(const Variable &a)
{
    Tensor y = ops::logSoftmaxRows(a.value());
    return Variable::makeResult(y, {a}, [y](VarNode &self) {
        backInto(self, 0, ops::logSoftmaxRowsBackward(self.grad, y));
    });
}

Variable
meanAll(const Variable &a)
{
    const int64_t n = a.value().numel();
    Tensor out = Tensor::zeros({1});
    out(0) = ops::reduceMeanAll(a.value());
    std::vector<int64_t> shape = a.value().shape();
    return Variable::makeResult(out, {a}, [n, shape](VarNode &self) {
        const float g = self.grad(0) / static_cast<float>(n);
        backInto(self, 0, filled(shape, g));
    });
}

Variable
sumAll(const Variable &a)
{
    Tensor out = Tensor::zeros({1});
    out(0) = ops::reduceSumAll(a.value());
    std::vector<int64_t> shape = a.value().shape();
    return Variable::makeResult(out, {a}, [shape](VarNode &self) {
        backInto(self, 0, filled(shape, self.grad(0)));
    });
}

Variable
meanRows(const Variable &a)
{
    const int64_t f = a.value().size(1);
    Tensor sums = ops::reduceSumRows(a.value());
    Tensor out = ops::scale(sums, 1.0f / static_cast<float>(f));
    std::vector<int64_t> shape = a.value().shape();
    return Variable::makeResult(out, {a}, [f, shape](VarNode &self) {
        if (!wantsGrad(self, 0))
            return;
        Tensor ga = Tensor::zeros(shape);
        const float inv = 1.0f / static_cast<float>(f);
        parallel_for(0, shape[0], 128, [&](int64_t i0, int64_t i1) {
            for (int64_t i = i0; i < i1; ++i) {
                for (int64_t j = 0; j < f; ++j)
                    ga(i, j) = self.grad(i) * inv;
            }
        });
        ElementwiseSpec spec;
        spec.name = "ew_bcast_rows";
        spec.elems = ga.numel();
        spec.inAddrs = {self.grad.deviceAddr()};
        spec.outAddrs = {ga.deviceAddr()};
        spec.fp32PerElem = 1;
        spec.int32PerElem = 3;
        emitElementwise(spec);
        backInto(self, 0, ga);
    });
}

Variable
nllLoss(const Variable &log_probs, const std::vector<int32_t> &labels)
{
    const Tensor &lp = log_probs.value();
    GNN_ASSERT(lp.dim() == 2 &&
               static_cast<int64_t>(labels.size()) == lp.size(0),
               "nllLoss: %zu labels for %s", labels.size(),
               lp.shapeString().c_str());
    const int64_t n = lp.size(0);
    const int64_t f = lp.size(1);

    const double sum = parallel_reduce(
        0, n, int64_t{1} << 15, 0.0,
        [&](int64_t i0, int64_t i1) {
            double s = 0.0;
            for (int64_t i = i0; i < i1; ++i) {
                GNN_ASSERT(labels[i] >= 0 && labels[i] < f,
                           "nllLoss: label %d out of range", labels[i]);
                s -= lp(i, labels[i]);
            }
            return s;
        },
        [](double acc, double s) { return acc + s; });
    Tensor out = Tensor::zeros({1});
    out(0) = static_cast<float>(sum / static_cast<double>(n));

    // The label gather + mean shows up as a small reduction kernel.
    DeviceSpan labels_span(labels.size() * sizeof(int32_t));
    ElementwiseSpec fwd;
    fwd.name = "nll_fwd";
    fwd.elems = n;
    fwd.inAddrs = {lp.deviceAddr(), labels_span.addr()};
    fwd.outAddrs = {out.deviceAddr()};
    fwd.fp32PerElem = 1;
    fwd.int32PerElem = 3;
    fwd.opClass = OpClass::Reduction;
    emitElementwise(fwd);

    std::vector<int32_t> labels_copy = labels;
    return Variable::makeResult(
        out, {log_probs}, [labels_copy, n, f](VarNode &self) {
            if (!wantsGrad(self, 0))
                return;
            const float g = self.grad(0) / static_cast<float>(n);
            Tensor ga = Tensor::zeros({n, f});
            parallel_for(0, n, 256, [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i)
                    ga(i, labels_copy[i]) = -g;
            });
            DeviceSpan labels_span(labels_copy.size() *
                                   sizeof(int32_t));
            ElementwiseSpec bwd;
            bwd.name = "nll_bwd";
            bwd.elems = n;
            bwd.inAddrs = {labels_span.addr()};
            bwd.outAddrs = {ga.deviceAddr()};
            bwd.fp32PerElem = 1;
            bwd.int32PerElem = 3;
            emitElementwise(bwd);
            backInto(self, 0, ga);
        });
}

Variable
mseLoss(const Variable &pred, const Variable &target)
{
    Variable diff = sub(pred, target);
    return meanAll(mul(diff, diff));
}

Variable
bceWithLogits(const Variable &logits, const Tensor &targets)
{
    const Tensor &x = logits.value();
    GNN_ASSERT(x.sameShape(targets), "bceWithLogits: shape mismatch");
    const int64_t n = x.numel();

    // loss_i = max(x,0) - x*y + log1p(exp(-|x|))
    const float *px = x.data();
    const float *py = targets.data();
    const double sum = parallel_reduce(
        0, n, int64_t{1} << 15, 0.0,
        [&](int64_t i0, int64_t i1) {
            double s = 0.0;
            for (int64_t i = i0; i < i1; ++i) {
                const double xv = px[i];
                s += std::max(xv, 0.0) - xv * py[i] +
                     std::log1p(std::exp(-std::abs(xv)));
            }
            return s;
        },
        [](double acc, double s) { return acc + s; });
    Tensor out = Tensor::zeros({1});
    out(0) = static_cast<float>(sum / static_cast<double>(n));

    ElementwiseSpec fwd;
    fwd.name = "bce_fwd";
    fwd.elems = n;
    fwd.inAddrs = {x.deviceAddr(), targets.deviceAddr()};
    fwd.outAddrs = {out.deviceAddr()};
    fwd.fp32PerElem = 3;
    fwd.sfuPerElem = 2;
    fwd.int32PerElem = 2;
    fwd.opClass = OpClass::Reduction;
    emitElementwise(fwd);

    Tensor y = targets;
    return Variable::makeResult(
        out, {logits}, [y, n](VarNode &self) {
            if (!wantsGrad(self, 0))
                return;
            const Tensor &x_in = self.parents[0]->value;
            Tensor s = ops::sigmoid(x_in);
            Tensor d = ops::sub(s, y);
            backInto(self, 0,
                     ops::scale(d, self.grad(0) / static_cast<float>(n)));
        });
}

Variable
conv2d(const Variable &input, const Variable &weight, int pad)
{
    Tensor iv = input.value(), wv = weight.value();
    return Variable::makeResult(
        ops::conv2d(iv, wv, pad), {input, weight},
        [iv, wv, pad](VarNode &self) {
            if (wantsGrad(self, 0))
                backInto(self, 0,
                         ops::conv2dGradInput(self.grad, wv, iv, pad));
            if (wantsGrad(self, 1))
                backInto(self, 1,
                         ops::conv2dGradWeight(self.grad, iv, wv, pad));
        });
}

Variable
batchNorm(const Variable &x, const Variable &gamma, const Variable &beta,
          float eps)
{
    auto state = std::make_shared<ops::BatchNormState>();
    Tensor gv = gamma.value();
    Tensor y = ops::batchNorm(x.value(), gv, beta.value(), eps, *state);
    return Variable::makeResult(
        y, {x, gamma, beta}, [state, gv](VarNode &self) {
            Tensor gx, ggamma, gbeta;
            ops::batchNormBackward(self.grad, gv, *state, gx, ggamma,
                                   gbeta);
            backInto(self, 0, gx);
            backInto(self, 1, ggamma);
            backInto(self, 2, gbeta);
        });
}

Variable
layerNorm(const Variable &x, const Variable &gamma, const Variable &beta,
          float eps)
{
    auto state = std::make_shared<ops::LayerNormState>();
    Tensor gv = gamma.value();
    Tensor y = ops::layerNorm(x.value(), gv, beta.value(), eps, *state);
    return Variable::makeResult(
        y, {x, gamma, beta}, [state, gv](VarNode &self) {
            Tensor gx, ggamma, gbeta;
            ops::layerNormBackward(self.grad, gv, *state, gx, ggamma,
                                   gbeta);
            backInto(self, 0, gx);
            backInto(self, 1, ggamma);
            backInto(self, 2, gbeta);
        });
}

} // namespace ag
} // namespace gnnmark
