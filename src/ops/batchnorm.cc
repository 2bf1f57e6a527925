#include "ops/batchnorm.hh"

#include <cmath>
#include <utility>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "obs/span.hh"
#include "ops/exec_context.hh"
#include "ops/kernel_common.hh"
#include "ops/lanes.hh"

namespace gnnmark {
namespace ops {

namespace {

/** Emit the two batch-norm kernels: a stats pass and an apply pass. */
void
emitNormKernels(const char *base, int64_t n, int64_t f, uint64_t x_addr,
                uint64_t y_addr, int extra_passes = 0)
{
    if (ExecContext::device() == nullptr)
        return;
    const int eb = deviceElemBytes();
    const int64_t chunks = std::max<int64_t>(1, (f + 31) / 32);

    // Pass 1: per-column mean/variance (Welford over row strides).
    {
        KernelDesc desc;
        desc.name = kernelName(std::string(base) + "_stats", {n, f});
        desc.opClass = OpClass::BatchNorm;
        desc.blocks = chunks;
        desc.warpsPerBlock = 8;
        desc.codeBytes = 10 * 1024;
        desc.aluIlp = 2.0;
        desc.loadDepFraction = 0.6;
        desc.trace = [=](int64_t warp_id, WarpTraceSink &sink) {
            const int64_t chunk = warp_id / 8;
            const int64_t slice = warp_id % 8;
            const int64_t rows = (n + 7) / 8;
            int64_t done = 0;
            for (int64_t r = 0; r < rows; ++r, ++done) {
                if (sink.full())
                    break;
                int64_t row = slice * rows + r;
                if (row >= n)
                    break;
                sink.loadCoalesced(x_addr + (row * f + chunk * 32) * eb,
                                   eb);
                sink.fp32(3); // running mean + m2 updates
                sink.int32(1);
            }
            if (done < rows && done > 1) {
                sink.scaleRemainder(static_cast<double>(rows) /
                                    static_cast<double>(done));
            }
            sink.sharedStore(2);
            sink.barrier();
            sink.sharedLoad(6);
            sink.fp32(6);
            sink.sfu(1); // rsqrt
            sink.storeCoalesced(y_addr + chunk * 32 * eb, eb);
        };
        emitKernel(desc);
    }

    // Pass 2 (+ optional backward passes): streaming normalise/apply.
    for (int p = 0; p <= extra_passes; ++p) {
        ElementwiseSpec spec;
        spec.name = std::string(base) + "_apply";
        spec.elems = n * f;
        spec.inAddrs = {x_addr};
        spec.outAddrs = {y_addr};
        spec.fp32PerElem = 4;
        spec.int32PerElem = 12;
        spec.opClass = OpClass::BatchNorm;
        spec.elemBytes = eb;
        emitElementwise(spec);
    }
}

void
checkNormArgs(const Tensor &x, const Tensor &gamma, const Tensor &beta,
              int64_t stat_dim, const char *name)
{
    GNN_ASSERT(x.dim() == 2, "%s: x must be 2-d, got %s", name,
               x.shapeString().c_str());
    GNN_ASSERT(gamma.dim() == 1 && gamma.size(0) == stat_dim &&
               beta.dim() == 1 && beta.size(0) == stat_dim,
               "%s: gamma/beta must be [%lld]", name,
               static_cast<long long>(stat_dim));
}

/** Columns per chunk of the column-sum passes (each sums all rows). */
constexpr int64_t kColGrain = 16;

/** sum[j] += x[j] and sq[j] += x[j]^2, in double, for one row slice. */
void
accumulateStats(const float *__restrict x, double *__restrict sum,
                double *__restrict sq, int64_t w)
{
    int64_t j = 0;
    for (; j + kLanes <= w; j += kLanes) {
        for (int64_t l = 0; l < kLanes; ++l) {
            const int64_t c = j + l;
            const double v = x[c];
            sum[c] += v;
            sq[c] += v * v;
        }
    }
    for (; j < w; ++j) {
        const double v = x[j];
        sum[j] += v;
        sq[j] += v * v;
    }
}

/** sum_g[j] += g[j] and sum_gx[j] += g[j] * xhat[j] (a float product
 *  added in double) for one row slice. */
void
accumulateGradSums(const float *__restrict g, const float *__restrict xhat,
                   double *__restrict sum_g, double *__restrict sum_gx,
                   int64_t w)
{
    int64_t j = 0;
    for (; j + kLanes <= w; j += kLanes) {
        for (int64_t l = 0; l < kLanes; ++l) {
            const int64_t c = j + l;
            sum_g[c] += g[c];
            sum_gx[c] += g[c] * xhat[c];
        }
    }
    for (; j < w; ++j) {
        sum_g[j] += g[j];
        sum_gx[j] += g[j] * xhat[j];
    }
}

} // namespace

Tensor
batchNorm(const Tensor &x, const Tensor &gamma, const Tensor &beta,
          float eps, BatchNormState &state)
{
    GNN_SPAN("op.batchnorm");
    const int64_t n = x.size(0);
    const int64_t f = x.dim() == 2 ? x.size(1) : 0;
    checkNormArgs(x, gamma, beta, f, "batchNorm");
    GNN_ASSERT(n > 0, "batchNorm over an empty batch");

    state.mean = Tensor::empty({f});
    state.invStd = Tensor::empty({f});
    state.xhat = Tensor::empty({n, f});
    Tensor y = Tensor::empty({n, f});

    const float *px = x.data();
    float *pmean = state.mean.data();
    float *pinv = state.invStd.data();
    // Per-column stats: every column is owned by one chunk, which walks
    // the rows in ascending order, so each column sums as a plain
    // column loop would.
    parallel_for(0, f, kColGrain, [&](int64_t j0, int64_t j1) {
        double sum[kColGrain] = {};
        double sq[kColGrain] = {};
        for (int64_t i = 0; i < n; ++i)
            accumulateStats(px + i * f + j0, sum, sq, j1 - j0);
        for (int64_t j = j0; j < j1; ++j) {
            const double mean = sum[j - j0] / n;
            const double var =
                std::max(0.0, sq[j - j0] / n - mean * mean);
            pmean[j] = static_cast<float>(mean);
            pinv[j] = static_cast<float>(1.0 / std::sqrt(var + eps));
        }
    });
    const float *pgamma = gamma.data();
    const float *pbeta = beta.data();
    float *pxhat = state.xhat.data();
    float *py = y.data();
    parallel_for(0, n, 64, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            float *xhat_row = pxhat + i * f;
            mapLanes(xhat_row, f,
                     [](float v, float mean, float inv_std) {
                         return (v - mean) * inv_std;
                     },
                     px + i * f, pmean, pinv);
            mapLanes(py + i * f, f,
                     [](float xh, float g, float b) { return g * xh + b; },
                     xhat_row, pgamma, pbeta);
        }
    });
    emitNormKernels("batchnorm", n, f, x.deviceAddr(), y.deviceAddr());
    return y;
}

void
batchNormBackward(const Tensor &grad_out, const Tensor &gamma,
                  const BatchNormState &state, Tensor &grad_x,
                  Tensor &grad_gamma, Tensor &grad_beta)
{
    GNN_SPAN("op.batchnorm.backward");
    // The loops below read raw pointers, so every operand's shape is
    // checked once here instead of per element.
    GNN_ASSERT(state.xhat.dim() == 2,
               "batchNormBackward: xhat must be 2-d, got %s",
               state.xhat.shapeString().c_str());
    const int64_t n = state.xhat.size(0);
    const int64_t f = state.xhat.size(1);
    GNN_ASSERT(grad_out.dim() == 2 && grad_out.size(0) == n &&
               grad_out.size(1) == f, "batchNormBackward: bad grad shape");
    GNN_ASSERT(gamma.dim() == 1 && gamma.size(0) == f,
               "batchNormBackward: gamma must be [%lld], got %s",
               static_cast<long long>(f), gamma.shapeString().c_str());
    GNN_ASSERT(state.invStd.dim() == 1 && state.invStd.size(0) == f,
               "batchNormBackward: invStd must be [%lld], got %s",
               static_cast<long long>(f),
               state.invStd.shapeString().c_str());

    grad_x = Tensor::empty({n, f});
    grad_gamma = Tensor::empty({f});
    grad_beta = Tensor::empty({f});

    const float *pg = grad_out.data();
    const float *pxhat = state.xhat.data();
    float *pgamma_grad = grad_gamma.data();
    float *pbeta_grad = grad_beta.data();
    // Column sums, rows ascending within each column (see batchNorm).
    parallel_for(0, f, kColGrain, [&](int64_t j0, int64_t j1) {
        double sum_g[kColGrain] = {};
        double sum_gx[kColGrain] = {};
        for (int64_t i = 0; i < n; ++i) {
            accumulateGradSums(pg + i * f + j0, pxhat + i * f + j0, sum_g,
                               sum_gx, j1 - j0);
        }
        for (int64_t j = j0; j < j1; ++j) {
            pbeta_grad[j] = static_cast<float>(sum_g[j - j0]);
            pgamma_grad[j] = static_cast<float>(sum_gx[j - j0]);
        }
    });
    const float inv_n = 1.0f / static_cast<float>(n);
    const float *pgamma = gamma.data();
    const float *pinv = state.invStd.data();
    float *pgx = grad_x.data();
    // grad_beta and grad_gamma hold the float-rounded column sums.
    parallel_for(0, n, 64, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            mapLanes(pgx + i * f, f,
                     [inv_n](float g, float xh, float gm, float inv_std,
                             float sum_g, float sum_gx) {
                         return gm * inv_std *
                                (g - sum_g * inv_n - xh * sum_gx * inv_n);
                     },
                     pg + i * f, pxhat + i * f, pgamma, pinv, pbeta_grad,
                     pgamma_grad);
        }
    });
    emitNormKernels("batchnorm_bwd", n, f, grad_out.deviceAddr(),
                    grad_x.deviceAddr(), 1);
}

Tensor
layerNorm(const Tensor &x, const Tensor &gamma, const Tensor &beta,
          float eps, LayerNormState &state)
{
    GNN_SPAN("op.layernorm");
    const int64_t n = x.size(0);
    const int64_t f = x.dim() == 2 ? x.size(1) : 0;
    checkNormArgs(x, gamma, beta, f, "layerNorm");
    GNN_ASSERT(f > 0, "layerNorm over empty rows");

    state.mean = Tensor::empty({n});
    state.invStd = Tensor::empty({n});
    state.xhat = Tensor::empty({n, f});
    Tensor y = Tensor::empty({n, f});

    parallel_for(0, n, 32, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            double sum = 0.0, sq = 0.0;
            for (int64_t j = 0; j < f; ++j) {
                const double v = x(i, j);
                sum += v;
                sq += v * v;
            }
            const double mean = sum / f;
            const double var = std::max(0.0, sq / f - mean * mean);
            state.mean(i) = static_cast<float>(mean);
            state.invStd(i) =
                static_cast<float>(1.0 / std::sqrt(var + eps));
            for (int64_t j = 0; j < f; ++j) {
                const float xh =
                    (x(i, j) - state.mean(i)) * state.invStd(i);
                state.xhat(i, j) = xh;
                y(i, j) = gamma(j) * xh + beta(j);
            }
        }
    });
    emitNormKernels("layernorm", n, f, x.deviceAddr(), y.deviceAddr());
    return y;
}

void
layerNormBackward(const Tensor &grad_out, const Tensor &gamma,
                  const LayerNormState &state, Tensor &grad_x,
                  Tensor &grad_gamma, Tensor &grad_beta)
{
    const int64_t n = state.xhat.size(0);
    const int64_t f = state.xhat.size(1);
    GNN_ASSERT(grad_out.dim() == 2 && grad_out.size(0) == n &&
               grad_out.size(1) == f, "layerNormBackward: bad grad shape");

    grad_x = Tensor::empty({n, f});
    grad_gamma = Tensor::empty({f});
    grad_beta = Tensor::empty({f});

    // grad_x rows are independent, but grad_gamma/grad_beta accumulate
    // across rows: give each chunk private accumulators and combine them
    // in ascending chunk order so the sum order never depends on the
    // thread count.
    using Acc = std::pair<std::vector<float>, std::vector<float>>;
    Acc sums = parallel_reduce(
        0, n, 32,
        Acc(std::vector<float>(f, 0.0f), std::vector<float>(f, 0.0f)),
        [&](int64_t i0, int64_t i1) {
            Acc local(std::vector<float>(f, 0.0f),
                      std::vector<float>(f, 0.0f));
            for (int64_t i = i0; i < i1; ++i) {
                double sum_g = 0.0, sum_gx = 0.0;
                for (int64_t j = 0; j < f; ++j) {
                    const float gg = grad_out(i, j) * gamma(j);
                    sum_g += gg;
                    sum_gx += gg * state.xhat(i, j);
                    local.first[j] += grad_out(i, j) * state.xhat(i, j);
                    local.second[j] += grad_out(i, j);
                }
                const float inv_f = 1.0f / static_cast<float>(f);
                for (int64_t j = 0; j < f; ++j) {
                    const float gg = grad_out(i, j) * gamma(j);
                    grad_x(i, j) =
                        state.invStd(i) *
                        (gg - static_cast<float>(sum_g) * inv_f -
                         state.xhat(i, j) *
                             static_cast<float>(sum_gx) * inv_f);
                }
            }
            return local;
        },
        [f](Acc acc, const Acc &local) {
            for (int64_t j = 0; j < f; ++j) {
                acc.first[j] += local.first[j];
                acc.second[j] += local.second[j];
            }
            return acc;
        });
    for (int64_t j = 0; j < f; ++j) {
        grad_gamma(j) = sums.first[j];
        grad_beta(j) = sums.second[j];
    }
    emitNormKernels("layernorm_bwd", n, f, grad_out.deviceAddr(),
                    grad_x.deviceAddr(), 1);
}

} // namespace ops
} // namespace gnnmark
