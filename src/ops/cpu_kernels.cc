#include "ops/cpu_kernels.hh"

#include <algorithm>

#include "base/thread_pool.hh"
#include "obs/span.hh"
#include "ops/lanes.hh"

// AVX2 paths are compiled via per-function target attributes rather
// than a TU-wide -mavx2: a TU-wide flag would let the compiler emit
// AVX2 in shared inline/template instantiations (std::function,
// vector) whose COMDAT copy the linker may pick for the whole
// program, crashing pre-AVX2 hosts. Per-function targeting confines
// AVX2 to exactly the kernels guarded by simdActive(). No FMA: the
// intrinsics below use separate mul/add so results stay bitwise equal
// to the scalar baselines (and to the committed report baselines).
#if defined(__x86_64__) && defined(__GNUC__)
#define GNNMARK_AVX2 1
#include <immintrin.h>
#else
#define GNNMARK_AVX2 0
#endif

namespace gnnmark {
namespace ops {
namespace kern {

bool
simdActive()
{
#if GNNMARK_AVX2
    static const bool ok = __builtin_cpu_supports("avx2");
    return ok;
#else
    return false;
#endif
}

namespace {

/** One output row of the naive GEMM: kk-outer, zero-skip on A,
 *  memory-accumulating j loop (the historical op body; the j axis is
 *  independent, so it runs in lanes). */
inline void
gemmNaiveRow(const float *arow, int64_t k, const float *b, int64_t n,
             float *crow)
{
    for (int64_t kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        if (aik == 0.0f)
            continue;
        axpyLanes(crow, aik, b + kk * n, n);
    }
}

/** Column remainder (n % 16) of a 4-row group, naive order. */
inline void
gemmRows4Tail(const float *a, int64_t k, const float *b, int64_t n,
              float *c, int64_t j0)
{
    for (int64_t kk = 0; kk < k; ++kk) {
        const float *brow = b + kk * n;
        for (int r = 0; r < 4; ++r) {
            const float av = a[r * k + kk];
            if (av == 0.0f)
                continue;
            axpyLanes(c + r * n + j0, av, brow + j0, n - j0);
        }
    }
}

/**
 * 4x16 register tile over the full K extent, scalar flavour. Each
 * C element still accumulates in ascending-kk order with the same
 * zero-skip, so the result is bitwise equal to gemmNaiveRow; the win
 * is C staying in registers (one store per element instead of one
 * load+store per nonzero A element).
 */
void
gemmRows4Scalar(const float *a, int64_t k, const float *b, int64_t n,
                float *c)
{
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
        float acc[4][16] = {};
        for (int64_t kk = 0; kk < k; ++kk) {
            const float *brow = b + kk * n + j;
            for (int r = 0; r < 4; ++r) {
                const float av = a[r * k + kk];
                if (av == 0.0f)
                    continue;
                for (int t = 0; t < 16; ++t)
                    acc[r][t] += av * brow[t];
            }
        }
        for (int r = 0; r < 4; ++r) {
            for (int t = 0; t < 16; ++t)
                c[r * n + j + t] = acc[r][t];
        }
    }
    if (j < n)
        gemmRows4Tail(a, k, b, n, c, j);
}

#if GNNMARK_AVX2
/** 4x16 register tile, AVX2 flavour (separate mul/add — no FMA). */
__attribute__((target("avx2"))) void
gemmRows4Avx2(const float *a, int64_t k, const float *b, int64_t n,
              float *c)
{
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
        __m256 acc[4][2];
        for (int r = 0; r < 4; ++r)
            acc[r][0] = acc[r][1] = _mm256_setzero_ps();
        for (int64_t kk = 0; kk < k; ++kk) {
            const float *brow = b + kk * n + j;
            const __m256 b0 = _mm256_loadu_ps(brow);
            const __m256 b1 = _mm256_loadu_ps(brow + 8);
            for (int r = 0; r < 4; ++r) {
                const float av = a[r * k + kk];
                if (av == 0.0f)
                    continue;
                const __m256 va = _mm256_set1_ps(av);
                acc[r][0] =
                    _mm256_add_ps(acc[r][0], _mm256_mul_ps(va, b0));
                acc[r][1] =
                    _mm256_add_ps(acc[r][1], _mm256_mul_ps(va, b1));
            }
        }
        for (int r = 0; r < 4; ++r) {
            _mm256_storeu_ps(c + r * n + j, acc[r][0]);
            _mm256_storeu_ps(c + r * n + j + 8, acc[r][1]);
        }
    }
    // One 4x8 tile for an 8-column remainder (DGCN's width 72 is
    // 4 x 16 + 8), same kk order and zero-skip as the 16-wide tile.
    if (j + 8 <= n) {
        __m256 acc[4];
        for (int r = 0; r < 4; ++r)
            acc[r] = _mm256_setzero_ps();
        for (int64_t kk = 0; kk < k; ++kk) {
            const __m256 b0 = _mm256_loadu_ps(b + kk * n + j);
            for (int r = 0; r < 4; ++r) {
                const float av = a[r * k + kk];
                if (av == 0.0f)
                    continue;
                acc[r] = _mm256_add_ps(
                    acc[r], _mm256_mul_ps(_mm256_set1_ps(av), b0));
            }
        }
        for (int r = 0; r < 4; ++r)
            _mm256_storeu_ps(c + r * n + j, acc[r]);
        j += 8;
    }
    if (j < n)
        gemmRows4Tail(a, k, b, n, c, j);
}
#endif

/** Feature-strip remainder (f % 16) of one SpMM row, naive order. */
inline void
spmmRowTail(const int32_t *ci, const float *vals, int32_t begin,
            int32_t end, const float *b, int64_t f, float *crow,
            int64_t j0)
{
    for (int32_t e = begin; e < end; ++e) {
        const float v = vals[e];
        const float *brow = b + static_cast<int64_t>(ci[e]) * f;
        for (int64_t j = j0; j < f; ++j)
            crow[j] += v * brow[j];
    }
}

/**
 * One CSR row with 16-float feature strips held in registers across
 * the row's edge list (edge order unchanged), scalar flavour.
 */
void
spmmRowScalar(const int32_t *ci, const float *vals, int32_t begin,
              int32_t end, const float *b, int64_t f, float *crow)
{
    int64_t j = 0;
    for (; j + 16 <= f; j += 16) {
        float acc[16] = {};
        for (int32_t e = begin; e < end; ++e) {
            const float v = vals[e];
            const float *brow =
                b + static_cast<int64_t>(ci[e]) * f + j;
            for (int t = 0; t < 16; ++t)
                acc[t] += v * brow[t];
        }
        for (int t = 0; t < 16; ++t)
            crow[j + t] = acc[t];
    }
    if (j < f)
        spmmRowTail(ci, vals, begin, end, b, f, crow, j);
}

#if GNNMARK_AVX2
/** One CSR row, AVX2 flavour (separate mul/add — no FMA). */
__attribute__((target("avx2"))) void
spmmRowAvx2(const int32_t *ci, const float *vals, int32_t begin,
            int32_t end, const float *b, int64_t f, float *crow)
{
    int64_t j = 0;
    for (; j + 16 <= f; j += 16) {
        __m256 a0 = _mm256_setzero_ps();
        __m256 a1 = _mm256_setzero_ps();
        for (int32_t e = begin; e < end; ++e) {
            const __m256 vv = _mm256_set1_ps(vals[e]);
            const float *brow =
                b + static_cast<int64_t>(ci[e]) * f + j;
            a0 = _mm256_add_ps(a0,
                               _mm256_mul_ps(vv, _mm256_loadu_ps(brow)));
            a1 = _mm256_add_ps(
                a1, _mm256_mul_ps(vv, _mm256_loadu_ps(brow + 8)));
        }
        _mm256_storeu_ps(crow + j, a0);
        _mm256_storeu_ps(crow + j + 8, a1);
    }
    if (j < f)
        spmmRowTail(ci, vals, begin, end, b, f, crow, j);
}
#endif

} // namespace

void
gemmNaive(const float *a, const float *b, float *c, int64_t m,
          int64_t n, int64_t k)
{
    GNN_SPAN("op.gemm.chunk");
    parallel_for(0, m, 16, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            gemmNaiveRow(a + i * k, k, b, n, c + i * n);
    });
}

void
gemmTiled(const float *a, const float *b, float *c, int64_t m,
          int64_t n, int64_t k)
{
    GNN_SPAN("op.gemm.chunk");
    const bool simd = simdActive();
    parallel_for(0, m, 16, [&](int64_t i0, int64_t i1) {
        int64_t i = i0;
        for (; i + 4 <= i1; i += 4) {
#if GNNMARK_AVX2
            if (simd) {
                gemmRows4Avx2(a + i * k, k, b, n, c + i * n);
                continue;
            }
#else
            (void)simd;
#endif
            gemmRows4Scalar(a + i * k, k, b, n, c + i * n);
        }
        for (; i < i1; ++i)
            gemmNaiveRow(a + i * k, k, b, n, c + i * n);
    });
}

void
transpose(const float *src, float *dst, int64_t rows, int64_t cols)
{
    parallel_for(0, rows, 64, [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
            for (int64_t j = 0; j < cols; ++j)
                dst[j * rows + i] = src[i * cols + j];
        }
    });
}

void
spmmCsrScalar(const CsrMatrix &a, const float *b, float *c, int64_t f)
{
    parallel_for(0, a.rows, 64, [&](int64_t r0, int64_t r1) {
        GNN_SPAN("op.spmm.chunk");
        for (int64_t r = r0; r < r1; ++r) {
            float *crow = c + r * f;
            for (int32_t e = a.rowPtr[r]; e < a.rowPtr[r + 1]; ++e) {
                const float v = a.vals[e];
                const float *brow =
                    b + static_cast<int64_t>(a.colIdx[e]) * f;
                for (int64_t j = 0; j < f; ++j)
                    crow[j] += v * brow[j];
            }
        }
    });
}

void
spmmCsrVector(const CsrMatrix &a, const float *b, float *c, int64_t f)
{
    const bool simd = simdActive();
    const int32_t *ci = a.colIdx.data();
    const float *vals = a.vals.data();
    parallel_for(0, a.rows, 64, [&](int64_t r0, int64_t r1) {
        GNN_SPAN("op.spmm.chunk");
        for (int64_t r = r0; r < r1; ++r) {
            const int32_t begin = a.rowPtr[r];
            const int32_t end = a.rowPtr[r + 1];
            float *crow = c + r * f;
#if GNNMARK_AVX2
            if (simd) {
                spmmRowAvx2(ci, vals, begin, end, b, f, crow);
                continue;
            }
#else
            (void)simd;
#endif
            spmmRowScalar(ci, vals, begin, end, b, f, crow);
        }
    });
}

void
spmmCoo(const CooMatrix &a, const float *b, float *c, int64_t f)
{
    const int64_t nnz = a.nnz();
    const int32_t *ri = a.rowIdx.data();
    // Chunk boundaries fall on row boundaries (found by binary
    // search), so every output row still has exactly one writer.
    parallel_for(0, a.rows, 64, [&](int64_t r0, int64_t r1) {
        GNN_SPAN("op.spmm.chunk");
        const int32_t *p = std::lower_bound(
            ri, ri + nnz, static_cast<int32_t>(r0));
        for (int64_t i = p - ri; i < nnz && ri[i] < r1; ++i) {
            float *crow = c + static_cast<int64_t>(ri[i]) * f;
            const float v = a.vals[i];
            const float *brow =
                b + static_cast<int64_t>(a.colIdx[i]) * f;
            for (int64_t j = 0; j < f; ++j)
                crow[j] += v * brow[j];
        }
    });
}

void
spmmBell(const BlockedEllMatrix &a, const float *b, float *c, int64_t f)
{
    // Grain 64 is a multiple of kBlockRows, so chunks never split a
    // block row.
    parallel_for(0, a.rows, 64, [&](int64_t r0, int64_t r1) {
        GNN_SPAN("op.spmm.chunk");
        for (int64_t r = r0; r < r1; ++r) {
            const int64_t off = a.rowOff(r);
            const int32_t cnt = a.rowNnz[r];
            float *crow = c + r * f;
            for (int32_t t = 0; t < cnt; ++t) {
                const float v = a.vals[off + t];
                const float *brow =
                    b + static_cast<int64_t>(a.colIdx[off + t]) * f;
                for (int64_t j = 0; j < f; ++j)
                    crow[j] += v * brow[j];
            }
        }
    });
}

} // namespace kern
} // namespace ops
} // namespace gnnmark
