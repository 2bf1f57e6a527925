#include "ops/dispatch.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "ops/cpu_kernels.hh"

namespace gnnmark {
namespace ops {

const char *
gemmVariantName(GemmVariant v)
{
    switch (v) {
      case GemmVariant::Naive:
        return "naive";
      case GemmVariant::Tiled:
        return "tiled";
    }
    GNN_PANIC("bad GemmVariant %d", static_cast<int>(v));
}

const char *
spmmVariantName(SpmmVariant v)
{
    switch (v) {
      case SpmmVariant::CsrScalar:
        return "csr_scalar";
      case SpmmVariant::CsrVector:
        return "csr_vector";
      case SpmmVariant::Coo:
        return "coo";
      case SpmmVariant::Bell:
        return "bell";
    }
    GNN_PANIC("bad SpmmVariant %d", static_cast<int>(v));
}

struct Dispatch::Impl
{
    std::mutex mu; // guards calibration + env state
    bool calibrated = false;
    double calibMs = 0.0;
    // GNNMARK_OP_VARIANT pins (nullopt = auto).
    std::optional<GemmVariant> gemmOverride;
    std::optional<SpmmVariant> spmmCsrOverride;

    std::atomic<int64_t> gemmNaive{0};
    std::atomic<int64_t> gemmTiled{0};
    std::atomic<int64_t> spmmCsrScalar{0};
    std::atomic<int64_t> spmmCsrVector{0};
    std::atomic<int64_t> spmmCoo{0};
    std::atomic<int64_t> spmmBell{0};
};

namespace {

double
wallMs(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Parsed pin from one key=value clause of GNNMARK_OP_VARIANT. */
struct OverridePins
{
    std::optional<GemmVariant> gemm;
    std::optional<SpmmVariant> spmmCsr;
};

void
applyOverrideClause(const std::string &clause, OverridePins *impl)
{
    const size_t eq = clause.find('=');
    if (eq == std::string::npos) {
        warn("GNNMARK_OP_VARIANT: ignoring clause '%s' (want op=variant)",
             clause.c_str());
        return;
    }
    const std::string op = clause.substr(0, eq);
    const std::string val = clause.substr(eq + 1);
    if (op == "gemm") {
        if (val == "naive")
            impl->gemm = GemmVariant::Naive;
        else if (val == "tiled")
            impl->gemm = GemmVariant::Tiled;
        else if (val == "auto")
            impl->gemm.reset();
        else
            warn("GNNMARK_OP_VARIANT: unknown gemm variant '%s'",
                 val.c_str());
    } else if (op == "spmm") {
        if (val == "scalar")
            impl->spmmCsr = SpmmVariant::CsrScalar;
        else if (val == "vector")
            impl->spmmCsr = SpmmVariant::CsrVector;
        else if (val == "auto")
            impl->spmmCsr.reset();
        else
            warn("GNNMARK_OP_VARIANT: unknown spmm variant '%s'",
                 val.c_str());
    } else {
        warn("GNNMARK_OP_VARIANT: unknown op '%s'", op.c_str());
    }
}

/** Seeded dense probe operand (values in [-1, 1), `zero_frac` zeros). */
std::vector<float>
probeDense(Rng &rng, int64_t elems, double zero_frac)
{
    std::vector<float> v(elems);
    for (auto &x : v) {
        x = rng.bernoulli(zero_frac) ? 0.0f
                                     : rng.uniform(-1.0f, 1.0f);
    }
    return v;
}

} // namespace

Dispatch::Dispatch() : impl_(new Impl)
{
    reloadEnv();
}

Dispatch &
Dispatch::instance()
{
    static Dispatch d;
    return d;
}

void
Dispatch::reloadEnv()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    OverridePins pins;
    if (const char *env = std::getenv("GNNMARK_OP_VARIANT")) {
        std::string spec(env);
        size_t pos = 0;
        while (pos <= spec.size()) {
            size_t comma = spec.find(',', pos);
            if (comma == std::string::npos)
                comma = spec.size();
            if (comma > pos)
                applyOverrideClause(spec.substr(pos, comma - pos),
                                    &pins);
            pos = comma + 1;
        }
    }
    impl_->gemmOverride = pins.gemm;
    impl_->spmmCsrOverride = pins.spmmCsr;
}

void
Dispatch::ensureCalibrated()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->calibrated)
        return;
    const auto t0 = std::chrono::steady_clock::now();
    Rng rng(0x05ca1ab1ed15ULL); // fixed probe seed

    // GEMM probe: odd n exercises the strip tail, half-zero A
    // exercises the skip path. Both variants must agree bitwise.
    {
        const int64_t m = 33, n = 40, k = 48;
        const std::vector<float> a = probeDense(rng, m * k, 0.5);
        const std::vector<float> b = probeDense(rng, k * n, 0.0);
        std::vector<float> c_naive(m * n, 0.0f);
        std::vector<float> c_tiled(m * n, 0.0f);
        kern::gemmNaive(a.data(), b.data(), c_naive.data(), m, n, k);
        kern::gemmTiled(a.data(), b.data(), c_tiled.data(), m, n, k);
        GNN_ASSERT(std::memcmp(c_naive.data(), c_tiled.data(),
                               c_naive.size() * sizeof(float)) == 0,
                   "calibration: tiled GEMM diverged bitwise from "
                   "naive");
    }

    // SpMM probe across every format and both CSR flavours.
    {
        const int64_t rows = 96, cols = 80, f = 40;
        const CsrMatrix csr = uniformCsr(rng, rows, cols, 0.1);
        const CooMatrix coo = cooFromCsr(csr);
        const BlockedEllMatrix bell = bellFromCsr(csr);
        const std::vector<float> b = probeDense(rng, cols * f, 0.0);
        std::vector<float> c_scalar(rows * f, 0.0f);
        std::vector<float> c_vector(rows * f, 0.0f);
        std::vector<float> c_coo(rows * f, 0.0f);
        std::vector<float> c_bell(rows * f, 0.0f);
        kern::spmmCsrScalar(csr, b.data(), c_scalar.data(), f);
        kern::spmmCsrVector(csr, b.data(), c_vector.data(), f);
        kern::spmmCoo(coo, b.data(), c_coo.data(), f);
        kern::spmmBell(bell, b.data(), c_bell.data(), f);
        const size_t bytes = c_scalar.size() * sizeof(float);
        GNN_ASSERT(std::memcmp(c_scalar.data(), c_vector.data(),
                               bytes) == 0,
                   "calibration: vectorized SpMM diverged bitwise "
                   "from scalar");
        GNN_ASSERT(std::memcmp(c_scalar.data(), c_coo.data(), bytes) ==
                       0,
                   "calibration: COO SpMM diverged bitwise from CSR");
        GNN_ASSERT(std::memcmp(c_scalar.data(), c_bell.data(),
                               bytes) == 0,
                   "calibration: blocked-ELL SpMM diverged bitwise "
                   "from CSR");
    }

    impl_->calibMs = wallMs(t0);
    impl_->calibrated = true;
}

GemmVariant
Dispatch::chooseGemm(int64_t m, int64_t n, int64_t k,
                     double a_zero_frac)
{
    ensureCalibrated();
    GemmVariant v;
    if (impl_->gemmOverride) {
        v = *impl_->gemmOverride;
    } else if (m >= 4 && n >= 16 && k >= 4 && a_zero_frac <= 0.5) {
        // Register tiling amortises C traffic over K; once A is
        // mostly zeros the naive loop's whole-row skip wins instead.
        v = GemmVariant::Tiled;
    } else {
        v = GemmVariant::Naive;
    }
    auto &ctr = v == GemmVariant::Tiled ? impl_->gemmTiled
                                        : impl_->gemmNaive;
    ctr.fetch_add(1, std::memory_order_relaxed);
    return v;
}

SpmmVariant
Dispatch::chooseSpmm(SparseFormat format, int64_t m, int64_t f,
                     int64_t nnz)
{
    ensureCalibrated();
    SpmmVariant v;
    switch (format) {
      case SparseFormat::Coo:
        v = SpmmVariant::Coo;
        break;
      case SparseFormat::BlockedEll:
        v = SpmmVariant::Bell;
        break;
      case SparseFormat::Csr:
      default:
        if (impl_->spmmCsrOverride) {
            v = *impl_->spmmCsrOverride;
        } else if (f >= 16 && nnz > 0 && m > 0) {
            // Full register strips available; below that the strip
            // tail dominates and the scalar loop is simpler/faster.
            v = SpmmVariant::CsrVector;
        } else {
            v = SpmmVariant::CsrScalar;
        }
        break;
    }
    switch (v) {
      case SpmmVariant::CsrScalar:
        impl_->spmmCsrScalar.fetch_add(1, std::memory_order_relaxed);
        break;
      case SpmmVariant::CsrVector:
        impl_->spmmCsrVector.fetch_add(1, std::memory_order_relaxed);
        break;
      case SpmmVariant::Coo:
        impl_->spmmCoo.fetch_add(1, std::memory_order_relaxed);
        break;
      case SpmmVariant::Bell:
        impl_->spmmBell.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    return v;
}

DispatchStats
Dispatch::stats() const
{
    DispatchStats s;
    s.gemmNaive = impl_->gemmNaive.load(std::memory_order_relaxed);
    s.gemmTiled = impl_->gemmTiled.load(std::memory_order_relaxed);
    s.spmmCsrScalar =
        impl_->spmmCsrScalar.load(std::memory_order_relaxed);
    s.spmmCsrVector =
        impl_->spmmCsrVector.load(std::memory_order_relaxed);
    s.spmmCoo = impl_->spmmCoo.load(std::memory_order_relaxed);
    s.spmmBell = impl_->spmmBell.load(std::memory_order_relaxed);
    s.simd = kern::simdActive();
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        s.calibrated = impl_->calibrated;
        s.calibMs = impl_->calibMs;
    }
    return s;
}

void
Dispatch::resetStats()
{
    impl_->gemmNaive.store(0, std::memory_order_relaxed);
    impl_->gemmTiled.store(0, std::memory_order_relaxed);
    impl_->spmmCsrScalar.store(0, std::memory_order_relaxed);
    impl_->spmmCsrVector.store(0, std::memory_order_relaxed);
    impl_->spmmCoo.store(0, std::memory_order_relaxed);
    impl_->spmmBell.store(0, std::memory_order_relaxed);
}

double
Dispatch::sampledZeroFraction(const float *data, int64_t count)
{
    if (count <= 0)
        return 0.0;
    const int64_t probes = std::min<int64_t>(count, 4096);
    const int64_t stride = count / probes;
    int64_t zeros = 0;
    for (int64_t i = 0; i < probes; ++i) {
        if (data[i * stride] == 0.0f)
            ++zeros;
    }
    return static_cast<double>(zeros) / static_cast<double>(probes);
}

} // namespace ops
} // namespace gnnmark
