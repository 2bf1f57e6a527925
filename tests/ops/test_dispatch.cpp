/**
 * @file
 * ops::Dispatch selection contract: the closed-form model is a pure
 * function of shape/sparsity (thread count never enters), the
 * GNNMARK_OP_VARIANT override pins variants without moving any
 * simulated figure, stats counters track executed ops, and the
 * sampled-zero-fraction probe is deterministic.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "base/rng.hh"
#include "ops/dispatch.hh"
#include "ops/exec_context.hh"
#include "ops/gemm.hh"
#include "ops/spmm.hh"
#include "profiler/profiler.hh"
#include "tensor/sparse.hh"

using namespace gnnmark;
using ops::Dispatch;
using ops::GemmVariant;
using ops::SpmmVariant;

namespace {

/** RAII env-var setter that restores (unsets) and reloads on exit. */
class ScopedOpEnv
{
  public:
    ScopedOpEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
        Dispatch::instance().reloadEnv();
    }
    ~ScopedOpEnv()
    {
        ::unsetenv(name_);
        Dispatch::instance().reloadEnv();
    }

  private:
    const char *name_;
};

CsrMatrix
randomCsr(Rng &rng, int64_t rows, int64_t cols, double density)
{
    std::vector<std::tuple<int32_t, int32_t, float>> triples;
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t c = 0; c < cols; ++c) {
            if (rng.bernoulli(density)) {
                triples.emplace_back(
                    static_cast<int32_t>(r), static_cast<int32_t>(c),
                    static_cast<float>(rng.normal()));
            }
        }
    }
    return csrFromTriples(rows, cols, std::move(triples));
}

} // namespace

TEST(Dispatch, VariantNames)
{
    EXPECT_STREQ(ops::gemmVariantName(GemmVariant::Naive), "naive");
    EXPECT_STREQ(ops::gemmVariantName(GemmVariant::Tiled), "tiled");
    EXPECT_STREQ(ops::spmmVariantName(SpmmVariant::CsrScalar),
                 "csr_scalar");
    EXPECT_STREQ(ops::spmmVariantName(SpmmVariant::CsrVector),
                 "csr_vector");
    EXPECT_STREQ(ops::spmmVariantName(SpmmVariant::Coo), "coo");
    EXPECT_STREQ(ops::spmmVariantName(SpmmVariant::Bell), "bell");
}

TEST(Dispatch, GemmModelIsShapeDeterministic)
{
    Dispatch &d = Dispatch::instance();
    // Large dense: register tiling wins.
    EXPECT_EQ(d.chooseGemm(128, 128, 128, 0.0), GemmVariant::Tiled);
    // Mostly-zero A: the naive loop's zero-skip wins.
    EXPECT_EQ(d.chooseGemm(128, 128, 128, 0.9), GemmVariant::Naive);
    // Degenerate shapes fall back to naive.
    EXPECT_EQ(d.chooseGemm(1, 1, 1, 0.0), GemmVariant::Naive);
    EXPECT_EQ(d.chooseGemm(2, 512, 512, 0.0), GemmVariant::Naive);
    // Same inputs, same answer — repeatedly.
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(d.chooseGemm(64, 64, 64, 0.25),
                  d.chooseGemm(64, 64, 64, 0.25));
}

TEST(Dispatch, SpmmModelPinsFormatsAndPicksCsrFlavour)
{
    Dispatch &d = Dispatch::instance();
    EXPECT_EQ(d.chooseSpmm(SparseFormat::Coo, 512, 64, 4096),
              SpmmVariant::Coo);
    EXPECT_EQ(d.chooseSpmm(SparseFormat::BlockedEll, 512, 64, 4096),
              SpmmVariant::Bell);
    // Wide feature dim: vector flavour; narrow: scalar.
    EXPECT_EQ(d.chooseSpmm(SparseFormat::Csr, 512, 64, 4096),
              SpmmVariant::CsrVector);
    EXPECT_EQ(d.chooseSpmm(SparseFormat::Csr, 512, 4, 4096),
              SpmmVariant::CsrScalar);
    // No work at all: scalar (nothing to vectorize over).
    EXPECT_EQ(d.chooseSpmm(SparseFormat::Csr, 512, 64, 0),
              SpmmVariant::CsrScalar);
}

TEST(Dispatch, ChoiceIgnoresThreadCountEnv)
{
    // GNNMARK_THREADS influences the pool, never the variant model.
    Dispatch &d = Dispatch::instance();
    const GemmVariant g = d.chooseGemm(96, 96, 96, 0.0);
    const SpmmVariant s = d.chooseSpmm(SparseFormat::Csr, 256, 32, 999);
    {
        ScopedOpEnv env("GNNMARK_THREADS", "1");
        EXPECT_EQ(d.chooseGemm(96, 96, 96, 0.0), g);
        EXPECT_EQ(d.chooseSpmm(SparseFormat::Csr, 256, 32, 999), s);
    }
    {
        ScopedOpEnv env("GNNMARK_THREADS", "16");
        EXPECT_EQ(d.chooseGemm(96, 96, 96, 0.0), g);
        EXPECT_EQ(d.chooseSpmm(SparseFormat::Csr, 256, 32, 999), s);
    }
}

TEST(Dispatch, EnvOverridePinsVariants)
{
    Dispatch &d = Dispatch::instance();
    {
        ScopedOpEnv env("GNNMARK_OP_VARIANT", "gemm=naive,spmm=scalar");
        EXPECT_EQ(d.chooseGemm(256, 256, 256, 0.0),
                  GemmVariant::Naive);
        EXPECT_EQ(d.chooseSpmm(SparseFormat::Csr, 512, 64, 4096),
                  SpmmVariant::CsrScalar);
        // Format-pinned kernels cannot be overridden away from their
        // storage layout.
        EXPECT_EQ(d.chooseSpmm(SparseFormat::Coo, 512, 64, 4096),
                  SpmmVariant::Coo);
    }
    {
        ScopedOpEnv env("GNNMARK_OP_VARIANT", "gemm=tiled");
        EXPECT_EQ(d.chooseGemm(1, 1, 1, 0.0), GemmVariant::Tiled);
    }
    {
        ScopedOpEnv env("GNNMARK_OP_VARIANT", "spmm=vector");
        EXPECT_EQ(d.chooseSpmm(SparseFormat::Csr, 512, 4, 4096),
                  SpmmVariant::CsrVector);
    }
    // Cleared again: back to the model.
    EXPECT_EQ(d.chooseGemm(256, 256, 256, 0.0), GemmVariant::Tiled);
}

TEST(Dispatch, SimulatedFiguresIgnoreTheHostVariant)
{
    // The host variant may move host wall time only: the simulated
    // kernel stream of a GEMM and a CSR SpMM must come out the same
    // whether the model or the GNNMARK_OP_VARIANT pin picks it.
    Rng rng(9);
    const Tensor a = Tensor::randn({64, 96}, rng);
    const Tensor b = Tensor::randn({96, 80}, rng);
    const SparseMatrix adj(randomCsr(rng, 128, 96, 0.05));
    Dispatch &d = Dispatch::instance();
    auto simulate = [&](ops::DispatchStats *stats) {
        GpuDevice device;
        Profiler profiler;
        device.addObserver(&profiler);
        d.resetStats();
        {
            ContextGuard guard(&device);
            (void)ops::gemm(a, b);
            (void)ops::spmm(adj, b);
        }
        *stats = d.stats();
        return profiler;
    };
    ops::DispatchStats model_stats, pinned_stats;
    const Profiler model = simulate(&model_stats);
    Profiler pinned;
    {
        ScopedOpEnv env("GNNMARK_OP_VARIANT", "gemm=naive,spmm=scalar");
        pinned = simulate(&pinned_stats);
    }
    EXPECT_EQ(model_stats.gemmTiled, 1);
    EXPECT_EQ(model_stats.spmmCsrVector, 1);
    EXPECT_EQ(pinned_stats.gemmNaive, 1);
    EXPECT_EQ(pinned_stats.spmmCsrScalar, 1);

    EXPECT_EQ(model.totalKernelTimeSec(), pinned.totalKernelTimeSec());
    EXPECT_EQ(model.totalLaunches(), pinned.totalLaunches());
    ASSERT_EQ(model.kernelStats().size(), 2u);
    ASSERT_EQ(pinned.kernelStats().size(), 2u);
    for (const auto &[name, m] : model.kernelStats()) {
        ASSERT_EQ(pinned.kernelStats().count(name), 1u) << name;
        const OpClassStats &p = pinned.kernelStats().at(name);
        EXPECT_EQ(m.timeSec, p.timeSec) << name;
        EXPECT_EQ(m.launches, p.launches) << name;
        EXPECT_EQ(m.cycles, p.cycles) << name;
        EXPECT_EQ(static_cast<const SimCounters &>(m),
                  static_cast<const SimCounters &>(p))
            << name;
    }
}

TEST(Dispatch, StatsCountExecutedOps)
{
    Dispatch &d = Dispatch::instance();
    d.resetStats();
    Rng rng(7);
    Tensor a = Tensor::randn({32, 48}, rng);
    Tensor b = Tensor::randn({48, 64}, rng);
    (void)ops::gemm(a, b);
    const CsrMatrix csr = randomCsr(rng, 40, 40, 0.1);
    Tensor feat = Tensor::randn({40, 32}, rng);
    (void)ops::spmm(SparseMatrix(csr), feat);
    (void)ops::spmm(SparseMatrix::fromCsr(csr, SparseFormat::Coo), feat);
    const ops::DispatchStats s = d.stats();
    EXPECT_EQ(s.gemmNaive + s.gemmTiled, 1);
    EXPECT_EQ(s.spmmCsrScalar + s.spmmCsrVector, 1);
    EXPECT_EQ(s.spmmCoo, 1);
    EXPECT_EQ(s.spmmBell, 0);
    EXPECT_TRUE(s.calibrated);
    d.resetStats();
    const ops::DispatchStats z = d.stats();
    EXPECT_EQ(z.gemmNaive + z.gemmTiled + z.spmmCsrScalar +
                  z.spmmCsrVector + z.spmmCoo + z.spmmBell,
              0);
}

TEST(Dispatch, SampledZeroFractionDeterministic)
{
    std::vector<float> half(1000);
    for (size_t i = 0; i < half.size(); ++i)
        half[i] = (i % 2 == 0) ? 0.0f : 1.0f;
    const double f1 =
        Dispatch::sampledZeroFraction(half.data(), half.size());
    const double f2 =
        Dispatch::sampledZeroFraction(half.data(), half.size());
    EXPECT_EQ(f1, f2);
    EXPECT_NEAR(f1, 0.5, 0.05);

    std::vector<float> zeros(70000, 0.0f);
    EXPECT_EQ(Dispatch::sampledZeroFraction(zeros.data(),
                                            zeros.size()),
              1.0);
    std::vector<float> ones(70000, 1.0f);
    EXPECT_EQ(Dispatch::sampledZeroFraction(ones.data(), ones.size()),
              0.0);
    EXPECT_EQ(Dispatch::sampledZeroFraction(nullptr, 0), 0.0);
}
