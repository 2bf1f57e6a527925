/**
 * @file
 * Thread-count invariance: tensor results must be bitwise identical and
 * the simulated kernel stream must not change between a single-threaded
 * and a heavily-threaded pool. This is the contract that lets the
 * timing model ignore the host's parallelism entirely.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "common/thread_count_guard.hh"
#include "core/suite.hh"
#include "ops/exec_context.hh"
#include "ops/gemm.hh"
#include "ops/spmm.hh"
#include "sim/gpu_device.hh"

using namespace gnnmark;

namespace {

/** Observer that keeps every kernel record it sees. */
class Recorder : public KernelObserver
{
  public:
    void onKernel(const KernelRecord &record) override
    {
        kernels.push_back(record);
    }
    void onTransfer(const TransferRecord &record) override
    {
        transfers.push_back(record);
    }

    std::vector<KernelRecord> kernels;
    std::vector<TransferRecord> transfers;
};

void
expectSameStream(const std::vector<KernelRecord> &a,
                 const std::vector<KernelRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("kernel " + std::to_string(i) + " (" + a[i].name +
                     ")");
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].opClass, b[i].opClass);
        EXPECT_EQ(a[i].invocation, b[i].invocation);
        EXPECT_EQ(a[i].detailed, b[i].detailed);
        EXPECT_EQ(a[i].timeSec, b[i].timeSec);
        EXPECT_EQ(a[i].cycles, b[i].cycles);
        EXPECT_EQ(a[i].activeSms, b[i].activeSms);
        EXPECT_EQ(a[i].ipc, b[i].ipc);
        EXPECT_EQ(a[i].fp32Instrs, b[i].fp32Instrs);
        EXPECT_EQ(a[i].int32Instrs, b[i].int32Instrs);
        EXPECT_EQ(a[i].memInstrs, b[i].memInstrs);
        EXPECT_EQ(a[i].miscInstrs, b[i].miscInstrs);
        EXPECT_EQ(a[i].flops, b[i].flops);
        EXPECT_EQ(a[i].intOps, b[i].intOps);
        EXPECT_EQ(a[i].loads, b[i].loads);
        EXPECT_EQ(a[i].divergentLoads, b[i].divergentLoads);
        EXPECT_EQ(a[i].l1Accesses, b[i].l1Accesses);
        EXPECT_EQ(a[i].l1Hits, b[i].l1Hits);
        EXPECT_EQ(a[i].l2Accesses, b[i].l2Accesses);
        EXPECT_EQ(a[i].l2Hits, b[i].l2Hits);
        EXPECT_EQ(a[i].dramBytes, b[i].dramBytes);
        EXPECT_EQ(a[i].stallCycles, b[i].stallCycles);
    }
}

/**
 * Address-independent comparison: kernel identity and instruction-level
 * work only. Distinct in-process runs legitimately see different heap
 * addresses (the warm storage pool hands blocks back in a run-dependent
 * permutation), which perturbs cache/timing metrics even at a fixed
 * thread count — so full streams are only comparable when the operands
 * are shared, as in the GEMM/SpMM tests above.
 */
void
expectSameWork(const std::vector<KernelRecord> &a,
               const std::vector<KernelRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("kernel " + std::to_string(i) + " (" + a[i].name +
                     ")");
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].opClass, b[i].opClass);
        EXPECT_EQ(a[i].invocation, b[i].invocation);
        EXPECT_EQ(a[i].detailed, b[i].detailed);
        EXPECT_EQ(a[i].fp32Instrs, b[i].fp32Instrs);
        EXPECT_EQ(a[i].int32Instrs, b[i].int32Instrs);
        EXPECT_EQ(a[i].memInstrs, b[i].memInstrs);
        EXPECT_EQ(a[i].miscInstrs, b[i].miscInstrs);
        EXPECT_EQ(a[i].flops, b[i].flops);
        EXPECT_EQ(a[i].intOps, b[i].intOps);
        EXPECT_EQ(a[i].loads, b[i].loads);
    }
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) ==
               0;
}

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

TEST(Determinism, GemmBitwiseStableAcrossThreadCounts)
{
    // Large enough that every loop actually splits into many chunks.
    Rng rng(42);
    Tensor a = Tensor::randn({123, 67}, rng);
    Tensor b = Tensor::randn({67, 95}, rng);

    auto run = [&](Tensor &out, Recorder &rec) {
        GpuDevice dev;
        dev.addObserver(&rec);
        ContextGuard guard(&dev);
        out = ops::gemm(a, b);
    };

    Tensor c1, c8;
    Recorder r1, r8;
    {
        test::ThreadCountGuard guard(1);
        run(c1, r1);
    }
    {
        test::ThreadCountGuard guard(8);
        run(c8, r8);
    }
    EXPECT_TRUE(bitwiseEqual(c1, c8));
    expectSameStream(r1.kernels, r8.kernels);
}

TEST(Determinism, SpmmBitwiseStableAcrossThreadCounts)
{
    Rng rng(7);
    SparseMatrix m(randomCsr(rng, 150, 150, 0.05));
    Tensor b = Tensor::randn({150, 48}, rng);

    auto run = [&](Tensor &out, Recorder &rec) {
        GpuDevice dev;
        dev.addObserver(&rec);
        ContextGuard guard(&dev);
        out = ops::spmm(m, b);
    };

    Tensor c1, c8;
    Recorder r1, r8;
    {
        test::ThreadCountGuard guard(1);
        run(c1, r1);
    }
    {
        test::ThreadCountGuard guard(8);
        run(c8, r8);
    }
    EXPECT_TRUE(bitwiseEqual(c1, c8));
    expectSameStream(r1.kernels, r8.kernels);
}

TEST(Determinism, TrainIterationStableAcrossThreadCounts)
{
    // A fresh workload per thread count: same seed, same data, and —
    // if the pool keeps its contract — the same loss bits and the same
    // sequence of kernels doing the same instruction-level work.
    auto run = [](int threads, Recorder &rec) {
        test::ThreadCountGuard guard(threads);
        WorkloadConfig cfg;
        cfg.seed = 1234;
        cfg.scale = 0.25;
        auto wl = BenchmarkSuite::create("DGCN");
        wl->setup(cfg);
        GpuDevice dev;
        dev.addObserver(&rec);
        ContextGuard dguard(&dev);
        return wl->trainIteration();
    };

    Recorder r1, r8;
    const float loss8 = run(8, r8);
    const float loss1 = run(1, r1);
    EXPECT_EQ(loss1, loss8);
    expectSameWork(r1.kernels, r8.kernels);
    ASSERT_EQ(r1.transfers.size(), r8.transfers.size());
    for (size_t i = 0; i < r1.transfers.size(); ++i) {
        EXPECT_EQ(r1.transfers[i].bytes, r8.transfers[i].bytes);
        EXPECT_EQ(r1.transfers[i].zeroFraction,
                  r8.transfers[i].zeroFraction);
        EXPECT_EQ(r1.transfers[i].timeSec, r8.transfers[i].timeSec);
    }
}
