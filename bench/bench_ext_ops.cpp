/**
 * @file
 * Extension: op-level host-kernel autotuning. Times the scalar and
 * SIMD/register-blocked variants of GEMM and CSR SpMM head to head
 * (min-of-N host wall time) and cross-checks every sparse storage
 * format for bitwise-identical output.
 *
 * With an output path argument the bench additionally writes a JSONL
 * twin containing only *deterministic* fields — shapes, nnz, the
 * FNV-1a checksum of the baseline variant's output (hi/lo halves),
 * and the bitwise-equality verdicts across variants and formats —
 * which are identical for a fixed seed across thread counts and SIMD
 * availability, so tools/bench_diff can gate them exactly (--tol 0)
 * against bench/baselines/ext_ops.jsonl. Wall-clock speedups stay in
 * the human table only.
 *
 * When AVX2 is available the bench *asserts* that the tuned variant
 * beats the scalar baseline on at least two GEMM and two SpMM
 * configs — the acceptance bar for shipping the vectorized kernels.
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/io.hh"
#include "base/rng.hh"
#include "base/string_utils.hh"
#include "base/table.hh"
#include "obs/json.hh"
#include "ops/cpu_kernels.hh"
#include "tensor/sparse.hh"

using namespace gnnmark;

namespace {

constexpr int kRepeats = 5;

/** Minimum wall milliseconds of `fn` over kRepeats runs. */
template <typename Fn>
double
minMs(Fn &&fn)
{
    double best = 1e30;
    for (int i = 0; i < kRepeats; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        best = std::min(best, ms);
    }
    return best;
}

std::vector<float>
denseOperand(Rng &rng, int64_t elems)
{
    std::vector<float> v(elems);
    for (float &x : v)
        x = rng.uniform(-1.0f, 1.0f);
    return v;
}

uint64_t
checksumFloats(const std::vector<float> &v)
{
    return fnv1a(reinterpret_cast<const uint8_t *>(v.data()),
                 v.size() * sizeof(float));
}

bool
bitwiseEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

struct BenchRow
{
    std::string op;     ///< "gemm" | "spmm"
    std::string shape;
    double density = 1.0;
    int64_t nnz = 0;
    uint64_t checksum = 0;   ///< baseline-variant output
    bool variantsEqual = false; ///< tuned output == baseline, bitwise
    bool formatsEqual = true;   ///< coo/bell == csr (spmm only)
    double baseMs = 0;       ///< scalar/naive, min over repeats
    double tunedMs = 0;      ///< tiled/vector, min over repeats
};

std::string
recordJson(const BenchRow &row)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("type").value("ops_bench");
    w.key("op").value(row.op);
    w.key("shape").value(row.shape);
    w.key("density").value(row.density);
    w.key("nnz").value(row.nnz);
    w.key("checksum_hi")
        .value(static_cast<int64_t>(row.checksum >> 32));
    w.key("checksum_lo")
        .value(static_cast<int64_t>(row.checksum & 0xffffffffULL));
    w.key("variants_bitwise_equal").value(row.variantsEqual);
    w.key("formats_bitwise_equal").value(row.formatsEqual);
    w.endObject();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const bool simd = ops::kern::simdActive();
    std::cout << "Host-kernel variant timing (min of " << kRepeats
              << " runs, " << (simd ? "AVX2 active" : "scalar only")
              << ")...\n\n";

    std::vector<BenchRow> rows;

    // --- GEMM: naive vs register-tiled/AVX2 ---
    struct GemmCase { int64_t m, n, k; };
    const std::vector<GemmCase> gemm_cases = {
        {128, 128, 128}, {256, 256, 256}, {384, 384, 384}};
    for (const GemmCase &gc : gemm_cases) {
        Rng rng(1000 + gc.m);
        const std::vector<float> a = denseOperand(rng, gc.m * gc.k);
        const std::vector<float> b = denseOperand(rng, gc.k * gc.n);
        std::vector<float> c_naive(gc.m * gc.n);
        std::vector<float> c_tiled(gc.m * gc.n);
        BenchRow row;
        row.op = "gemm";
        row.shape = strfmt("%lldx%lldx%lld", (long long)gc.m,
                           (long long)gc.n, (long long)gc.k);
        row.nnz = gc.m * gc.k;
        row.baseMs = minMs([&] {
            std::fill(c_naive.begin(), c_naive.end(), 0.0f);
            ops::kern::gemmNaive(a.data(), b.data(), c_naive.data(),
                                 gc.m, gc.n, gc.k);
        });
        row.tunedMs = minMs([&] {
            std::fill(c_tiled.begin(), c_tiled.end(), 0.0f);
            ops::kern::gemmTiled(a.data(), b.data(), c_tiled.data(),
                                 gc.m, gc.n, gc.k);
        });
        row.checksum = checksumFloats(c_naive);
        row.variantsEqual = bitwiseEqual(c_naive, c_tiled);
        rows.push_back(row);
    }

    // --- SpMM: CSR scalar vs vector, plus COO/blocked-ELL parity ---
    struct SpmmCase { int64_t rows, cols, f; double density; };
    const std::vector<SpmmCase> spmm_cases = {
        {2048, 2048, 64, 0.01},
        {4096, 4096, 128, 0.005},
        {1024, 1024, 32, 0.05}};
    for (const SpmmCase &sc : spmm_cases) {
        Rng rng(2000 + sc.rows);
        const CsrMatrix csr =
            uniformCsr(rng, sc.rows, sc.cols, sc.density);
        const CooMatrix coo = cooFromCsr(csr);
        const BlockedEllMatrix bell = bellFromCsr(csr);
        const std::vector<float> b =
            denseOperand(rng, sc.cols * sc.f);
        const size_t out_elems =
            static_cast<size_t>(sc.rows) * sc.f;
        std::vector<float> c_scalar(out_elems);
        std::vector<float> c_vector(out_elems);
        std::vector<float> c_coo(out_elems, 0.0f);
        std::vector<float> c_bell(out_elems, 0.0f);
        BenchRow row;
        row.op = "spmm";
        row.shape = strfmt("%lldx%lldx%lld", (long long)sc.rows,
                           (long long)sc.cols, (long long)sc.f);
        row.density = sc.density;
        row.nnz = csr.nnz();
        row.baseMs = minMs([&] {
            std::fill(c_scalar.begin(), c_scalar.end(), 0.0f);
            ops::kern::spmmCsrScalar(csr, b.data(), c_scalar.data(),
                                     sc.f);
        });
        row.tunedMs = minMs([&] {
            std::fill(c_vector.begin(), c_vector.end(), 0.0f);
            ops::kern::spmmCsrVector(csr, b.data(), c_vector.data(),
                                     sc.f);
        });
        ops::kern::spmmCoo(coo, b.data(), c_coo.data(), sc.f);
        ops::kern::spmmBell(bell, b.data(), c_bell.data(), sc.f);
        row.checksum = checksumFloats(c_scalar);
        row.variantsEqual = bitwiseEqual(c_scalar, c_vector);
        row.formatsEqual = bitwiseEqual(c_scalar, c_coo) &&
                           bitwiseEqual(c_scalar, c_bell);
        rows.push_back(row);
    }

    TablePrinter table("Variant timing (host)");
    table.setHeader({"Op", "Shape", "Density", "nnz", "Scalar ms",
                     "Tuned ms", "Speedup", "Bitwise"});
    int gemm_wins = 0, spmm_wins = 0;
    bool all_equal = true;
    for (const BenchRow &row : rows) {
        const double speedup =
            row.tunedMs > 0 ? row.baseMs / row.tunedMs : 0.0;
        if (speedup > 1.0)
            (row.op == "gemm" ? gemm_wins : spmm_wins)++;
        all_equal &= row.variantsEqual && row.formatsEqual;
        table.addRow({row.op, row.shape, strfmt("%.3g", row.density),
                      strfmt("%lld", (long long)row.nnz),
                      strfmt("%.3f", row.baseMs),
                      strfmt("%.3f", row.tunedMs),
                      strfmt("%.2fx", speedup),
                      row.variantsEqual && row.formatsEqual ? "yes"
                                                            : "NO"});
    }
    table.print(std::cout);

    if (!all_equal) {
        std::cerr << "\nFATAL: a tuned variant or storage format "
                     "diverged bitwise from the scalar baseline\n";
        return 1;
    }
    if (simd && (gemm_wins < 2 || spmm_wins < 2)) {
        std::cerr << "\nFATAL: tuned variants won only " << gemm_wins
                  << " gemm / " << spmm_wins
                  << " spmm configs (need >= 2 each with AVX2)\n";
        return 1;
    }
    std::cout << "\ntuned variants won " << gemm_wins << "/"
              << gemm_cases.size() << " gemm and " << spmm_wins << "/"
              << spmm_cases.size()
              << " spmm configs, all outputs bitwise equal\n";

    if (argc > 1) {
        std::ofstream out(argv[1]);
        if (!out) {
            std::cerr << "cannot open " << argv[1] << "\n";
            return 1;
        }
        for (const BenchRow &row : rows)
            out << recordJson(row) << "\n";
        std::cout << "deterministic records written to " << argv[1]
                  << "\n";
    }
    return 0;
}
