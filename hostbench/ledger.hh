/**
 * @file
 * The benchmark's own arithmetic, kept free of the gnnmark libraries so
 * its tests build in seconds: step-time statistics (median and the tail
 * percentile rule), self time from nested host spans across lanes, and
 * the per-step output check against the expected values kept with the
 * benchmark.
 */

#ifndef HOSTBENCH_LEDGER_HH
#define HOSTBENCH_LEDGER_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hostbench {

/** Median of `samples` (mean of the middle two for an even count). */
double median(std::vector<double> samples);

/**
 * The highest nearest-rank percentile that still has at least `beyond`
 * samples strictly above its rank. With n sorted samples that is the
 * sample at rank n - beyond, i.e. percentile 100 * (n - beyond) / n.
 */
struct TailPercentile
{
    double value = 0;      ///< the sample at that rank
    double percentile = 0; ///< e.g. 66.7 for 30 samples
    size_t beyond = 0;     ///< samples ranked above it
    size_t count = 0;      ///< samples in total
};

/** Empty when there are not more than `beyond` samples. */
std::optional<TailPercentile> tailPercentile(std::vector<double> samples,
                                             size_t beyond = 10);

/** One host span on one lane (a thread's timeline). */
struct Span
{
    int lane = 0;
    std::string name;
    double startUs = 0;
    double durUs = 0;
};

/**
 * Self time per span name, summed over all lanes: each span's duration
 * minus the part of it its direct children on the same lane cover.
 * Spans on one lane nest (they come from scoped guards); a child that
 * overhangs its parent by clock rounding is clipped to the parent.
 * Spans on different lanes never nest, whatever their times.
 */
std::map<std::string, double> selfTimesUs(const std::vector<Span> &spans);

/** Sum of the durations of the outermost spans of each lane. */
double outermostUs(const std::vector<Span> &spans);

/** The simulated outputs of one step the benchmark checks. */
struct StepOutputs
{
    uint32_t lossBits = 0;   ///< IEEE-754 bits of the float loss
    int64_t launches = 0;    ///< kernel launches
    uint64_t kernelBits = 0; ///< bits of the simulated kernel seconds
    uint64_t l1HitBits = 0;  ///< bits of the L1 hit count (a double)
    uint64_t l2HitBits = 0;  ///< bits of the L2 hit count (a double)
};

bool operator==(const StepOutputs &a, const StepOutputs &b);

/** Bit patterns of a float and a double, for exact comparison. */
uint32_t floatBits(float v);
uint64_t doubleBits(double v);

/** One text line per step: "loss launches kernel l1 l2", in hex. */
std::string formatOutputs(const StepOutputs &out);
std::optional<StepOutputs> parseOutputs(const std::string &line);

/** Read an expected-values file; empty when it is missing. */
std::vector<StepOutputs> readExpected(const std::string &path);

/**
 * Check one step. Fails on a non-finite loss, and — when `expected`
 * is given — on any difference from the expected entry for that step
 * or on a step past the end of the table. Returns the reason, or an
 * empty string when the step passes.
 */
std::string checkStep(const StepOutputs &got, size_t step,
                      const std::vector<StepOutputs> *expected);

} // namespace hostbench

#endif // HOSTBENCH_LEDGER_HH
