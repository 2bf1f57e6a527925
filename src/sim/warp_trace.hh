/**
 * @file
 * Per-warp instruction traces.
 *
 * Operator implementations describe what one warp of their kernel does
 * by calling WarpTraceSink methods in program order (ALU ops, global
 * loads/stores with real lane addresses, shared-memory ops, barriers).
 * The sink coalesces lane addresses into cache-line transactions and
 * records a compact trace that the pipeline model replays. Once the
 * recorded trace reaches the configured cap, further events only bump
 * the aggregate counters; the pipeline extrapolates timing from the
 * recorded prefix.
 */

#ifndef GNNMARK_SIM_WARP_TRACE_HH
#define GNNMARK_SIM_WARP_TRACE_HH

#include <cstdint>
#include <vector>

namespace gnnmark {

/** Instruction kinds distinguished by the pipeline model. */
enum class InstrKind : uint8_t
{
    Fp32,        ///< single-precision ALU op (1 flop/lane)
    Fma,         ///< fused multiply-add (2 flops/lane)
    Sfu,         ///< transcendental (exp, tanh, rsqrt, ...)
    Int32,       ///< integer ALU op
    Misc,        ///< control flow, predicates, moves
    Load,        ///< global load
    Store,       ///< global store
    Atomic,      ///< global atomic
    SharedLoad,  ///< shared-memory load
    SharedStore, ///< shared-memory store
    Barrier,     ///< block-wide __syncthreads()
};

/** One recorded warp instruction; memory ops reference the line pool. */
struct TraceOp
{
    InstrKind kind;
    uint16_t lineCount; ///< distinct cache lines (memory ops only)
    uint16_t minLines;  ///< lines a perfectly-coalesced access needs
    uint32_t lineBegin; ///< index of first line in the pool

    /** NVBit's divergence criterion: more lines than necessary. */
    bool divergent() const { return lineCount > minLines; }
};

/** Aggregate per-warp instruction counts (includes unrecorded tail). */
struct TraceCounts
{
    uint64_t fp32 = 0;   ///< fp32 + fma + sfu instruction count
    uint64_t int32 = 0;
    uint64_t misc = 0;   ///< control/moves + shared + barriers
    uint64_t loads = 0;
    uint64_t stores = 0; ///< stores + atomics
    double flops = 0;    ///< lane-level floating-point operations
    double intOps = 0;   ///< lane-level integer operations

    uint64_t total() const
    {
        return fp32 + int32 + misc + loads + stores;
    }
};

/**
 * Recorded trace plus full counts for one warp.
 */
class WarpTrace
{
  public:
    std::vector<TraceOp> ops;    ///< recorded prefix (<= cap instrs)
    std::vector<uint64_t> lines; ///< line-address pool for memory ops
    TraceCounts counts;          ///< full-execution counts
    uint64_t recordedInstrs = 0; ///< instructions in `ops`
};

/**
 * Builder interface operator kernels use to describe a warp's execution.
 *
 * All lane-address arrays hold `lanes <= 32` byte addresses; inactive
 * lanes are simply omitted. The sink coalesces addresses into distinct
 * cache-line transactions exactly as the hardware's LD/ST unit would.
 */
class WarpTraceSink
{
  public:
    /**
     * @param cap        Max instructions recorded in the trace.
     * @param line_bytes Cache line size for coalescing.
     */
    WarpTraceSink(WarpTrace &trace, int cap, int line_bytes);

    /** @{ ALU events; n identical instructions. */
    void fp32(int n = 1);
    void fma(int n = 1);
    void sfu(int n = 1);
    void int32(int n = 1);
    void misc(int n = 1);
    /** @} */

    /** Global load with explicit per-lane byte addresses. */
    void loadGlobal(const uint64_t *addrs, int lanes, int bytes_per_lane);

    /** Global store with explicit per-lane byte addresses. */
    void storeGlobal(const uint64_t *addrs, int lanes, int bytes_per_lane);

    /** Global atomic (read-modify-write resolved at the L2). */
    void atomicGlobal(const uint64_t *addrs, int lanes, int bytes_per_lane);

    /**
     * Fully coalesced load: lane i accesses base + i * bytes_per_lane.
     * This is the common streaming pattern of element-wise kernels.
     */
    void loadCoalesced(uint64_t base, int bytes_per_lane, int lanes = 32);

    /** Fully coalesced store (see loadCoalesced). */
    void storeCoalesced(uint64_t base, int bytes_per_lane, int lanes = 32);

    /** Shared-memory traffic (not visible to the data caches). */
    void sharedLoad(int n = 1);
    void sharedStore(int n = 1);

    /** Block-wide barrier. */
    void barrier();

    /**
     * True once the recorded trace is full; generators with very long
     * regular loops may break early and call scaleRemainder() instead
     * of generating events one by one.
     */
    bool full() const { return trace_.recordedInstrs >= cap_; }

    /**
     * Multiply all aggregate counts by `factor` to account for loop
     * iterations the generator skipped after full() became true.
     * Recorded trace is unaffected. factor >= 1.
     */
    void scaleRemainder(double factor);

  private:
    void recordAlu(InstrKind kind);
    void recordMem(InstrKind kind, const uint64_t *addrs, int lanes,
                   int bytes_per_lane);

    WarpTrace &trace_;
    uint64_t cap_;
    int lineBytes_;
    int lineShift_;
};

} // namespace gnnmark

#endif // GNNMARK_SIM_WARP_TRACE_HH
