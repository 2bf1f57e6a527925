/**
 * @file
 * Binding between the operator layer and a run's execution policy:
 * the simulated GPU kernels are emitted into, and the Allocator
 * tensor storage is drawn from.
 *
 * Operators compute real results on the host; when a device is bound
 * via ContextGuard they additionally emit kernel launches into it.
 * With no device bound, operators are pure CPU math (handy for
 * numerics tests). The allocator binding rides the same guard so both
 * policies are resolved from one binding point; with no allocator
 * bound, storage comes from the GNNMARK_ALLOC-selected default.
 */

#ifndef GNNMARK_OPS_EXEC_CONTEXT_HH
#define GNNMARK_OPS_EXEC_CONTEXT_HH

#include "base/allocator.hh"
#include "sim/gpu_device.hh"

namespace gnnmark {

/** One run's execution bindings (either may be null = unbound). */
struct RunContext
{
    GpuDevice *device = nullptr;
    Allocator *allocator = nullptr;
};

/** Thread-local current context for the operator layer. */
class ExecContext
{
  public:
    /** Currently bound device, or nullptr. */
    static GpuDevice *device();

    /** Both bindings as they currently stand. */
    static RunContext current();

  private:
    friend class ContextGuard;
    static void set(const RunContext &ctx);
};

/**
 * RAII scope binding a RunContext as the current execution target.
 * The single-argument form keeps the enclosing allocator binding, so
 * device-only guards nested inside a run inherit the run's memory
 * policy.
 */
class ContextGuard
{
  public:
    explicit ContextGuard(GpuDevice *device);
    ContextGuard(GpuDevice *device, Allocator *allocator);
    ~ContextGuard();

    ContextGuard(const ContextGuard &) = delete;
    ContextGuard &operator=(const ContextGuard &) = delete;

  private:
    RunContext prev_;
};

} // namespace gnnmark

#endif // GNNMARK_OPS_EXEC_CONTEXT_HH
