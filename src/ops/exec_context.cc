#include "ops/exec_context.hh"

namespace gnnmark {

namespace {

thread_local GpuDevice *currentDevice = nullptr;

} // namespace

GpuDevice *
ExecContext::device()
{
    return currentDevice;
}

RunContext
ExecContext::current()
{
    RunContext ctx;
    ctx.device = currentDevice;
    ctx.allocator = boundAllocator();
    return ctx;
}

void
ExecContext::set(const RunContext &ctx)
{
    currentDevice = ctx.device;
    bindAllocator(ctx.allocator);
}

ContextGuard::ContextGuard(GpuDevice *device) : prev_(ExecContext::current())
{
    RunContext next = prev_;
    next.device = device; // keep the enclosing allocator binding
    ExecContext::set(next);
}

ContextGuard::ContextGuard(GpuDevice *device, Allocator *allocator)
    : prev_(ExecContext::current())
{
    RunContext next;
    next.device = device;
    next.allocator = allocator;
    ExecContext::set(next);
}

ContextGuard::~ContextGuard()
{
    ExecContext::set(prev_);
}

} // namespace gnnmark
