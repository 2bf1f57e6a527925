/**
 * @file
 * Scoped override of the shared thread pool's size for tests that
 * compare results across thread counts.
 */

#ifndef GNNMARK_TESTS_COMMON_THREAD_COUNT_GUARD_HH
#define GNNMARK_TESTS_COMMON_THREAD_COUNT_GUARD_HH

#include "base/thread_pool.hh"

namespace gnnmark {
namespace test {

/** Sets the pool to `n` threads and restores the previous count. */
class ThreadCountGuard
{
  public:
    explicit ThreadCountGuard(int n)
        : prev_(ThreadPool::instance().threadCount())
    {
        ThreadPool::instance().setThreadCount(n);
    }
    ~ThreadCountGuard() { ThreadPool::instance().setThreadCount(prev_); }

    ThreadCountGuard(const ThreadCountGuard &) = delete;
    ThreadCountGuard &operator=(const ThreadCountGuard &) = delete;

  private:
    int prev_;
};

} // namespace test
} // namespace gnnmark

#endif // GNNMARK_TESTS_COMMON_THREAD_COUNT_GUARD_HH
