/**
 * @file
 * A persistent thread pool with a deterministic `parallelFor`
 * primitive for the CPU-side numeric kernels.
 *
 * Threading contract (see DESIGN.md "Threading model"):
 *  - Only raw numeric loops run on worker threads. Kernel emission,
 *    `ExecContext::device()` (thread-local) and every simulator
 *    structure stay on the launching thread, so all timing-model
 *    output is independent of the thread count.
 *  - Chunk boundaries are a pure function of (begin, end, grain) and
 *    never of the thread count, so any reduction that combines
 *    per-chunk partials in chunk order is bitwise identical whether
 *    the pool runs 1 thread or 64.
 *  - Nested calls (a parallelFor issued from inside a worker) degrade
 *    to serial execution on the calling worker.
 *
 * The pool size defaults to std::thread::hardware_concurrency() and
 * can be overridden with the GNNMARK_THREADS environment variable
 * (GNNMARK_THREADS=1 disables the pool entirely: no workers are
 * spawned and every loop runs inline on the caller).
 */

#ifndef GNNMARK_BASE_THREAD_POOL_HH
#define GNNMARK_BASE_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gnnmark {

class ThreadPool
{
  public:
    /**
     * The process-wide pool (workers are spawned lazily). It is never
     * destroyed, so exit() leaves its parked workers alone.
     */
    static ThreadPool &instance();

    ~ThreadPool() = delete;
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of threads that execute loops (>= 1, caller included). */
    int threadCount() const { return threads_; }

    /**
     * Re-size the pool (joins existing workers first). Primarily for
     * tests that compare thread counts within one process; normal use
     * is the GNNMARK_THREADS environment variable.
     */
    void setThreadCount(int threads);

    /**
     * Run `fn(chunk_begin, chunk_end)` over [begin, end) split into
     * chunks of `grain` indices. Chunking depends only on the range
     * and grain — never on the thread count — and the caller blocks
     * until every chunk has run (the caller participates). Chunks may
     * execute in any order and concurrently: `fn` must only write
     * locations owned by its own index range.
     */
    void parallelFor(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)> &fn);

    /**
     * Stable index of the calling pool worker (0-based, assigned at
     * spawn), or -1 on any non-pool thread. Observability layers use
     * it to name per-thread timeline lanes.
     */
    static int currentWorkerIndex();

  private:
    ThreadPool();

    void spawnWorkers();
    void joinWorkers();
    void workerLoop();
    void runChunks(const std::function<void(int64_t, int64_t)> &fn);

    int threads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wake_;   ///< workers wait for a job
    std::condition_variable done_;   ///< caller waits for completion
    bool shutdown_ = false;

    // Current job (guarded by mutex_ for publication; chunk claiming
    // itself uses nextChunk_ under the lock-free fast path below).
    const std::function<void(int64_t, int64_t)> *job_ = nullptr;
    int64_t jobBegin_ = 0;
    int64_t jobEnd_ = 0;
    int64_t jobGrain_ = 1;
    int64_t nextChunk_ = 0;    ///< next unclaimed chunk index
    int64_t chunkCount_ = 0;
    int64_t chunksDone_ = 0;
};

/**
 * Free-function veneer over the shared pool: run `fn(chunk_begin,
 * chunk_end)` across [begin, end) in grain-sized chunks.
 */
inline void
parallel_for(int64_t begin, int64_t end, int64_t grain,
             const std::function<void(int64_t, int64_t)> &fn)
{
    ThreadPool::instance().parallelFor(begin, end, grain, fn);
}

/**
 * Deterministic parallel reduction: `map(chunk_begin, chunk_end)`
 * produces one partial per grain-sized chunk, and `combine` folds the
 * partials into `init` in ascending chunk order. Because chunking
 * ignores the thread count, the result is bitwise identical for any
 * pool size (though it may differ from a single un-chunked loop —
 * callers choose grains large enough that small inputs stay in one
 * chunk and keep their exact serial result).
 */
template <typename T, typename Map, typename Combine>
T
parallel_reduce(int64_t begin, int64_t end, int64_t grain, T init,
                const Map &map, const Combine &combine)
{
    if (end <= begin)
        return init;
    if (grain < 1)
        grain = 1;
    const int64_t chunks = (end - begin + grain - 1) / grain;
    if (chunks == 1)
        return combine(init, map(begin, end));
    std::vector<T> partials(static_cast<size_t>(chunks));
    parallel_for(begin, end, grain,
                 [&](int64_t b, int64_t e) {
                     partials[static_cast<size_t>((b - begin) / grain)] =
                         map(b, e);
                 });
    T acc = init;
    for (const T &p : partials)
        acc = combine(acc, p);
    return acc;
}

} // namespace gnnmark

#endif // GNNMARK_BASE_THREAD_POOL_HH
