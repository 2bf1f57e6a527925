#include "base/thread_pool.hh"

#include <algorithm>
#include <cstdlib>

namespace gnnmark {

namespace {

thread_local bool onWorker = false;

/** Spawn-order index of this pool worker; -1 on non-pool threads. */
thread_local int workerIndex = -1;

/** True while the calling thread is executing its own job's chunks;
 *  nested parallelFor calls from a chunk body must stay serial. */
thread_local bool inParallelRegion = false;

int
configuredThreads()
{
    if (const char *env = std::getenv("GNNMARK_THREADS")) {
        const int n = std::atoi(env);
        if (n >= 1)
            return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

} // namespace

ThreadPool &
ThreadPool::instance()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::ThreadPool() : threads_(configuredThreads())
{
}

ThreadPool::~ThreadPool()
{
    joinWorkers();
}

int
ThreadPool::currentWorkerIndex()
{
    return workerIndex;
}

void
ThreadPool::setThreadCount(int threads)
{
    joinWorkers();
    threads_ = std::max(1, threads);
}

void
ThreadPool::spawnWorkers()
{
    workers_.reserve(threads_ - 1);
    for (int t = 1; t < threads_; ++t) {
        workers_.emplace_back([this, t] {
            workerIndex = t - 1;
            workerLoop();
        });
    }
}

void
ThreadPool::joinWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (std::thread &w : workers_)
        w.join();
    workers_.clear();
    shutdown_ = false;
}

void
ThreadPool::workerLoop()
{
    onWorker = true;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [this] {
            return shutdown_ || nextChunk_ < chunkCount_;
        });
        if (shutdown_)
            return;
        while (nextChunk_ < chunkCount_) {
            const int64_t chunk = nextChunk_++;
            const int64_t b = jobBegin_ + chunk * jobGrain_;
            const int64_t e = std::min(jobEnd_, b + jobGrain_);
            const auto *fn = job_;
            lock.unlock();
            (*fn)(b, e);
            lock.lock();
            if (++chunksDone_ == chunkCount_)
                done_.notify_all();
        }
    }
}

void
ThreadPool::runChunks(const std::function<void(int64_t, int64_t)> &fn)
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (nextChunk_ < chunkCount_) {
        const int64_t chunk = nextChunk_++;
        const int64_t b = jobBegin_ + chunk * jobGrain_;
        const int64_t e = std::min(jobEnd_, b + jobGrain_);
        lock.unlock();
        fn(b, e);
        lock.lock();
        if (++chunksDone_ == chunkCount_)
            done_.notify_all();
    }
    done_.wait(lock, [this] { return chunksDone_ == chunkCount_; });
    job_ = nullptr;
}

void
ThreadPool::parallelFor(int64_t begin, int64_t end, int64_t grain,
                        const std::function<void(int64_t, int64_t)> &fn)
{
    if (end <= begin)
        return;
    if (grain < 1)
        grain = 1;
    const int64_t chunks = (end - begin + grain - 1) / grain;

    // Serial fast path: a 1-thread pool, a single chunk, or a nested
    // call from inside a running job (worker or caller chunk body) —
    // publishing a second job would clobber the first. Per-chunk
    // invocation is preserved so that parallel_reduce sees identical
    // chunk partials either way.
    if (threads_ == 1 || chunks == 1 || onWorker || inParallelRegion) {
        for (int64_t b = begin; b < end; b += grain)
            fn(b, std::min(end, b + grain));
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (workers_.empty())
            spawnWorkers();
        job_ = &fn;
        jobBegin_ = begin;
        jobEnd_ = end;
        jobGrain_ = grain;
        nextChunk_ = 0;
        chunkCount_ = chunks;
        chunksDone_ = 0;
    }
    wake_.notify_all();
    inParallelRegion = true;
    runChunks(fn);
    inParallelRegion = false;
}

} // namespace gnnmark
