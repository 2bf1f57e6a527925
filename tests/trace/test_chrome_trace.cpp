/** @file Chrome-trace exporter tests: well-formed Trace Event JSON
 *  from synthetic records and from a real (tiny) workload run. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>

#include "base/io.hh"
#include "base/thread_pool.hh"
#include "core/characterization.hh"
#include "obs/json.hh"
#include "obs/span.hh"
#include "profiler/chrome_trace.hh"

using namespace gnnmark;

namespace {

KernelRecord
kernel(const std::string &name, double time_sec)
{
    KernelRecord record;
    record.name = name;
    record.opClass = OpClass::Gemm;
    record.timeSec = time_sec;
    record.ipc = 1.5;
    record.l1Accesses = 100;
    record.l1Hits = 80;
    return record;
}

} // namespace

TEST(ChromeTrace, EmitsCompleteEventsWithRunningClock)
{
    ChromeTraceWriter writer;
    writer.onKernel(kernel("gemm_a", 10e-6));
    writer.onKernel(kernel("gemm_b", 5e-6));
    TransferRecord copy;
    copy.tag = "features";
    copy.bytes = 4096;
    copy.zeroFraction = 0.5;
    copy.timeSec = 2e-6;
    writer.onTransfer(copy);
    EXPECT_EQ(writer.eventCount(), 3u);

    const std::string doc = writer.json();
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"gemm_a\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"H2D features\""), std::string::npos);
    // Kernels run on tid 0, transfers on tid 1.
    EXPECT_NE(doc.find("\"tid\":0,\"name\":\"gemm_a\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"tid\":1,\"name\":\"H2D features\""),
              std::string::npos);
    // gemm_b starts where gemm_a ended (10 us).
    EXPECT_NE(doc.find("\"ts\":10.0000,\"dur\":5.0000"),
              std::string::npos);
    EXPECT_NE(doc.find("\"l1_hit_rate\":\"0.8000\""), std::string::npos);
    EXPECT_NE(doc.find("\"zero_fraction\":\"0.5000\""),
              std::string::npos);
}

TEST(ChromeTrace, EscapesJsonMetacharacters)
{
    ChromeTraceWriter writer;
    writer.onKernel(kernel("evil\"name\\with\nnoise", 1e-6));
    const std::string doc = writer.json();
    EXPECT_NE(doc.find("evil\\\"name\\\\with\\nnoise"),
              std::string::npos);
    EXPECT_EQ(doc.find("evil\"name"), std::string::npos);
}

TEST(ChromeTrace, BalancedBracesAndQuotes)
{
    ChromeTraceWriter writer;
    for (int i = 0; i < 5; ++i)
        writer.onKernel(kernel("k" + std::to_string(i), 1e-6));
    const std::string doc = writer.json();
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : doc) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = true;
        } else if (c == '"') {
            in_string = !in_string;
        } else if (!in_string && (c == '{' || c == '[')) {
            ++depth;
        } else if (!in_string && (c == '}' || c == ']')) {
            --depth;
            EXPECT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

TEST(ChromeTrace, CapturesARealRunThroughRunOptions)
{
    ChromeTraceWriter writer;
    RunOptions opt;
    opt.scale = 0.25;
    opt.iterations = 1;
    opt.extraObserver = &writer;
    CharacterizationRunner runner(opt);
    const WorkloadProfile profile = runner.run("STGCN");
    EXPECT_GE(static_cast<int64_t>(writer.eventCount()),
              profile.profiler.totalLaunches());

    const std::string path =
        ::testing::TempDir() + "gnnmark_chrome_trace.json";
    writer.write(path);
    const std::vector<uint8_t> bytes = readFileBytes(path);
    std::remove(path.c_str());
    EXPECT_EQ(bytes.size(), writer.json().size());
}

TEST(ChromeTrace, MergedTraceCarriesDeviceWorkerAndHostLanes)
{
    // One trace file must hold all three lane families: device events
    // (pid 1), the host thread's spans and pool-worker spans (pid 2).
    ThreadPool &pool = ThreadPool::instance();
    const int saved_threads = pool.threadCount();
    pool.setThreadCount(3);
    obs::SpanTracer &tracer = obs::SpanTracer::instance();
    tracer.clear();
    tracer.setEnabled(true);

    ChromeTraceWriter writer;
    RunOptions opt;
    opt.scale = 0.25;
    opt.iterations = 1;
    opt.extraObserver = &writer;
    CharacterizationRunner runner(opt);
    runner.run("STGCN");

    // The tiny workload may run its loops inline on the caller, so
    // pin down the worker lanes deterministically: every chunk sleeps
    // until both pool workers have claimed (and span-traced) a chunk
    // of their own. On a single-CPU host any one thread — the caller
    // or a single eager worker — can otherwise drain the whole range
    // before the others are ever scheduled.
    std::atomic<bool> worker_seen[2] = {};
    ThreadPool::instance().parallelFor(
        0, 64, 1, [&](int64_t, int64_t) {
            GNN_SPAN("test.worker_chunk");
            const int w = ThreadPool::currentWorkerIndex();
            if (w >= 0 && w < 2)
                worker_seen[w] = true;
            for (int spin = 0;
                 spin < 5000 && !(worker_seen[0] && worker_seen[1]);
                 ++spin)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        });

    tracer.setEnabled(false);
    writer.addHostSpans(tracer.collect());
    tracer.clear();
    pool.setThreadCount(saved_threads);

    const obs::JsonValue doc = obs::parseJson(writer.json());
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    bool device_kernel = false;
    bool host_span = false;
    bool worker_span = false;
    std::set<std::string> process_names;
    std::set<std::string> thread_names;
    for (const obs::JsonValue &e : events->array) {
        const obs::JsonValue *ph = e.find("ph");
        const obs::JsonValue *pid = e.find("pid");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(pid, nullptr);
        if (ph->string == "M") {
            const std::string meta_name = e.find("name")->string;
            const std::string label =
                e.find("args")->find("name")->string;
            if (meta_name == "process_name")
                process_names.insert(label);
            if (meta_name == "thread_name")
                thread_names.insert(label);
            continue;
        }
        ASSERT_EQ(ph->string, "X");
        ASSERT_TRUE(e.find("ts")->isNumber());
        ASSERT_TRUE(e.find("dur")->isNumber());
        if (pid->number == 1 && e.find("tid")->number == 0)
            device_kernel = true;
        if (pid->number == 2) {
            if (e.find("tid")->number == 0)
                host_span = true;
            else
                worker_span = true;
        }
    }
    EXPECT_TRUE(device_kernel);
    EXPECT_TRUE(host_span);
    EXPECT_TRUE(worker_span);
    EXPECT_EQ(process_names,
              (std::set<std::string>{"device (sim time)",
                                     "host (wall clock)"}));
    EXPECT_TRUE(thread_names.count("kernels"));
    EXPECT_TRUE(thread_names.count("host"));
    std::string all_names;
    for (const std::string &n : thread_names)
        all_names += n + " ";
    EXPECT_TRUE(thread_names.count("worker-0")) << all_names;
}

TEST(ChromeTrace, MirrorDeviceLanesCopiesRankZero)
{
    ChromeTraceWriter writer;
    writer.onKernel(kernel("k", 1e-6));
    TransferRecord copy;
    copy.tag = "feat";
    copy.bytes = 64;
    copy.timeSec = 1e-6;
    writer.onTransfer(copy);
    const size_t before = writer.eventCount();
    writer.mirrorDeviceLanes(3);
    // Ranks 1 and 2 each get a copy of both rank-0 events.
    EXPECT_EQ(writer.eventCount(), before + 4);
    const std::string doc = writer.json();
    EXPECT_NE(doc.find("\"mirrored\":\"true\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"kernels rank 2\""),
              std::string::npos);
}

TEST(ChromeTrace, RequestLanesLandOnTheirOwnProcess)
{
    ChromeTraceWriter writer;
    writer.onKernel(kernel("gemm_a", 10e-6));

    std::vector<obs::RequestTrace> traces(2);
    traces[0].id = 32;
    traces[0].outcome = "full";
    traces[0].spans.push_back({"arrival", 0.010, 0.010, ""});
    traces[0].spans.push_back({"infer", 0.011, 0.013, "replica=1"});
    traces[1].id = 45;
    traces[1].outcome = "shed";
    traces[1].exemplar = true;
    traces[1].spans.push_back({"admission_reject", 0.020, 0.020, ""});
    writer.addRequestLanes(traces);
    EXPECT_EQ(writer.eventCount(), 4u);

    const std::string doc = writer.json();
    const obs::JsonValue parsed = obs::parseJson(doc);
    ASSERT_TRUE(parsed.find("traceEvents")->isArray());

    // Each request gets a named lane on pid 3; exemplars say so.
    EXPECT_NE(doc.find("\"serving requests (sim time)\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"req 32 (full)\""), std::string::npos);
    EXPECT_NE(doc.find("\"req 45 [exemplar] (shed)\""),
              std::string::npos);
    // Spans carry simulated-time microseconds and their detail.
    EXPECT_NE(doc.find("\"cat\":\"request\""), std::string::npos);
    EXPECT_NE(doc.find("\"replica=1\""), std::string::npos);
    // Device events stay on pid 1, requests on pid 3.
    EXPECT_NE(doc.find("\"pid\":3"), std::string::npos);
}

TEST(ChromeTrace, NoRequestLanesMeansNoThirdProcess)
{
    ChromeTraceWriter writer;
    writer.onKernel(kernel("gemm_a", 10e-6));
    writer.addRequestLanes({});
    EXPECT_EQ(writer.json().find("\"pid\":3"), std::string::npos);
}
