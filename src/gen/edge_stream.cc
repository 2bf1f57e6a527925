#include "gen/edge_stream.hh"

#include <algorithm>
#include <chrono>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "gen/families.hh"
#include "obs/metrics.hh"

namespace gnnmark {
namespace gen {

namespace {

/** Collects a unit range's edges into one block. */
class BlockSink : public EdgeSink
{
  public:
    explicit BlockSink(EdgeBlock &block) : block_(block) {}

    void
    edge(int64_t u, int64_t v) override
    {
        block_.edges.emplace_back(u, v);
    }

  private:
    EdgeBlock &block_;
};

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

uint64_t
edgeChecksum(uint64_t state, int64_t u, int64_t v)
{
    constexpr uint64_t kPrime = 0x100000001b3ULL;
    const uint64_t words[2] = {static_cast<uint64_t>(u),
                               static_cast<uint64_t>(v)};
    for (uint64_t w : words) {
        for (int byte = 0; byte < 8; ++byte) {
            state ^= (w >> (byte * 8)) & 0xff;
            state *= kPrime;
        }
    }
    return state;
}

ChunkedEdgeStream::ChunkedEdgeStream(const GeneratorConfig &cfg)
    : cfg_(cfg)
{
    const std::string err = validateConfig(cfg);
    GNN_ASSERT(err.empty(), "invalid GeneratorConfig: %s", err.c_str());
    units_ = unitCount(cfg);
    chunks_ = std::min<int64_t>(cfg.chunks, units_);
}

void
ChunkedEdgeStream::refill()
{
    const int64_t window =
        std::min<int64_t>(cfg_.lookahead, chunks_ - nextChunk_);
    if (window <= 0)
        return;
    const double begin = nowSec();
    std::vector<EdgeBlock> blocks(static_cast<size_t>(window));
    // One chunk per grain-1 iteration: workers generate whole chunks
    // concurrently, each into its private block. Unit-level seeding
    // makes the content independent of this scheduling.
    parallel_for(0, window, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            const int64_t chunk = nextChunk_ + i;
            EdgeBlock &block = blocks[static_cast<size_t>(i)];
            block.chunkIndex = chunk;
            const int64_t unit_lo = chunk * units_ / chunks_;
            const int64_t unit_hi = (chunk + 1) * units_ / chunks_;
            BlockSink sink(block);
            for (int64_t u = unit_lo; u < unit_hi; ++u)
                generateUnit(cfg_, u, sink);
        }
    });
    nextChunk_ += window;
    for (EdgeBlock &block : blocks) {
        residentBytes_ += block.bytes();
        ready_.push_back(std::move(block));
    }
    peakResidentBytes_ = std::max(peakResidentBytes_, residentBytes_);
    generateSec_ += nowSec() - begin;

    obs::Metrics &metrics = obs::Metrics::instance();
    metrics.setGauge("gen.bytes_resident",
                     static_cast<double>(residentBytes_));
    metrics.setGauge("gen.bytes_resident_peak",
                     static_cast<double>(peakResidentBytes_));
}

bool
ChunkedEdgeStream::next(EdgeBlock &out)
{
    if (ready_.empty())
        refill();
    if (ready_.empty())
        return false;
    out = std::move(ready_.front());
    ready_.pop_front();
    residentBytes_ -= out.bytes();
    for (const auto &[u, v] : out.edges)
        checksum_ = edgeChecksum(checksum_, u, v);
    edgesEmitted_ += static_cast<int64_t>(out.edges.size());
    ++chunksEmitted_;

    obs::Metrics &metrics = obs::Metrics::instance();
    metrics.add("gen.chunks_emitted");
    metrics.setGauge("gen.edges_total",
                     static_cast<double>(edgesEmitted_));
    metrics.setGauge("gen.edges_per_sec", edgesPerSec());
    return true;
}

double
ChunkedEdgeStream::edgesPerSec() const
{
    if (generateSec_ <= 0.0)
        return 0.0;
    return static_cast<double>(edgesEmitted_) / generateSec_;
}

int64_t
residentBudgetBytes(const GeneratorConfig &cfg)
{
    // Budget against the *effective* chunk count: asking for more
    // chunks than there are units cannot shrink the window further.
    const int64_t chunks =
        std::min<int64_t>(cfg.chunks, unitCount(cfg));
    const int64_t per_chunk =
        (resolvedTargetEdges(cfg) + chunks - 1) / chunks;
    const int64_t edge_bytes =
        sizeof(std::pair<int64_t, int64_t>);
    return (cfg.lookahead + 1) * per_chunk * edge_bytes * 4 +
           (int64_t{1} << 16);
}

} // namespace gen
} // namespace gnnmark
