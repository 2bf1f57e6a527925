/**
 * @file
 * Streaming edge delivery: the pull interface minibatch training and
 * the CLI consume, plus the chunked parallel producer behind it.
 *
 * A ChunkedEdgeStream partitions the config's unit space into
 * `chunks` contiguous ranges and generates a `lookahead`-deep window
 * of chunks in parallel on the shared thread pool, handing blocks to
 * the consumer strictly in chunk order. Because units are seeded
 * individually (families.hh), the concatenated edge sequence — and
 * therefore the running checksum — is bit-identical for any thread
 * count and any chunk granularity; only the resident window size
 * changes. No global edge list ever exists.
 */

#ifndef GNNMARK_GEN_EDGE_STREAM_HH
#define GNNMARK_GEN_EDGE_STREAM_HH

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "gen/config.hh"

namespace gnnmark {
namespace gen {

/** One streamed chunk of edges, in deterministic emission order. */
struct EdgeBlock
{
    std::vector<std::pair<int64_t, int64_t>> edges;
    int64_t chunkIndex = 0;

    int64_t
    bytes() const
    {
        return static_cast<int64_t>(
            edges.size() * sizeof(std::pair<int64_t, int64_t>));
    }
};

/** Pull interface: next() fills a block, false at end of stream. */
class EdgeStream
{
  public:
    virtual ~EdgeStream() = default;
    virtual bool next(EdgeBlock &out) = 0;
};

/** Order-dependent FNV-1a over an edge sequence (identity checks). */
uint64_t edgeChecksum(uint64_t state, int64_t u, int64_t v);

/** Initial checksum state. */
constexpr uint64_t kChecksumSeed = 0xcbf29ce484222325ULL;

class ChunkedEdgeStream : public EdgeStream
{
  public:
    explicit ChunkedEdgeStream(const GeneratorConfig &cfg);

    bool next(EdgeBlock &out) override;

    const GeneratorConfig &config() const { return cfg_; }

    /** Chunk count actually used (cfg.chunks clamped to units). */
    int64_t chunkCount() const { return chunks_; }

    /** @{ Running totals over everything emitted so far. */
    int64_t edgesEmitted() const { return edgesEmitted_; }
    int64_t chunksEmitted() const { return chunksEmitted_; }
    uint64_t checksum() const { return checksum_; }
    /** @} */

    /** Peak bytes buffered inside the stream (window + in-flight). */
    int64_t peakResidentBytes() const { return peakResidentBytes_; }

    /** Seconds spent generating (excludes consumer time). */
    double generateSec() const { return generateSec_; }

    /** Edges per generation-second so far (0 before first refill). */
    double edgesPerSec() const;

  private:
    void refill();

    GeneratorConfig cfg_;
    int64_t units_ = 0;
    int64_t chunks_ = 0;
    int64_t nextChunk_ = 0; ///< next chunk index to generate
    std::deque<EdgeBlock> ready_;

    int64_t edgesEmitted_ = 0;
    int64_t chunksEmitted_ = 0;
    uint64_t checksum_ = kChecksumSeed;
    int64_t residentBytes_ = 0;
    int64_t peakResidentBytes_ = 0;
    double generateSec_ = 0.0;
};

/**
 * Resident-memory budget implied by a config: the generation window
 * ((lookahead + 1) chunks of ~m/chunks edges) with a 4x family-
 * variance allowance plus a fixed floor. The streaming tests assert
 * the producer's peak stays under this; a consumer holding one block
 * plus chunk-local state stays within a small multiple of it.
 */
int64_t residentBudgetBytes(const GeneratorConfig &cfg);

} // namespace gen
} // namespace gnnmark

#endif // GNNMARK_GEN_EDGE_STREAM_HH
