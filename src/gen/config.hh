/**
 * @file
 * The unified generator configuration facade (KaGen-style): one
 * struct names the family and the scale knobs, and every generation
 * entry point — streaming, the CLI verb, the benches — goes through
 * it. Resolution helpers pin down the derived quantities
 * (actual vertex count, target edge count, unit count) so callers and
 * reports agree on what a config means.
 */

#ifndef GNNMARK_GEN_CONFIG_HH
#define GNNMARK_GEN_CONFIG_HH

#include <cstdint>
#include <string>

namespace gnnmark {
namespace gen {

/** Graph family produced by the chunked generators. */
enum class Family : uint8_t
{
    Rmat,       ///< R-MAT / Kronecker recursive quadrant sampling
    Rgg2d,      ///< random geometric graph on the unit square
    Hyperbolic, ///< hyperbolic-like scale-free (power-law weights)
    Grid2d,     ///< rows x cols lattice, optionally a torus
};

/** Stable lower-case name, e.g. "rmat". */
const char *familyName(Family family);

/** Parse a family name; returns false on unknown input. */
bool parseFamily(const std::string &name, Family &family);

/**
 * One generated graph, fully described. Determinism contract: the
 * emitted edge sequence is a pure function of the *resolved* config —
 * the same for any thread count and any `chunks` value — because
 * seeding happens per fixed-size generation unit (see families.hh),
 * never per chunk or per worker.
 */
struct GeneratorConfig
{
    Family family = Family::Rmat;

    /** Requested vertex count (R-MAT rounds up to a power of two). */
    int64_t n = 1 << 16;

    /**
     * Target edge count; 0 derives it from avgDegree. Grid graphs
     * ignore it (the lattice fixes m), and the scale-free families
     * treat it as an expectation, not an exact count.
     */
    int64_t m = 0;

    /** Used when m == 0: m = n * avgDegree / 2. */
    double avgDegree = 8.0;

    uint64_t seed = 42;

    /**
     * Streaming granularity: the unit space is split into this many
     * contiguous chunks, each generated as one piece. More chunks =
     * smaller resident window; the edge *content* never changes.
     */
    int chunks = 8;

    /**
     * Chunks buffered ahead of the consumer (the generation window
     * runs this many chunks in parallel). Bounds resident memory
     * together with `chunks`.
     */
    int lookahead = 4;

    /** @{ R-MAT quadrant probabilities (d = 1 - a - b - c). */
    double rmatA = 0.57;
    double rmatB = 0.19;
    double rmatC = 0.19;
    /** @} */

    /** Hyperbolic/scale-free target degree exponent (> 2). */
    double gamma = 2.8;

    /** @{ Grid shape; 0 rows/cols = near-square factoring of n. */
    int64_t gridRows = 0;
    int64_t gridCols = 0;
    bool gridWrap = false; ///< torus edges across the border
    /** @} */
};

/**
 * Validate a config; returns an empty string when usable, otherwise a
 * one-line description of the first problem (the CLI surfaces it and
 * exits through usage).
 */
std::string validateConfig(const GeneratorConfig &cfg);

/** Resolved vertex count (R-MAT: next power of two >= n; grid: r*c). */
int64_t resolvedVertices(const GeneratorConfig &cfg);

/** Resolved target edge count (grid: exact lattice edge count). */
int64_t resolvedTargetEdges(const GeneratorConfig &cfg);

/** Resolved grid shape (valid for Family::Grid2d only). */
void resolvedGridShape(const GeneratorConfig &cfg, int64_t &rows,
                       int64_t &cols);

} // namespace gen
} // namespace gnnmark

#endif // GNNMARK_GEN_CONFIG_HH
