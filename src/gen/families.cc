#include "gen/families.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/logging.hh"
#include "base/power_law.hh"
#include "base/rng.hh"

namespace gnnmark {
namespace gen {

namespace {

/** Edges per R-MAT unit; fixed so units outlive chunk choices. */
constexpr int64_t kRmatUnitEdges = int64_t{1} << 14;

/** Expected edges per hyperbolic unit (mass-balanced boundaries). */
constexpr int64_t kHypUnitEdges = int64_t{1} << 14;

/** Family tags keep unit streams distinct across families. */
constexpr uint64_t kRmatTag = 0x524d4154ULL; // "RMAT"
constexpr uint64_t kRggTag = 0x52474732ULL;  // "RGG2"
constexpr uint64_t kHypTag = 0x48595042ULL;  // "HYPB"

/** The unit's private generator: pure in (seed, tag, unit). */
Rng
unitRng(const GeneratorConfig &cfg, uint64_t tag, int64_t unit)
{
    return Rng(cfg.seed ^ tag).split(static_cast<uint64_t>(unit));
}

int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

// ---------------------------------------------------------------- rmat

int
rmatScale(const GeneratorConfig &cfg)
{
    const int64_t n = resolvedVertices(cfg);
    int scale = 0;
    while ((int64_t{1} << scale) < n)
        ++scale;
    return scale;
}

void
rmatUnit(const GeneratorConfig &cfg, int64_t unit, EdgeSink &sink)
{
    const int64_t m = resolvedTargetEdges(cfg);
    const int64_t lo = unit * kRmatUnitEdges;
    const int64_t hi = std::min(m, lo + kRmatUnitEdges);
    const int scale = rmatScale(cfg);
    const double ab = kRmatA + kRmatB;
    const double abc = ab + kRmatC;
    Rng rng = unitRng(cfg, kRmatTag, unit);
    for (int64_t e = lo; e < hi; ++e) {
        int64_t row = 0, col = 0;
        for (int level = 0; level < scale; ++level) {
            const double u = rng.uniform();
            row <<= 1;
            col <<= 1;
            if (u < kRmatA) {
                // top-left: no bits set
            } else if (u < ab) {
                col |= 1;
            } else if (u < abc) {
                row |= 1;
            } else {
                row |= 1;
                col |= 1;
            }
        }
        sink.edge(row, col);
    }
}

// --------------------------------------------------------------- rgg2d

double
rggRadius(const GeneratorConfig &cfg)
{
    const double n = static_cast<double>(resolvedVertices(cfg));
    const double deg =
        2.0 * static_cast<double>(resolvedTargetEdges(cfg)) / n;
    // Expected degree of a uniform point: n * pi * r^2.
    return std::sqrt(deg / (M_PI * n));
}

struct Point
{
    int64_t id;
    double x, y;
};

/**
 * Regenerate cell `cell`'s points from its split seed. Cells own
 * contiguous vertex ranges; coordinates are uniform within the
 * cell's sub-square, which keeps the overall density uniform while
 * letting any worker rebuild any cell without communication.
 */
void
rggCellPoints(const GeneratorConfig &cfg, int64_t g, int64_t cell,
              std::vector<Point> &out)
{
    const int64_t n = resolvedVertices(cfg);
    const int64_t cells = g * g;
    const int64_t lo = cell * n / cells;
    const int64_t hi = (cell + 1) * n / cells;
    const double inv_g = 1.0 / static_cast<double>(g);
    const double x0 = static_cast<double>(cell % g) * inv_g;
    const double y0 = static_cast<double>(cell / g) * inv_g;
    Rng rng = unitRng(cfg, kRggTag, cell);
    out.clear();
    out.reserve(static_cast<size_t>(hi - lo));
    for (int64_t v = lo; v < hi; ++v) {
        Point p;
        p.id = v;
        p.x = x0 + rng.uniform() * inv_g;
        p.y = y0 + rng.uniform() * inv_g;
        out.push_back(p);
    }
}

void
rggUnit(const GeneratorConfig &cfg, int64_t unit, EdgeSink &sink)
{
    const int64_t g = rggGridSide(cfg);
    const double r = rggRadius(cfg);
    const double r2 = r * r;
    std::vector<Point> own, other;
    rggCellPoints(cfg, g, unit, own);

    // Intra-cell pairs (i < j keeps each pair unique).
    for (size_t i = 0; i < own.size(); ++i) {
        for (size_t j = i + 1; j < own.size(); ++j) {
            const double dx = own[i].x - own[j].x;
            const double dy = own[i].y - own[j].y;
            if (dx * dx + dy * dy <= r2)
                sink.edge(own[i].id, own[j].id);
        }
    }

    // Forward neighbours only (E, SW, S, SE): every cross-cell pair
    // is examined by exactly one cell — the one with the smaller id,
    // which also owns the smaller vertex ids, so (u, v) comes out
    // ordered. Cell width >= r guarantees no pair is missed.
    const int64_t row = unit / g, col = unit % g;
    const int64_t fwd[4][2] = {
        {row, col + 1}, {row + 1, col - 1}, {row + 1, col},
        {row + 1, col + 1}};
    for (const auto &rc : fwd) {
        if (rc[0] < 0 || rc[0] >= g || rc[1] < 0 || rc[1] >= g)
            continue;
        rggCellPoints(cfg, g, rc[0] * g + rc[1], other);
        for (const Point &a : own) {
            for (const Point &b : other) {
                const double dx = a.x - b.x;
                const double dy = a.y - b.y;
                if (dx * dx + dy * dy <= r2)
                    sink.edge(a.id, b.id);
            }
        }
    }
}

// ---------------------------------------------------- hyperbolic-like

/**
 * Power-law vertex weights w_v = (v+1)^-beta with beta = 1/(gamma-1):
 * the threshold-free hyperbolic analogue. W(x) approximates the
 * cumulative weight of vertices [0, x) in closed form so any unit can
 * normalise without a global pass.
 */
double
hypBeta(const GeneratorConfig &cfg)
{
    return 1.0 / (cfg.gamma - 1.0);
}

double
hypCumWeight(double x, double beta)
{
    return (std::pow(x + 1.0, 1.0 - beta) - 1.0) / (1.0 - beta);
}

/** First vertex of unit k: equalises expected edge mass per unit. */
int64_t
hypUnitBoundary(const GeneratorConfig &cfg, int64_t units, int64_t k)
{
    if (k <= 0)
        return 0;
    const int64_t n = resolvedVertices(cfg);
    if (k >= units)
        return n;
    const double beta = hypBeta(cfg);
    const double target = hypCumWeight(static_cast<double>(n), beta) *
                          static_cast<double>(k) /
                          static_cast<double>(units);
    const double v = std::pow(target * (1.0 - beta) + 1.0,
                              1.0 / (1.0 - beta)) -
                     1.0;
    return std::clamp<int64_t>(static_cast<int64_t>(v), 0, n);
}

int64_t
hypUnitCount(const GeneratorConfig &cfg)
{
    const int64_t n = resolvedVertices(cfg);
    const int64_t m = resolvedTargetEdges(cfg);
    return std::max<int64_t>(1, std::min(n, ceilDiv(m, kHypUnitEdges)));
}

void
hypUnit(const GeneratorConfig &cfg, int64_t unit, EdgeSink &sink)
{
    const int64_t n = resolvedVertices(cfg);
    const int64_t m = resolvedTargetEdges(cfg);
    const int64_t units = hypUnitCount(cfg);
    const int64_t lo = hypUnitBoundary(cfg, units, unit);
    const int64_t hi = hypUnitBoundary(cfg, units, unit + 1);
    const double beta = hypBeta(cfg);
    const double total_w = hypCumWeight(static_cast<double>(n), beta);
    const PowerLawSampler targets(
        n, PowerLawSampler::skewForExponent(beta));
    Rng rng = unitRng(cfg, kHypTag, unit);
    for (int64_t v = lo; v < hi; ++v) {
        const double w =
            std::pow(static_cast<double>(v + 1), -beta);
        const double mean =
            static_cast<double>(m) * w / total_w;
        int64_t draws = static_cast<int64_t>(mean);
        if (rng.bernoulli(mean - static_cast<double>(draws)))
            ++draws;
        for (int64_t d = 0; d < draws; ++d) {
            const int64_t t = targets.draw(rng);
            if (t != v)
                sink.edge(v, t);
        }
    }
}

// -------------------------------------------------------------- grid2d

void
gridUnit(const GeneratorConfig &cfg, int64_t unit, EdgeSink &sink)
{
    int64_t rows = 0, cols = 0;
    resolvedGridShape(cfg, rows, cols);
    const int64_t row = unit;
    const int64_t base = row * cols;
    for (int64_t c = 0; c < cols; ++c) {
        const int64_t v = base + c;
        if (c + 1 < cols)
            sink.edge(v, v + 1);
        else if (cfg.gridWrap)
            sink.edge(v, base);
        if (row + 1 < rows)
            sink.edge(v, v + cols);
        else if (cfg.gridWrap)
            sink.edge(v, c);
    }
}

} // namespace

int64_t
rggGridSide(const GeneratorConfig &cfg)
{
    const double r = rggRadius(cfg);
    const int64_t n = resolvedVertices(cfg);
    // Cell width must stay >= r for neighbour-only comparison to be
    // exhaustive; the sqrt(n) cap keeps cells from going empty on
    // sparse configs (fewer, fatter cells cost compares, not edges).
    const int64_t by_radius =
        r > 0 ? static_cast<int64_t>(1.0 / r) : n;
    const int64_t by_count = static_cast<int64_t>(
        std::sqrt(static_cast<double>(n))) + 1;
    return std::max<int64_t>(1, std::min(by_radius, by_count));
}

int64_t
unitCount(const GeneratorConfig &cfg)
{
    switch (cfg.family) {
      case Family::Rmat:
        return std::max<int64_t>(
            1, ceilDiv(resolvedTargetEdges(cfg), kRmatUnitEdges));
      case Family::Rgg2d: {
        const int64_t g = rggGridSide(cfg);
        return g * g;
      }
      case Family::Hyperbolic:
        return hypUnitCount(cfg);
      case Family::Grid2d: {
        int64_t rows = 0, cols = 0;
        resolvedGridShape(cfg, rows, cols);
        return rows;
      }
    }
    return 1;
}

void
generateUnit(const GeneratorConfig &cfg, int64_t unit, EdgeSink &sink)
{
    GNN_ASSERT(unit >= 0 && unit < unitCount(cfg),
               "generateUnit: unit %lld out of range",
               static_cast<long long>(unit));
    switch (cfg.family) {
      case Family::Rmat:
        rmatUnit(cfg, unit, sink);
        return;
      case Family::Rgg2d:
        rggUnit(cfg, unit, sink);
        return;
      case Family::Hyperbolic:
        hypUnit(cfg, unit, sink);
        return;
      case Family::Grid2d:
        gridUnit(cfg, unit, sink);
        return;
    }
}

} // namespace gen
} // namespace gnnmark
