#include "gen/config.hh"

#include <cmath>

#include "base/logging.hh"
#include "base/string_utils.hh"

namespace gnnmark {
namespace gen {

const char *
familyName(Family family)
{
    switch (family) {
      case Family::Rmat:
        return "rmat";
      case Family::Rgg2d:
        return "rgg2d";
      case Family::Hyperbolic:
        return "hyperbolic";
      case Family::Grid2d:
        return "grid2d";
    }
    return "unknown";
}

bool
parseFamily(const std::string &name, Family &family)
{
    for (Family f : {Family::Rmat, Family::Rgg2d, Family::Hyperbolic,
                     Family::Grid2d}) {
        if (name == familyName(f)) {
            family = f;
            return true;
        }
    }
    return false;
}

std::string
validateConfig(const GeneratorConfig &cfg)
{
    if (cfg.n <= 1)
        return strfmt("n must be > 1, got %lld",
                      static_cast<long long>(cfg.n));
    if (cfg.m < 0)
        return strfmt("m must be >= 0, got %lld",
                      static_cast<long long>(cfg.m));
    if (cfg.m == 0 && cfg.avgDegree <= 0)
        return strfmt("avgDegree must be > 0 when m is unset, got %g",
                      cfg.avgDegree);
    if (cfg.chunks < 1)
        return strfmt("chunks must be >= 1, got %d", cfg.chunks);
    if (cfg.lookahead < 1)
        return strfmt("lookahead must be >= 1, got %d", cfg.lookahead);
    if (cfg.family == Family::Hyperbolic &&
        (cfg.gamma <= 2.0 || cfg.gamma > 10.0)) {
        return strfmt("gamma must be in (2, 10], got %g", cfg.gamma);
    }
    if (cfg.family == Family::Grid2d) {
        if (cfg.gridRows < 0 || cfg.gridCols < 0)
            return "grid rows/cols must be >= 0 (0 = derive from n)";
        if ((cfg.gridRows == 0) != (cfg.gridCols == 0))
            return "grid rows and cols must be set together";
        int64_t rows = 0, cols = 0;
        resolvedGridShape(cfg, rows, cols);
        if (rows < 2 || cols < 2)
            return strfmt("grid needs rows and cols >= 2, got %lldx%lld",
                          static_cast<long long>(rows),
                          static_cast<long long>(cols));
    }
    return "";
}

namespace {

int64_t
nextPowerOfTwo(int64_t n)
{
    int64_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

void
resolvedGridShape(const GeneratorConfig &cfg, int64_t &rows,
                  int64_t &cols)
{
    if (cfg.gridRows > 0 && cfg.gridCols > 0) {
        rows = cfg.gridRows;
        cols = cfg.gridCols;
        return;
    }
    // Near-square factoring: the largest divisor of n at or below
    // sqrt(n); falls back to a sqrt(n) x sqrt(n) lattice (dropping
    // the remainder vertices) when n is prime-ish.
    rows = static_cast<int64_t>(std::sqrt(static_cast<double>(cfg.n)));
    while (rows > 1 && cfg.n % rows != 0)
        --rows;
    if (rows == 1)
        rows = static_cast<int64_t>(
            std::sqrt(static_cast<double>(cfg.n)));
    cols = rows > 0 ? cfg.n / rows : 0;
}

int64_t
resolvedVertices(const GeneratorConfig &cfg)
{
    switch (cfg.family) {
      case Family::Rmat:
        return nextPowerOfTwo(cfg.n);
      case Family::Grid2d: {
        int64_t rows = 0, cols = 0;
        resolvedGridShape(cfg, rows, cols);
        return rows * cols;
      }
      case Family::Rgg2d:
      case Family::Hyperbolic:
        return cfg.n;
    }
    return cfg.n;
}

int64_t
resolvedTargetEdges(const GeneratorConfig &cfg)
{
    if (cfg.family == Family::Grid2d) {
        int64_t rows = 0, cols = 0;
        resolvedGridShape(cfg, rows, cols);
        const int64_t horiz = rows * (cfg.gridWrap ? cols : cols - 1);
        const int64_t vert = cols * (cfg.gridWrap ? rows : rows - 1);
        return horiz + vert;
    }
    if (cfg.m > 0)
        return cfg.m;
    const double m = cfg.avgDegree *
                     static_cast<double>(resolvedVertices(cfg)) / 2.0;
    return std::max<int64_t>(1, static_cast<int64_t>(m));
}

} // namespace gen
} // namespace gnnmark
