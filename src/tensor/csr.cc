#include "tensor/csr.hh"

#include <algorithm>
#include <tuple>

#include "base/logging.hh"
#include "base/rng.hh"

namespace gnnmark {

void
CsrMatrix::validate() const
{
    GNN_ASSERT(rows >= 0 && cols >= 0, "negative csr dimensions");
    GNN_ASSERT(static_cast<int64_t>(rowPtr.size()) == rows + 1,
               "rowPtr size %zu != rows+1 (%lld)", rowPtr.size(),
               static_cast<long long>(rows + 1));
    GNN_ASSERT(rowPtr.empty() || rowPtr.front() == 0,
               "rowPtr must start at 0");
    GNN_ASSERT(colIdx.size() == vals.size(),
               "colIdx/vals size mismatch: %zu vs %zu", colIdx.size(),
               vals.size());
    for (int64_t r = 0; r < rows; ++r) {
        GNN_ASSERT(rowPtr[r] <= rowPtr[r + 1],
                   "rowPtr not monotone at row %lld",
                   static_cast<long long>(r));
    }
    GNN_ASSERT(rowPtr.empty() ||
               rowPtr.back() == static_cast<int32_t>(colIdx.size()),
               "rowPtr end %d != nnz %zu", rowPtr.back(), colIdx.size());
    for (int32_t c : colIdx) {
        GNN_ASSERT(c >= 0 && c < cols, "column index %d out of range", c);
    }
}

namespace {

uint64_t
lazySpanAddr(std::shared_ptr<DeviceSpan> &span, size_t bytes)
{
    if (span == nullptr)
        span = std::make_shared<DeviceSpan>(bytes);
    return span->addr();
}

} // namespace

uint64_t
CsrMatrix::rowPtrAddr() const
{
    return lazySpanAddr(rowPtrSpan_, rowPtr.size() * sizeof(int32_t));
}

uint64_t
CsrMatrix::colIdxAddr() const
{
    return lazySpanAddr(colIdxSpan_, colIdx.size() * sizeof(int32_t));
}

uint64_t
CsrMatrix::valsAddr() const
{
    return lazySpanAddr(valsSpan_, vals.size() * sizeof(float));
}

CsrMatrix
csrFromTriples(int64_t rows, int64_t cols,
               std::vector<std::tuple<int32_t, int32_t, float>> triples)
{
    std::sort(triples.begin(), triples.end(),
              [](const auto &a, const auto &b) {
                  if (std::get<0>(a) != std::get<0>(b))
                      return std::get<0>(a) < std::get<0>(b);
                  return std::get<1>(a) < std::get<1>(b);
              });

    CsrMatrix m;
    m.rows = rows;
    m.cols = cols;
    m.rowPtr.assign(rows + 1, 0);

    for (size_t i = 0; i < triples.size();) {
        auto [r, c, v] = triples[i];
        GNN_ASSERT(r >= 0 && r < rows && c >= 0 && c < cols,
                   "triple (%d, %d) out of range", r, c);
        float sum = 0.0f;
        while (i < triples.size() && std::get<0>(triples[i]) == r &&
               std::get<1>(triples[i]) == c) {
            sum += std::get<2>(triples[i]);
            ++i;
        }
        m.colIdx.push_back(c);
        m.vals.push_back(sum);
        ++m.rowPtr[r + 1];
    }
    for (int64_t r = 0; r < rows; ++r)
        m.rowPtr[r + 1] += m.rowPtr[r];
    m.validate();
    return m;
}

CsrMatrix
uniformCsr(Rng &rng, int64_t rows, int64_t cols, double density)
{
    std::vector<std::tuple<int32_t, int32_t, float>> triples;
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t c = 0; c < cols; ++c) {
            if (rng.bernoulli(density)) {
                triples.emplace_back(static_cast<int32_t>(r),
                                     static_cast<int32_t>(c),
                                     rng.uniform(-1.0f, 1.0f));
            }
        }
    }
    return csrFromTriples(rows, cols, std::move(triples));
}

} // namespace gnnmark
