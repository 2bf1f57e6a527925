#include "tensor/tensor.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/string_utils.hh"
#include "base/thread_pool.hh"

namespace gnnmark {

namespace {

/** Flat-loop grain for fills/copies/reductions over tensor storage. */
constexpr int64_t kFlatGrain = 1 << 15;

int64_t
shapeNumel(const std::vector<int64_t> &shape)
{
    int64_t n = 1;
    for (int64_t d : shape) {
        GNN_ASSERT(d >= 0, "negative dimension %lld",
                   static_cast<long long>(d));
        n *= d;
    }
    return n;
}

} // namespace

Tensor::Tensor()
    : shape_({0}), numel_(0), storage_(Storage::allocate(0))
{
}

Tensor
Tensor::empty(std::vector<int64_t> shape)
{
    Tensor t;
    t.shape_ = std::move(shape);
    t.numel_ = shapeNumel(t.shape_);
    t.offset_ = 0;
    t.storage_ = Storage::allocate(static_cast<size_t>(t.numel_) *
                                   sizeof(float));
    return t;
}

Tensor
Tensor::zeros(std::vector<int64_t> shape)
{
    Tensor t = empty(std::move(shape));
    float *p = t.data();
    parallel_for(0, t.numel_, kFlatGrain, [&](int64_t i0, int64_t i1) {
        std::fill(p + i0, p + i1, 0.0f);
    });
    return t;
}

Tensor
Tensor::ones(std::vector<int64_t> shape)
{
    return full(std::move(shape), 1.0f);
}

Tensor
Tensor::full(std::vector<int64_t> shape, float value)
{
    Tensor t = empty(std::move(shape));
    t.fill(value);
    return t;
}

Tensor
Tensor::fromVector(std::vector<int64_t> shape, std::vector<float> values)
{
    Tensor t = empty(std::move(shape));
    GNN_ASSERT(static_cast<int64_t>(values.size()) == t.numel(),
               "value count %zu does not match shape numel %lld",
               values.size(), static_cast<long long>(t.numel()));
    std::copy(values.begin(), values.end(), t.data());
    return t;
}

Tensor
Tensor::randn(std::vector<int64_t> shape, Rng &rng, float stddev)
{
    Tensor t = empty(std::move(shape));
    float *p = t.data();
    // Serial: consumes the shared RNG stream in element order.
    for (int64_t i = 0; i < t.numel(); ++i)
        p[i] = static_cast<float>(rng.normal(0.0, stddev));
    return t;
}

Tensor
Tensor::uniform(std::vector<int64_t> shape, Rng &rng, float lo, float hi)
{
    Tensor t = empty(std::move(shape));
    float *p = t.data();
    for (int64_t i = 0; i < t.numel(); ++i)
        p[i] = rng.uniform(lo, hi);
    return t;
}

int64_t
Tensor::size(int d) const
{
    int nd = dim();
    if (d < 0)
        d += nd;
    GNN_ASSERT(d >= 0 && d < nd, "dimension %d out of range for %d-d",
               d, nd);
    return shape_[d];
}

bool
Tensor::sameShape(const Tensor &other) const
{
    return shape_ == other.shape_;
}

float *
Tensor::data()
{
    return storage_->f32() + offset_;
}

const float *
Tensor::data() const
{
    return storage_->f32() + offset_;
}

float &
Tensor::operator()(int64_t i)
{
    GNN_ASSERT(dim() == 1 && i >= 0 && i < shape_[0],
               "bad 1-d index %lld", static_cast<long long>(i));
    return data()[i];
}

float
Tensor::operator()(int64_t i) const
{
    return const_cast<Tensor &>(*this)(i);
}

float &
Tensor::operator()(int64_t i, int64_t j)
{
    GNN_ASSERT(dim() == 2 && i >= 0 && i < shape_[0] && j >= 0 &&
               j < shape_[1], "bad 2-d index (%lld, %lld)",
               static_cast<long long>(i), static_cast<long long>(j));
    return data()[i * shape_[1] + j];
}

float
Tensor::operator()(int64_t i, int64_t j) const
{
    return const_cast<Tensor &>(*this)(i, j);
}

float &
Tensor::operator()(int64_t i, int64_t j, int64_t k)
{
    GNN_ASSERT(dim() == 3 && i >= 0 && i < shape_[0] && j >= 0 &&
               j < shape_[1] && k >= 0 && k < shape_[2],
               "bad 3-d index (%lld, %lld, %lld)",
               static_cast<long long>(i), static_cast<long long>(j),
               static_cast<long long>(k));
    return data()[(i * shape_[1] + j) * shape_[2] + k];
}

float
Tensor::operator()(int64_t i, int64_t j, int64_t k) const
{
    return const_cast<Tensor &>(*this)(i, j, k);
}

float &
Tensor::operator()(int64_t i, int64_t j, int64_t k, int64_t l)
{
    GNN_ASSERT(dim() == 4 && i >= 0 && i < shape_[0] && j >= 0 &&
               j < shape_[1] && k >= 0 && k < shape_[2] && l >= 0 &&
               l < shape_[3], "bad 4-d index (%lld, %lld, %lld, %lld)",
               static_cast<long long>(i), static_cast<long long>(j),
               static_cast<long long>(k), static_cast<long long>(l));
    return data()[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
}

float
Tensor::operator()(int64_t i, int64_t j, int64_t k, int64_t l) const
{
    return const_cast<Tensor &>(*this)(i, j, k, l);
}

Tensor
Tensor::reshape(std::vector<int64_t> shape) const
{
    GNN_ASSERT(shapeNumel(shape) == numel_,
               "reshape numel mismatch: %lld vs %lld",
               static_cast<long long>(shapeNumel(shape)),
               static_cast<long long>(numel_));
    Tensor t = *this;
    t.shape_ = std::move(shape);
    return t;
}

Tensor
Tensor::viewRows(int64_t begin, int64_t end) const
{
    GNN_ASSERT(dim() >= 1, "viewRows needs dim >= 1, got %s",
               shapeString().c_str());
    GNN_ASSERT(begin >= 0 && begin <= end && end <= shape_[0],
               "viewRows: bad range [%lld, %lld) for %s",
               static_cast<long long>(begin),
               static_cast<long long>(end), shapeString().c_str());
    const int64_t stride =
        shape_[0] == 0 ? 0 : numel_ / shape_[0];
    Tensor t = *this;
    t.shape_[0] = end - begin;
    t.numel_ = t.shape_[0] * stride;
    t.offset_ = offset_ + begin * stride;
    return t;
}

Tensor
Tensor::clone() const
{
    Tensor t = empty(shape_);
    const float *src = data();
    float *dst = t.data();
    parallel_for(0, numel_, kFlatGrain, [&](int64_t i0, int64_t i1) {
        std::copy(src + i0, src + i1, dst + i0);
    });
    return t;
}

void
Tensor::fill(float value)
{
    float *p = data();
    parallel_for(0, numel_, kFlatGrain, [&](int64_t i0, int64_t i1) {
        std::fill(p + i0, p + i1, value);
    });
}

uint64_t
Tensor::deviceAddr() const
{
    return storage_->deviceAddr() +
           static_cast<uint64_t>(offset_) * sizeof(float);
}

double
Tensor::zeroFraction() const
{
    if (numel_ == 0)
        return 0.0;
    const float *p = data();
    const int64_t zeros = parallel_reduce(
        0, numel_, kFlatGrain, static_cast<int64_t>(0),
        [&](int64_t i0, int64_t i1) {
            int64_t z = 0;
            for (int64_t i = i0; i < i1; ++i) {
                if (p[i] == 0.0f)
                    ++z;
            }
            return z;
        },
        [](int64_t acc, int64_t z) { return acc + z; });
    return static_cast<double>(zeros) / static_cast<double>(numel_);
}

std::string
Tensor::shapeString() const
{
    std::vector<std::string> dims;
    dims.reserve(shape_.size());
    for (int64_t d : shape_)
        dims.push_back(strfmt("%lld", static_cast<long long>(d)));
    return "[" + join(dims, ", ") + "]";
}

float
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    GNN_ASSERT(a.sameShape(b), "shape mismatch: %s vs %s",
               a.shapeString().c_str(), b.shapeString().c_str());
    const float *pa = a.data();
    const float *pb = b.data();
    // max() is order-insensitive, so chunking cannot change the result.
    return parallel_reduce(
        0, a.numel(), kFlatGrain, 0.0f,
        [&](int64_t i0, int64_t i1) {
            float worst = 0.0f;
            for (int64_t i = i0; i < i1; ++i)
                worst = std::max(worst, std::abs(pa[i] - pb[i]));
            return worst;
        },
        [](float acc, float w) { return std::max(acc, w); });
}

bool
allClose(const Tensor &a, const Tensor &b, float rtol, float atol)
{
    if (!a.sameShape(b))
        return false;
    const float *pa = a.data();
    const float *pb = b.data();
    for (int64_t i = 0; i < a.numel(); ++i) {
        float tol = atol + rtol * std::abs(pb[i]);
        if (std::abs(pa[i] - pb[i]) > tol)
            return false;
    }
    return true;
}

} // namespace gnnmark
