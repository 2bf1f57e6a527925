/**
 * @file
 * Dense fp32 tensor, the value type flowing through the operator layer.
 *
 * Tensors are contiguous, row-major, and reference-counted: copies are
 * shallow (sharing Storage), clone() is deep. Storage carries both the
 * host bytes (from the run's bound Allocator) and a deterministic
 * simulated device address (from DeviceAddrSpace) that is stable for
 * the storage's lifetime — what the GPU cache models hash.
 *
 * Construction goes through the factories: `Tensor::empty` for
 * outputs every element of which is about to be written,
 * `Tensor::zeros` when the op accumulates into the buffer, so the
 * initialisation cost is always named at the call site.
 */

#ifndef GNNMARK_TENSOR_TENSOR_HH
#define GNNMARK_TENSOR_TENSOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "tensor/storage.hh"

namespace gnnmark {

/** N-dimensional dense fp32 array (row-major, contiguous). */
class Tensor
{
  public:
    /** An empty 0-element tensor (shares the empty Storage singleton). */
    Tensor();

    /** @{ Factory helpers (allocation via the bound Allocator). */
    /** Uninitialised storage: every element must be written before use. */
    static Tensor empty(std::vector<int64_t> shape);
    static Tensor zeros(std::vector<int64_t> shape);
    static Tensor ones(std::vector<int64_t> shape);
    static Tensor full(std::vector<int64_t> shape, float value);
    static Tensor fromVector(std::vector<int64_t> shape,
                             std::vector<float> values);
    /** i.i.d. N(0, stddev^2) entries. */
    static Tensor randn(std::vector<int64_t> shape, Rng &rng,
                        float stddev = 1.0f);
    /** i.i.d. U[lo, hi) entries. */
    static Tensor uniform(std::vector<int64_t> shape, Rng &rng, float lo,
                          float hi);
    /** @} */

    /** Number of elements. */
    int64_t numel() const { return numel_; }

    /** Number of dimensions. */
    int dim() const { return static_cast<int>(shape_.size()); }

    /** Extent of dimension d (negative d counts from the back). */
    int64_t size(int d) const;

    const std::vector<int64_t> &shape() const { return shape_; }

    /** True if this tensor has the same shape as `other`. */
    bool sameShape(const Tensor &other) const;

    /** @{ Raw element access. */
    float *data();
    const float *data() const;
    /** @} */

    /** @{ Indexed access (bounds-checked up to 4-D). */
    float &operator()(int64_t i);
    float operator()(int64_t i) const;
    float &operator()(int64_t i, int64_t j);
    float operator()(int64_t i, int64_t j) const;
    float &operator()(int64_t i, int64_t j, int64_t k);
    float operator()(int64_t i, int64_t j, int64_t k) const;
    float &operator()(int64_t i, int64_t j, int64_t k, int64_t l);
    float operator()(int64_t i, int64_t j, int64_t k, int64_t l) const;
    /** @} */

    /** View with a new shape (shares storage; numel must match). */
    Tensor reshape(std::vector<int64_t> shape) const;

    /**
     * Zero-copy view of rows [begin, end) (dim >= 1). Shares Storage
     * with this tensor: writes through either alias are visible to
     * both.
     */
    Tensor viewRows(int64_t begin, int64_t end) const;

    /** Deep copy. */
    Tensor clone() const;

    /** Set all elements to `value`. */
    void fill(float value);

    /** True if storage is allocated (numel may still be 0). */
    bool defined() const { return storage_ != nullptr; }

    /** True if both tensors alias the same Storage. */
    bool sharesStorageWith(const Tensor &other) const
    {
        return storage_ == other.storage_;
    }

    /** The underlying refcounted Storage (for tests/instrumentation). */
    const std::shared_ptr<Storage> &storage() const { return storage_; }

    /**
     * Deterministic simulated device address of element 0 (the
     * Storage's DeviceAddrSpace address plus the view offset).
     */
    uint64_t deviceAddr() const;

    /** Fraction of exactly-zero elements (sparsity, as in the paper). */
    double zeroFraction() const;

    /** Shape as a printable string, e.g. "[2, 3]". */
    std::string shapeString() const;

  private:
    std::vector<int64_t> shape_;
    int64_t numel_ = 0;
    /**
     * Refcounted storage from the bound Allocator. Under the caching
     * arena, freed blocks are recycled by size bucket, so a training
     * loop's activations land at the same host bytes and the same
     * device addresses every iteration — which is what the persistent
     * L2 model in the simulator observes.
     */
    std::shared_ptr<Storage> storage_;
    int64_t offset_ = 0; ///< element offset into storage (views)
};

/** Max |a - b| over all elements; shapes must match. */
float maxAbsDiff(const Tensor &a, const Tensor &b);

/** True if all elements differ by at most atol + rtol * |b|. */
bool allClose(const Tensor &a, const Tensor &b, float rtol = 1e-4f,
              float atol = 1e-5f);

} // namespace gnnmark

#endif // GNNMARK_TENSOR_TENSOR_HH
