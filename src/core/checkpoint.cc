#include "core/checkpoint.hh"

#include <cstring>

#include "base/logging.hh"
#include "base/rng.hh"
#include "obs/span.hh"

namespace gnnmark {

namespace {

/** Record tags inside the state image (checks traversal symmetry). */
enum class Tag : uint8_t
{
    TensorRec = 0x54, // 'T'
    ScalarRec = 0x53, // 'S'
    RngRec = 0x52,    // 'R'
};

/** StateVisitor that appends every visited item to a byte image. */
class SaveVisitor : public StateVisitor
{
  public:
    explicit SaveVisitor(std::vector<uint8_t> &out) : out_(out) {}

    void
    tensor(Tensor &t) override
    {
        put(Tag::TensorRec);
        putU64(static_cast<uint64_t>(t.numel()));
        putBytes(t.data(), static_cast<size_t>(t.numel()) *
                               sizeof(float));
    }

    void
    scalar(int64_t &v) override
    {
        put(Tag::ScalarRec);
        putBytes(&v, sizeof(v));
    }

    void
    rng(Rng &r) override
    {
        put(Tag::RngRec);
        const RngState st = r.state();
        for (uint64_t word : st.s)
            putU64(word);
        putU64(st.hasSpareNormal ? 1 : 0);
        putBytes(&st.spareNormal, sizeof(st.spareNormal));
    }

  private:
    void
    put(Tag tag)
    {
        out_.push_back(static_cast<uint8_t>(tag));
    }

    void
    putU64(uint64_t v)
    {
        putBytes(&v, sizeof(v));
    }

    void
    putBytes(const void *p, size_t n)
    {
        const uint8_t *b = static_cast<const uint8_t *>(p);
        out_.insert(out_.end(), b, b + n);
    }

    std::vector<uint8_t> &out_;
};

/**
 * StateVisitor that replays a byte image into the visited items. The
 * traversal must match the one that produced the image; the tags and
 * sizes catch any divergence.
 */
class RestoreVisitor : public StateVisitor
{
  public:
    explicit RestoreVisitor(const std::vector<uint8_t> &in) : in_(in) {}

    void
    tensor(Tensor &t) override
    {
        expect(Tag::TensorRec);
        const uint64_t numel = takeU64();
        GNN_ASSERT(numel == static_cast<uint64_t>(t.numel()),
                   "checkpoint tensor has %llu elements, workload "
                   "expects %lld — state layout mismatch",
                   static_cast<unsigned long long>(numel),
                   static_cast<long long>(t.numel()));
        takeBytes(t.data(), static_cast<size_t>(numel) * sizeof(float));
    }

    void
    scalar(int64_t &v) override
    {
        expect(Tag::ScalarRec);
        takeBytes(&v, sizeof(v));
    }

    void
    rng(Rng &r) override
    {
        expect(Tag::RngRec);
        RngState st;
        for (uint64_t &word : st.s)
            word = takeU64();
        st.hasSpareNormal = takeU64() != 0;
        takeBytes(&st.spareNormal, sizeof(st.spareNormal));
        r.setState(st);
    }

    /** True once the whole image has been consumed. */
    bool
    exhausted() const
    {
        return pos_ == in_.size();
    }

  private:
    void
    expect(Tag tag)
    {
        GNN_ASSERT(pos_ < in_.size(),
                   "checkpoint image truncated at offset %zu", pos_);
        const uint8_t got = in_[pos_++];
        GNN_ASSERT(got == static_cast<uint8_t>(tag),
                   "checkpoint record tag 0x%02x at offset %zu, "
                   "expected 0x%02x — state layout mismatch",
                   got, pos_ - 1, static_cast<uint8_t>(tag));
    }

    uint64_t
    takeU64()
    {
        uint64_t v = 0;
        takeBytes(&v, sizeof(v));
        return v;
    }

    void
    takeBytes(void *p, size_t n)
    {
        GNN_ASSERT(pos_ + n <= in_.size(),
                   "checkpoint image truncated at offset %zu", pos_);
        std::memcpy(p, in_.data() + pos_, n);
        pos_ += n;
    }

    const std::vector<uint8_t> &in_;
    size_t pos_ = 0;
};

} // namespace

Checkpoint
captureCheckpoint(Workload &workload, uint64_t step)
{
    GNN_SPAN("checkpoint.capture");
    GNN_ASSERT(workload.supportsCheckpoint(),
               "workload %s does not support checkpointing",
               workload.name().c_str());
    Checkpoint ckpt;
    ckpt.workload = workload.name();
    ckpt.step = step;
    SaveVisitor v(ckpt.state);
    workload.visitState(v);
    return ckpt;
}

uint64_t
restoreCheckpoint(Workload &workload, const Checkpoint &ckpt)
{
    GNN_SPAN("checkpoint.restore");
    GNN_ASSERT(workload.supportsCheckpoint(),
               "workload %s does not support checkpointing",
               workload.name().c_str());
    if (ckpt.workload != workload.name()) {
        GNN_FATAL("checkpoint was written by workload '%s', cannot "
                  "restore into '%s'",
                  ckpt.workload.c_str(), workload.name().c_str());
    }
    RestoreVisitor v(ckpt.state);
    workload.visitState(v);
    GNN_ASSERT(v.exhausted(),
               "checkpoint image has trailing bytes — state layout "
               "mismatch for workload %s",
               workload.name().c_str());
    return ckpt.step;
}

} // namespace gnnmark
