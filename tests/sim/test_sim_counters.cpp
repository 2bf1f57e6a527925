/** @file SimCounters' arithmetic covers every counter slot: the
 *  operators walk one field list, and these tests list the slots again,
 *  by hand, so a field dropped from that list fails here. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/kernel_record.hh"

using namespace gnnmark;

namespace {

/** Every slot of `c`: the 13 counters, then the stall vector. */
std::vector<double *>
slots(SimCounters &c)
{
    std::vector<double *> out = {
        &c.fp32Instrs, &c.int32Instrs,     &c.memInstrs,  &c.miscInstrs,
        &c.flops,      &c.intOps,          &c.loads,      &c.divergentLoads,
        &c.l1Accesses, &c.l1Hits,          &c.l2Accesses, &c.l2Hits,
        &c.dramBytes,
    };
    for (double &s : c.stallCycles)
        out.push_back(&s);
    return out;
}

std::vector<double>
values(SimCounters c)
{
    std::vector<double> out;
    for (const double *s : slots(c))
        out.push_back(*s);
    return out;
}

/** A value per slot, distinct across slots and across `base`s. */
SimCounters
distinct(double base)
{
    SimCounters c;
    double v = base;
    for (double *s : slots(c))
        *s = v++;
    return c;
}

} // namespace

TEST(SimCounters, SlotListCoversTheStruct)
{
    SimCounters c;
    EXPECT_EQ(slots(c).size(), 13 + kNumStallReasons);
    EXPECT_EQ(slots(c).size() * sizeof(double), sizeof(SimCounters));
}

TEST(SimCounters, EveryOperatorActsOnEverySlot)
{
    const SimCounters a = distinct(1.0);
    const SimCounters b = distinct(100.0);
    SimCounters sum = a;
    sum += b;
    SimCounters scaled = a;
    scaled *= 3.0;
    SimCounters divided = a;
    divided /= 7.0;

    const std::vector<double> av = values(a), bv = values(b);
    const std::vector<double> sv = values(sum), xv = values(scaled),
                              dv = values(divided);
    for (size_t i = 0; i < av.size(); ++i) {
        EXPECT_EQ(sv[i], av[i] + bv[i]) << "slot " << i;
        EXPECT_EQ(xv[i], av[i] * 3.0) << "slot " << i;
        EXPECT_EQ(dv[i], av[i] / 7.0) << "slot " << i;
    }
}

TEST(SimCounters, EqualityComparesEverySlot)
{
    const SimCounters a = distinct(1.0);
    EXPECT_TRUE(a == distinct(1.0));
    for (size_t i = 0; i < values(a).size(); ++i) {
        SimCounters c = a;
        *slots(c)[i] += 0.5;
        EXPECT_FALSE(c == a) << "slot " << i;
        EXPECT_FALSE(a == c) << "slot " << i;
    }
}
