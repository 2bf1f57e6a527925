/**
 * @file
 * On-disk fault plans: a line-oriented text format so hand-written
 * fault scenarios are reproducible, diffable artifacts.
 *
 *   gnnmark-fault-plan v1
 *   # free-form comment
 *   straggler time=0.5 replica=1 duration=2 magnitude=4
 *   crash time=1.25 replica=2
 *   degraded-link time=3 duration=1 magnitude=0.25
 *   transient time=4
 *
 * Times are absolute simulated seconds. Doubles round-trip exactly
 * (%.17g), so saving a plan and loading it back yields a
 * bitwise-identical schedule — the `gnnmark faults/serve --save-plan`
 * / `--plan` contract. Malformed input surfaces as IoError, never an
 * assert: a plan file is user input, not library state.
 */

#ifndef GNNMARK_SIM_FAULT_PLAN_IO_HH
#define GNNMARK_SIM_FAULT_PLAN_IO_HH

#include <string>

#include "sim/fault_injector.hh"

namespace gnnmark {

/** Serialize a plan to the text format above (events in time order). */
std::string faultPlanToText(const FaultPlan &plan);

/**
 * Parse the text format; `context` tags error messages (e.g. "fault
 * plan 'x.plan'"). Throws IoError(BadMagic/BadVersion/Corrupt).
 */
FaultPlan faultPlanFromText(const std::string &text,
                            const std::string &context);

/** Write a plan file; throws IoError on I/O failure. */
void saveFaultPlan(const std::string &path, const FaultPlan &plan);

/** Read a plan file; throws IoError on I/O or parse failure. */
FaultPlan loadFaultPlan(const std::string &path);

} // namespace gnnmark

#endif // GNNMARK_SIM_FAULT_PLAN_IO_HH
