/**
 * @file
 * Machine-readable reporting: serialize simulation and policy
 * results as JSON so external tooling (plotting scripts, regression
 * trackers) can consume bench output without parsing tables.
 *
 * These writers define the JSON schema; api::RunResult::writeJson
 * and api::SweepResult::writeJson compose them, so both records
 * share one definition of each object. New code should serialize
 * through api::RunResult / api::SweepResult instead of calling
 * these directly.
 */

#ifndef LSIM_HARNESS_REPORT_HH
#define LSIM_HARNESS_REPORT_HH

#include <vector>

#include "common/json.hh"
#include "energy/params.hh"
#include "harness/experiment.hh"
#include "sleep/accumulator.hh"

namespace lsim::harness
{

/** Write a technology point as the JSON object "technology". */
void writeTechnologyJson(JsonWriter &w,
                         const energy::ModelParams &params);

/** Write one benchmark simulation (timing + idle stats) as JSON. */
void writeSimJson(JsonWriter &w, const WorkloadSim &sim);

/** Write a policy evaluation result set as a JSON array. */
void writePoliciesJson(JsonWriter &w,
                       const std::vector<sleep::PolicyResult> &results);

} // namespace lsim::harness

#endif // LSIM_HARNESS_REPORT_HH
