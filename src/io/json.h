#pragma once
// JSON rendering of placements and reports — for dashboards, diffing in
// CI, or feeding an SDN controller's northbound API.  Hand-rolled: one
// pass over the entries, appended into one reserved string.

#include <string>

#include "core/placement.h"
#include "core/problem.h"
#include "io/report.h"

namespace ruleplace::io {

/// The whole deployment as JSON:
/// {"switches":[{"name":..,"capacity":..,"entries":[{"priority":..,
///  "action":"drop","match":"src ...","tags":[0,1],"merged":false},..]},..]}
/// Empty switches are omitted; only problem.graph and capacityOf are read.
std::string placementToJson(const core::PlacementProblem& problem,
                            const core::Placement& placement);

/// placementToJson, appended to `out` (a response embeds it uncopied).
void appendPlacementJson(std::string& out,
                         const core::PlacementProblem& problem,
                         const core::Placement& placement);

/// The quality report as a flat JSON object.
std::string reportToJson(const PlacementReport& report);

/// util::appendJsonString's escaping, without the surrounding quotes.
std::string jsonEscape(const std::string& s);

}  // namespace ruleplace::io
