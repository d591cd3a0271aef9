// Reference outcomes recorded from the repository's current simulator, one
// CSV per workload under e2ebench/reference/:
//
//   mode,variant,id,ok,n1,n2,n3,v1,v2,v3
//
// `mode` is full or smoke, `variant` the input variant the --seed selects,
// and n*/v* the Outcome's counts and values.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.h"

namespace e2e {

/// Rows of `path` for one mode and variant, in file order. Empty when the
/// file or the rows are missing; throws std::runtime_error on a malformed row.
std::vector<Outcome> load_reference(const std::string& path, std::string_view mode,
                                    std::uint64_t variant);

/// The CSV rows (no header) that record `outcomes`.
std::string reference_rows(std::string_view mode, std::uint64_t variant,
                           const std::vector<Outcome>& outcomes);

/// Counts and the ok flag must match exactly; values within 1e-3 absolute
/// plus 1e-5 relative, which admits integer-microsecond rounding shifts.
/// On mismatch `why` says which field differs.
bool matches_reference(const Outcome& expected, const Outcome& actual, std::string* why);

}  // namespace e2e
