// Input generation for the benchmark's workloads (see inputs.cc).

#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace e2ebench {

/// Writes the inputs of `kind` ("category", "gtopdb" or "efo") at `size`
/// from `seed` into the existing directory `dir`, plus dir/inputs.json.
rdfalign::Status GenerateInputs(const std::string& kind, double size,
                                uint64_t seed, const std::string& dir);

}  // namespace e2ebench

#endif  // E2EBENCH_INPUTS_H_
