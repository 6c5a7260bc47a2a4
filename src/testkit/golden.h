#ifndef UBE_TESTKIT_GOLDEN_H_
#define UBE_TESTKIT_GOLDEN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "optimize/problem.h"
#include "testkit/generators.h"
#include "util/result.h"

namespace ube::testkit {

/// A pinned small-instance optimum: everything needed to regenerate one
/// canonical universe (generator options + seed), the problem posed on it,
/// and the exhaustive optimum recorded when the file was written.
///
/// The golden file deliberately pins GenerateUniverse's behavior: a change
/// to the generator's draw sequence shows up as a golden mismatch, which is
/// the alarm bell — every seeded property failure everywhere else would
/// stop being replayable across that change too (see TESTING.md).
struct GoldenSmallUniverse {
  std::string description;
  uint64_t universe_seed = 0;
  UniverseGenOptions universe;
  ProblemSpec spec;  // max_sources / theta / beta only
  std::vector<SourceId> optimal_sources;
  double optimal_quality = 0.0;
};

/// Loads a golden case from a JSON file (the subset of JSON the golden
/// files use: objects, arrays, numbers, strings, bools). Unknown keys are
/// an error so stale files fail loudly instead of silently defaulting.
Result<GoldenSmallUniverse> LoadGoldenSmallUniverse(const std::string& path);

/// Loads a golden digest file: a JSON object
///   {"description": "...", "digests": {"<case name>": "<16 hex digits>"}}
/// mapping each recorded case to its 64-bit digest (e.g. SolutionDigest).
/// Digests are hex strings because a JSON number cannot carry 64 bits.
Result<std::map<std::string, uint64_t>> LoadGoldenDigests(
    const std::string& path);

}  // namespace ube::testkit

#endif  // UBE_TESTKIT_GOLDEN_H_
