#ifndef UBE_TESTKIT_ORACLES_H_
#define UBE_TESTKIT_ORACLES_H_

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "optimize/problem.h"
#include "optimize/solver.h"
#include "source/universe.h"

namespace ube::testkit {

/// Solver budget for the property suites: small enough that 50 universes x
/// 6 solvers x 2 thread counts stay in the seconds range, large enough
/// that the heuristics actually converge on 6-9-source instances.
SolverOptions PropertySolverOptions(uint64_t seed);

/// Structural feasibility oracle: the solution's sources are sorted,
/// unique, in range, within [1, m], contain every source required by the
/// spec's C / GA constraints and avoid every banned source. Violations name
/// the offending source in the failure message.
::testing::AssertionResult SolutionIsFeasible(const Solution& solution,
                                              const Universe& universe,
                                              const ProblemSpec& spec);

/// Replay oracle: the two solutions are bit-identical in every observable
/// the solver contract promises to be thread-count independent — sources,
/// quality (exact, not approximate), iteration/evaluation/cache counters,
/// and the full incumbent trace.
::testing::AssertionResult SolutionsBitIdentical(const Solution& a,
                                                 const Solution& b);

/// Folds one value into a running order-sensitive 64-bit digest
/// (SplitMix64 chaining). Doubles go in by bit pattern, so a digest pins
/// exact values, not approximations.
uint64_t MixDigest(uint64_t digest, uint64_t value);
uint64_t MixDigestBits(uint64_t digest, double value);

/// Digest of everything SolutionsBitIdentical compares — sources, quality
/// bits, iteration/evaluation/cache counters, the full incumbent trace —
/// plus the stop reason and the per-QEF score bits. Golden digest files
/// (LoadGoldenDigests) pin whole solver runs with it.
uint64_t SolutionDigest(const Solution& solution);

/// C ∪ {sources referenced by the GA constraints}, sorted unique — the
/// sources every feasible solution must contain.
std::vector<SourceId> RequiredSources(const ProblemSpec& spec);

}  // namespace ube::testkit

#endif  // UBE_TESTKIT_ORACLES_H_
