#include "testkit/oracles.h"

#include <algorithm>
#include <bit>

#include "util/rng.h"

namespace ube::testkit {

SolverOptions PropertySolverOptions(uint64_t seed) {
  SolverOptions options;
  options.seed = seed;
  options.max_iterations = 80;
  options.stall_iterations = 25;
  options.restarts = 3;
  options.swarm_size = 10;
  options.random_samples = 120;
  return options;
}

uint64_t MixDigest(uint64_t digest, uint64_t value) {
  return SplitMix64(digest ^ value);
}

uint64_t MixDigestBits(uint64_t digest, double value) {
  return MixDigest(digest, std::bit_cast<uint64_t>(value));
}

uint64_t SolutionDigest(const Solution& solution) {
  uint64_t h = MixDigest(0x5017d16e57ULL, solution.sources.size());
  for (SourceId s : solution.sources) {
    h = MixDigest(h, static_cast<uint64_t>(static_cast<uint32_t>(s)));
  }
  h = MixDigestBits(h, solution.quality);
  h = MixDigest(h, solution.breakdown.scores.size());
  for (double score : solution.breakdown.scores) h = MixDigestBits(h, score);
  h = MixDigest(h, static_cast<uint64_t>(solution.stats.iterations));
  h = MixDigest(h, static_cast<uint64_t>(solution.stats.evaluations));
  h = MixDigest(h, static_cast<uint64_t>(solution.stats.cache_hits));
  h = MixDigest(h, static_cast<uint64_t>(solution.stats.stop_reason));
  h = MixDigest(h, solution.stats.trace.size());
  for (const TracePoint& point : solution.stats.trace) {
    h = MixDigest(h, static_cast<uint64_t>(point.evaluations));
    h = MixDigestBits(h, point.best_quality);
  }
  return h;
}

std::vector<SourceId> RequiredSources(const ProblemSpec& spec) {
  std::vector<SourceId> required = spec.source_constraints;
  for (const GlobalAttribute& g : spec.ga_constraints) {
    for (SourceId s : g.Sources()) required.push_back(s);
  }
  std::sort(required.begin(), required.end());
  required.erase(std::unique(required.begin(), required.end()),
                 required.end());
  return required;
}

::testing::AssertionResult SolutionIsFeasible(const Solution& solution,
                                              const Universe& universe,
                                              const ProblemSpec& spec) {
  const std::vector<SourceId>& sources = solution.sources;
  if (sources.empty()) {
    return ::testing::AssertionFailure() << "solution selects no sources";
  }
  if (static_cast<int>(sources.size()) > spec.max_sources) {
    return ::testing::AssertionFailure()
           << "solution selects " << sources.size() << " sources, m = "
           << spec.max_sources;
  }
  if (!std::is_sorted(sources.begin(), sources.end())) {
    return ::testing::AssertionFailure() << "solution sources not sorted";
  }
  if (std::adjacent_find(sources.begin(), sources.end()) != sources.end()) {
    return ::testing::AssertionFailure()
           << "solution sources contain a duplicate";
  }
  for (SourceId s : sources) {
    if (s < 0 || s >= universe.num_sources()) {
      return ::testing::AssertionFailure()
             << "source id " << s << " out of range (universe has "
             << universe.num_sources() << ")";
    }
  }
  for (SourceId required : RequiredSources(spec)) {
    if (!std::binary_search(sources.begin(), sources.end(), required)) {
      return ::testing::AssertionFailure()
             << "required source " << required << " missing from solution";
    }
  }
  for (SourceId banned : spec.banned_sources) {
    if (std::binary_search(sources.begin(), sources.end(), banned)) {
      return ::testing::AssertionFailure()
             << "banned source " << banned << " selected";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SolutionsBitIdentical(const Solution& a,
                                                 const Solution& b) {
  if (a.sources != b.sources) {
    return ::testing::AssertionFailure() << "sources differ";
  }
  if (a.quality != b.quality) {
    return ::testing::AssertionFailure()
           << "quality differs: " << a.quality << " vs " << b.quality;
  }
  if (a.stats.iterations != b.stats.iterations) {
    return ::testing::AssertionFailure()
           << "iterations differ: " << a.stats.iterations << " vs "
           << b.stats.iterations;
  }
  if (a.stats.evaluations != b.stats.evaluations) {
    return ::testing::AssertionFailure()
           << "evaluations differ: " << a.stats.evaluations << " vs "
           << b.stats.evaluations;
  }
  if (a.stats.cache_hits != b.stats.cache_hits) {
    return ::testing::AssertionFailure()
           << "cache_hits differ: " << a.stats.cache_hits << " vs "
           << b.stats.cache_hits;
  }
  if (a.stats.trace.size() != b.stats.trace.size()) {
    return ::testing::AssertionFailure()
           << "trace lengths differ: " << a.stats.trace.size() << " vs "
           << b.stats.trace.size();
  }
  for (size_t i = 0; i < a.stats.trace.size(); ++i) {
    if (a.stats.trace[i].evaluations != b.stats.trace[i].evaluations ||
        a.stats.trace[i].best_quality != b.stats.trace[i].best_quality) {
      return ::testing::AssertionFailure()
             << "trace point " << i << " differs: (" <<
             a.stats.trace[i].evaluations << ", "
             << a.stats.trace[i].best_quality << ") vs ("
             << b.stats.trace[i].evaluations << ", "
             << b.stats.trace[i].best_quality << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace ube::testkit
