// Bit-identity pins for the Match(S) kernel (Algorithm 1).
//
// ReproducesRecordedDigests: a seeded corpus over a 200-source Books
// universe — |S| ∈ {5, 10, 20, 40}, θ ∈ {0.5, 0.75, 0.9}, β ∈ {2, 3}, with
// and without GA constraints and source constraints — plus the same grid
// over a small synthetic universe whose name variants put most edges below
// similarity 1, must reproduce the MatchResultFingerprint of every case
// recorded in tests/data/match_digests.json. The fingerprint covers validity, quality
// bits, round count, GA order and attributes, per-GA quality bits and
// constraint provenance, so a kernel that changes a tie-break, a round or
// a quality bit fails here even when the unordered GA sets still agree
// (which is all test_matcher_reference compares). See TESTING.md, "Match
// digests", for how the file was recorded.
//
// AlternatingMatchersAgreeWithFreshCalls: two matchers over graphs of very
// different sizes, called alternately on one thread with Status errors and
// results invalid on C interleaved, must each return exactly what a fresh
// matcher returns for the same call — no state leaks from one call into
// the next.
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "matching/cluster_matcher.h"
#include "matching/similarity_graph.h"
#include "schema/mediated_schema.h"
#include "source/universe.h"
#include "testkit/generators.h"
#include "testkit/golden.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace ube {
namespace {

struct MatchCase {
  std::string name;
  std::vector<SourceId> sources;  // unsorted on purpose
  std::vector<SourceId> source_constraints;
  std::vector<GlobalAttribute> ga_constraints;
  MatchOptions options;
};

// Seeded corpus over `universe`: for every (|S|, θ, β, constraint mode)
// cell, `draws` random source sets. Mode bit 0 adds 1-2 GA constraints of
// 1-3 attributes each (over distinct sources, so they are disjoint); bit 1
// pins 1-2 sources of S as source constraints, which often makes the
// result invalid on C.
std::vector<MatchCase> Corpus(const std::string& prefix,
                              const Universe& universe,
                              const std::vector<int>& sizes, int draws,
                              uint64_t seed) {
  static const char* const kModes[] = {"none", "ga", "sc", "ga+sc"};
  Rng rng(seed);
  std::vector<SourceId> all(static_cast<size_t>(universe.num_sources()));
  std::iota(all.begin(), all.end(), 0);
  std::vector<MatchCase> cases;
  for (int k : sizes) {
    for (double theta : {0.5, 0.75, 0.9}) {
      for (int beta : {2, 3}) {
        for (int mode = 0; mode < 4; ++mode) {
          for (int draw = 0; draw < draws; ++draw) {
            MatchCase c;
            char name[64];
            std::snprintf(name, sizeof(name), "s%02d/theta%.2f/beta%d/%s/%d",
                          k, theta, beta, kModes[mode], draw);
            c.name = prefix + name;
            c.options.theta = theta;
            c.options.beta = beta;
            std::shuffle(all.begin(), all.end(), rng);
            c.sources.assign(all.begin(), all.begin() + k);
            std::vector<SourceId> pool = c.sources;
            size_t next = 0;
            if ((mode & 1) != 0) {
              const int num_gas = 1 + static_cast<int>(rng.UniformInt(2));
              for (int g = 0; g < num_gas && next < pool.size(); ++g) {
                const int width = 1 + static_cast<int>(rng.UniformInt(3));
                std::vector<AttributeId> ids;
                for (int a = 0; a < width && next < pool.size(); ++next) {
                  const SourceId s = pool[next];
                  const int n = universe.source(s).schema().num_attributes();
                  if (n == 0) continue;
                  ids.push_back(AttributeId{
                      s, static_cast<int>(rng.UniformInt(
                             static_cast<uint64_t>(n)))});
                  ++a;
                }
                if (!ids.empty()) {
                  c.ga_constraints.emplace_back(std::move(ids));
                }
              }
            }
            if ((mode & 2) != 0) {
              const int pins = 1 + static_cast<int>(rng.UniformInt(2));
              for (int p = 0; p < pins && next < pool.size(); ++p) {
                c.source_constraints.push_back(pool[next++]);
              }
            }
            cases.push_back(std::move(c));
          }
        }
      }
    }
  }
  return cases;
}

Universe BooksUniverse(int num_sources) {
  WorkloadConfig config;
  config.num_sources = num_sources;
  config.scale = 0.01;
  return GenerateWorkload(config).universe;
}

Universe SyntheticUniverse(uint64_t seed, int min_sources, int max_sources) {
  Rng rng(seed);
  testkit::UniverseGenOptions options;
  options.min_sources = min_sources;
  options.max_sources = max_sources;
  return testkit::GenerateUniverse(rng, options);
}

TEST(MatchKernel, ReproducesRecordedDigests) {
  const Universe books = BooksUniverse(200);
  const Universe synthetic = SyntheticUniverse(2007, 12, 14);
  std::map<std::string, uint64_t> computed;
  int valid = 0;
  int invalid = 0;
  int multi_round = 0;
  for (const auto& [universe, cases] :
       {std::pair(&books, Corpus("books/", books, {5, 10, 20, 40},
                                 /*draws=*/3, /*seed=*/20070415)),
        std::pair(&synthetic, Corpus("synthetic/", synthetic, {3, 6, 10},
                                     /*draws=*/3, /*seed=*/20070416))}) {
    const SimilarityGraph graph = SimilarityGraph::WithDefaults(*universe);
    const ClusterMatcher matcher(*universe, graph);
    for (const MatchCase& c : cases) {
      Result<MatchResult> result = matcher.Match(
          c.sources, c.source_constraints, c.ga_constraints, c.options);
      ASSERT_TRUE(result.ok()) << c.name << ": " << result.status();
      computed[c.name] = MatchResultFingerprint(result.value());
      (result->valid ? valid : invalid) += 1;
      if (result->rounds > 1) ++multi_round;
    }
  }
  // The corpus must exercise both sides of the line-24 check and real
  // multi-round clustering, or the digests pin less than they claim.
  EXPECT_GT(valid, 0);
  EXPECT_GT(invalid, 0);
  EXPECT_GT(multi_round, 0);

  auto recorded = testkit::LoadGoldenDigests(std::string(UBE_TEST_DATA_DIR) +
                                             "/match_digests.json");
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  EXPECT_EQ(recorded->size(), computed.size());
  int mismatches = 0;
  for (const auto& [name, digest] : computed) {
    auto it = recorded->find(name);
    if (it == recorded->end() || it->second != digest) {
      ++mismatches;
      ADD_FAILURE() << "digest mismatch for " << name;
    }
  }
  if (mismatches > 0 || recorded->size() != computed.size()) {
    // The digests this build computes, in the file's format. Only a
    // reference build may be re-recorded from this (TESTING.md).
    std::printf("\"digests\": {\n");
    size_t i = 0;
    for (const auto& [name, digest] : computed) {
      std::printf("  \"%s\": \"%016llx\"%s\n", name.c_str(),
                  static_cast<unsigned long long>(digest),
                  ++i < computed.size() ? "," : "");
    }
    std::printf("}\n");
  }
}

// Outcome of one Match call, comparable across matchers.
struct Outcome {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  bool valid = false;
  uint64_t fingerprint = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome RunCase(const ClusterMatcher& matcher, const MatchCase& c) {
  Result<MatchResult> result = matcher.Match(c.sources, c.source_constraints,
                                             c.ga_constraints, c.options);
  Outcome out;
  out.ok = result.ok();
  out.code = result.status().code();
  if (result.ok()) {
    out.valid = result->valid;
    out.fingerprint = MatchResultFingerprint(result.value());
  }
  return out;
}

// Inserts malformed calls, spread through `cases`: θ below the graph floor,
// a duplicate source, an out-of-range source and a source constraint
// outside S.
void AddErrorCases(const Universe& universe, std::vector<MatchCase>* cases) {
  MatchCase base = cases->front();
  MatchCase low_theta = base;
  low_theta.name = "error/theta";
  low_theta.options.theta = 0.1;
  MatchCase duplicate = base;
  duplicate.name = "error/duplicate";
  duplicate.sources.push_back(duplicate.sources.front());
  MatchCase out_of_range = base;
  out_of_range.name = "error/range";
  out_of_range.sources.push_back(universe.num_sources());
  MatchCase outside = base;
  outside.name = "error/constraint";
  outside.ga_constraints.clear();
  for (SourceId s = 0; s < universe.num_sources(); ++s) {
    if (std::find(base.sources.begin(), base.sources.end(), s) ==
        base.sources.end()) {
      outside.source_constraints = {s};
      break;
    }
  }
  const size_t stride = std::max<size_t>(1, cases->size() / 5);
  size_t at = stride;
  for (MatchCase* e : {&low_theta, &duplicate, &out_of_range, &outside}) {
    const size_t pos = std::min(at, cases->size());
    cases->insert(cases->begin() + static_cast<std::ptrdiff_t>(pos),
                  std::move(*e));
    at += stride;
  }
}

TEST(MatchKernel, AlternatingMatchersAgreeWithFreshCalls) {
  const Universe big = BooksUniverse(200);
  const Universe small = SyntheticUniverse(77, 10, 12);
  const SimilarityGraph big_graph = SimilarityGraph::WithDefaults(big);
  const SimilarityGraph small_graph = SimilarityGraph::WithDefaults(small);
  ASSERT_GT(big_graph.num_attributes(), 4 * small_graph.num_attributes());

  std::vector<MatchCase> big_cases =
      Corpus("", big, {5, 20, 40}, /*draws=*/1, /*seed=*/91);
  std::vector<MatchCase> small_cases =
      Corpus("", small, {2, 5, 8}, /*draws=*/1, /*seed=*/92);
  AddErrorCases(big, &big_cases);
  AddErrorCases(small, &small_cases);

  // What a fresh matcher returns for each call on its own.
  auto fresh = [](const Universe& universe, const SimilarityGraph& graph,
                  const std::vector<MatchCase>& cases) {
    std::vector<Outcome> out;
    for (const MatchCase& c : cases) {
      out.push_back(RunCase(ClusterMatcher(universe, graph), c));
    }
    return out;
  };
  const std::vector<Outcome> big_expected = fresh(big, big_graph, big_cases);
  const std::vector<Outcome> small_expected =
      fresh(small, small_graph, small_cases);
  for (const auto* expected : {&big_expected, &small_expected}) {
    int errors = 0;
    int invalid = 0;
    for (const Outcome& o : *expected) {
      if (!o.ok) ++errors;
      if (o.ok && !o.valid) ++invalid;
    }
    EXPECT_EQ(errors, 4);
    EXPECT_GT(invalid, 0);
  }

  const ClusterMatcher big_matcher(big, big_graph);
  const ClusterMatcher small_matcher(small, small_graph);
  // Forward then backward, so every call follows both a larger and a
  // smaller call on the other matcher.
  for (int pass = 0; pass < 2; ++pass) {
    const size_t n = std::max(big_cases.size(), small_cases.size());
    for (size_t step = 0; step < n; ++step) {
      const size_t i = pass == 0 ? step : n - 1 - step;
      if (i < big_cases.size()) {
        EXPECT_EQ(RunCase(big_matcher, big_cases[i]), big_expected[i])
            << "big " << big_cases[i].name << " pass " << pass;
      }
      if (i < small_cases.size()) {
        EXPECT_EQ(RunCase(small_matcher, small_cases[i]), small_expected[i])
            << "small " << small_cases[i].name << " pass " << pass;
      }
    }
  }
}

}  // namespace
}  // namespace ube
