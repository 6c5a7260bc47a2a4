#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "matching/cluster_matcher.h"
#include "matching/similarity_graph.h"
#include "source/universe.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace ube {
namespace {

Universe MakeUniverse(const std::vector<std::vector<std::string>>& schemas) {
  Universe u;
  for (size_t i = 0; i < schemas.size(); ++i) {
    u.AddSource(DataSource("src-" + std::to_string(i),
                           SourceSchema(schemas[i])));
  }
  return u;
}

MatchOptions Opts(double theta, int beta = 2) {
  MatchOptions o;
  o.theta = theta;
  o.beta = beta;
  return o;
}

// --------------------------- SimilarityGraph ----------------------------

TEST(SimilarityGraphTest, DenseIndexRoundTrip) {
  Universe u = MakeUniverse({{"title", "author"}, {"isbn"}, {"title"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.0);
  EXPECT_EQ(g.num_attributes(), 4);
  for (int i = 0; i < g.num_attributes(); ++i) {
    EXPECT_EQ(g.DenseIndex(g.AttrId(i)), i);
  }
  EXPECT_EQ(g.Name(g.DenseIndex(AttributeId{0, 1})), "author");
}

TEST(SimilarityGraphTest, NoEdgesWithinOneSource) {
  Universe u = MakeUniverse({{"title", "title x"}, {"isbn"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.0);
  int a0 = g.DenseIndex(AttributeId{0, 0});
  for (const auto& e : g.EdgesOf(a0)) {
    EXPECT_NE(g.AttrId(e.neighbor).source, 0);
  }
}

TEST(SimilarityGraphTest, IdenticalNamesShareUnitEdge) {
  Universe u = MakeUniverse({{"title"}, {"title"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.5);
  const auto& edges = g.EdgesOf(0);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].neighbor, 1);
  EXPECT_FLOAT_EQ(edges[0].similarity, 1.0f);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(SimilarityGraphTest, EdgesAreSymmetric) {
  Universe u = MakeUniverse({{"author", "title"}, {"author name", "titles"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.1);
  for (int a = 0; a < g.num_attributes(); ++a) {
    for (const auto& e : g.EdgesOf(a)) {
      bool back = false;
      for (const auto& e2 : g.EdgesOf(e.neighbor)) {
        if (e2.neighbor == a) {
          EXPECT_FLOAT_EQ(e2.similarity, e.similarity);
          back = true;
        }
      }
      EXPECT_TRUE(back);
    }
  }
}

TEST(SimilarityGraphTest, FloorFiltersEdges) {
  Universe u = MakeUniverse({{"title"}, {"titles"}});
  SimilarityGraph low = SimilarityGraph::WithDefaults(u, 0.2);
  SimilarityGraph high = SimilarityGraph::WithDefaults(u, 0.9);
  EXPECT_EQ(low.num_edges(), 1u);   // J(title, titles) = 0.5
  EXPECT_EQ(high.num_edges(), 0u);
}

TEST(SimilarityGraphTest, PairSimilarityBelowFloorStillComputable) {
  Universe u = MakeUniverse({{"title"}, {"author"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.9);
  double sim = g.PairSimilarity(0, 1);
  EXPECT_GE(sim, 0.0);
  EXPECT_LT(sim, 0.2);
}

TEST(SimilarityGraphTest, GenericMeasureFallback) {
  Universe u = MakeUniverse({{"title"}, {"titel"}});
  SimilarityGraph g(u, std::make_unique<LevenshteinSimilarity>(), 0.1);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_NEAR(g.PairSimilarity(0, 1), 1.0 - 2.0 / 5.0, 1e-9);
}

// --------------------------- ClusterMatcher -----------------------------

TEST(ClusterMatcherTest, IdenticalNamesFormOneGa) {
  Universe u = MakeUniverse({{"title", "author"},
                             {"title", "author"},
                             {"title"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 1, 2}, {}, {}, Opts(0.75));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->valid);
  ASSERT_EQ(r->schema.num_gas(), 2);
  EXPECT_EQ(r->schema.TotalAttributes(), 5);
  EXPECT_DOUBLE_EQ(r->matching_quality, 1.0);
  EXPECT_TRUE(r->schema.GasAreDisjointAndValid());
  // One GA has the three titles, one has the two authors.
  int sizes[2] = {r->schema.ga(0).size(), r->schema.ga(1).size()};
  EXPECT_EQ(sizes[0] + sizes[1], 5);
}

TEST(ClusterMatcherTest, ThetaBlocksWeakMatches) {
  // J(title, titles) = 0.5: merged at θ=0.4, not at θ=0.75.
  Universe u = MakeUniverse({{"title"}, {"titles"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> strict = matcher.Match({0, 1}, {}, {}, Opts(0.75));
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict->schema.num_gas(), 0);
  Result<MatchResult> loose = matcher.Match({0, 1}, {}, {}, Opts(0.4));
  ASSERT_TRUE(loose.ok());
  ASSERT_EQ(loose->schema.num_gas(), 1);
  EXPECT_NEAR(loose->matching_quality, 0.5, 1e-6);
}

TEST(ClusterMatcherTest, SameSourceAttributesNeverMerge) {
  // Source 0 has two identical concepts; a valid GA can hold only one.
  Universe u = MakeUniverse({{"keyword", "keywords"}, {"keyword"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 1}, {}, {}, Opts(0.4));
  ASSERT_TRUE(r.ok());
  for (const GlobalAttribute& ga : r->schema.gas()) {
    EXPECT_TRUE(ga.IsValid());
  }
  EXPECT_TRUE(r->schema.GasAreDisjointAndValid());
}

TEST(ClusterMatcherTest, QualityIsMaxPairwiseSimilarity) {
  // Chain: "publication year" ~ "publication years" (0.8), the latter ~
  // others lower; GA quality reports the max pair.
  Universe u = MakeUniverse(
      {{"publication year"}, {"publication years"}, {"publication yearz"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 1, 2}, {}, {}, Opts(0.7));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->schema.num_gas(), 1);
  EXPECT_EQ(r->schema.ga(0).size(), 3);
  EXPECT_NEAR(r->ga_qualities[0], 16.0 / 21.0, 1e-6);
}

// The Figure 3 scenario: two lexical families that cannot merge without a
// user GA constraint bridging them.
class BridgingTest : public ::testing::Test {
 protected:
  BridgingTest()
      : universe_(MakeUniverse({{"customer first name"},
                                {"customer family name"},
                                {"customer first names"},
                                {"customer family names"}})),
        graph_(SimilarityGraph::WithDefaults(universe_, 0.25)),
        matcher_(universe_, graph_) {}

  Universe universe_;
  SimilarityGraph graph_;
  ClusterMatcher matcher_;
};

TEST_F(BridgingTest, WithoutConstraintFamiliesStaySeparate) {
  Result<MatchResult> r = matcher_.Match({0, 1, 2, 3}, {}, {}, Opts(0.75));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->schema.num_gas(), 2);
  for (const GlobalAttribute& ga : r->schema.gas()) {
    EXPECT_EQ(ga.size(), 2);
    // Each GA holds one family: {0,2} (first) or {1,3} (family).
    std::vector<SourceId> sources = ga.Sources();
    bool first_family = sources == std::vector<SourceId>{0, 2};
    bool family_family = sources == std::vector<SourceId>{1, 3};
    EXPECT_TRUE(first_family || family_family);
  }
}

TEST_F(BridgingTest, GaConstraintBridgesTheGap) {
  GlobalAttribute bridge({AttributeId{0, 0}, AttributeId{1, 0}});
  Result<MatchResult> r =
      matcher_.Match({0, 1, 2, 3}, {}, {bridge}, Opts(0.75));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->valid);
  // The bridge grows to swallow both families: one GA with all 4 attrs.
  ASSERT_EQ(r->schema.num_gas(), 1);
  EXPECT_EQ(r->schema.ga(0).size(), 4);
  EXPECT_TRUE(r->ga_from_constraint[0]);
  // G ⊑ M must hold.
  MediatedSchema g_schema({bridge});
  EXPECT_TRUE(g_schema.IsSubsumedBy(r->schema));
}

TEST_F(BridgingTest, UserGaKeptEvenWithLowQuality) {
  // A GA constraint pairing two dissimilar attributes survives even though
  // its quality is far below θ.
  GlobalAttribute bridge({AttributeId{0, 0}, AttributeId{1, 0}});
  Result<MatchResult> r = matcher_.Match({0, 1}, {}, {bridge}, Opts(0.75));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->schema.num_gas(), 1);
  EXPECT_TRUE(r->ga_from_constraint[0]);
  EXPECT_LT(r->ga_qualities[0], 0.75);
}

TEST(ClusterMatcherTest, SingleAttributeUserGaScoresOne) {
  Universe u = MakeUniverse({{"title"}, {"author"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  GlobalAttribute single({AttributeId{0, 0}});
  Result<MatchResult> r = matcher.Match({0, 1}, {}, {single}, Opts(0.75));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->schema.num_gas(), 1);
  EXPECT_DOUBLE_EQ(r->ga_qualities[0], 1.0);
}

// Once a single-attribute user GA merges, its conventional quality 1.0
// gives way to the real similarity of the merge.
TEST(ClusterMatcherTest, SingleAttributeUserGaTakesMergeQuality) {
  Universe u = MakeUniverse({{"publication year"}, {"publication years"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  ASSERT_EQ(g.EdgesOf(0).size(), 1u);
  const double sim = g.EdgesOf(0)[0].similarity;
  ASSERT_GE(sim, 0.75);
  ASSERT_LT(sim, 1.0);
  GlobalAttribute single({AttributeId{0, 0}});
  Result<MatchResult> r = matcher.Match({0, 1}, {}, {single}, Opts(0.75));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->schema.num_gas(), 1);
  EXPECT_EQ(r->schema.ga(0).size(), 2);
  EXPECT_TRUE(r->ga_from_constraint[0]);
  EXPECT_EQ(r->ga_qualities[0], sim);
}

TEST(ClusterMatcherTest, SourceConstraintUnsatisfiedReturnsInvalid) {
  // Source 2's attribute matches nothing: no GA touches it, so M is not
  // valid on C = {2} and Match reports quality 0 (Algorithm 1's NULL).
  Universe u = MakeUniverse({{"title"}, {"title"}, {"zzz unique"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 1, 2}, {2}, {}, Opts(0.75));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->valid);
  EXPECT_DOUBLE_EQ(r->matching_quality, 0.0);
  EXPECT_EQ(r->schema.num_gas(), 0);
}

TEST(ClusterMatcherTest, SourceConstraintSatisfiedWhenTouched) {
  Universe u = MakeUniverse({{"title"}, {"title"}, {"zzz unique"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 1, 2}, {0, 1}, {}, Opts(0.75));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->valid);
  EXPECT_EQ(r->schema.num_gas(), 1);
}

TEST(ClusterMatcherTest, BetaDropsSmallGas) {
  Universe u = MakeUniverse({{"title", "author"},
                             {"title", "author"},
                             {"title"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> beta2 = matcher.Match({0, 1, 2}, {}, {}, Opts(0.75, 2));
  Result<MatchResult> beta3 = matcher.Match({0, 1, 2}, {}, {}, Opts(0.75, 3));
  ASSERT_TRUE(beta2.ok());
  ASSERT_TRUE(beta3.ok());
  EXPECT_EQ(beta2->schema.num_gas(), 2);  // title x3, author x2
  EXPECT_EQ(beta3->schema.num_gas(), 1);  // only title x3 survives
  EXPECT_EQ(beta3->schema.ga(0).size(), 3);
}

TEST(ClusterMatcherTest, BetaExemptsUserGas) {
  Universe u = MakeUniverse({{"title"}, {"author"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  GlobalAttribute user_ga({AttributeId{0, 0}, AttributeId{1, 0}});
  Result<MatchResult> r = matcher.Match({0, 1}, {}, {user_ga}, Opts(0.75, 5));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema.num_gas(), 1);
}

TEST(ClusterMatcherTest, DeterministicAcrossCalls) {
  WorkloadConfig config;
  config.num_sources = 40;
  config.generate_data = false;
  GeneratedWorkload w = GenerateWorkload(config);
  SimilarityGraph g = SimilarityGraph::WithDefaults(w.universe, 0.25);
  ClusterMatcher matcher(w.universe, g);
  std::vector<SourceId> sources;
  for (SourceId s = 0; s < 40; s += 2) sources.push_back(s);
  Result<MatchResult> a = matcher.Match(sources, {}, {}, Opts(0.75));
  Result<MatchResult> b = matcher.Match(sources, {}, {}, Opts(0.75));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->schema.num_gas(), b->schema.num_gas());
  for (int i = 0; i < a->schema.num_gas(); ++i) {
    EXPECT_EQ(a->schema.ga(i), b->schema.ga(i));
  }
  EXPECT_DOUBLE_EQ(a->matching_quality, b->matching_quality);
}

// ------------------------- input validation ------------------------------

TEST(ClusterMatcherErrorTest, ThetaBelowFloorRejected) {
  Universe u = MakeUniverse({{"a"}, {"b"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.5);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 1}, {}, {}, Opts(0.3));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClusterMatcherErrorTest, NonFiniteThetaRejected) {
  Universe u = MakeUniverse({{"a"}, {"a"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  for (double theta : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
    Result<MatchResult> r = matcher.Match({0, 1}, {}, {}, Opts(theta));
    ASSERT_FALSE(r.ok()) << "θ = " << theta;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << "θ = " << theta;
  }
}

TEST(ClusterMatcherErrorTest, ConstraintOutsideS) {
  Universe u = MakeUniverse({{"a"}, {"b"}, {"c"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 1}, {2}, {}, Opts(0.75));
  EXPECT_FALSE(r.ok());
}

TEST(ClusterMatcherErrorTest, DuplicateSources) {
  Universe u = MakeUniverse({{"a"}, {"b"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 0, 1}, {}, {}, Opts(0.75));
  EXPECT_FALSE(r.ok());
}

TEST(ClusterMatcherErrorTest, IntersectingGaConstraints) {
  Universe u = MakeUniverse({{"a"}, {"b"}, {"c"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  GlobalAttribute g1({AttributeId{0, 0}, AttributeId{1, 0}});
  GlobalAttribute g2({AttributeId{0, 0}, AttributeId{2, 0}});
  Result<MatchResult> r = matcher.Match({0, 1, 2}, {}, {g1, g2}, Opts(0.75));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClusterMatcherErrorTest, GaConstraintReferencesSourceOutsideS) {
  Universe u = MakeUniverse({{"a"}, {"b"}, {"c"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  GlobalAttribute ga({AttributeId{0, 0}, AttributeId{2, 0}});
  Result<MatchResult> r = matcher.Match({0, 1}, {}, {ga}, Opts(0.75));
  EXPECT_FALSE(r.ok());
}

TEST(ClusterMatcherErrorTest, GaConstraintBadAttribute) {
  Universe u = MakeUniverse({{"a"}, {"b"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  GlobalAttribute ga({AttributeId{0, 5}, AttributeId{1, 0}});
  Result<MatchResult> r = matcher.Match({0, 1}, {}, {ga}, Opts(0.75));
  EXPECT_FALSE(r.ok());
}

// ---------------------- randomized invariants ----------------------------

class MatcherPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherPropertyTest, OutputAlwaysValid) {
  WorkloadConfig config;
  config.num_sources = 30;
  config.seed = static_cast<uint64_t>(GetParam());
  config.generate_data = false;
  GeneratedWorkload w = GenerateWorkload(config);
  SimilarityGraph g = SimilarityGraph::WithDefaults(w.universe, 0.25);
  ClusterMatcher matcher(w.universe, g);

  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  for (double theta : {0.5, 0.75, 0.9}) {
    std::vector<SourceId> sources;
    for (SourceId s = 0; s < 30; ++s) {
      if (rng.Bernoulli(0.4)) sources.push_back(s);
    }
    if (sources.empty()) sources.push_back(0);
    Result<MatchResult> r = matcher.Match(sources, {}, {}, Opts(theta));
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->valid);  // no source constraints -> always valid
    EXPECT_TRUE(r->schema.GasAreDisjointAndValid());
    ASSERT_EQ(r->ga_qualities.size(),
              static_cast<size_t>(r->schema.num_gas()));
    for (int i = 0; i < r->schema.num_gas(); ++i) {
      const GlobalAttribute& ga = r->schema.ga(i);
      EXPECT_GE(ga.size(), 2);
      EXPECT_TRUE(ga.IsValid());
      // θ lower bound holds for every generated (non-constraint) GA.
      EXPECT_GE(r->ga_qualities[i], theta - 1e-9);
      // All attributes belong to sources in S.
      for (const AttributeId& id : ga.attributes()) {
        EXPECT_TRUE(std::find(sources.begin(), sources.end(), id.source) !=
                    sources.end());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherPropertyTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace ube
