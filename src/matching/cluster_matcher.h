#ifndef UBE_MATCHING_CLUSTER_MATCHER_H_
#define UBE_MATCHING_CLUSTER_MATCHER_H_

#include <vector>

#include "matching/similarity_graph.h"
#include "schema/mediated_schema.h"
#include "source/universe.h"
#include "util/result.h"

namespace ube {

/// Parameters of the Match operator.
struct MatchOptions {
  /// Matching threshold θ: two clusters merge only if their (max-linkage)
  /// similarity reaches θ. Section 7.1 default.
  double theta = 0.75;
  /// β: minimum number of attributes in any output GA not stemming from a
  /// user GA constraint. Algorithm 1 only emits merged (size >= 2) clusters,
  /// so β = 2 is a no-op; larger values drop small GAs after clustering.
  int beta = 2;
};

/// Output of Match(S): the generated mediated schema and its quality.
struct MatchResult {
  /// True iff the schema is valid on the source constraints C. When false,
  /// matching_quality is 0 and `schema` is empty (Algorithm 1 returns NULL).
  bool valid = false;
  MediatedSchema schema;
  /// F1(S): average per-GA quality; 0 when invalid or when M is empty.
  double matching_quality = 0.0;
  /// Per-GA quality (max pairwise attribute similarity inside the GA;
  /// defined as 1 for single-attribute user GAs). Parallel to schema.gas().
  std::vector<double> ga_qualities;
  /// Whether the GA grew from (or is) a user GA constraint. Parallel to
  /// schema.gas(). Such GAs are exempt from the θ/β restrictions.
  std::vector<bool> ga_from_constraint;
  /// Number of merge rounds Algorithm 1 executed (diagnostics).
  int rounds = 0;
};

/// Order-sensitive structural hash over a MatchResult: validity, quality
/// float bits, rounds, every GA's attribute ids, per-GA quality bits and
/// constraint provenance. Equal fingerprints mean the results are
/// byte-identical for every consumer. Used by the drift property suite to
/// check that a matcher over an incrementally patched graph produces
/// exactly the output of one over a from-scratch rebuild.
uint64_t MatchResultFingerprint(const MatchResult& result);

/// The Match(S) schema-matching operator (Section 3, Algorithm 1): greedy
/// constrained similarity clustering of the attributes of a set of sources.
///
/// Clustering starts from the user GA constraints (each a pre-seeded
/// cluster that is never eliminated — the "Matching By Example" bridging
/// mechanism) plus one singleton cluster per remaining attribute, and
/// repeatedly merges the most similar admissible cluster pairs, where
/// cluster similarity is the *maximum* attribute-pair similarity between
/// the clusters and a merge is admissible only if the union is a valid GA
/// (at most one attribute per source). Clusters whose best similarity to
/// any other cluster is below θ are removed from consideration: singletons
/// are discarded, already-merged clusters are retired into the output (the
/// paper's "eliminate from M" is read as elimination from *consideration*;
/// see DESIGN.md §2).
class ClusterMatcher {
 public:
  /// Both the universe and the graph must outlive the matcher.
  ClusterMatcher(const Universe& universe, const SimilarityGraph& graph);

  /// Runs Match over `sources` with source constraints `source_constraints`
  /// (must be a subset of `sources`) and GA constraints `ga_constraints`.
  ///
  /// Returns a Status error for malformed input: θ outside [graph floor,
  /// 1] (NaN included), β < 1, duplicate/out-of-range sources, constraints
  /// not contained in `sources`, invalid or mutually intersecting GA
  /// constraints, or GA constraints referencing sources outside `sources`.
  /// An infeasible (but well-formed) matching — the result is not valid on
  /// the source constraints — returns a MatchResult with valid == false and
  /// quality 0, not an error.
  Result<MatchResult> Match(
      const std::vector<SourceId>& sources,
      const std::vector<SourceId>& source_constraints,
      const std::vector<GlobalAttribute>& ga_constraints,
      const MatchOptions& options = MatchOptions()) const;

  const SimilarityGraph& graph() const { return graph_; }

 private:
  const Universe& universe_;
  const SimilarityGraph& graph_;
};

}  // namespace ube

#endif  // UBE_MATCHING_CLUSTER_MATCHER_H_
