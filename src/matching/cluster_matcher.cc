#include "matching/cluster_matcher.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace ube {

namespace {

// Working representation of one cluster during Algorithm 1.
struct Cluster {
  std::vector<int> attrs;        // dense attribute indices
  std::vector<SourceId> sources; // sorted; one entry per attribute
  double quality = 0.0;          // max pairwise similarity so far
  bool keep = false;             // grew from (or is) a user GA constraint
  bool retired = false;          // finalized into the output, no more merges
  bool absorbed = false;         // merged into another cluster
  bool discarded = false;        // eliminated singleton
  // Per-round flags (Algorithm 1 lines 3, 7).
  bool round_merged = false;
  bool round_mergecand = false;
  bool newly_created = false;

  bool Live() const { return !absorbed && !discarded; }
  bool Active() const { return Live() && !retired; }
};

// True iff the two sorted source lists share no element (merging yields a
// valid GA).
bool SourcesDisjoint(const std::vector<SourceId>& a,
                     const std::vector<SourceId>& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      return false;
    }
  }
  return true;
}

struct PairCandidate {
  float similarity;
  int c1;  // c1 < c2
  int c2;
};

}  // namespace

uint64_t MatchResultFingerprint(const MatchResult& result) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) { h = SplitMix64(h ^ v); };
  mix(result.valid ? 1 : 0);
  mix(std::bit_cast<uint64_t>(result.matching_quality));
  mix(static_cast<uint64_t>(result.rounds));
  mix(static_cast<uint64_t>(result.schema.num_gas()));
  for (const GlobalAttribute& ga : result.schema.gas()) {
    mix(static_cast<uint64_t>(ga.attributes().size()));
    for (const AttributeId& id : ga.attributes()) {
      mix((static_cast<uint64_t>(static_cast<uint32_t>(id.source)) << 32) |
          static_cast<uint32_t>(id.attr_index));
    }
  }
  for (double q : result.ga_qualities) mix(std::bit_cast<uint64_t>(q));
  for (bool from_constraint : result.ga_from_constraint) {
    mix(from_constraint ? 1 : 0);
  }
  return h;
}

ClusterMatcher::ClusterMatcher(const Universe& universe,
                               const SimilarityGraph& graph)
    : universe_(universe), graph_(graph) {}

Result<MatchResult> ClusterMatcher::Match(
    const std::vector<SourceId>& sources,
    const std::vector<SourceId>& source_constraints,
    const std::vector<GlobalAttribute>& ga_constraints,
    const MatchOptions& options) const {
  // Negated so NaN (which fails every comparison) is rejected too.
  if (!(options.theta >= graph_.floor() && options.theta <= 1.0)) {
    return Status::InvalidArgument(
        "matching threshold θ must be in [similarity graph floor, 1]");
  }
  if (options.beta < 1) {
    return Status::InvalidArgument("β must be >= 1");
  }

  // --- Input validation -----------------------------------------------
  std::unordered_set<SourceId> in_s;
  for (SourceId s : sources) {
    if (s < 0 || s >= universe_.num_sources()) {
      return Status::InvalidArgument("source id out of range");
    }
    if (!in_s.insert(s).second) {
      return Status::InvalidArgument("duplicate source id in S");
    }
  }
  for (SourceId c : source_constraints) {
    if (!in_s.contains(c)) {
      return Status::InvalidArgument(
          "source constraint not contained in S (callers must ensure C ⊆ S)");
    }
  }
  for (size_t i = 0; i < ga_constraints.size(); ++i) {
    const GlobalAttribute& g = ga_constraints[i];
    if (!g.IsValid()) {
      return Status::InvalidArgument("GA constraint is not a valid GA");
    }
    for (const AttributeId& id : g.attributes()) {
      if (!in_s.contains(id.source)) {
        return Status::InvalidArgument(
            "GA constraint references a source outside S");
      }
      const SourceSchema& schema = universe_.source(id.source).schema();
      if (id.attr_index < 0 || id.attr_index >= schema.num_attributes()) {
        return Status::InvalidArgument(
            "GA constraint references a nonexistent attribute");
      }
    }
    for (size_t j = i + 1; j < ga_constraints.size(); ++j) {
      if (g.Intersects(ga_constraints[j])) {
        return Status::InvalidArgument("GA constraints must be disjoint");
      }
    }
  }

  // --- Initialization (Algorithm 1 lines 1-4) --------------------------
  std::vector<Cluster> clusters;
  // cluster_of[dense attr index] -> cluster index, or -1 if not in S.
  std::vector<int> cluster_of(static_cast<size_t>(graph_.num_attributes()),
                              -1);

  for (const GlobalAttribute& g : ga_constraints) {
    Cluster c;
    c.keep = true;
    for (const AttributeId& id : g.attributes()) {
      int dense = graph_.DenseIndex(id);
      c.attrs.push_back(dense);
      c.sources.push_back(id.source);
    }
    std::sort(c.sources.begin(), c.sources.end());
    // Quality of a user GA: max pairwise similarity (no threshold applies);
    // a single-attribute GA is perfectly coherent with itself.
    if (c.attrs.size() == 1) {
      c.quality = 1.0;
    } else {
      double best = 0.0;
      for (size_t i = 0; i < c.attrs.size(); ++i) {
        for (size_t j = i + 1; j < c.attrs.size(); ++j) {
          best = std::max(best,
                          graph_.PairSimilarity(c.attrs[i], c.attrs[j]));
        }
      }
      c.quality = best;
    }
    int idx = static_cast<int>(clusters.size());
    for (int dense : c.attrs) cluster_of[static_cast<size_t>(dense)] = idx;
    clusters.push_back(std::move(c));
  }

  // Remaining attributes of S as singleton clusters. Iterate sources in
  // sorted order for determinism.
  std::vector<SourceId> sorted_sources = sources;
  std::sort(sorted_sources.begin(), sorted_sources.end());
  for (SourceId s : sorted_sources) {
    const SourceSchema& schema = universe_.source(s).schema();
    for (int a = 0; a < schema.num_attributes(); ++a) {
      int dense = graph_.DenseIndex(AttributeId{s, a});
      if (cluster_of[static_cast<size_t>(dense)] != -1) continue;  // in G
      Cluster c;
      c.attrs.push_back(dense);
      c.sources.push_back(s);
      c.quality = 0.0;
      cluster_of[static_cast<size_t>(dense)] =
          static_cast<int>(clusters.size());
      clusters.push_back(std::move(c));
    }
  }

  // --- Merge rounds (Algorithm 1 lines 5-23) ---------------------------
  MatchResult result;
  const float theta = static_cast<float>(options.theta);
  bool done = false;
  while (!done) {
    done = true;
    ++result.rounds;
    const size_t round_start_size = clusters.size();
    for (Cluster& c : clusters) {
      c.round_merged = false;
      c.round_mergecand = false;
      c.newly_created = false;
    }

    // Line 8: all active-cluster pairs with similarity >= θ, max-linkage.
    std::unordered_map<uint64_t, float> pair_sim;
    for (size_t ci = 0; ci < round_start_size; ++ci) {
      if (!clusters[ci].Active()) continue;
      for (int u : clusters[ci].attrs) {
        for (const SimilarityGraph::Edge& e : graph_.EdgesOf(u)) {
          if (e.similarity < theta) continue;
          int cj = cluster_of[static_cast<size_t>(e.neighbor)];
          if (cj < 0 || static_cast<size_t>(cj) == ci) continue;
          if (!clusters[static_cast<size_t>(cj)].Active()) continue;
          uint64_t key =
              ci < static_cast<size_t>(cj)
                  ? (static_cast<uint64_t>(ci) << 32) | static_cast<uint32_t>(cj)
                  : (static_cast<uint64_t>(cj) << 32) | static_cast<uint32_t>(ci);
          auto [it, inserted] = pair_sim.try_emplace(key, e.similarity);
          if (!inserted && e.similarity > it->second) {
            it->second = e.similarity;
          }
        }
      }
    }

    std::vector<PairCandidate> heap;
    heap.reserve(pair_sim.size());
    for (const auto& [key, sim] : pair_sim) {
      heap.push_back(PairCandidate{sim, static_cast<int>(key >> 32),
                                   static_cast<int>(key & 0xffffffffu)});
    }
    // Highest similarity first; deterministic tie-break on cluster ids.
    std::sort(heap.begin(), heap.end(),
              [](const PairCandidate& a, const PairCandidate& b) {
                if (a.similarity != b.similarity) {
                  return a.similarity > b.similarity;
                }
                if (a.c1 != b.c1) return a.c1 < b.c1;
                return a.c2 < b.c2;
              });

    // Lines 9-19.
    for (const PairCandidate& cand : heap) {
      Cluster& c1 = clusters[static_cast<size_t>(cand.c1)];
      Cluster& c2 = clusters[static_cast<size_t>(cand.c2)];
      if (!c1.round_merged && !c2.round_merged) {
        if (!SourcesDisjoint(c1.sources, c2.sources)) continue;  // invalid GA
        // Merge c1 and c2 into a new cluster.
        Cluster merged;
        merged.attrs = c1.attrs;
        merged.attrs.insert(merged.attrs.end(), c2.attrs.begin(),
                            c2.attrs.end());
        merged.sources.resize(c1.sources.size() + c2.sources.size());
        std::merge(c1.sources.begin(), c1.sources.end(), c2.sources.begin(),
                   c2.sources.end(), merged.sources.begin());
        merged.quality =
            std::max({c1.quality, c2.quality,
                      static_cast<double>(cand.similarity)});
        // A single-attribute user GA had quality 1.0 by convention; once it
        // actually merges, the real max-pairwise value takes over.
        if (c1.keep && c1.attrs.size() == 1 && !c2.keep) {
          merged.quality = std::max(c2.quality,
                                    static_cast<double>(cand.similarity));
        } else if (c2.keep && c2.attrs.size() == 1 && !c1.keep) {
          merged.quality = std::max(c1.quality,
                                    static_cast<double>(cand.similarity));
        } else if (c1.keep && c1.attrs.size() == 1 && c2.keep &&
                   c2.attrs.size() == 1) {
          merged.quality = cand.similarity;
        }
        merged.keep = c1.keep || c2.keep;
        merged.newly_created = true;
        int new_idx = static_cast<int>(clusters.size());
        for (int a : merged.attrs) cluster_of[static_cast<size_t>(a)] = new_idx;
        c1.absorbed = true;
        c1.round_merged = true;
        c2.absorbed = true;
        c2.round_merged = true;
        clusters.push_back(std::move(merged));
        // Note: clusters may have reallocated; c1/c2 references are dead now.
      } else if (c1.round_merged != c2.round_merged) {
        // Exactly one was already merged this round: keep the other for the
        // next round (lines 15-19).
        Cluster& survivor = c1.round_merged ? c2 : c1;
        survivor.round_mergecand = true;
        done = false;
      } else {
        // Both already merged this round. The two *new* clusters may still
        // be mergeable at >= θ (max-linkage inherits this pair's edge), so
        // another round is needed — the paper's prose termination condition
        // is "when it cannot find any more pairs of clusters to merge".
        done = false;
      }
    }

    // Lines 20-22: eliminate clusters that found no partner this round.
    // Merged multi-attribute clusters are retired into the output;
    // singletons are discarded. keep clusters always survive.
    for (size_t ci = 0; ci < clusters.size(); ++ci) {
      Cluster& c = clusters[ci];
      if (!c.Active()) continue;
      if (c.newly_created || c.round_mergecand || c.keep) continue;
      if (c.attrs.size() >= 2) {
        c.retired = true;
      } else {
        c.discarded = true;
        for (int a : c.attrs) cluster_of[static_cast<size_t>(a)] = -1;
      }
    }
  }

  // --- Output assembly --------------------------------------------------
  for (const Cluster& c : clusters) {
    if (!c.Live()) continue;
    if (!c.keep && static_cast<int>(c.attrs.size()) < options.beta) continue;
    if (!c.keep && c.attrs.size() < 2) continue;  // never emit bare singletons
    std::vector<AttributeId> ids;
    ids.reserve(c.attrs.size());
    for (int dense : c.attrs) ids.push_back(graph_.AttrId(dense));
    result.schema.Add(GlobalAttribute(std::move(ids)));
    result.ga_qualities.push_back(c.quality);
    result.ga_from_constraint.push_back(c.keep);
  }

  // Line 24: M must be valid on the source constraints C.
  if (!result.schema.IsValidOn(source_constraints)) {
    MatchResult failed;
    failed.valid = false;
    failed.matching_quality = 0.0;
    failed.rounds = result.rounds;
    return failed;
  }

  result.valid = true;
  if (!result.ga_qualities.empty()) {
    double sum = 0.0;
    for (double q : result.ga_qualities) sum += q;
    result.matching_quality = sum / static_cast<double>(
                                        result.ga_qualities.size());
  } else {
    result.matching_quality = 0.0;
  }
  return result;
}

}  // namespace ube
