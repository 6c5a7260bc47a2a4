#include "matching/cluster_matcher.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace ube {

namespace {

// Working representation of one cluster during Algorithm 1. Its attributes
// form a chain through LocalAttr::next, so a merge splices two chains in
// O(1) and no cluster owns heap memory.
struct Cluster {
  int head = -1;                 // first local attribute of the chain
  int tail = -1;                 // last local attribute of the chain
  int size = 0;                  // number of attributes
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

// One attribute of S, addressed by its S-local index: attributes are laid
// out source by source in ascending source id, then by attribute index.
struct LocalAttr {
  int dense;       // universe-wide dense index in the similarity graph
  int source_pos;  // position of the attribute's source in sorted S
  int cluster;     // owning cluster, or -1 once discarded
  int next;        // next attribute of the owning cluster's chain, or -1
};

// The dense-index range of one source of S and the local index of its
// first attribute.
struct SourceBlock {
  int dense_begin = 0;
  int dense_end = 0;
  int first_local = 0;
};

// An in-S graph edge at similarity >= θ, between S-local attributes. Its
// similarity is stored as a level: the rank of the value among the call's
// distinct edge similarities, highest first.
struct LocalEdge {
  int a;
  int b;
  int level;
};

// A candidate cluster pair; `level` as in LocalEdge.
struct PairCandidate {
  int level;
  int c1;  // c1 < c2
  int c2;
};

// Stable counting sort of `items` by key(item) in [0, num_keys), through
// the reusable buffers `scratch` and `counts`.
template <typename Key>
void CountingSort(std::vector<PairCandidate>& items,
                  std::vector<PairCandidate>& scratch, std::vector<int>& counts,
                  size_t num_keys, Key key) {
  counts.assign(num_keys + 1, 0);
  for (const PairCandidate& x : items) ++counts[key(x) + 1];
  for (size_t k = 1; k < num_keys; ++k) counts[k] += counts[k - 1];
  scratch.resize(items.size());
  for (const PairCandidate& x : items) scratch[counts[key(x)]++] = x;
  items.swap(scratch);
}

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
  // The sorted copy of S answers every membership question below.
  std::vector<SourceId> in_s = sources;
  std::sort(in_s.begin(), in_s.end());
  if (!in_s.empty() &&
      (in_s.front() < 0 || in_s.back() >= universe_.num_sources() ||
       std::adjacent_find(in_s.begin(), in_s.end()) != in_s.end())) {
    // Report the first defect in input order.
    for (auto it = sources.begin(); it != sources.end(); ++it) {
      if (*it < 0 || *it >= universe_.num_sources()) {
        return Status::InvalidArgument("source id out of range");
      }
      if (std::find(sources.begin(), it, *it) != it) {
        return Status::InvalidArgument("duplicate source id in S");
      }
    }
  }
  auto contains = [&in_s](SourceId s) {
    return std::binary_search(in_s.begin(), in_s.end(), s);
  };
  for (SourceId c : source_constraints) {
    if (!contains(c)) {
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
      if (!contains(id.source)) {
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

  // --- S-local attribute index -----------------------------------------
  // A source's attributes hold consecutive dense indices and dense order
  // follows source order, so S is a sorted run of dense ranges: one block
  // per source of in_s (an attribute-less source's block is the empty
  // [0, 0), which the edge scan's cursor steps over).
  std::vector<SourceBlock> blocks(in_s.size());
  std::vector<LocalAttr> attrs;
  for (size_t p = 0; p < in_s.size(); ++p) {
    const int width = universe_.source(in_s[p]).schema().num_attributes();
    blocks[p].first_local = static_cast<int>(attrs.size());
    for (int a = 0; a < width; ++a) {
      const int dense = graph_.DenseIndex(AttributeId{in_s[p], a});
      if (a == 0) blocks[p].dense_begin = dense;
      attrs.push_back(LocalAttr{dense, static_cast<int>(p), -1, -1});
    }
    blocks[p].dense_end = blocks[p].dense_begin + width;
  }
  auto local_of = [&](const AttributeId& id) {
    const auto pos = std::lower_bound(in_s.begin(), in_s.end(), id.source);
    return blocks[static_cast<size_t>(pos - in_s.begin())].first_local +
           id.attr_index;
  };

  // The S-induced θ-edge list, built once per call. Each undirected edge is
  // taken from its lower endpoint's row. Rows are sorted by neighbor, so
  // the neighbors above u form a suffix, and one forward cursor over the
  // blocks tells, per neighbor, whether it is in S and at which local index.
  const float theta = static_cast<float>(options.theta);
  std::vector<LocalEdge> edges;
  std::vector<float> similarity;  // parallel to edges until levels are set
  for (size_t u = 0; u < attrs.size(); ++u) {
    const int dense = attrs[u].dense;
    const std::vector<SimilarityGraph::Edge>& row = graph_.EdgesOf(dense);
    auto e = std::partition_point(
        row.begin(), row.end(),
        [dense](const SimilarityGraph::Edge& x) { return x.neighbor <= dense; });
    size_t p = static_cast<size_t>(attrs[u].source_pos);
    for (; e != row.end(); ++e) {
      if (e->similarity < theta) continue;
      while (p < blocks.size() && blocks[p].dense_end <= e->neighbor) ++p;
      if (p == blocks.size()) break;                      // past S's last block
      if (e->neighbor < blocks[p].dense_begin) continue;  // between blocks
      edges.push_back(LocalEdge{
          static_cast<int>(u),
          blocks[p].first_local + (e->neighbor - blocks[p].dense_begin), 0});
      similarity.push_back(e->similarity);
    }
  }
  std::vector<float> levels = similarity;
  std::sort(levels.begin(), levels.end(), std::greater<float>());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  for (size_t i = 0; i < edges.size(); ++i) {
    edges[i].level = static_cast<int>(
        std::lower_bound(levels.begin(), levels.end(), similarity[i],
                         std::greater<float>()) -
        levels.begin());
  }

  // --- Initialization (Algorithm 1 lines 1-4) --------------------------
  // Cluster ids are creation order: GA constraints, then the remaining
  // attributes of S as singletons in (source, attribute) order, then each
  // merge. There are at most |attrs| initial clusters and fewer merges, so
  // the reserve keeps references into `clusters` valid.
  std::vector<Cluster> clusters;
  clusters.reserve(2 * attrs.size());
  auto append = [&](Cluster& c, int local) {
    if (c.head < 0) {
      c.head = local;
    } else {
      attrs[c.tail].next = local;
    }
    c.tail = local;
    ++c.size;
    attrs[local].cluster = static_cast<int>(clusters.size());
  };

  for (const GlobalAttribute& g : ga_constraints) {
    Cluster c;
    c.keep = true;
    for (const AttributeId& id : g.attributes()) append(c, local_of(id));
    // Quality of a user GA: max pairwise similarity (no threshold applies);
    // a single-attribute GA is perfectly coherent with itself.
    if (c.size == 1) {
      c.quality = 1.0;
    } else {
      double best = 0.0;
      for (int i = c.head; i >= 0; i = attrs[i].next) {
        for (int j = attrs[i].next; j >= 0; j = attrs[j].next) {
          best = std::max(
              best, graph_.PairSimilarity(attrs[i].dense, attrs[j].dense));
        }
      }
      c.quality = best;
    }
    clusters.push_back(c);
  }
  for (size_t local = 0; local < attrs.size(); ++local) {
    if (attrs[local].cluster != -1) continue;  // in G
    Cluster c;
    append(c, static_cast<int>(local));
    clusters.push_back(c);
  }

  // Merging yields a valid GA iff the clusters share no source; a stamp
  // per source of S answers that in O(|c1| + |c2|).
  std::vector<int> source_stamp(in_s.size(), 0);
  int stamp = 0;
  auto sources_disjoint = [&](const Cluster& c1, const Cluster& c2) {
    ++stamp;
    for (int i = c1.head; i >= 0; i = attrs[i].next) {
      source_stamp[attrs[i].source_pos] = stamp;
    }
    for (int i = c2.head; i >= 0; i = attrs[i].next) {
      if (source_stamp[attrs[i].source_pos] == stamp) return false;
    }
    return true;
  };

  // --- Merge rounds (Algorithm 1 lines 5-23) ---------------------------
  MatchResult result;
  std::vector<PairCandidate> pairs;
  std::vector<PairCandidate> scratch;
  std::vector<int> counts;
  bool done = false;
  while (!done) {
    done = true;
    ++result.rounds;
    for (Cluster& c : clusters) {
      c.round_merged = false;
      c.round_mergecand = false;
      c.newly_created = false;
    }

    // Line 8: all active-cluster pairs with similarity >= θ, max-linkage.
    // An edge inside one cluster, or touching a retired cluster or a
    // discarded singleton, stays that way for good, so it leaves the list.
    pairs.clear();
    size_t kept = 0;
    for (const LocalEdge& e : edges) {
      const int ca = attrs[e.a].cluster;
      const int cb = attrs[e.b].cluster;
      if (ca < 0 || cb < 0 || ca == cb || !clusters[ca].Active() ||
          !clusters[cb].Active()) {
        continue;
      }
      edges[kept++] = e;
      pairs.push_back(
          PairCandidate{e.level, std::min(ca, cb), std::max(ca, cb)});
    }
    edges.resize(kept);
    // Order by (c1, c2) and keep each pair's max-linkage entry (its lowest
    // level); then a stable pass by level leaves the pairs ordered by
    // similarity descending with ties broken by (c1, c2). The pairs are
    // unique, so that order is total.
    CountingSort(pairs, scratch, counts, clusters.size(),
                 [](const PairCandidate& x) { return x.c2; });
    CountingSort(pairs, scratch, counts, clusters.size(),
                 [](const PairCandidate& x) { return x.c1; });
    size_t unique = 0;
    for (const PairCandidate& x : pairs) {
      PairCandidate* last = unique > 0 ? &pairs[unique - 1] : nullptr;
      if (last != nullptr && last->c1 == x.c1 && last->c2 == x.c2) {
        last->level = std::min(last->level, x.level);
      } else {
        pairs[unique++] = x;
      }
    }
    pairs.resize(unique);
    CountingSort(pairs, scratch, counts, levels.size(),
                 [](const PairCandidate& x) { return x.level; });

    // Lines 9-19.
    for (const PairCandidate& cand : pairs) {
      Cluster& c1 = clusters[cand.c1];
      Cluster& c2 = clusters[cand.c2];
      const double sim = levels[cand.level];
      if (!c1.round_merged && !c2.round_merged) {
        if (!sources_disjoint(c1, c2)) continue;  // invalid GA
        // Merge c1 and c2 into a new cluster: c2's chain follows c1's.
        Cluster merged;
        merged.head = c1.head;
        attrs[c1.tail].next = c2.head;
        merged.tail = c2.tail;
        merged.size = c1.size + c2.size;
        merged.quality = std::max({c1.quality, c2.quality, sim});
        // A single-attribute user GA had quality 1.0 by convention; once it
        // actually merges, the real max-pairwise value takes over.
        if (c1.keep && c1.size == 1 && !c2.keep) {
          merged.quality = std::max(c2.quality, sim);
        } else if (c2.keep && c2.size == 1 && !c1.keep) {
          merged.quality = std::max(c1.quality, sim);
        } else if (c1.keep && c1.size == 1 && c2.keep && c2.size == 1) {
          merged.quality = sim;
        }
        merged.keep = c1.keep || c2.keep;
        merged.newly_created = true;
        const int merged_id = static_cast<int>(clusters.size());
        for (int a = merged.head; a >= 0; a = attrs[a].next) {
          attrs[a].cluster = merged_id;
        }
        c1.absorbed = true;
        c1.round_merged = true;
        c2.absorbed = true;
        c2.round_merged = true;
        clusters.push_back(merged);
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
    for (Cluster& c : clusters) {
      if (!c.Active()) continue;
      if (c.newly_created || c.round_mergecand || c.keep) continue;
      if (c.size >= 2) {
        c.retired = true;
      } else {
        c.discarded = true;
        attrs[c.head].cluster = -1;
      }
    }
  }

  // --- Output assembly --------------------------------------------------
  for (const Cluster& c : clusters) {
    if (!c.Live()) continue;
    if (!c.keep && c.size < options.beta) continue;
    if (!c.keep && c.size < 2) continue;  // never emit bare singletons
    std::vector<AttributeId> ids;
    ids.reserve(static_cast<size_t>(c.size));
    for (int a = c.head; a >= 0; a = attrs[a].next) {
      ids.push_back(graph_.AttrId(attrs[a].dense));
    }
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
