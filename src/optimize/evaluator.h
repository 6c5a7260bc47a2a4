#ifndef UBE_OPTIMIZE_EVALUATOR_H_
#define UBE_OPTIMIZE_EVALUATOR_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "matching/cluster_matcher.h"
#include "optimize/problem.h"
#include "qef/quality_model.h"
#include "source/universe.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace ube {

namespace obs {
class ObsContext;
}  // namespace obs

class DeltaEvaluator;

/// The memo table behind every CandidateEvaluator: a bounded quality cache
/// keyed by (spec fingerprint, candidate). Each evaluator owns a private
/// one; the multi-tenant SessionServer attaches one shared instance to all
/// its sessions' evaluators, which makes it the cross-session warm cache.
/// The fingerprint digests everything a quality value depends on (θ/β,
/// constraints, effective weights, degradation policy, model shape,
/// universe version), so two sessions with equal specs share hits while a
/// session with different weights can never be served another's values.
/// Entries live in slot SplitMix64(fingerprint ^ key); every hit
/// re-verifies both the stored fingerprint and the stored candidate, so a
/// slot collision recomputes instead of poisoning a tenant.
///
/// Thread safety: Lookup/Insert are internally synchronized (16
/// mutex-striped shards picked by the slot's top bits) and safe from any
/// number of concurrent sessions. Clear() is safe too but racing solvers
/// may re-insert immediately.
class SharedQualityCache {
 public:
  explicit SharedQualityCache(size_t max_entries_per_shard = 1u << 14);

  /// True and fills *quality when `candidate` is cached under
  /// (fingerprint, key) and the stored entry verifies. A slot holding
  /// another fingerprint or candidate is a reject: false, and *rejected
  /// (when given) is set.
  bool Lookup(uint64_t fingerprint, uint64_t key,
              const std::vector<SourceId>& candidate, double* quality,
              bool* rejected = nullptr) const;
  /// Inserts (bounded: a full shard is cleared first; last writer wins).
  /// Returns true when the insert evicted a full shard.
  bool Insert(uint64_t fingerprint, uint64_t key,
              const std::vector<SourceId>& candidate, double quality);
  void Clear();

  /// Cumulative counters (relaxed atomics; totals only settle once
  /// concurrent sessions quiesce).
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    /// Hits rejected by verification: same slot, different fingerprint or
    /// candidate (the would-be cross-session poisonings).
    int64_t rejects = 0;
    int64_t evictions = 0;  ///< full-shard clears
  };
  Stats stats() const;
  size_t size() const;

 private:
  struct Entry {
    uint64_t fingerprint = 0;
    std::vector<SourceId> candidate;
    double quality = 0.0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Entry> map;
  };

  Shard& ShardFor(uint64_t slot) const {
    return shards_[slot >> (64 - kShardBits)];
  }

  static constexpr int kShardBits = 4;
  static constexpr size_t kNumShards = 1u << kShardBits;
  mutable Shard shards_[kNumShards];
  size_t max_entries_per_shard_;
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  mutable std::atomic<int64_t> insertions_{0};
  mutable std::atomic<int64_t> rejects_{0};
  mutable std::atomic<int64_t> evictions_{0};
};

/// Scores candidate source sets for one optimization problem: runs
/// Match(S, C, G) when the model needs it, builds the QEF context and
/// returns Q(S). Infeasible candidates (Match invalid on C) score 0.
///
/// Because tabu search revisits neighbourhoods, Quality() memoizes Q(S) in
/// a SharedQualityCache: the evaluator's own by default, or one attached
/// with AttachSharedCache. Entries store the full candidate next to the
/// value and verify it on every hit — a 64-bit hash collision therefore
/// recomputes instead of silently returning the wrong quality. A shard that
/// reaches its bound evicts only itself (per-shard clear), never the whole
/// cache. Full Evaluate() (with schema and breakdown) always computes.
///
/// Thread safety: Quality(), QualityBatch(), Evaluate() and the counters
/// are safe to call concurrently (the referenced Universe/ClusterMatcher/
/// QualityModel must not be mutated during a search — the constructor
/// primes the universe's lazily built union signature for that reason).
/// ResetCounters()/ClearCache()/BeginRun() are not synchronized against
/// concurrent evaluation; call them between searches.
///
/// QualityBatch() scores a whole sampled neighborhood at once, optionally
/// on a ThreadPool. Results AND counter totals are bit-identical whether
/// the batch runs inline, on one worker, or on many: cache probing and
/// intra-batch deduplication happen sequentially up front, only the cache
/// misses (each a pure function of its candidate) are computed in
/// parallel, and insertion happens sequentially afterwards. The solvers'
/// scoring path (DeltaEvaluator) memoizes through the same routine.
class CandidateEvaluator {
 public:
  /// All referees must outlive the evaluator. Call ValidateSpec (and
  /// ValidateOverlay when the spec carries a weight overlay) first; the
  /// constructor UBE_CHECKs the same conditions. `cache_epoch` is folded
  /// into the spec fingerprint — pass a universe version counter so a
  /// shared cache can never serve values computed before a churn event
  /// (equal specs over different universe states get distinct
  /// fingerprints).
  CandidateEvaluator(const Universe& universe, const ClusterMatcher& matcher,
                     const QualityModel& model, const ProblemSpec& spec,
                     uint64_t cache_epoch = 0);

  /// Checks a spec against a universe: ids in range, GA constraints valid
  /// and disjoint, θ/β sane, and |required| <= m.
  static Status ValidateSpec(const Universe& universe,
                             const ProblemSpec& spec);

  /// Checks ProblemSpec::weight_overlay against `model`: empty (inherit the
  /// model's weights) or a full valid weight vector.
  static Status ValidateOverlay(const QualityModel& model,
                                const ProblemSpec& spec);

  struct Evaluation {
    double quality = 0.0;
    QualityBreakdown breakdown;
    MatchResult match;
  };

  /// Fully evaluates a candidate (must be sorted, unique, contain all
  /// required sources, and have size in [1, m]; violations are programmer
  /// errors).
  Evaluation Evaluate(const std::vector<SourceId>& candidate) const;

  /// Q(S) only, memoized.
  double Quality(const std::vector<SourceId>& candidate) const;

  /// Q(S) for every candidate in `candidates` (same preconditions as
  /// Quality), returned in input order. Cache misses are evaluated on
  /// `pool` when given, inline otherwise; duplicates within the batch are
  /// computed once and counted as cache hits, exactly as the equivalent
  /// sequence of Quality() calls would count them.
  std::vector<double> QualityBatch(
      std::span<const std::vector<SourceId>> candidates,
      ThreadPool* pool = nullptr) const;

  /// C ∪ {sources referenced by G}, sorted unique — the sources every
  /// feasible candidate must contain (the "permanently tabu" region).
  const std::vector<SourceId>& required_sources() const { return required_; }

  /// Sources no feasible candidate may contain, sorted unique.
  const std::vector<SourceId>& banned_sources() const { return banned_; }

  /// True iff `s` is banned.
  bool IsBanned(SourceId s) const {
    return std::binary_search(banned_.begin(), banned_.end(), s);
  }

  const ProblemSpec& spec() const { return spec_; }
  const Universe& universe() const { return universe_; }
  const QualityModel& model() const { return model_; }

  /// The weights every evaluation here runs under: the spec's weight
  /// overlay when present, the model's weights otherwise. The delta path
  /// scores under these (not the model's) so full and delta scoring agree
  /// bitwise under an overlay.
  const std::vector<double>& effective_weights() const {
    return effective_weights_;
  }

  /// 64-bit digest of everything a quality value depends on (spec, weights,
  /// degradation policy, model shape, cache epoch). Mixed into every cache
  /// key and stored next to shared-cache entries, so a warm cache from one
  /// spec can never answer for another.
  uint64_t spec_fingerprint() const { return spec_fingerprint_; }

  int64_t num_evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }
  int64_t num_cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  void ResetCounters() const;

  /// Drops every quality memoized in the evaluator's own cache (never an
  /// attached one). Solvers call this (via BeginRun) so each run starts
  /// cache-cold and reported evaluation counts/times are comparable across
  /// solvers instead of crediting later runs with the earlier runs' warm
  /// cache.
  void ClearCache() const;

  /// ClearCache() + ResetCounters(): what every Solve() invokes first.
  /// An attached shared cache deliberately survives — staying warm across
  /// runs and sessions is its purpose; fingerprinted keys keep it safe.
  void BeginRun() const {
    ClearCache();
    ResetCounters();
  }

  /// Routes this evaluator's memoization through `cache` instead of its own
  /// cache (null detaches). Like AttachObs, not synchronized against
  /// concurrent evaluation — attach before the search starts. Hits/misses
  /// keep counting in this evaluator's counters, so budget stops behave
  /// identically; only which store answers them changes.
  void AttachSharedCache(SharedQualityCache* cache) const {
    shared_cache_ = cache;
  }

  /// Attaches an observability context (null detaches). Records counters
  /// eval.computed / eval.cache_hit / eval.collision_recompute /
  /// eval.shard_eviction (whichever cache answers), histograms
  /// eval.batch_size / eval.batch_latency_us, and an eval/batch span per
  /// QualityBatch. Like
  /// BeginRun, not synchronized against concurrent evaluation — attach
  /// before the search starts. Never changes any returned quality.
  void AttachObs(obs::ObsContext* obs) const;
  void DetachObs() const { AttachObs(nullptr); }

  /// Test hook: replaces the cache hash function (e.g. with a constant) to
  /// force collisions and exercise the verify-on-hit path.
  using HashFn = uint64_t (*)(const std::vector<SourceId>&);
  void SetHashFunctionForTesting(HashFn fn) { hash_fn_ = fn; }

 private:
  /// The solvers' scoring path (optimize/delta_evaluator.h) matches through
  /// MatchFor, memoizes through Memoized/MemoizedBatch and counts through
  /// CountComputed, so its budgets and metrics are this class's.
  friend class DeltaEvaluator;

  /// Match(S, C, G) under the spec's θ/β when the model needs matching; a
  /// valid empty result otherwise.
  MatchResult MatchFor(const std::vector<SourceId>& candidate) const;

  static uint64_t HashCandidate(const std::vector<SourceId>& candidate);

  /// Cache key of one candidate: the candidate hash mixed with the spec
  /// fingerprint, so keys from different specs never alias even when the
  /// candidate sets are identical (the cross-spec poisoning fix).
  uint64_t CacheKey(const std::vector<SourceId>& candidate) const;

  /// The cache every lookup and insert goes to: the attached one, else the
  /// evaluator's own.
  SharedQualityCache& cache() const {
    return shared_cache_ != nullptr ? *shared_cache_ : own_cache_;
  }
  /// cache().Lookup plus the eval.collision_recompute metric on a reject;
  /// does not touch the hit counters.
  bool CacheLookup(uint64_t key, const std::vector<SourceId>& candidate,
                   double* quality) const;
  /// cache().Insert plus the eval.shard_eviction metric on an eviction.
  void CacheInsert(uint64_t key, const std::vector<SourceId>& candidate,
                   double quality) const;

  /// Counts one computed evaluation (num_evaluations and eval.computed).
  void CountComputed() const;

  /// The memoization of Quality(): a hit returns the cached value, a miss
  /// returns compute() and publishes it.
  double Memoized(const std::vector<SourceId>& candidate,
                  const std::function<double()>& compute) const;

  /// The memoization of QualityBatch(). Phase 1 (sequential) probes the
  /// cache and deduplicates the misses; phase 2 computes each unique miss
  /// as compute(i), i indexing `candidates`, on `pool` when given; phase 3
  /// (sequential) publishes them. Records the eval/batch span and the
  /// batch histograms.
  std::vector<double> MemoizedBatch(
      std::span<const std::vector<SourceId>> candidates, ThreadPool* pool,
      const std::function<double(size_t)>& compute) const;

  const Universe& universe_;
  const ClusterMatcher& matcher_;
  const QualityModel& model_;
  const ProblemSpec& spec_;
  std::vector<SourceId> required_;
  std::vector<SourceId> banned_;
  std::vector<double> effective_weights_;
  /// QualityModel::NeedsMatching(), decided once at construction.
  bool needs_matching_;
  uint64_t spec_fingerprint_ = 0;
  mutable SharedQualityCache* shared_cache_ = nullptr;
  mutable SharedQualityCache own_cache_;
  HashFn hash_fn_ = &CandidateEvaluator::HashCandidate;
  mutable std::atomic<int64_t> evaluations_{0};
  mutable std::atomic<int64_t> cache_hits_{0};

  /// Pre-registered metric ids so hot paths never do name lookups; all -1
  /// (= MetricsRegistry::kInvalidMetric) when no context is attached.
  struct ObsHooks {
    obs::ObsContext* ctx = nullptr;
    int32_t computed = -1;
    int32_t cache_hit = -1;
    int32_t collision_recompute = -1;
    int32_t shard_eviction = -1;
    int32_t batch_size = -1;
    int32_t batch_latency_us = -1;
  };
  mutable ObsHooks obs_;
};

}  // namespace ube

#endif  // UBE_OPTIMIZE_EVALUATOR_H_
