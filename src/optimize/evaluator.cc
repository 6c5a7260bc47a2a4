#include "optimize/evaluator.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>

#include "obs/obs.h"
#include "util/check.h"
#include "util/rng.h"

namespace ube {

namespace {

std::vector<SourceId> SortedUnique(std::vector<SourceId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<SourceId> ComputeRequired(const ProblemSpec& spec) {
  std::vector<SourceId> required = spec.source_constraints;
  for (const GlobalAttribute& g : spec.ga_constraints) {
    for (const AttributeId& id : g.attributes()) required.push_back(id.source);
  }
  std::sort(required.begin(), required.end());
  required.erase(std::unique(required.begin(), required.end()),
                 required.end());
  return required;
}

/// Digests everything a quality value depends on into 64 bits: the spec's
/// matching knobs and constraints, the effective weights (bit patterns, so
/// an overlay differing in the last ulp still separates), the degradation
/// policy, the model's QEF lineup, the universe extent and the caller's
/// cache epoch. Two evaluators agreeing on all of these return identical
/// qualities for any candidate — the invariant that makes sharing a cache
/// across sessions safe.
uint64_t ComputeSpecFingerprint(const Universe& universe,
                                const QualityModel& model,
                                const ProblemSpec& spec,
                                const std::vector<double>& weights,
                                const std::vector<SourceId>& banned,
                                uint64_t cache_epoch) {
  uint64_t h = SplitMix64(0x5bec0ffee5ULL ^ cache_epoch);
  auto mix = [&h](uint64_t v) { h = SplitMix64(h ^ v); };
  auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  auto mix_id = [&mix](SourceId s) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(s)));
  };

  mix(static_cast<uint64_t>(universe.num_sources()));
  mix(static_cast<uint64_t>(spec.max_sources));
  mix_double(spec.theta);
  mix(static_cast<uint64_t>(spec.beta));
  mix(spec.source_constraints.size());
  for (SourceId s : spec.source_constraints) mix_id(s);
  // Bans via the sorted-unique view: ban order cannot change any quality,
  // so sessions differing only in ban order still share cache hits.
  mix(banned.size());
  for (SourceId s : banned) mix_id(s);
  mix(spec.ga_constraints.size());
  for (const GlobalAttribute& g : spec.ga_constraints) {
    mix(static_cast<uint64_t>(g.attributes().size()));
    for (const AttributeId& id : g.attributes()) {
      mix_id(id.source);
      mix(static_cast<uint64_t>(static_cast<uint32_t>(id.attr_index)));
    }
  }
  mix(weights.size());
  for (double w : weights) mix_double(w);
  mix(static_cast<uint64_t>(model.degradation().policy));
  mix_double(model.degradation().stale_discount);
  mix(static_cast<uint64_t>(model.num_qefs()));
  for (int i = 0; i < model.num_qefs(); ++i) {
    std::string_view name = model.qef(i).name();
    mix(name.size());
    for (char c : name) mix(static_cast<uint64_t>(static_cast<uint8_t>(c)));
  }
  return h;
}

}  // namespace

SharedQualityCache::SharedQualityCache(size_t max_entries_per_shard)
    : max_entries_per_shard_(max_entries_per_shard) {}

bool SharedQualityCache::Lookup(uint64_t fingerprint, uint64_t key,
                                const std::vector<SourceId>& candidate,
                                double* quality, bool* rejected) const {
  const uint64_t slot = SplitMix64(fingerprint ^ key);
  Shard& shard = ShardFor(slot);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(slot);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Verify fingerprint AND candidate: a slot collision between two specs
  // (or two candidates) must recompute, never cross-serve a tenant.
  if (it->second.fingerprint != fingerprint ||
      it->second.candidate != candidate) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    if (rejected != nullptr) *rejected = true;
    return false;
  }
  *quality = it->second.quality;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool SharedQualityCache::Insert(uint64_t fingerprint, uint64_t key,
                                const std::vector<SourceId>& candidate,
                                double quality) {
  const uint64_t slot = SplitMix64(fingerprint ^ key);
  Shard& shard = ShardFor(slot);
  std::lock_guard<std::mutex> lock(shard.mu);
  const bool evict = shard.map.size() >= max_entries_per_shard_;
  if (evict) {
    shard.map.clear();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.map[slot] = Entry{fingerprint, candidate, quality};
  insertions_.fetch_add(1, std::memory_order_relaxed);
  return evict;
}

void SharedQualityCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
  }
}

SharedQualityCache::Stats SharedQualityCache::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  out.rejects = rejects_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  return out;
}

size_t SharedQualityCache::size() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

CandidateEvaluator::CandidateEvaluator(const Universe& universe,
                                       const ClusterMatcher& matcher,
                                       const QualityModel& model,
                                       const ProblemSpec& spec,
                                       uint64_t cache_epoch)
    : universe_(universe),
      matcher_(matcher),
      model_(model),
      spec_(spec),
      required_(ComputeRequired(spec)),
      banned_(SortedUnique(spec.banned_sources)),
      effective_weights_(spec.weight_overlay.empty() ? model.weights()
                                                     : spec.weight_overlay),
      needs_matching_(model.NeedsMatching()) {
  Status status = ValidateSpec(universe, spec);
  UBE_CHECK(status.ok(), "invalid ProblemSpec: " + status.ToString());
  status = ValidateOverlay(model, spec);
  UBE_CHECK(status.ok(), "invalid weight overlay: " + status.ToString());
  spec_fingerprint_ = ComputeSpecFingerprint(universe, model, spec,
                                             effective_weights_, banned_,
                                             cache_epoch);
  // Force the universe's lazily built union signatures now, while we are
  // still single-threaded: MakeContext reads one of them (which, depends on
  // the degradation policy) on every evaluation and the lazy build mutates
  // Universe state.
  universe_.UnionSignature();
  universe_.FreshUnionSignature();
}

Status CandidateEvaluator::ValidateOverlay(const QualityModel& model,
                                           const ProblemSpec& spec) {
  if (spec.weight_overlay.empty()) return Status::Ok();
  return model.ValidateWeightVector(spec.weight_overlay);
}

Status CandidateEvaluator::ValidateSpec(const Universe& universe,
                                        const ProblemSpec& spec) {
  if (spec.max_sources < 1) {
    return Status::InvalidArgument("m (max_sources) must be >= 1");
  }
  // Negated so NaN (which fails every comparison) is rejected too.
  if (!(spec.theta >= 0.0 && spec.theta <= 1.0)) {
    return Status::InvalidArgument("θ must be in [0, 1]");
  }
  if (spec.beta < 1) {
    return Status::InvalidArgument("β must be >= 1");
  }
  for (SourceId s : spec.source_constraints) {
    if (s < 0 || s >= universe.num_sources()) {
      return Status::InvalidArgument("source constraint out of range");
    }
  }
  for (SourceId s : spec.banned_sources) {
    if (s < 0 || s >= universe.num_sources()) {
      return Status::InvalidArgument("banned source out of range");
    }
  }
  for (size_t i = 0; i < spec.ga_constraints.size(); ++i) {
    const GlobalAttribute& g = spec.ga_constraints[i];
    if (!g.IsValid()) {
      return Status::InvalidArgument("GA constraint is not a valid GA");
    }
    for (const AttributeId& id : g.attributes()) {
      if (id.source < 0 || id.source >= universe.num_sources()) {
        return Status::InvalidArgument("GA constraint source out of range");
      }
      if (id.attr_index < 0 ||
          id.attr_index >=
              universe.source(id.source).schema().num_attributes()) {
        return Status::InvalidArgument(
            "GA constraint references a nonexistent attribute");
      }
    }
    for (size_t j = i + 1; j < spec.ga_constraints.size(); ++j) {
      if (g.Intersects(spec.ga_constraints[j])) {
        return Status::InvalidArgument("GA constraints must be disjoint");
      }
    }
  }
  std::vector<SourceId> required = ComputeRequired(spec);
  if (static_cast<int>(required.size()) > spec.max_sources) {
    return Status::Infeasible(
        "constraints force more sources than m allows");
  }
  for (SourceId banned : spec.banned_sources) {
    if (std::binary_search(required.begin(), required.end(), banned)) {
      return Status::Infeasible(
          "a source is both required (constraint) and banned");
    }
  }
  if (universe.num_sources() > 0 &&
      static_cast<int>(spec.banned_sources.size()) >=
          universe.num_sources()) {
    // Possible only when every source is banned (ids are validated above).
    std::vector<SourceId> banned = spec.banned_sources;
    std::sort(banned.begin(), banned.end());
    banned.erase(std::unique(banned.begin(), banned.end()), banned.end());
    if (static_cast<int>(banned.size()) == universe.num_sources()) {
      return Status::Infeasible("every source in the universe is banned");
    }
  }
  return Status::Ok();
}

CandidateEvaluator::Evaluation CandidateEvaluator::Evaluate(
    const std::vector<SourceId>& candidate) const {
  UBE_DCHECK(std::is_sorted(candidate.begin(), candidate.end()),
             "candidate must be sorted");
  UBE_DCHECK(!candidate.empty() &&
                 static_cast<int>(candidate.size()) <= spec_.max_sources,
             "candidate size out of [1, m]");
  UBE_DCHECK(std::includes(candidate.begin(), candidate.end(),
                           required_.begin(), required_.end()),
             "candidate must contain all required sources");
#ifndef NDEBUG
  for (SourceId s : candidate) {
    UBE_DCHECK(!IsBanned(s), "candidate contains a banned source");
  }
#endif

  CountComputed();
  Evaluation out;
  out.match = MatchFor(candidate);
  EvalContext ctx = model_.MakeContext(universe_, candidate, &out.match);
  out.breakdown = model_.Evaluate(ctx, effective_weights_);
  out.quality = out.breakdown.overall;
  return out;
}

MatchResult CandidateEvaluator::MatchFor(
    const std::vector<SourceId>& candidate) const {
  if (!needs_matching_) {
    MatchResult none;
    none.valid = true;  // no matching QEF: feasibility is structural
    return none;
  }
  MatchOptions options;
  options.theta = spec_.theta;
  options.beta = spec_.beta;
  Result<MatchResult> match = matcher_.Match(
      candidate, spec_.source_constraints, spec_.ga_constraints, options);
  UBE_CHECK(match.ok(), "Match failed: " + match.status().ToString());
  return std::move(match).value();
}

uint64_t CandidateEvaluator::CacheKey(
    const std::vector<SourceId>& candidate) const {
  return SplitMix64(spec_fingerprint_ ^ hash_fn_(candidate));
}

void CandidateEvaluator::CountComputed() const {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  if (obs_.ctx != nullptr) obs_.ctx->metrics().Add(obs_.computed);
}

bool CandidateEvaluator::CacheLookup(uint64_t key,
                                     const std::vector<SourceId>& candidate,
                                     double* quality) const {
  bool rejected = false;
  if (cache().Lookup(spec_fingerprint_, key, candidate, quality, &rejected)) {
    return true;
  }
  if (rejected && obs_.ctx != nullptr) {
    obs_.ctx->metrics().Add(obs_.collision_recompute);
  }
  return false;
}

void CandidateEvaluator::CacheInsert(uint64_t key,
                                     const std::vector<SourceId>& candidate,
                                     double quality) const {
  if (cache().Insert(spec_fingerprint_, key, candidate, quality) &&
      obs_.ctx != nullptr) {
    obs_.ctx->metrics().Add(obs_.shard_eviction);
  }
}

double CandidateEvaluator::Quality(
    const std::vector<SourceId>& candidate) const {
  return Memoized(candidate, [&] { return Evaluate(candidate).quality; });
}

std::vector<double> CandidateEvaluator::QualityBatch(
    std::span<const std::vector<SourceId>> candidates,
    ThreadPool* pool) const {
  return MemoizedBatch(candidates, pool, [&](size_t i) {
    return Evaluate(candidates[i]).quality;
  });
}

double CandidateEvaluator::Memoized(
    const std::vector<SourceId>& candidate,
    const std::function<double()>& compute) const {
  const uint64_t key = CacheKey(candidate);
  double quality = 0.0;
  if (CacheLookup(key, candidate, &quality)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    if (obs_.ctx != nullptr) obs_.ctx->metrics().Add(obs_.cache_hit);
    return quality;
  }
  quality = compute();
  CacheInsert(key, candidate, quality);
  return quality;
}

std::vector<double> CandidateEvaluator::MemoizedBatch(
    std::span<const std::vector<SourceId>> candidates, ThreadPool* pool,
    const std::function<double(size_t)>& compute) const {
  const size_t n = candidates.size();
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;

  obs::Tracer::Span span = obs::SpanIf(obs_.ctx, "eval/batch");
  std::chrono::steady_clock::time_point batch_start;
  if (obs_.ctx != nullptr) {
    obs_.ctx->metrics().Observe(obs_.batch_size, static_cast<int64_t>(n));
    batch_start = std::chrono::steady_clock::now();
  }

  // Phase 1 (sequential): probe the cache and deduplicate the misses, so a
  // candidate appearing twice in one batch is computed once and the second
  // occurrence counts as a cache hit — exactly what a sequence of Quality()
  // calls would do. kResolved marks entries already answered from cache.
  constexpr ptrdiff_t kResolved = -1;
  std::vector<ptrdiff_t> miss_of(n, kResolved);  // index into `misses`
  std::vector<size_t> misses;                    // first occurrence indices
  std::vector<uint64_t> miss_keys;
  std::unordered_map<uint64_t, std::vector<size_t>> pending;  // key → misses
  int64_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    const std::vector<SourceId>& candidate = candidates[i];
    uint64_t key = CacheKey(candidate);
    if (CacheLookup(key, candidate, &out[i])) {
      ++hits;
      continue;
    }
    std::vector<size_t>& bucket = pending[key];
    bool duplicate = false;
    for (size_t pos : bucket) {
      if (candidates[misses[pos]] == candidate) {
        miss_of[i] = static_cast<ptrdiff_t>(pos);
        ++hits;
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    miss_of[i] = static_cast<ptrdiff_t>(misses.size());
    bucket.push_back(misses.size());
    misses.push_back(i);
    miss_keys.push_back(key);
  }

  // Phase 2: compute the unique misses — each a pure function of its
  // index, so index order (and thread count) cannot change any value.
  std::vector<double> computed(misses.size(), 0.0);
  if (pool != nullptr && misses.size() > 1) {
    pool->ParallelFor(misses.size(),
                      [&](size_t j) { computed[j] = compute(misses[j]); });
  } else {
    for (size_t j = 0; j < misses.size(); ++j) {
      computed[j] = compute(misses[j]);
    }
  }

  // Phase 3 (sequential): publish to the cache and scatter the results.
  for (size_t j = 0; j < misses.size(); ++j) {
    CacheInsert(miss_keys[j], candidates[misses[j]], computed[j]);
  }
  for (size_t i = 0; i < n; ++i) {
    if (miss_of[i] != kResolved) {
      out[i] = computed[static_cast<size_t>(miss_of[i])];
    }
  }
  cache_hits_.fetch_add(hits, std::memory_order_relaxed);
  if (obs_.ctx != nullptr) {
    if (hits > 0) obs_.ctx->metrics().Add(obs_.cache_hit, hits);
    auto elapsed = std::chrono::steady_clock::now() - batch_start;
    obs_.ctx->metrics().Observe(
        obs_.batch_latency_us,
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count());
  }
  return out;
}

void CandidateEvaluator::AttachObs(obs::ObsContext* obs) const {
  obs_ = ObsHooks{};
  obs_.ctx = obs;
  if (obs == nullptr) return;
  obs::MetricsRegistry& m = obs->metrics();
  obs_.computed = m.Counter("eval.computed");
  obs_.cache_hit = m.Counter("eval.cache_hit");
  obs_.collision_recompute = m.Counter("eval.collision_recompute");
  obs_.shard_eviction = m.Counter("eval.shard_eviction");
  obs_.batch_size =
      m.Histogram("eval.batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                                      1024, 4096});
  // Wall-clock valued: the one metric family excluded from the
  // equal-totals-across-thread-counts guarantee.
  obs_.batch_latency_us =
      m.Histogram("eval.batch_latency_us",
                  {100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
                   100000, 250000, 1000000});
}

void CandidateEvaluator::ResetCounters() const {
  evaluations_.store(0, std::memory_order_relaxed);
  cache_hits_.store(0, std::memory_order_relaxed);
}

void CandidateEvaluator::ClearCache() const { own_cache_.Clear(); }

uint64_t CandidateEvaluator::HashCandidate(
    const std::vector<SourceId>& candidate) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (SourceId s : candidate) {
    h = SplitMix64(h ^ static_cast<uint64_t>(static_cast<uint32_t>(s)));
  }
  return h;
}

}  // namespace ube
