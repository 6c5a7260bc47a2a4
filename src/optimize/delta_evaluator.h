#ifndef UBE_OPTIMIZE_DELTA_EVALUATOR_H_
#define UBE_OPTIMIZE_DELTA_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "optimize/evaluator.h"
#include "optimize/search_state.h"
#include "qef/quality_model.h"
#include "util/thread_pool.h"

namespace ube {

/// Candidate scoring for the solvers' neighborhood loops and repair: the
/// one path every solver evaluates through, for every quality model.
///
/// The full path (CandidateEvaluator::Evaluate) rebuilds per-candidate state
/// from the universe on every call: it re-applies the degradation policy to
/// each member, clones and merges distinct signatures into a fresh union, and
/// lets QEFs like CharacteristicQef rescan the whole universe for their
/// min/max normalization. A single-flip neighbor shares almost all of that
/// work with its base candidate. DeltaEvaluator hoists everything that does
/// not depend on S to construction time — per-source policy weights and
/// cardinality contributions, the characteristic normalization tables, the
/// policy-adjusted universe denominators — and maintains running per-source
/// PCSA sketch unions for the current base candidate (prefix/suffix OR
/// arrays), so a flip's union is two word-wise ORs instead of |S| clones and
/// merges. Removal re-ORs from the per-source sketches (OR has no inverse);
/// a base change (commit or restart reset) rebases the arrays.
///
/// On that context, which equals QualityModel::MakeContext's field for
/// field (`match` included: Match(S) runs through the helper Evaluate uses,
/// and a model that never matches gets a valid empty result), each QEF is
/// scored by its QefDeltaScorer when it offers one and by its own
/// Qef::Evaluate otherwise; an invalid Match(S) scores 0, infeasible.
///
/// Bit-identity contract: every score is bit-identical to the full path for
/// the same candidate, for any thread count, because (a) integer aggregates
/// and sketch-word ORs are exact and order-free, (b) double sums are
/// re-accumulated per evaluation from precomputed per-source terms in
/// MakeContext's ascending-id order, and (c) the PCSA estimate comes from
/// the same function (PcsaSketch::EstimateFromBitmaps) on identical words.
/// tests/test_property_delta.cc enforces this per QEF and for Q(S).
///
/// Scoring memoizes through CandidateEvaluator's own routines and cache, so
/// num_evaluations / num_cache_hits / the eval.* metrics and eval budgets
/// behave exactly as under Quality/QualityBatch.
///
/// Threading: one instance per Solve call, driven from the solver's thread.
/// When the model runs Match(S), batch misses are computed on the given
/// pool (each a pure function of its candidate); matching-free misses cost
/// O(sketch words + |S|) and run inline, the pool unused.
class DeltaEvaluator {
 public:
  /// `evaluator` must outlive this object.
  explicit DeltaEvaluator(const CandidateEvaluator& evaluator);

  DeltaEvaluator(const DeltaEvaluator&) = delete;
  DeltaEvaluator& operator=(const DeltaEvaluator&) = delete;

  /// Q(S), memoized in the shared cache — the counterpart of
  /// CandidateEvaluator::Quality.
  double Quality(const std::vector<SourceId>& candidate);

  /// Scores arbitrary candidates (PSO positions, greedy extensions) in
  /// input order with QualityBatch's cache/dedup/counter semantics.
  std::vector<double> ScoreCandidates(
      std::span<const std::vector<SourceId>> candidates, ThreadPool* pool);

  /// Scores the single-move neighborhood of `base`: candidates[i] must be
  /// base with moves[i] applied. Rebases the running sketch unions when
  /// `base` differs from the previous call's base, then builds each flip's
  /// context in O(sketch words + |S|) instead of from scratch.
  std::vector<double> ScoreNeighborhood(
      const std::vector<SourceId>& base,
      std::span<const SearchState::Move> moves,
      std::span<const std::vector<SourceId>> candidates, ThreadPool* pool);

  /// Uncached computation of the full breakdown (per-QEF scores, Q(S) and
  /// feasibility). Counts as a computed evaluation, exactly like
  /// CandidateEvaluator::Evaluate; never reads or writes the cache — the
  /// probe the oracle tests compare with the full path's breakdown. `move`,
  /// when given, is the flip from the current neighborhood base that
  /// produced `candidate` and selects the incremental union. Safe to call
  /// concurrently once the base is set.
  QualityBreakdown Compute(const std::vector<SourceId>& candidate,
                           const SearchState::Move* move = nullptr) const;

 private:
  struct SourceEntry {
    int64_t cardinality = 0;
    /// Policy weight × cardinality — the term MakeContext adds to
    /// effective_cardinality (and, when admitted, cooperating_cardinality).
    double contribution = 0.0;
    /// Signature admitted by the policy and present on the source.
    bool admitted = false;
    bool degraded = false;
    const DistinctSignature* signature = nullptr;
    /// Raw sketch words when every admitted signature is a same-width
    /// PcsaSignature (the fast union path); null otherwise.
    const std::vector<uint32_t>* pcsa_words = nullptr;
  };

  /// CandidateEvaluator::MemoizedBatch with the delta compute; `moves`
  /// (parallel to `candidates`) selects the incremental union path, null
  /// computes unions from scratch. `pool` is used only when the model
  /// runs Match(S).
  std::vector<double> Batch(std::span<const std::vector<SourceId>> candidates,
                            const SearchState::Move* moves, ThreadPool* pool);

  /// Fills every EvalContext aggregate except union_estimate and match
  /// (exact int sums, plus double sums re-accumulated in candidate order).
  void FillScalars(const std::vector<SourceId>& candidate,
                   EvalContext* ctx) const;
  /// |∪S| over admitted members, from scratch (word ORs on the
  /// uniform-PCSA path, Clone+MergeFrom otherwise — both replicate
  /// MakeContext exactly).
  double UnionFromScratch(const std::vector<SourceId>& candidate) const;
  /// |∪ base±move| via the prefix/suffix OR arrays (uniform-PCSA only).
  double UnionForMove(const SearchState::Move& move) const;
  /// Rebuilds the admitted-member prefix/suffix unions for a new base.
  void Rebase(const std::vector<SourceId>& base);

  const CandidateEvaluator* evaluator_;

  /// Parallel to the model's QEFs; null entries score with Qef::Evaluate.
  std::vector<std::unique_ptr<QefDeltaScorer>> scorers_;
  std::vector<SourceEntry> entries_;
  int64_t universe_cardinality_ = 0;
  double universe_union_estimate_ = 0.0;

  /// True when every admitted signature is a PcsaSignature of one width.
  bool pcsa_uniform_ = false;
  size_t words_ = 0;

  // Neighborhood base state (base_ is empty before the first rebase).
  std::vector<SourceId> base_;
  std::vector<SourceId> base_admitted_;  // admitted members, ascending
  std::vector<int> admitted_index_;      // source id → index above, or -1
  std::vector<uint32_t> prefix_;         // (k+1) blocks of words_
  std::vector<uint32_t> suffix_;         // (k+1) blocks of words_
};

}  // namespace ube

#endif  // UBE_OPTIMIZE_DELTA_EVALUATOR_H_
