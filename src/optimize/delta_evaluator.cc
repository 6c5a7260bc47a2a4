#include "optimize/delta_evaluator.h"

#include <cstddef>

#include "sketch/distinct_estimator.h"
#include "sketch/pcsa.h"
#include "util/check.h"

namespace ube {

DeltaEvaluator::DeltaEvaluator(const CandidateEvaluator& evaluator,
                               bool enable)
    : evaluator_(&evaluator) {
  if (!enable) return;
  const QualityModel& model = evaluator.model();
  const Universe& universe = evaluator.universe();

  // Every QEF must offer an incremental scorer, or the whole model falls
  // back to full evaluation (a matching QEF's Match(S) cannot be
  // delta-maintained, and a partial delta would break per-QEF bit-identity).
  for (int i = 0; i < model.num_qefs(); ++i) {
    std::unique_ptr<QefDeltaScorer> scorer =
        model.qef(i).MakeDeltaScorer(universe);
    if (scorer == nullptr) {
      scorers_.clear();
      weights_.clear();
      return;
    }
    scorers_.push_back(std::move(scorer));
    // The evaluator's *effective* weights (spec overlay or model weights),
    // so a session's overlay flows through the delta path bit-identically
    // to the full path.
    weights_.push_back(evaluator.effective_weights()[static_cast<size_t>(i)]);
  }
  active_ = true;

  // Per-source tables: the degradation policy is a pure function of each
  // source's stats, and the universe must not mutate during a search (the
  // contract CandidateEvaluator already documents), so apply it once here
  // instead of once per member per evaluation.
  const int n = universe.num_sources();
  entries_.resize(static_cast<size_t>(n));
  for (SourceId s = 0; s < n; ++s) {
    const DataSource& source = universe.source(s);
    SourceEntry& e = entries_[static_cast<size_t>(s)];
    e.cardinality = source.cardinality();
    const QualityModel::SourcePolicy policy = model.PolicyFor(source);
    e.degraded = policy.degraded;
    e.contribution =
        policy.weight * static_cast<double>(source.cardinality());
    e.admitted = policy.admit_signature && source.has_signature();
    if (e.admitted) e.signature = &source.signature();
  }

  // Policy-adjusted denominators — the same Universe aggregates MakeContext
  // reads per evaluation, so the values (and bits) are identical.
  if (model.degradation().policy == DegradationPolicy::kExcludeRenormalize) {
    universe_cardinality_ = universe.FreshCardinality();
    universe_union_estimate_ = universe.FreshUnionCardinalityEstimate();
  } else {
    universe_cardinality_ = universe.TotalCardinality();
    universe_union_estimate_ = universe.UnionCardinalityEstimate();
  }

  // The word-wise union fast path needs every admitted signature to be a
  // PcsaSignature of one width; mixed or exact signatures use the generic
  // Clone+MergeFrom fallback (still delta-scored, just without the
  // prefix/suffix trick).
  pcsa_uniform_ = true;
  for (SourceEntry& e : entries_) {
    if (!e.admitted) continue;
    const auto* pcsa = dynamic_cast<const PcsaSignature*>(e.signature);
    if (pcsa == nullptr) {
      pcsa_uniform_ = false;
      break;
    }
    const std::vector<uint32_t>& words = pcsa->sketch().bitmaps();
    if (words_ == 0) words_ = words.size();
    if (words.size() != words_) {
      pcsa_uniform_ = false;
      break;
    }
    e.pcsa_words = &words;
  }
  if (words_ == 0) pcsa_uniform_ = false;  // no admitted signature anywhere
  if (pcsa_uniform_) scratch_.assign(words_, 0);
  admitted_index_.assign(static_cast<size_t>(n), -1);
}

void DeltaEvaluator::FillScalars(const std::vector<SourceId>& candidate,
                                 EvalContext* ctx) const {
  ctx->universe = &evaluator_->universe();
  ctx->sources = &candidate;
  ctx->match = nullptr;
  // Doubles are re-summed per evaluation, in candidate (ascending id)
  // order, from the precomputed per-source terms: identical operands in
  // identical order reproduce MakeContext's accumulation bits exactly.
  for (SourceId s : candidate) {
    const SourceEntry& e = entries_[static_cast<size_t>(s)];
    ctx->total_cardinality += e.cardinality;
    if (e.degraded) ++ctx->degraded_count;
    ctx->effective_cardinality += e.contribution;
    if (!e.admitted) continue;
    ++ctx->cooperating_count;
    ctx->cooperating_cardinality += e.contribution;
  }
  ctx->universe_cardinality = universe_cardinality_;
  ctx->universe_union_estimate = universe_union_estimate_;
}

double DeltaEvaluator::UnionFromScratch(
    const std::vector<SourceId>& candidate) {
  if (pcsa_uniform_) {
    scratch_.assign(words_, 0);
    bool any = false;
    for (SourceId s : candidate) {
      const SourceEntry& e = entries_[static_cast<size_t>(s)];
      if (!e.admitted) continue;
      any = true;
      const std::vector<uint32_t>& words = *e.pcsa_words;
      for (size_t w = 0; w < words_; ++w) scratch_[w] |= words[w];
    }
    return any ? PcsaSketch::EstimateFromBitmaps(scratch_) : 0.0;
  }
  // Generic signatures: replicate MakeContext's Clone-then-MergeFrom union
  // verbatim so the estimate bits cannot differ.
  std::unique_ptr<DistinctSignature> union_sig;
  for (SourceId s : candidate) {
    const SourceEntry& e = entries_[static_cast<size_t>(s)];
    if (!e.admitted) continue;
    if (union_sig == nullptr) {
      union_sig = e.signature->Clone();
    } else {
      union_sig->MergeFrom(*e.signature);
    }
  }
  return union_sig == nullptr ? 0.0 : union_sig->Estimate();
}

void DeltaEvaluator::Rebase(const std::vector<SourceId>& base) {
  base_ = base;
  has_base_ = true;
  if (!pcsa_uniform_) return;

  for (SourceId s : base_admitted_) admitted_index_[static_cast<size_t>(s)] = -1;
  base_admitted_.clear();
  for (SourceId s : base) {
    if (!entries_[static_cast<size_t>(s)].admitted) continue;
    admitted_index_[static_cast<size_t>(s)] =
        static_cast<int>(base_admitted_.size());
    base_admitted_.push_back(s);
  }
  const size_t k = base_admitted_.size();
  // prefix[i] = ∪ sketches of the first i admitted members; suffix[i] = ∪ of
  // members i..k-1. Removing admitted member j is then
  // prefix[j] | suffix[j+1] — the re-OR-on-remove the union's lack of an
  // inverse requires, paid once per base instead of once per flip.
  prefix_.assign((k + 1) * words_, 0);
  suffix_.assign((k + 1) * words_, 0);
  for (size_t i = 0; i < k; ++i) {
    const std::vector<uint32_t>& words =
        *entries_[static_cast<size_t>(base_admitted_[i])].pcsa_words;
    uint32_t* prev = prefix_.data() + i * words_;
    uint32_t* next = prefix_.data() + (i + 1) * words_;
    for (size_t w = 0; w < words_; ++w) next[w] = prev[w] | words[w];
  }
  for (size_t i = k; i-- > 0;) {
    const std::vector<uint32_t>& words =
        *entries_[static_cast<size_t>(base_admitted_[i])].pcsa_words;
    uint32_t* prev = suffix_.data() + (i + 1) * words_;
    uint32_t* next = suffix_.data() + i * words_;
    for (size_t w = 0; w < words_; ++w) next[w] = prev[w] | words[w];
  }
}

double DeltaEvaluator::UnionForMove(const SearchState::Move& move) {
  const size_t k = base_admitted_.size();
  int admitted = static_cast<int>(k);

  int removed_at = -1;
  if (move.kind != SearchState::Move::Kind::kAdd) {
    removed_at = admitted_index_[static_cast<size_t>(move.out)];
    if (removed_at >= 0) --admitted;
  }
  const std::vector<uint32_t>* added = nullptr;
  if (move.kind != SearchState::Move::Kind::kDrop &&
      entries_[static_cast<size_t>(move.in)].admitted) {
    added = entries_[static_cast<size_t>(move.in)].pcsa_words;
    ++admitted;
  }
  if (admitted <= 0) return 0.0;

  if (removed_at >= 0) {
    const uint32_t* lo = prefix_.data() + static_cast<size_t>(removed_at) * words_;
    const uint32_t* hi =
        suffix_.data() + (static_cast<size_t>(removed_at) + 1) * words_;
    for (size_t w = 0; w < words_; ++w) scratch_[w] = lo[w] | hi[w];
  } else {
    const uint32_t* all = prefix_.data() + k * words_;
    for (size_t w = 0; w < words_; ++w) scratch_[w] = all[w];
  }
  if (added != nullptr) {
    for (size_t w = 0; w < words_; ++w) scratch_[w] |= (*added)[w];
  }
  return PcsaSketch::EstimateFromBitmaps(scratch_);
}

QualityBreakdown DeltaEvaluator::Score(const EvalContext& ctx) const {
  // The delta replica of QualityModel::Evaluate for a matching-free model:
  // same per-QEF order, same weighted accumulation order.
  QualityBreakdown out;
  out.scores.resize(scorers_.size(), 0.0);
  for (size_t i = 0; i < scorers_.size(); ++i) {
    out.scores[i] = scorers_[i]->Score(ctx);
    out.overall += weights_[i] * out.scores[i];
  }
  return out;
}

QualityBreakdown DeltaEvaluator::Compute(
    const std::vector<SourceId>& candidate) {
  UBE_CHECK(active_, "DeltaEvaluator::Compute requires an active delta path");
  evaluator_->CountComputed();
  EvalContext ctx;
  FillScalars(candidate, &ctx);
  ctx.union_estimate = UnionFromScratch(candidate);
  return Score(ctx);
}

double DeltaEvaluator::ComputeForMove(const SearchState::Move& move,
                                      const std::vector<SourceId>& candidate) {
  evaluator_->CountComputed();
  EvalContext ctx;
  FillScalars(candidate, &ctx);
  ctx.union_estimate =
      pcsa_uniform_ ? UnionForMove(move) : UnionFromScratch(candidate);
  return Score(ctx).overall;
}

double DeltaEvaluator::Quality(const std::vector<SourceId>& candidate) {
  if (!active_) return evaluator_->Quality(candidate);
  return evaluator_->Memoized(candidate,
                              [&] { return Compute(candidate).overall; });
}

std::vector<double> DeltaEvaluator::ScoreCandidates(
    std::span<const std::vector<SourceId>> candidates, ThreadPool* pool) {
  if (!active_) return evaluator_->QualityBatch(candidates, pool);
  return Batch(candidates, nullptr);
}

std::vector<double> DeltaEvaluator::ScoreNeighborhood(
    const std::vector<SourceId>& base, std::span<const SearchState::Move> moves,
    std::span<const std::vector<SourceId>> candidates, ThreadPool* pool) {
  UBE_DCHECK(moves.size() == candidates.size(),
             "moves and candidates must be parallel");
  if (!active_) return evaluator_->QualityBatch(candidates, pool);
  if (!has_base_ || base_ != base) Rebase(base);
  return Batch(candidates, moves.data());
}

std::vector<double> DeltaEvaluator::Batch(
    std::span<const std::vector<SourceId>> candidates,
    const SearchState::Move* moves) {
  // Same memoization as the full path; only the per-miss compute differs
  // (delta, sequential — each miss is O(sketch words + |S|), so there is
  // nothing worth parallelizing and thread-count invariance is structural).
  return evaluator_->MemoizedBatch(candidates, nullptr, [&](size_t i) {
    return moves != nullptr ? ComputeForMove(moves[i], candidates[i])
                            : Compute(candidates[i]).overall;
  });
}

}  // namespace ube
