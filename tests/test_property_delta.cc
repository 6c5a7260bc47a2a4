// Delta-vs-full differential oracle: the DeltaEvaluator — the one path
// every solver scores through — must be bit-identical to the full
// evaluation path (CandidateEvaluator::Evaluate / QualityBatch), per QEF
// and for the composite Q(S), after ANY seeded flip sequence, including
// add-then-remove round-trips and restart resets, across signature kinds
// (exact and PCSA), degradation policies and uncooperative sources. Each
// property runs on four model shapes: matching-free (every QEF but Match),
// the paper's default model, a schema-coverage model, and a user LambdaQef
// that dereferences the context's Match(S) result — with candidates whose
// Match(S) is invalid on C among them. A second property pins cache/counter
// parity (an identical candidate stream through both paths leaves
// num_evaluations / num_cache_hits identical, so eval budgets stop at the
// same point), and a third that scoring on a thread pool is bit-identical
// to scoring without one. Replayable via UBE_PROPERTY_SEED /
// UBE_PROPERTY_ITERS (see TESTING.md).
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "matching/cluster_matcher.h"
#include "matching/similarity_graph.h"
#include "optimize/delta_evaluator.h"
#include "optimize/evaluator.h"
#include "optimize/search_state.h"
#include "qef/quality_model.h"
#include "testkit/generators.h"
#include "testkit/property.h"
#include "text/similarity.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ube {
namespace {

using testkit::PropertyRunner;

// The model shapes every property runs on.
enum class ModelKind { kDataOnly, kDefault, kSchemaCoverage, kLambda };

std::string ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kDataOnly:
      return "data_only";
    case ModelKind::kDefault:
      return "default";
    case ModelKind::kSchemaCoverage:
      return "schema_coverage";
    case ModelKind::kLambda:
      return "lambda";
  }
  return "unknown";
}

// The lambda model's QEF reads ctx.match unconditionally, so the delta
// path must hand it a MatchResult whether or not the model runs Match(S)
// (a valid empty one when it does not, as the full path does).
double MatchShape(const EvalContext& ctx) {
  if (!ctx.match->valid) return 0.0;
  return 1.0 / (1.0 + ctx.match->schema.TotalAttributes() +
                static_cast<double>(ctx.sources->size()));
}

QualityModel MakeModel(Rng& rng, ModelKind kind, int case_index) {
  if (kind == ModelKind::kDataOnly) {
    return testkit::GenerateModel(rng, /*include_matching=*/false);
  }
  if (kind == ModelKind::kDefault) return QualityModel::MakeDefault();
  std::vector<double> weights = testkit::GenerateWeights(rng, 4);
  QualityModel model;
  if (kind == ModelKind::kSchemaCoverage) {
    model.AddQef(std::make_unique<SchemaCoverageQef>(), weights[0]);
  } else if (case_index % 2 == 0) {
    model.AddQef(std::make_unique<LambdaQef>("match-shape", MatchShape),
                 weights[0]);
  } else {
    // Half the lambda cases also match, so the lambda sees real schemas.
    model.AddQef(std::make_unique<LambdaQef>("match-shape", MatchShape),
                 weights[0] / 2);
    model.AddQef(std::make_unique<MatchingQualityQef>(), weights[0] / 2);
  }
  model.AddQef(std::make_unique<CardinalityQef>(), weights[1]);
  model.AddQef(std::make_unique<CoverageQef>(), weights[2]);
  model.AddQef(std::make_unique<CharacteristicQef>(
                   "mttf", Aggregation::kWeightedSum),
               weights[3]);
  return model;
}

// One random instance: universe (optionally with degraded statistics and
// uncooperative sources), matcher scaffolding, a model of the given kind
// under a random degradation policy, and a valid spec. For matching models
// every third case pins exactly one source constraint and no GA
// constraint, so the candidate {c} — one source, no GA possible — has an
// invalid Match(S) on C. Heap-allocated so the reference web (evaluator →
// universe/matcher/model/spec) stays stable.
struct Instance {
  Universe universe;
  std::unique_ptr<SimilarityGraph> graph;
  std::unique_ptr<ClusterMatcher> matcher;
  QualityModel model;
  ProblemSpec spec;
  std::unique_ptr<CandidateEvaluator> evaluator;
  /// The single-source candidate with an invalid Match(S), or empty.
  std::vector<SourceId> invalid_candidate;

  explicit Instance(Universe u) : universe(std::move(u)) {}
};

std::unique_ptr<Instance> MakeInstance(Rng& rng, bool exact_signatures,
                                       ModelKind kind, int case_index) {
  testkit::UniverseGenOptions gen;
  gen.exact_signatures = exact_signatures;
  gen.uncooperative_probability = 0.15;
  auto inst = std::make_unique<Instance>(testkit::GenerateUniverse(rng, gen));

  // Degrade some statistics so PolicyFor actually has cases to decide
  // (weights, admission, denominators) — fresh-only universes make every
  // policy a no-op.
  for (SourceId s = 0; s < inst->universe.num_sources(); ++s) {
    double roll = rng.UniformDouble();
    if (roll < 0.12) {
      inst->universe.mutable_source(s)->set_stats_state(
          StatsState::kStale, rng.UniformDouble() * 2.0);
    } else if (roll < 0.20) {
      inst->universe.mutable_source(s)->set_stats_state(StatsState::kPartial);
    } else if (roll < 0.25) {
      inst->universe.mutable_source(s)->set_stats_state(StatsState::kMissing);
    }
  }

  inst->graph = std::make_unique<SimilarityGraph>(
      inst->universe, MakeDefaultSimilarity(), 0.25);
  inst->matcher =
      std::make_unique<ClusterMatcher>(inst->universe, *inst->graph);
  inst->model = MakeModel(rng, kind, case_index);
  DegradationOptions degradation;
  switch (rng.UniformInt(3)) {
    case 0:
      degradation.policy = DegradationPolicy::kPessimisticPrior;
      break;
    case 1:
      degradation.policy = DegradationPolicy::kLastKnownGood;
      break;
    default:
      degradation.policy = DegradationPolicy::kExcludeRenormalize;
      break;
  }
  inst->model.set_degradation(degradation);
  inst->spec = testkit::GenerateSpec(rng, inst->universe);
  if (inst->model.NeedsMatching() && case_index % 3 == 0) {
    SourceId pinned = static_cast<SourceId>(
        rng.UniformInt(static_cast<uint64_t>(inst->universe.num_sources())));
    inst->spec.source_constraints = {pinned};
    inst->spec.ga_constraints.clear();
    std::erase(inst->spec.banned_sources, pinned);
    inst->invalid_candidate = {pinned};
  }
  inst->evaluator = std::make_unique<CandidateEvaluator>(
      inst->universe, *inst->matcher, inst->model, inst->spec);
  return inst;
}

// Per-QEF scores, Q(S) and feasibility of the uncached delta probe equal
// the full path's breakdown bit for bit.
void ExpectSameBreakdown(const QualityBreakdown& delta,
                         const QualityBreakdown& full,
                         const QualityModel& model, const std::string& where) {
  ASSERT_EQ(delta.scores.size(), full.scores.size()) << where;
  for (size_t i = 0; i < delta.scores.size(); ++i) {
    EXPECT_EQ(delta.scores[i], full.scores[i])
        << where << " QEF " << model.qef(static_cast<int>(i)).name();
  }
  EXPECT_EQ(delta.overall, full.overall) << where;
  EXPECT_EQ(delta.feasible, full.feasible) << where;
}

class DeltaPropertyTest : public ::testing::TestWithParam<ModelKind> {};

// The inverse of `move` from the post-commit state: re-applying it lands
// back on the pre-commit candidate.
SearchState::Move Inverse(const SearchState::Move& move) {
  SearchState::Move inverse;
  switch (move.kind) {
    case SearchState::Move::Kind::kAdd:
      inverse.kind = SearchState::Move::Kind::kDrop;
      inverse.out = move.in;
      break;
    case SearchState::Move::Kind::kDrop:
      inverse.kind = SearchState::Move::Kind::kAdd;
      inverse.in = move.out;
      break;
    case SearchState::Move::Kind::kSwap:
      inverse.kind = SearchState::Move::Kind::kSwap;
      inverse.in = move.out;
      inverse.out = move.in;
      break;
  }
  return inverse;
}

// After any seeded flip sequence — with commits, add-then-remove
// round-trips and restart resets interleaved — the delta state must score
// every neighbor bit-identically to a from-scratch full evaluation, per
// QEF and composite. Odd cases use PCSA signatures (the prefix/suffix OR
// fast path), even cases exact signatures (the generic merge fallback).
TEST_P(DeltaPropertyTest, FlipSequencesAreBitIdenticalToFullRecompute) {
  const ModelKind kind = GetParam();
  PropertyRunner runner("delta-flip-bit-identity/" + ModelKindName(kind), 40);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    std::unique_ptr<Instance> inst = MakeInstance(rng, c % 2 == 0, kind, c);
    DeltaEvaluator delta(*inst->evaluator);

    if (!inst->invalid_candidate.empty()) {
      // Match(S) invalid on C: overall 0 and infeasible on both paths.
      CandidateEvaluator::Evaluation full =
          inst->evaluator->Evaluate(inst->invalid_candidate);
      ASSERT_FALSE(full.breakdown.feasible);
      ExpectSameBreakdown(delta.Compute(inst->invalid_candidate),
                          full.breakdown, inst->model, "invalid match");
    }

    SearchState state(
        *inst->evaluator,
        testkit::GenerateCandidate(rng, inst->universe, inst->spec));
    const int flips = 24;
    for (int f = 0; f < flips; ++f) {
      if (f % 8 == 7) {
        // Restart semantics: a Reset (solver restart / incumbent jump)
        // must rebase cleanly.
        state.Reset(
            testkit::GenerateCandidate(rng, inst->universe, inst->spec));
      }
      SearchState::Move move;
      if (!state.RandomMove(rng, &move)) break;
      std::vector<SearchState::Move> moves = {move};
      std::vector<std::vector<SourceId>> neighbors = {state.Apply(move)};

      // Composite Q(S) through the incremental move path vs the full
      // path's uncached ground truth.
      std::vector<double> scored =
          delta.ScoreNeighborhood(state.sources(), moves, neighbors, nullptr);
      CandidateEvaluator::Evaluation full =
          inst->evaluator->Evaluate(neighbors[0]);
      EXPECT_EQ(scored[0], full.quality) << "flip " << f;

      // Per-QEF breakdown through the uncached delta probe.
      ExpectSameBreakdown(delta.Compute(neighbors[0]), full.breakdown,
                          inst->model, "flip " + std::to_string(f));

      if (rng.UniformDouble() < 0.5) {
        // Add-then-remove round trip: commit, score the inverse move from
        // the new base, and require bit-equality with the pre-commit
        // candidate's from-scratch quality.
        std::vector<SourceId> before = state.sources();
        double before_quality = delta.Compute(before).overall;
        state.Commit(move);
        SearchState::Move inverse = Inverse(move);
        std::vector<SearchState::Move> inverse_moves = {inverse};
        std::vector<std::vector<SourceId>> back = {state.Apply(inverse)};
        ASSERT_EQ(back[0], before);
        std::vector<double> round = delta.ScoreNeighborhood(
            state.sources(), inverse_moves, back, nullptr);
        EXPECT_EQ(round[0], before_quality)
            << "add-then-remove round trip diverged at flip " << f;
        EXPECT_EQ(round[0], inst->evaluator->Evaluate(before).quality);
      }
    }
  }
}

// Cache and counter parity: the same candidate stream — neighborhoods with
// intra-batch duplicates, plus arbitrary-candidate batches — scored through
// the delta path on one evaluator and through the plain full path
// (QualityBatch) on a second, independent evaluator over the same instance
// must produce identical score vectors AND identical num_evaluations /
// num_cache_hits at every step. This is what keeps max_evaluations budgets
// stopping exactly where they did when solvers scored through QualityBatch.
TEST_P(DeltaPropertyTest, CacheAndCounterParityWithFullPath) {
  const ModelKind kind = GetParam();
  PropertyRunner runner("delta-counter-parity/" + ModelKindName(kind), 25);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    std::unique_ptr<Instance> inst = MakeInstance(rng, c % 2 == 0, kind, c);
    CandidateEvaluator full_eval(inst->universe, *inst->matcher, inst->model,
                                 inst->spec);
    DeltaEvaluator delta(*inst->evaluator);
    inst->evaluator->BeginRun();
    full_eval.BeginRun();

    SearchState state(
        *inst->evaluator,
        testkit::GenerateCandidate(rng, inst->universe, inst->spec));
    EXPECT_EQ(delta.Quality(state.sources()),
              full_eval.Quality(state.sources()));
    for (int round = 0; round < 12; ++round) {
      std::vector<SearchState::Move> moves;
      std::vector<std::vector<SourceId>> neighbors;
      for (int k = 0; k < 6; ++k) {
        SearchState::Move move;
        if (!state.RandomMove(rng, &move)) break;
        moves.push_back(move);
        neighbors.push_back(state.Apply(move));
        if (rng.UniformDouble() < 0.3) {
          // Duplicate entry: both paths must dedup it and count the
          // duplicate as a cache hit.
          moves.push_back(move);
          neighbors.push_back(neighbors.back());
        }
      }
      if (neighbors.empty()) break;
      std::vector<double> via_delta =
          delta.ScoreNeighborhood(state.sources(), moves, neighbors, nullptr);
      std::vector<double> via_full = full_eval.QualityBatch(neighbors);
      ASSERT_EQ(via_delta.size(), via_full.size());
      for (size_t i = 0; i < via_delta.size(); ++i) {
        EXPECT_EQ(via_delta[i], via_full[i]) << "round " << round;
      }
      EXPECT_EQ(inst->evaluator->num_evaluations(),
                full_eval.num_evaluations())
          << "round " << round;
      EXPECT_EQ(inst->evaluator->num_cache_hits(), full_eval.num_cache_hits())
          << "round " << round;
      state.Commit(moves[static_cast<size_t>(
          rng.UniformInt(static_cast<uint64_t>(moves.size())))]);

      // Arbitrary-candidate batch (the PSO/greedy entry point), with the
      // invalid-match candidate when the instance has one.
      std::vector<std::vector<SourceId>> arbitrary;
      for (int k = 0; k < 4; ++k) {
        arbitrary.push_back(
            testkit::GenerateCandidate(rng, inst->universe, inst->spec));
      }
      if (!inst->invalid_candidate.empty()) {
        arbitrary.push_back(inst->invalid_candidate);
      }
      std::vector<double> arb_delta = delta.ScoreCandidates(arbitrary, nullptr);
      std::vector<double> arb_full = full_eval.QualityBatch(arbitrary);
      for (size_t i = 0; i < arbitrary.size(); ++i) {
        EXPECT_EQ(arb_delta[i], arb_full[i]) << "round " << round;
      }
      EXPECT_EQ(inst->evaluator->num_evaluations(),
                full_eval.num_evaluations());
      EXPECT_EQ(inst->evaluator->num_cache_hits(), full_eval.num_cache_hits());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, DeltaPropertyTest,
    ::testing::Values(ModelKind::kDataOnly, ModelKind::kDefault,
                      ModelKind::kSchemaCoverage, ModelKind::kLambda),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
      return ModelKindName(info.param);
    });

// Pool axis: on the default model (where misses run Match(S) and so go to
// the pool) the same neighborhood and arbitrary-candidate stream scored
// with a 4-thread pool and without one must give bit-identical scores and
// identical counters — through evaluators over one instance, one of them
// scoring in parallel.
TEST(DeltaPoolTest, PoolScoringIsBitIdenticalToSequential) {
  PropertyRunner runner("delta-pool-identity", 15);
  ThreadPool pool(4);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    std::unique_ptr<Instance> inst =
        MakeInstance(rng, c % 2 == 0, ModelKind::kDefault, c);
    CandidateEvaluator parallel_eval(inst->universe, *inst->matcher,
                                     inst->model, inst->spec);
    DeltaEvaluator sequential(*inst->evaluator);
    DeltaEvaluator parallel(parallel_eval);

    SearchState state(
        *inst->evaluator,
        testkit::GenerateCandidate(rng, inst->universe, inst->spec));
    for (int round = 0; round < 8; ++round) {
      std::vector<SearchState::Move> moves;
      std::vector<std::vector<SourceId>> neighbors;
      for (int k = 0; k < 8; ++k) {
        SearchState::Move move;
        if (!state.RandomMove(rng, &move)) break;
        moves.push_back(move);
        neighbors.push_back(state.Apply(move));
      }
      if (neighbors.empty()) break;
      EXPECT_EQ(
          sequential.ScoreNeighborhood(state.sources(), moves, neighbors,
                                       nullptr),
          parallel.ScoreNeighborhood(state.sources(), moves, neighbors, &pool))
          << "round " << round;

      std::vector<std::vector<SourceId>> arbitrary;
      for (int k = 0; k < 6; ++k) {
        arbitrary.push_back(
            testkit::GenerateCandidate(rng, inst->universe, inst->spec));
      }
      if (!inst->invalid_candidate.empty()) {
        arbitrary.push_back(inst->invalid_candidate);
      }
      EXPECT_EQ(sequential.ScoreCandidates(arbitrary, nullptr),
                parallel.ScoreCandidates(arbitrary, &pool))
          << "round " << round;
      EXPECT_EQ(inst->evaluator->num_evaluations(),
                parallel_eval.num_evaluations());
      EXPECT_EQ(inst->evaluator->num_cache_hits(),
                parallel_eval.num_cache_hits());
      state.Commit(moves[static_cast<size_t>(
          rng.UniformInt(static_cast<uint64_t>(moves.size())))]);
    }
  }
}

}  // namespace
}  // namespace ube
