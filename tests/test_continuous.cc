// Engine::RunContinuous and the bounded incumbent repair: the zero-churn
// bit-identity contract, churn-trace determinism across thread counts, the
// digest-pinned churn replay, the repair-then-escalate policy, and
// RepairIncumbent's sanitize semantics.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/change_feed.h"
#include "core/engine.h"
#include "core/report.h"
#include "optimize/repair.h"
#include "qef/quality_model.h"
#include "source/flaky.h"
#include "testkit/golden.h"
#include "testkit/oracles.h"
#include "workload/generator.h"

namespace ube {
namespace {

Universe MediumUniverse(int num_sources = 24) {
  WorkloadConfig config;
  config.num_sources = num_sources;
  config.scale = 0.001;
  return GenerateWorkload(config).universe;
}

SolverOptions QuickSolve(int num_threads = 1) {
  SolverOptions options;
  options.seed = 42;
  options.max_iterations = 120;
  options.stall_iterations = 40;
  options.num_threads = num_threads;
  return options;
}

ContinuousOptions QuickContinuous(int num_threads = 1) {
  ContinuousOptions options;
  options.solver_options = QuickSolve(num_threads);
  options.repair.max_iterations = 30;
  options.repair.eval_budget = 1'500;
  return options;
}

ProblemSpec BasicSpec(int m = 6) {
  ProblemSpec spec;
  spec.max_sources = m;
  return spec;
}

ChurnTrace BusyTrace(const Universe& universe, uint64_t seed = 7) {
  ChurnFeedConfig config;
  config.seed = seed;
  config.events_per_sec = 2.0;
  config.horizon_ms = 10'000.0;  // ~20 events over ~10 batches
  return GenerateChurnTrace(universe, config).value();
}

void ExpectSameSolution(const Solution& a, const Solution& b) {
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.quality, b.quality);  // bit-exact
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
  EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
  EXPECT_EQ(a.stats.stop_reason, b.stats.stop_reason);
  ASSERT_EQ(a.breakdown.scores.size(), b.breakdown.scores.size());
  for (size_t i = 0; i < a.breakdown.scores.size(); ++i) {
    EXPECT_EQ(a.breakdown.scores[i], b.breakdown.scores[i]);
  }
}

QualityModel DataOnlyModel() {
  QualityModel model;
  model.AddQef(std::make_unique<CardinalityQef>(), 0.4);
  model.AddQef(std::make_unique<CoverageQef>(), 0.3);
  model.AddQef(std::make_unique<RedundancyQef>(), 0.2);
  model.AddQef(std::make_unique<CharacteristicQef>(
                   "mttf", Aggregation::kWeightedSum),
               0.1);
  return model;
}

// Digest of everything deterministic in a RunContinuous: every step's
// fields except wall-clock time, the aggregates, and the final Solution.
uint64_t ReportDigest(const ContinuousReport& report) {
  using testkit::MixDigest;
  using testkit::MixDigestBits;
  uint64_t h = MixDigest(0xc0471905ULL, report.steps.size());
  for (const ContinuousStep& step : report.steps) {
    h = MixDigestBits(h, step.time_ms);
    h = MixDigest(h, static_cast<uint64_t>(step.events_applied));
    h = MixDigest(h, static_cast<uint64_t>(step.evicted));
    h = MixDigest(h, static_cast<uint64_t>(step.drift_events));
    h = MixDigest(h, step.escalated ? 1 : 0);
    h = MixDigest(h, static_cast<uint64_t>(step.escalation_reason));
    h = MixDigest(h, static_cast<uint64_t>(step.repair_budget));
    h = MixDigestBits(h, step.quality_before);
    h = MixDigestBits(h, step.quality_after);
    h = MixDigest(h, static_cast<uint64_t>(step.evaluations));
    h = MixDigest(h, step.incumbent.size());
    for (SourceId s : step.incumbent) {
      h = MixDigest(h, static_cast<uint64_t>(static_cast<uint32_t>(s)));
    }
  }
  h = MixDigest(h, static_cast<uint64_t>(report.events_applied));
  h = MixDigest(h, static_cast<uint64_t>(report.drift_events));
  h = MixDigest(h, static_cast<uint64_t>(report.repair_evaluations));
  h = MixDigest(h, static_cast<uint64_t>(report.full_solves));
  h = MixDigest(h, static_cast<uint64_t>(report.repairs));
  h = MixDigest(h, static_cast<uint64_t>(report.escalations));
  h = MixDigestBits(h, report.last_full_quality);
  return MixDigest(h, testkit::SolutionDigest(report.final_solution));
}

// Zero-churn contract: an empty feed makes RunContinuous exactly a one-shot
// Solve — byte-identical Solution — for any thread count.
TEST(ContinuousTest, EmptyTraceIsByteIdenticalToOneShotSolve) {
  const ProblemSpec spec = BasicSpec();
  for (int threads : {1, 4}) {
    Engine engine(MediumUniverse(), QualityModel::MakeDefault());
    ContinuousOptions options = QuickContinuous(threads);
    Result<Solution> one_shot =
        engine.Solve(spec, options.solver, options.solver_options);
    ASSERT_TRUE(one_shot.ok()) << one_shot.status();

    Result<ContinuousReport> report =
        engine.RunContinuous(spec, ChurnTrace{}, options);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->steps.empty());
    EXPECT_EQ(report->full_solves, 1);
    EXPECT_EQ(report->repairs, 0);
    EXPECT_EQ(report->events_applied, 0);
    ExpectSameSolution(report->final_solution, one_shot.value());
  }
}

// Churn-trace determinism: the full step sequence — incumbents, qualities,
// evictions, escalation decisions — replays bit-identically for any thread
// count.
TEST(ContinuousTest, StepsReplayBitIdenticallyAcrossThreadCounts) {
  Universe universe = MediumUniverse();
  ChurnTrace trace = BusyTrace(universe);
  ASSERT_FALSE(trace.events.empty());
  const ProblemSpec spec = BasicSpec();

  Engine one(CloneUniverse(universe), QualityModel::MakeDefault());
  Engine four(std::move(universe), QualityModel::MakeDefault());
  Result<ContinuousReport> a =
      one.RunContinuous(spec, trace, QuickContinuous(1));
  Result<ContinuousReport> b =
      four.RunContinuous(spec, trace, QuickContinuous(4));
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();

  EXPECT_EQ(a->events_applied, static_cast<int>(trace.events.size()));
  EXPECT_EQ(a->events_applied, b->events_applied);
  EXPECT_EQ(a->full_solves, b->full_solves);
  EXPECT_EQ(a->repairs, b->repairs);
  EXPECT_EQ(a->escalations, b->escalations);
  EXPECT_EQ(a->last_full_quality, b->last_full_quality);
  ASSERT_EQ(a->steps.size(), b->steps.size());
  for (size_t i = 0; i < a->steps.size(); ++i) {
    const ContinuousStep& sa = a->steps[i];
    const ContinuousStep& sb = b->steps[i];
    EXPECT_EQ(sa.time_ms, sb.time_ms) << "step " << i;
    EXPECT_EQ(sa.events_applied, sb.events_applied) << "step " << i;
    EXPECT_EQ(sa.evicted, sb.evicted) << "step " << i;
    EXPECT_EQ(sa.escalated, sb.escalated) << "step " << i;
    EXPECT_EQ(sa.escalation_reason, sb.escalation_reason) << "step " << i;
    EXPECT_EQ(sa.repair_budget, sb.repair_budget) << "step " << i;
    EXPECT_EQ(sa.drift_events, sb.drift_events) << "step " << i;
    EXPECT_EQ(sa.quality_before, sb.quality_before) << "step " << i;
    EXPECT_EQ(sa.quality_after, sb.quality_after) << "step " << i;
    EXPECT_EQ(sa.evaluations, sb.evaluations) << "step " << i;
    EXPECT_EQ(sa.incumbent, sb.incumbent) << "step " << i;
  }
  ExpectSameSolution(a->final_solution, b->final_solution);
}

// Churn-path oracle: an entire RunContinuous — initial solve, every repair,
// every escalation over a busy ChurnTrace — on the matching-free and the
// default model, at one thread and at hardware concurrency, must reproduce
// the report digest recorded when every candidate was still scored by the
// full path (tests/data/full_path_digests.json; TESTING.md, "The delta
// oracle").
TEST(ContinuousTest, ChurnReplayReproducesRecordedFullPathDigests) {
  Result<std::map<std::string, uint64_t>> digests =
      testkit::LoadGoldenDigests(std::string(UBE_TEST_DATA_DIR) +
                                 "/full_path_digests.json");
  ASSERT_TRUE(digests.ok()) << digests.status();
  for (bool matching : {false, true}) {
    for (int threads : {1, 0}) {
      Universe universe = MediumUniverse();
      ChurnTrace trace = BusyTrace(universe, 11);
      ASSERT_FALSE(trace.events.empty());
      Engine engine(std::move(universe), matching ? QualityModel::MakeDefault()
                                                  : DataOnlyModel());
      Result<ContinuousReport> report =
          engine.RunContinuous(BasicSpec(), trace, QuickContinuous(threads));
      ASSERT_TRUE(report.ok()) << report.status();
      const std::string key = std::string("continuous/") +
                              (matching ? "default" : "data-only") +
                              "/threads=" + std::to_string(threads);
      auto recorded = digests->find(key);
      ASSERT_NE(recorded, digests->end()) << "no digest for " << key;
      EXPECT_EQ(ReportDigest(*report), recorded->second) << key;
    }
  }
}

// Self-healing: after every batch the incumbent only contains sources that
// are alive in the evolved universe, and the engine remains usable.
TEST(ContinuousTest, IncumbentNeverContainsDeadSources) {
  Universe universe = MediumUniverse();
  ChurnTrace trace = BusyTrace(universe, 21);
  Engine engine(std::move(universe), QualityModel::MakeDefault());
  const ProblemSpec spec = BasicSpec();
  Result<ContinuousReport> report =
      engine.RunContinuous(spec, trace, QuickContinuous());
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_FALSE(report->steps.empty());
  for (const ContinuousStep& step : report->steps) {
    EXPECT_FALSE(step.incumbent.empty());
    EXPECT_TRUE(std::is_sorted(step.incumbent.begin(), step.incumbent.end()));
    EXPECT_LE(static_cast<int>(step.incumbent.size()), spec.max_sources);
    EXPECT_GT(step.quality_after, 0.0);
  }
  // The final incumbent is alive in the final universe.
  for (SourceId s : report->final_solution.sources) {
    EXPECT_TRUE(engine.universe().source(s).available()) << s;
  }
  // The engine still solves against the evolved universe.
  Result<Solution> after = engine.Solve(spec, SolverKind::kTabu, QuickSolve());
  ASSERT_TRUE(after.ok()) << after.status();
}

// Wiping out the whole incumbent leaves repair nothing to seed from; the
// policy must escalate to a full re-solve and recover.
TEST(ContinuousTest, IncumbentWipeoutEscalatesToFullResolve) {
  Universe universe = MediumUniverse();
  const ProblemSpec spec = BasicSpec(4);
  ContinuousOptions options = QuickContinuous();

  // Discover the initial incumbent with an identical solve.
  Engine scout(CloneUniverse(universe), QualityModel::MakeDefault());
  Result<Solution> initial =
      scout.Solve(spec, options.solver, options.solver_options);
  ASSERT_TRUE(initial.ok()) << initial.status();

  ChurnTrace trace;
  double t = 1.0;
  for (SourceId s : initial->sources) {
    ChurnEvent remove;
    remove.time_ms = t;
    remove.kind = ChurnEventKind::kRemove;
    remove.source = s;
    trace.events.push_back(std::move(remove));
    t += 1.0;
  }

  Engine engine(std::move(universe), QualityModel::MakeDefault());
  Result<ContinuousReport> report =
      engine.RunContinuous(spec, trace, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GE(report->escalations, 1);
  EXPECT_GE(report->full_solves, 2);  // initial + at least one escalation
  bool saw_wipeout = false;
  for (const ContinuousStep& step : report->steps) {
    if (step.escalation_reason == EscalationReason::kIncumbentWipeout) {
      saw_wipeout = true;
    }
  }
  EXPECT_TRUE(saw_wipeout);
  for (SourceId dead : initial->sources) {
    EXPECT_FALSE(std::binary_search(report->final_solution.sources.begin(),
                                    report->final_solution.sources.end(),
                                    dead));
  }
  EXPECT_GT(report->final_solution.quality, 0.0);
}

// The baseline policy re-solves from scratch on every batch and never runs
// a repair — the churn_sweep bench compares the live mode against this.
TEST(ContinuousTest, FullEverytimeBaselineNeverRepairs) {
  Universe universe = MediumUniverse();
  ChurnTrace trace = BusyTrace(universe, 33);
  Engine engine(std::move(universe), QualityModel::MakeDefault());
  ContinuousOptions options = QuickContinuous();
  options.mode = ContinuousOptions::Mode::kFullEverytime;
  Result<ContinuousReport> report =
      engine.RunContinuous(BasicSpec(), trace, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->repairs, 0);
  EXPECT_EQ(report->escalations, 0);
  EXPECT_EQ(report->full_solves, 1 + static_cast<int>(report->steps.size()));
  for (const ContinuousStep& step : report->steps) {
    EXPECT_TRUE(step.escalated);
    EXPECT_EQ(step.escalation_reason, EscalationReason::kBaseline);
    EXPECT_EQ(step.repair_budget, 0);
  }
}

TEST(ContinuousTest, RejectsBadOptions) {
  Engine engine(MediumUniverse(), QualityModel::MakeDefault());
  ContinuousOptions options = QuickContinuous();
  options.batch_ms = 0.0;
  EXPECT_FALSE(engine.RunContinuous(BasicSpec(), ChurnTrace{}, options).ok());
  options = QuickContinuous();
  options.escalation_fraction = 1.5;
  EXPECT_FALSE(engine.RunContinuous(BasicSpec(), ChurnTrace{}, options).ok());
}

// --- RepairIncumbent unit tests ----------------------------------------

TEST(RepairUnitTest, EvictsBannedMembersAndImproves) {
  Universe universe = MediumUniverse(16);
  SimilarityGraph graph(universe, MakeDefaultSimilarity(), 0.25);
  ClusterMatcher matcher(universe, graph);
  QualityModel model = QualityModel::MakeDefault();
  ProblemSpec spec;
  spec.max_sources = 5;
  spec.banned_sources = {1, 2};
  ASSERT_TRUE(CandidateEvaluator::ValidateSpec(universe, spec).ok());
  CandidateEvaluator evaluator(universe, matcher, model, spec);

  const std::vector<SourceId> incumbent = {1, 2, 3, 4, 5};
  RepairOptions options;
  RepairResult result = RepairIncumbent(evaluator, incumbent, options);
  ASSERT_TRUE(result.seeded);
  EXPECT_EQ(result.evicted, 2);
  EXPECT_GE(result.solution.quality, result.seed_quality);
  EXPECT_EQ(result.solution.stats.solver_name, "repair");
  for (SourceId banned : spec.banned_sources) {
    EXPECT_FALSE(std::binary_search(result.solution.sources.begin(),
                                    result.solution.sources.end(), banned));
  }
}

TEST(RepairUnitTest, WholeIncumbentEvictedMeansNotSeeded) {
  Universe universe = MediumUniverse(16);
  SimilarityGraph graph(universe, MakeDefaultSimilarity(), 0.25);
  ClusterMatcher matcher(universe, graph);
  QualityModel model = QualityModel::MakeDefault();
  ProblemSpec spec;
  spec.max_sources = 5;
  spec.banned_sources = {1, 2};
  CandidateEvaluator evaluator(universe, matcher, model, spec);

  RepairResult result = RepairIncumbent(evaluator, {1, 2}, RepairOptions());
  EXPECT_FALSE(result.seeded);
  EXPECT_EQ(result.evicted, 2);
}

TEST(RepairUnitTest, ReAddsRequiredAndClampsToM) {
  Universe universe = MediumUniverse(16);
  SimilarityGraph graph(universe, MakeDefaultSimilarity(), 0.25);
  ClusterMatcher matcher(universe, graph);
  QualityModel model = QualityModel::MakeDefault();
  ProblemSpec spec;
  spec.max_sources = 3;
  spec.source_constraints = {0};
  CandidateEvaluator evaluator(universe, matcher, model, spec);

  // Oversized and missing the required source.
  RepairResult result =
      RepairIncumbent(evaluator, {3, 4, 5, 6, 7}, RepairOptions());
  ASSERT_TRUE(result.seeded);
  EXPECT_LE(static_cast<int>(result.solution.sources.size()),
            spec.max_sources);
  EXPECT_TRUE(std::binary_search(result.solution.sources.begin(),
                                 result.solution.sources.end(), SourceId{0}));
}

TEST(RepairUnitTest, DeterministicAcrossThreadCounts) {
  Universe universe = MediumUniverse(16);
  SimilarityGraph graph(universe, MakeDefaultSimilarity(), 0.25);
  ClusterMatcher matcher(universe, graph);
  QualityModel model = QualityModel::MakeDefault();
  ProblemSpec spec;
  spec.max_sources = 5;
  CandidateEvaluator evaluator(universe, matcher, model, spec);

  RepairOptions one;
  one.num_threads = 1;
  RepairOptions four = one;
  four.num_threads = 4;
  RepairResult a = RepairIncumbent(evaluator, {0, 3, 8}, one);
  RepairResult b = RepairIncumbent(evaluator, {0, 3, 8}, four);
  ASSERT_TRUE(a.seeded);
  ASSERT_TRUE(b.seeded);
  EXPECT_EQ(a.solution.sources, b.solution.sources);
  EXPECT_EQ(a.solution.quality, b.solution.quality);
  EXPECT_EQ(a.solution.stats.evaluations, b.solution.stats.evaluations);
  EXPECT_EQ(a.seed_quality, b.seed_quality);
}

TEST(RepairBudgetControllerTest, ClampsBaseAndDoublesOnEscalation) {
  AdaptiveRepairOptions adaptive;
  adaptive.min_eval_budget = 256;
  adaptive.max_eval_budget = 4'096;
  RepairBudgetController controller(64, adaptive);  // below min -> clamped
  EXPECT_EQ(controller.budget(), 256);

  controller.Record(/*evaluations_used=*/256, /*repaired=*/true,
                    /*quality_escalated=*/true, /*wipeout=*/false);
  EXPECT_EQ(controller.budget(), 512);
  controller.Record(512, true, true, false);
  EXPECT_EQ(controller.budget(), 1'024);
  controller.Record(1'024, true, true, false);
  controller.Record(2'048, true, true, false);
  controller.Record(4'096, true, true, false);
  EXPECT_EQ(controller.budget(), 4'096);  // capped at max
}

TEST(RepairBudgetControllerTest, ShrinksAfterConsecutiveCheapSuccesses) {
  AdaptiveRepairOptions adaptive;
  adaptive.min_eval_budget = 256;
  adaptive.max_eval_budget = 16'384;
  adaptive.shrink_after = 3;
  RepairBudgetController controller(4'096, adaptive);
  // Cheap: evaluations * 2 <= budget. Two cheap batches are not enough.
  controller.Record(100, true, false, false);
  controller.Record(100, true, false, false);
  EXPECT_EQ(controller.budget(), 4'096);
  controller.Record(100, true, false, false);  // third -> shrink by 1/4
  EXPECT_EQ(controller.budget(), 3'072);
  // A wipeout resets the streak without touching the budget.
  controller.Record(100, false, false, true);
  EXPECT_EQ(controller.budget(), 3'072);
  controller.Record(100, true, false, false);
  controller.Record(100, true, false, false);
  EXPECT_EQ(controller.budget(), 3'072);  // streak restarted after wipeout
}

TEST(RepairBudgetControllerTest, SustainedEscalationPressurePinsAtMax) {
  AdaptiveRepairOptions adaptive;
  adaptive.min_eval_budget = 256;
  adaptive.max_eval_budget = 8'192;
  adaptive.window = 4;
  RepairBudgetController controller(256, adaptive);
  // Alternate escalated / cheap so doubling alone would not reach max, but
  // half the trailing window escalated -> pinned at max.
  controller.Record(256, true, true, false);
  controller.Record(64, true, false, false);
  controller.Record(512, true, true, false);
  controller.Record(64, true, false, false);
  EXPECT_EQ(controller.budget(), 8'192);
  EXPECT_EQ(controller.ring().total(), 4);
}

TEST(ContinuousTest, FormatContinuousReportRendersReasons) {
  Universe universe = MediumUniverse(16);
  ChurnFeedConfig feed;
  feed.seed = 99;
  feed.events_per_sec = 2.0;
  feed.horizon_ms = 10'000.0;
  feed.attr_rename_weight = 4.0;
  feed.attr_add_weight = 2.0;
  feed.attr_drop_weight = 2.0;
  ChurnTrace trace = GenerateChurnTrace(universe, feed).value();
  Engine engine(std::move(universe), QualityModel::MakeDefault());
  Result<ContinuousReport> report =
      engine.RunContinuous(BasicSpec(), trace, QuickContinuous());
  ASSERT_TRUE(report.ok()) << report.status();
  const std::string text = FormatContinuousReport(*report);
  EXPECT_NE(text.find("continuous: "), std::string::npos);
  EXPECT_NE(text.find("schema drift"), std::string::npos);
  EXPECT_NE(text.find("escalation reasons:"), std::string::npos);
  // Every batch line renders, with budget when the batch was repaired.
  size_t batches = 0;
  for (size_t at = text.find("  batch "); at != std::string::npos;
       at = text.find("  batch ", at + 1)) {
    ++batches;
  }
  EXPECT_EQ(batches, report->steps.size());
}

}  // namespace
}  // namespace ube
