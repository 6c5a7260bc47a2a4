// Tests for the observability layer (src/obs): metrics registry semantics
// and thread-count-independent merges, the scoped-span tracer, the
// telemetry ring, and — most importantly — the contract that attaching an
// ObsContext never changes any computed result: Solutions are bit-identical
// with observability on or off, and prober metric totals reconcile exactly
// with the AcquisitionReport.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/report.h"
#include "matching/cluster_matcher.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "optimize/evaluator.h"
#include "optimize/solver.h"
#include "qef/quality_model.h"
#include "sketch/distinct_estimator.h"
#include "source/flaky.h"
#include "source/prober.h"
#include "source/universe.h"
#include "util/fault_injection.h"

namespace ube {
namespace {

// ------------------------------ metrics --------------------------------

TEST(MetricsRegistryTest, CountersGaugesHistogramsBasics) {
  obs::MetricsRegistry registry;
  auto hits = registry.Counter("cache.hits");
  auto depth = registry.Gauge("queue.depth");
  auto latency = registry.Histogram("latency_us", {10, 100, 1000});

  registry.Add(hits);
  registry.Add(hits, 4);
  registry.Set(depth, 2.5);
  registry.Observe(latency, 5);     // bucket [<=10]
  registry.Observe(latency, 10);    // bucket [<=10] (bounds are inclusive)
  registry.Observe(latency, 500);   // bucket [<=1000]
  registry.Observe(latency, 5000);  // overflow bucket

  obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::CounterSnapshot* c = snap.FindCounter("cache.hits");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 5);
  const obs::GaugeSnapshot* g = snap.FindGauge("queue.depth");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value, 2.5);
  const obs::HistogramSnapshot* h = snap.FindHistogram("latency_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4);
  EXPECT_EQ(h->sum, 5515);
  EXPECT_EQ(h->min, 5);
  EXPECT_EQ(h->max, 5000);
  ASSERT_EQ(h->counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h->counts[0], 2);
  EXPECT_EQ(h->counts[1], 0);
  EXPECT_EQ(h->counts[2], 1);
  EXPECT_EQ(h->counts[3], 1);
}

// Regression: values exactly ON a bucket's upper edge land in that bucket
// (edges are inclusive), edge + 1 lands in the next one, and values below
// the first edge — including negatives — land in the first bucket. A
// off-by-one here silently skews every latency distribution we export.
TEST(MetricsRegistryTest, HistogramBucketBoundariesAreInclusive) {
  obs::MetricsRegistry registry;
  auto h = registry.Histogram("edges", {0, 10, 100});

  registry.Observe(h, -5);   // below first edge -> bucket 0
  registry.Observe(h, 0);    // exactly on edge 0 -> bucket 0
  registry.Observe(h, 1);    // just above edge 0 -> bucket 1
  registry.Observe(h, 10);   // exactly on edge 10 -> bucket 1
  registry.Observe(h, 11);   // just above edge 10 -> bucket 2
  registry.Observe(h, 100);  // exactly on last edge -> bucket 2
  registry.Observe(h, 101);  // just above last edge -> overflow

  obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::HistogramSnapshot* hs = snap.FindHistogram("edges");
  ASSERT_NE(hs, nullptr);
  ASSERT_EQ(hs->counts.size(), 4u);
  EXPECT_EQ(hs->counts[0], 2);
  EXPECT_EQ(hs->counts[1], 2);
  EXPECT_EQ(hs->counts[2], 2);
  EXPECT_EQ(hs->counts[3], 1);
  EXPECT_EQ(hs->count, 7);
  EXPECT_EQ(hs->min, -5);
  EXPECT_EQ(hs->max, 101);
  ASSERT_EQ(hs->bounds.size(), 3u);
  EXPECT_EQ(hs->bounds[0], 0);
  EXPECT_EQ(hs->bounds[2], 100);
}

TEST(MetricsRegistryTest, DisabledRegistryRecordsNothing) {
  obs::MetricsRegistry registry(/*enabled=*/false);
  auto c = registry.Counter("x");
  auto h = registry.Histogram("y", {1, 2});
  registry.Add(c, 10);
  registry.Observe(h, 1);
  registry.Set(registry.Gauge("z"), 1.0);
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(MetricsRegistryTest, RegistrationIsIdempotentByName) {
  obs::MetricsRegistry registry;
  auto a = registry.Counter("same");
  auto b = registry.Counter("same");
  EXPECT_EQ(a, b);
  registry.Add(a);
  registry.Add(b);
  obs::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 2);
}

// The merge contract the determinism tests lean on: integer counters and
// histograms reach the same totals no matter how many threads recorded
// them or how the per-thread sinks interleaved.
TEST(MetricsRegistryTest, MergeIsDeterministicAcrossThreadCounts) {
  auto run = [](int num_threads) {
    obs::MetricsRegistry registry;
    auto counter = registry.Counter("work.items");
    auto hist = registry.Histogram("work.size", {10, 100, 1000});
    const int total_items = 960;
    const int per_thread = total_items / num_threads;
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < per_thread; ++i) {
          registry.Add(counter);
          // Values depend on the global item index, not the thread, so
          // every partition of the work records the same multiset.
          int64_t value = (t * per_thread + i) % 1500;
          registry.Observe(hist, value);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    return registry.Snapshot();
  };

  obs::MetricsSnapshot one = run(1);
  obs::MetricsSnapshot four = run(4);
  obs::MetricsSnapshot eight = run(8);
  ASSERT_EQ(one.counters.size(), 1u);
  EXPECT_EQ(one.counters[0].value, 960);
  for (const obs::MetricsSnapshot* other : {&four, &eight}) {
    ASSERT_EQ(other->counters.size(), one.counters.size());
    EXPECT_EQ(other->counters[0].value, one.counters[0].value);
    ASSERT_EQ(other->histograms.size(), one.histograms.size());
    EXPECT_EQ(other->histograms[0].counts, one.histograms[0].counts);
    EXPECT_EQ(other->histograms[0].count, one.histograms[0].count);
    EXPECT_EQ(other->histograms[0].sum, one.histograms[0].sum);
    EXPECT_EQ(other->histograms[0].min, one.histograms[0].min);
    EXPECT_EQ(other->histograms[0].max, one.histograms[0].max);
  }
}

TEST(MetricsRegistryTest, LateRegistrationReachesEarlierThreadsSinks) {
  obs::MetricsRegistry registry;
  auto first = registry.Counter("first");
  registry.Add(first);  // this thread's sink sized for one counter
  auto second = registry.Counter("second");
  registry.Add(second);  // forces the too-small sink to be retired/regrown
  registry.Add(first);
  obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::CounterSnapshot* f = snap.FindCounter("first");
  const obs::CounterSnapshot* s = snap.FindCounter("second");
  ASSERT_NE(f, nullptr);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(f->value, 2);
  EXPECT_EQ(s->value, 1);
}

TEST(MetricsRegistryTest, ResetZeroesWithoutInvalidatingIds) {
  obs::MetricsRegistry registry;
  auto c = registry.Counter("c");
  auto h = registry.Histogram("h", {10});
  registry.Add(c, 3);
  registry.Observe(h, 5);
  registry.Reset();
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("c")->value, 0);
  EXPECT_EQ(snap.FindHistogram("h")->count, 0);
  registry.Add(c);  // the old id must still be valid
  EXPECT_EQ(registry.Snapshot().FindCounter("c")->value, 1);
}

TEST(MetricsReportTest, FormatContainsAllSections) {
  obs::MetricsRegistry registry;
  registry.Add(registry.Counter("hits"), 7);
  registry.Set(registry.Gauge("load"), 0.5);
  registry.Observe(registry.Histogram("lat", {10, 20}), 15);
  std::string report = obs::FormatMetricsReport(registry.Snapshot());
  EXPECT_NE(report.find("counters:"), std::string::npos);
  EXPECT_NE(report.find("hits = 7"), std::string::npos);
  EXPECT_NE(report.find("gauges:"), std::string::npos);
  EXPECT_NE(report.find("histograms:"), std::string::npos);
  EXPECT_NE(report.find("[<=20]=1"), std::string::npos);

  std::string empty = obs::FormatMetricsReport(obs::MetricsSnapshot{});
  EXPECT_NE(empty.find("no metrics recorded"), std::string::npos);
}

// ------------------------------- tracer --------------------------------

TEST(TracerTest, SpansProduceChromeTraceJson) {
  obs::Tracer tracer;
  {
    obs::Tracer::Span outer = tracer.StartSpan("solve/tabu");
    obs::Tracer::Span inner = tracer.StartSpan("eval/batch");
  }
  tracer.AddEvent("manual", 1.0, 2.0);
  EXPECT_EQ(tracer.num_events(), 3);
  std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"solve/tabu\""), std::string::npos);
  EXPECT_NE(json.find("\"eval/batch\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Crude structural sanity: balanced braces/brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TracerTest, DisabledTracerIsNoOp) {
  obs::Tracer tracer(/*enabled=*/false);
  {
    obs::Tracer::Span span = tracer.StartSpan("ignored");
  }
  EXPECT_EQ(tracer.num_events(), 0);
  EXPECT_NE(tracer.ToChromeTraceJson().find("\"traceEvents\""),
            std::string::npos);
  // Null-tracer spans (what SpanIf returns when obs is off) are no-ops too.
  obs::Tracer::Span null_span = obs::SpanIf(nullptr, "also-ignored");
  null_span.End();
}

TEST(TracerTest, SummaryAggregatesByName) {
  obs::Tracer tracer;
  tracer.AddEvent("phase/a", 0.0, 1000.0);
  tracer.AddEvent("phase/a", 2000.0, 3000.0);
  tracer.AddEvent("phase/b", 0.0, 500.0);
  std::string summary = tracer.Summary();
  EXPECT_NE(summary.find("phase/a"), std::string::npos);
  EXPECT_NE(summary.find("phase/b"), std::string::npos);
  // phase/a appears before phase/b (sorted) and has count 2.
  EXPECT_LT(summary.find("phase/a"), summary.find("phase/b"));
}

TEST(TracerTest, JsonEscapesSpecialCharacters) {
  obs::Tracer tracer;
  tracer.AddEvent("quote\"back\\slash\n", 0.0, 1.0);
  std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("quote\\\"back\\\\slash\\n"), std::string::npos);
}

// ------------------------------ telemetry ------------------------------

TEST(TelemetryRingTest, KeepsTailAndCountsDropped) {
  obs::TelemetryRing ring(4);
  for (int i = 1; i <= 10; ++i) {
    obs::IterationSample sample;
    sample.iteration = i;
    ring.Record(sample);
  }
  EXPECT_EQ(ring.total(), 10);
  EXPECT_EQ(ring.dropped(), 6);
  std::vector<obs::IterationSample> samples = ring.Samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples.front().iteration, 7);
  EXPECT_EQ(samples.back().iteration, 10);
}

// --------------------- obs on/off solution identity ---------------------

// Same known-optimum universe as test_optimize: disjoint sources, quality =
// Card, best m sources = top-m ids.
class KnownOptimumFixture {
 public:
  explicit KnownOptimumFixture(int n = 10) {
    for (int i = 0; i < n; ++i) {
      DataSource s("s" + std::to_string(i), SourceSchema({"title"}));
      s.set_cardinality((i + 1) * 100);
      auto sig = std::make_unique<ExactSignature>();
      for (int t = 0; t < (i + 1) * 100; ++t) {
        sig->Add(static_cast<uint64_t>(i) * 1000000 + t);
      }
      s.set_signature(std::move(sig));
      universe_.AddSource(std::move(s));
    }
    model_.AddQef(std::make_unique<CardinalityQef>(), 1.0);
    graph_ = std::make_unique<SimilarityGraph>(
        SimilarityGraph::WithDefaults(universe_, 0.25));
    matcher_ = std::make_unique<ClusterMatcher>(universe_, *graph_);
  }

  CandidateEvaluator MakeEvaluator(const ProblemSpec& spec) {
    return CandidateEvaluator(universe_, *matcher_, model_, spec);
  }

  Universe universe_;
  QualityModel model_;
  std::unique_ptr<SimilarityGraph> graph_;
  std::unique_ptr<ClusterMatcher> matcher_;
};

SolverOptions FastOptions(uint64_t seed) {
  SolverOptions options;
  options.seed = seed;
  options.max_iterations = 120;
  options.stall_iterations = 30;
  options.random_samples = 200;
  options.record_trace = true;
  return options;
}

// Byte-level equality of every deterministic Solution field. Telemetry and
// the metrics snapshot are obs-only extras and deliberately excluded.
void ExpectSameSolution(const Solution& a, const Solution& b,
                        const std::string& label) {
  EXPECT_EQ(a.sources, b.sources) << label;
  EXPECT_EQ(a.quality, b.quality) << label;  // bitwise, not approx
  ASSERT_EQ(a.ga_qualities.size(), b.ga_qualities.size()) << label;
  for (size_t i = 0; i < a.ga_qualities.size(); ++i) {
    EXPECT_EQ(a.ga_qualities[i], b.ga_qualities[i]) << label;
  }
  EXPECT_EQ(a.stats.iterations, b.stats.iterations) << label;
  EXPECT_EQ(a.stats.evaluations, b.stats.evaluations) << label;
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits) << label;
  EXPECT_EQ(a.stats.stop_reason, b.stats.stop_reason) << label;
  ASSERT_EQ(a.stats.trace.size(), b.stats.trace.size()) << label;
  for (size_t i = 0; i < a.stats.trace.size(); ++i) {
    EXPECT_EQ(a.stats.trace[i].evaluations, b.stats.trace[i].evaluations)
        << label;
    EXPECT_EQ(a.stats.trace[i].best_quality, b.stats.trace[i].best_quality)
        << label;
  }
}

TEST(ObsIdentityTest, SolutionBitIdenticalWithObsOnAndOff) {
  const SolverKind kinds[] = {
      SolverKind::kTabu,   SolverKind::kLocalSearch, SolverKind::kAnnealing,
      SolverKind::kPso,    SolverKind::kGreedy,      SolverKind::kRandom,
      SolverKind::kExhaustive};
  KnownOptimumFixture fx;
  ProblemSpec spec;
  spec.max_sources = 3;
  CandidateEvaluator evaluator = fx.MakeEvaluator(spec);
  for (SolverKind kind : kinds) {
    std::unique_ptr<Solver> solver = MakeSolver(kind);
    for (uint64_t seed : {uint64_t{7}, uint64_t{42}}) {
      for (int num_threads : {1, 0}) {
        SolverOptions off = FastOptions(seed);
        off.num_threads = num_threads;
        Result<Solution> plain = solver->Solve(evaluator, off);
        ASSERT_TRUE(plain.ok()) << plain.status();

        obs::ObsContext obs;
        SolverOptions on = off;
        on.obs = &obs;
        Result<Solution> observed = solver->Solve(evaluator, on);
        ASSERT_TRUE(observed.ok()) << observed.status();

        std::string label = std::string(SolverKindName(kind)) + " seed=" +
                            std::to_string(seed) +
                            " threads=" + std::to_string(num_threads);
        ExpectSameSolution(plain.value(), observed.value(), label);
        // The observed run carries the extras; the plain run does not.
        EXPECT_EQ(plain->stats.metrics, nullptr) << label;
        ASSERT_NE(observed->stats.metrics, nullptr) << label;
        EXPECT_NE(observed->stats.stop_reason, StopReason::kUnknown) << label;
      }
    }
  }
}

// Strips the one wall-clock-valued metric family; everything left must be
// identical for any num_threads.
obs::MetricsSnapshot DeterministicPart(obs::MetricsSnapshot snap) {
  snap.histograms.erase(
      std::remove_if(snap.histograms.begin(), snap.histograms.end(),
                     [](const obs::HistogramSnapshot& h) {
                       return h.name == "eval.batch_latency_us";
                     }),
      snap.histograms.end());
  return snap;
}

void ExpectSameSnapshot(const obs::MetricsSnapshot& a,
                        const obs::MetricsSnapshot& b,
                        const std::string& label) {
  ASSERT_EQ(a.counters.size(), b.counters.size()) << label;
  for (size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].name, b.counters[i].name) << label;
    EXPECT_EQ(a.counters[i].value, b.counters[i].value)
        << label << " counter " << a.counters[i].name;
  }
  ASSERT_EQ(a.histograms.size(), b.histograms.size()) << label;
  for (size_t i = 0; i < a.histograms.size(); ++i) {
    const obs::HistogramSnapshot& ha = a.histograms[i];
    const obs::HistogramSnapshot& hb = b.histograms[i];
    EXPECT_EQ(ha.name, hb.name) << label;
    EXPECT_EQ(ha.counts, hb.counts) << label << " histogram " << ha.name;
    EXPECT_EQ(ha.count, hb.count) << label << " histogram " << ha.name;
    EXPECT_EQ(ha.sum, hb.sum) << label << " histogram " << ha.name;
    EXPECT_EQ(ha.min, hb.min) << label << " histogram " << ha.name;
    EXPECT_EQ(ha.max, hb.max) << label << " histogram " << ha.name;
  }
}

TEST(ObsIdentityTest, MetricsTotalsIdenticalAcrossThreadCounts) {
  KnownOptimumFixture fx;
  ProblemSpec spec;
  spec.max_sources = 3;
  CandidateEvaluator evaluator = fx.MakeEvaluator(spec);
  const SolverKind kinds[] = {SolverKind::kTabu, SolverKind::kPso};
  for (SolverKind kind : kinds) {
    std::unique_ptr<Solver> solver = MakeSolver(kind);
    auto run = [&](int num_threads) {
      obs::ObsContext obs;
      SolverOptions options = FastOptions(42);
      options.num_threads = num_threads;
      options.obs = &obs;
      Result<Solution> solution = solver->Solve(evaluator, options);
      EXPECT_TRUE(solution.ok()) << solution.status();
      return DeterministicPart(obs.metrics().Snapshot());
    };
    obs::MetricsSnapshot sequential = run(1);
    obs::MetricsSnapshot parallel = run(0);
    ExpectSameSnapshot(sequential, parallel,
                       std::string(SolverKindName(kind)));
  }
}

TEST(ObsIdentityTest, TelemetryAndSnapshotReconcileWithStats) {
  KnownOptimumFixture fx;
  ProblemSpec spec;
  spec.max_sources = 3;
  CandidateEvaluator evaluator = fx.MakeEvaluator(spec);
  obs::ObsContext obs;
  SolverOptions options = FastOptions(42);
  options.obs = &obs;
  std::unique_ptr<Solver> solver = MakeSolver(SolverKind::kTabu);
  Result<Solution> solution = solver->Solve(evaluator, options);
  ASSERT_TRUE(solution.ok()) << solution.status();
  const SolverStats& stats = solution->stats;

  // One telemetry sample per counted iteration (capacity is ample here).
  ASSERT_FALSE(stats.telemetry.empty());
  EXPECT_EQ(stats.telemetry_dropped, 0);
  EXPECT_EQ(static_cast<int64_t>(stats.telemetry.size()), stats.iterations);
  // Incumbent quality is monotone non-decreasing across iterations.
  for (size_t i = 1; i < stats.telemetry.size(); ++i) {
    EXPECT_GE(stats.telemetry[i].incumbent_quality,
              stats.telemetry[i - 1].incumbent_quality);
  }
  EXPECT_EQ(stats.telemetry.back().incumbent_quality, solution->quality);

  // The snapshot's eval counters reconcile with the evaluator's own.
  ASSERT_NE(stats.metrics, nullptr);
  const obs::CounterSnapshot* computed =
      stats.metrics->FindCounter("eval.computed");
  const obs::CounterSnapshot* hits =
      stats.metrics->FindCounter("eval.cache_hit");
  ASSERT_NE(computed, nullptr);
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(computed->value, stats.evaluations);
  EXPECT_EQ(hits->value, stats.cache_hits);
  // The stop-reason counter was bumped.
  const obs::CounterSnapshot* stop = stats.metrics->FindCounter(
      "solver.stop." + std::string(StopReasonName(stats.stop_reason)));
  ASSERT_NE(stop, nullptr);
  EXPECT_EQ(stop->value, 1);
  // Spans were recorded (solve + batches).
  EXPECT_GT(obs.tracer().num_events(), 0);
}

// ----------------------- evaluator edge counters ------------------------

// The collision and eviction counters fire whichever cache answers: the
// evaluator's own, or an attached SharedQualityCache.
TEST(ObsEvaluatorTest, CollisionRecomputeCounter) {
  for (bool attached : {false, true}) {
    SCOPED_TRACE(attached ? "attached cache" : "own cache");
    KnownOptimumFixture fx;
    ProblemSpec spec;
    spec.max_sources = 3;
    CandidateEvaluator evaluator = fx.MakeEvaluator(spec);
    SharedQualityCache shared(1);
    if (attached) evaluator.AttachSharedCache(&shared);
    evaluator.SetHashFunctionForTesting(
        [](const std::vector<SourceId>&) -> uint64_t { return 12345; });
    obs::ObsContext obs;
    evaluator.AttachObs(&obs);
    EXPECT_GT(evaluator.Quality({0, 1, 2}), 0.0);
    EXPECT_GT(evaluator.Quality({7, 8, 9}), 0.0);  // same key, different set
    evaluator.DetachObs();
    obs::MetricsSnapshot snap = obs.metrics().Snapshot();
    const obs::CounterSnapshot* collisions =
        snap.FindCounter("eval.collision_recompute");
    ASSERT_NE(collisions, nullptr);
    EXPECT_EQ(collisions->value, 1);
    EXPECT_EQ(snap.FindCounter("eval.computed")->value, 2);
  }
}

TEST(ObsEvaluatorTest, ShardEvictionCounter) {
  {
    SCOPED_TRACE("attached cache");
    KnownOptimumFixture fx;
    ProblemSpec spec;
    spec.max_sources = 3;
    CandidateEvaluator evaluator = fx.MakeEvaluator(spec);
    // Constant hash pins every candidate to one shard; capacity 1 makes
    // each insert into the occupied shard clear it first.
    SharedQualityCache shared(/*max_entries_per_shard=*/1);
    evaluator.AttachSharedCache(&shared);
    evaluator.SetHashFunctionForTesting(
        [](const std::vector<SourceId>&) -> uint64_t { return 12345; });
    obs::ObsContext obs;
    evaluator.AttachObs(&obs);
    evaluator.Quality({0, 1, 2});
    evaluator.Quality({1, 2, 3});
    evaluator.Quality({2, 3, 4});
    evaluator.Quality({3, 4, 5});
    evaluator.DetachObs();
    obs::MetricsSnapshot snap = obs.metrics().Snapshot();
    const obs::CounterSnapshot* evictions =
        snap.FindCounter("eval.shard_eviction");
    ASSERT_NE(evictions, nullptr);
    EXPECT_EQ(evictions->value, 3);
    EXPECT_EQ(evictions->value, shared.stats().evictions);
  }
  {
    SCOPED_TRACE("own cache");
    // The own cache keeps the default bound (2^14 entries in each of 16
    // shards). A counting hash gives every call a fresh slot, so
    // 16 * 2^14 + 1 inserts must overflow some shard. One signature-free
    // source keeps each of those evaluations cheap.
    Universe universe;
    DataSource source("s0", SourceSchema({"title"}));
    source.set_cardinality(100);
    universe.AddSource(std::move(source));
    QualityModel model;
    model.AddQef(std::make_unique<CardinalityQef>(), 1.0);
    SimilarityGraph graph = SimilarityGraph::WithDefaults(universe, 0.25);
    ClusterMatcher matcher(universe, graph);
    ProblemSpec spec;
    spec.max_sources = 1;
    CandidateEvaluator evaluator(universe, matcher, model, spec);
    evaluator.SetHashFunctionForTesting(
        [](const std::vector<SourceId>&) -> uint64_t {
          static uint64_t next = 0;
          return ++next;
        });
    obs::ObsContext obs;
    evaluator.AttachObs(&obs);
    const std::vector<SourceId> candidate = {0};
    for (int i = 0; i < 16 * (1 << 14) + 1; ++i) evaluator.Quality(candidate);
    evaluator.DetachObs();
    obs::MetricsSnapshot snap = obs.metrics().Snapshot();
    const obs::CounterSnapshot* evictions =
        snap.FindCounter("eval.shard_eviction");
    ASSERT_NE(evictions, nullptr);
    EXPECT_GE(evictions->value, 1);
    EXPECT_EQ(snap.FindCounter("eval.computed")->value, 16 * (1 << 14) + 1);
  }
}

// ------------------------------- prober --------------------------------

DataSource MakeProbeSource(const std::string& name, int64_t cardinality,
                           int64_t first_tuple) {
  DataSource source(name, SourceSchema({"title", "year"}));
  source.set_cardinality(cardinality);
  auto signature = std::make_unique<ExactSignature>();
  for (int64_t t = 0; t < cardinality; ++t) signature->Add(first_tuple + t);
  source.set_signature(std::move(signature));
  return source;
}

TEST(ObsProberTest, MetricsReconcileWithAcquisitionReport) {
  FaultRates rates;
  rates.transient = 0.6;
  rates.timeout = 0.2;
  rates.stale = 0.1;
  FaultPlan plan(99, rates);

  auto make_targets = [&] {
    std::vector<std::unique_ptr<ProbeTarget>> targets;
    for (int i = 0; i < 24; ++i) {
      auto inner = std::make_unique<InMemoryProbeTarget>(
          MakeProbeSource("src-" + std::to_string(i), 30 + i, i * 1000));
      targets.push_back(
          std::make_unique<FlakyProbeTarget>(std::move(inner), &plan));
    }
    return targets;
  };

  auto run = [&](int num_threads, obs::ObsContext* obs) {
    ProberOptions options;
    options.seed = 7;
    options.num_threads = num_threads;
    options.breaker.trip_threshold = 2;
    options.obs = obs;
    SourceProber prober(options);
    Result<Acquisition> acquired = prober.Acquire(make_targets());
    EXPECT_TRUE(acquired.ok()) << acquired.status();
    return std::move(acquired).value();
  };

  obs::ObsContext obs;
  Acquisition acquisition = run(1, &obs);
  const AcquisitionReport& report = acquisition.report;
  obs::MetricsSnapshot snap = obs.metrics().Snapshot();

  int64_t report_attempts = 0;
  int64_t report_trips = 0;
  for (const SourceAcquisition& s : report.sources) {
    report_attempts += s.attempts;
    report_trips += s.breaker_trips;
  }
  EXPECT_EQ(snap.FindCounter("prober.attempts")->value, report_attempts);
  EXPECT_EQ(snap.FindCounter("prober.breaker.trips")->value, report_trips);
  for (int i = 0; i < 4; ++i) {
    auto outcome = static_cast<AcquisitionOutcome>(i);
    const obs::CounterSnapshot* counter = snap.FindCounter(
        "prober.outcome." + std::string(AcquisitionOutcomeName(outcome)));
    ASSERT_NE(counter, nullptr);
    EXPECT_EQ(counter->value, report.CountOutcome(outcome))
        << AcquisitionOutcomeName(outcome);
  }
  // With a trip threshold of 2 and a 60% transient rate, trips happen.
  EXPECT_GT(report_trips, 0);

  // Same fan-out on a thread pool: the acquisition replays bit-identically
  // and so do ALL prober metrics (backoff waits are simulated-clock
  // valued, so even the histogram matches exactly).
  obs::ObsContext obs_parallel;
  Acquisition parallel = run(4, &obs_parallel);
  ASSERT_EQ(parallel.report.sources.size(), report.sources.size());
  for (size_t i = 0; i < report.sources.size(); ++i) {
    EXPECT_EQ(parallel.report.sources[i].outcome, report.sources[i].outcome);
    EXPECT_EQ(parallel.report.sources[i].attempts,
              report.sources[i].attempts);
  }
  ExpectSameSnapshot(snap, obs_parallel.metrics().Snapshot(),
                     "prober threads 1 vs 4");
  // The acquire + per-probe spans were recorded.
  EXPECT_GT(obs.tracer().num_events(), 0);
}

// ------------------------------- report --------------------------------

TEST(ObsReportTest, FormatSolutionShowsStopReasonAndObservability) {
  Engine::Options engine_options;
  obs::ObsContext obs;
  engine_options.obs = &obs;
  Universe universe;
  for (int i = 0; i < 6; ++i) {
    DataSource s("s" + std::to_string(i), SourceSchema({"title"}));
    s.set_cardinality((i + 1) * 50);
    auto sig = std::make_unique<ExactSignature>();
    for (int t = 0; t < (i + 1) * 50; ++t) {
      sig->Add(static_cast<uint64_t>(i) * 100000 + t);
    }
    s.set_signature(std::move(sig));
    universe.AddSource(std::move(s));
  }
  QualityModel model;
  model.AddQef(std::make_unique<CardinalityQef>(), 1.0);
  Engine engine(std::move(universe), std::move(model),
                std::move(engine_options));
  ProblemSpec spec;
  spec.max_sources = 2;
  Result<Solution> solution = engine.Solve(spec);
  ASSERT_TRUE(solution.ok()) << solution.status();

  std::string report =
      FormatSolution(solution.value(), engine.universe(),
                     engine.quality_model());
  EXPECT_NE(report.find("stop="), std::string::npos);
  EXPECT_NE(report.find("observability:"), std::string::npos);
  EXPECT_NE(report.find("hit rate"), std::string::npos);
  EXPECT_NE(report.find("incumbent curve:"), std::string::npos);
  EXPECT_NE(report.find("eval.computed"), std::string::npos);
  // Engine phases landed in the tracer.
  std::string trace = obs.tracer().ToChromeTraceJson();
  EXPECT_NE(trace.find("phase/match"), std::string::npos);
  EXPECT_NE(trace.find("phase/solve"), std::string::npos);
  EXPECT_NE(trace.find("solve/tabu"), std::string::npos);

  // Stats without a metrics snapshot (no ObsContext attached) render no
  // observability section at all.
  SolverStats plain_stats;
  EXPECT_EQ(FormatObservability(plain_stats), "");
}

TEST(ObsContextTest, FromEnvHonorsVariable) {
  // Unset or "0" → disabled (null); anything else → enabled.
  ::unsetenv(obs::ObsContext::kTraceEnvVar);
  EXPECT_EQ(obs::ObsContext::FromEnv(), nullptr);
  ::setenv(obs::ObsContext::kTraceEnvVar, "0", 1);
  EXPECT_EQ(obs::ObsContext::FromEnv(), nullptr);
  ::setenv(obs::ObsContext::kTraceEnvVar, "1", 1);
  std::unique_ptr<obs::ObsContext> obs = obs::ObsContext::FromEnv();
  ASSERT_NE(obs, nullptr);
  EXPECT_TRUE(obs->options().metrics);
  EXPECT_TRUE(obs->options().trace);
  ::unsetenv(obs::ObsContext::kTraceEnvVar);
}

}  // namespace
}  // namespace ube
