// google-benchmark micro-benchmarks for the µBE building blocks: string
// similarity, PCSA operations, Match(S) clustering, and full candidate
// evaluation. These are the per-call costs that the figure benches
// aggregate.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/harness.h"
#include "core/engine.h"
#include "matching/cluster_matcher.h"
#include "matching/similarity_graph.h"
#include "optimize/delta_evaluator.h"
#include "optimize/evaluator.h"
#include "optimize/search_state.h"
#include "qef/qef.h"
#include "sketch/pcsa.h"
#include "text/ngram.h"
#include "text/similarity.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

ube::GeneratedWorkload& SharedWorkload() {
  static auto* workload = [] {
    ube::WorkloadConfig config;
    config.num_sources = 200;
    config.scale = 0.01;
    return new ube::GeneratedWorkload(ube::GenerateWorkload(config));
  }();
  return *workload;
}

void BM_NgramJaccard(benchmark::State& state) {
  ube::NgramSet a = ube::NgramSet::Build("publication year", 3);
  ube::NgramSet b = ube::NgramSet::Build("year of publication", 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Jaccard(b));
  }
}
BENCHMARK(BM_NgramJaccard);

void BM_NgramBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(ube::NgramSet::Build("publication year", 3));
  }
}
BENCHMARK(BM_NgramBuild);

void BM_LevenshteinScore(benchmark::State& state) {
  ube::LevenshteinSimilarity sim;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.Score("publication year", "year of publication"));
  }
}
BENCHMARK(BM_LevenshteinScore);

void BM_PcsaAdd(benchmark::State& state) {
  ube::PcsaSketch sketch(64);
  uint64_t i = 0;
  for (auto _ : state) {
    sketch.AddHash(++i);
  }
  benchmark::DoNotOptimize(sketch.Estimate());
}
BENCHMARK(BM_PcsaAdd);

void BM_PcsaEstimate(benchmark::State& state) {
  ube::PcsaSketch sketch(static_cast<int>(state.range(0)));
  ube::Rng rng(1);
  for (int i = 0; i < 100000; ++i) sketch.AddHash(rng.Next64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Estimate());
  }
}
BENCHMARK(BM_PcsaEstimate)->Arg(64)->Arg(256)->Arg(1024);

void BM_PcsaMerge20(benchmark::State& state) {
  ube::Rng rng(2);
  std::vector<ube::PcsaSketch> sketches;
  for (int s = 0; s < 20; ++s) {
    ube::PcsaSketch sketch(64);
    for (int i = 0; i < 5000; ++i) sketch.AddHash(rng.Next64());
    sketches.push_back(sketch);
  }
  for (auto _ : state) {
    ube::PcsaSketch merged(64);
    for (const auto& sketch : sketches) merged.Merge(sketch);
    benchmark::DoNotOptimize(merged.Estimate());
  }
}
BENCHMARK(BM_PcsaMerge20);

void BM_SimilarityGraphBuild(benchmark::State& state) {
  auto& workload = SharedWorkload();
  for (auto _ : state) {
    ube::SimilarityGraph graph =
        ube::SimilarityGraph::WithDefaults(workload.universe, 0.25);
    benchmark::DoNotOptimize(graph.num_edges());
  }
}
BENCHMARK(BM_SimilarityGraphBuild)->Unit(benchmark::kMillisecond);

// Match(S) over k sources spread evenly across the 200-source workload.
void RunMatch(benchmark::State& state, int k) {
  auto& workload = SharedWorkload();
  static auto* graph = new ube::SimilarityGraph(
      ube::SimilarityGraph::WithDefaults(workload.universe, 0.25));
  ube::ClusterMatcher matcher(workload.universe, *graph);
  std::vector<ube::SourceId> sources;
  for (ube::SourceId s = 0; s < 200; s += 200 / k) sources.push_back(s);
  ube::MatchOptions options;
  for (auto _ : state) {
    auto result = matcher.Match(sources, {}, {}, options);
    benchmark::DoNotOptimize(result.ok());
  }
}

void BM_Match20Sources(benchmark::State& state) { RunMatch(state, 20); }
BENCHMARK(BM_Match20Sources)->Unit(benchmark::kMicrosecond);

// The match_us curve over |S| (k = 20 is BM_Match20Sources' set), reported
// in BENCH_micro_ube.json as match_us_s<k>.
void BM_Match(benchmark::State& state) {
  RunMatch(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_Match)->Arg(5)->Arg(10)->Arg(20)->Arg(40)
    ->Unit(benchmark::kMicrosecond);

void BM_CandidateEvaluation(benchmark::State& state) {
  auto& workload = SharedWorkload();
  static auto* engine = new ube::Engine(
      [] {
        ube::WorkloadConfig config;
        config.num_sources = 200;
        config.scale = 0.01;
        auto w = ube::GenerateWorkload(config);
        return std::move(w.universe);
      }(),
      ube::QualityModel::MakeDefault());
  (void)workload;
  ube::ProblemSpec spec;
  spec.max_sources = 20;
  std::vector<ube::SourceId> candidate;
  for (ube::SourceId s = 0; s < 200; s += 10) candidate.push_back(s);
  for (auto _ : state) {
    auto evaluation = engine->EvaluateCandidate(spec, candidate);
    benchmark::DoNotOptimize(evaluation.ok());
  }
}
BENCHMARK(BM_CandidateEvaluation)->Unit(benchmark::kMicrosecond);

void BM_WorkloadGeneration(benchmark::State& state) {
  for (auto _ : state) {
    ube::WorkloadConfig config;
    config.num_sources = static_cast<int>(state.range(0));
    config.scale = 0.01;
    auto workload = ube::GenerateWorkload(config);
    benchmark::DoNotOptimize(workload.universe.num_sources());
  }
}
BENCHMARK(BM_WorkloadGeneration)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

// The flip sweep scores the four data QEFs: under a matching model both
// sides would spend nearly all their time in the same Match(S) call, and
// the sweep would measure the matcher instead of the incremental context.
ube::QualityModel DataOnlyModel() {
  ube::QualityModel model;
  model.AddQef(std::make_unique<ube::CardinalityQef>(), 0.4);
  model.AddQef(std::make_unique<ube::CoverageQef>(), 0.3);
  model.AddQef(std::make_unique<ube::RedundancyQef>(), 0.2);
  model.AddQef(std::make_unique<ube::CharacteristicQef>(
                   "mttf", ube::Aggregation::kWeightedSum),
               0.1);
  return model;
}

// Single-flip evaluation throughput: one seeded tabu-style move stream over
// a paper-scale 1000-source universe, each flip scored as a one-move
// neighborhood — through DeltaEvaluator's incremental path (what the
// solvers run) and through the full CandidateEvaluator::QualityBatch path.
// The full path pays O(|universe|) per evaluation (characteristic
// normalization rescans) while the delta path's per-flip cost is
// independent of universe size, which is the quantity this sweep tracks.
// Identical rng streams give identical candidate sequences, cache behavior
// included, so the ratio is a pure per-flip-cost comparison. Emits
// flip_delta_per_s, flip_full_per_s and delta_flip_speedup.
void RunFlipSweep(ube::bench::BenchHarness& bench) {
  ube::WorkloadConfig config;
  config.num_sources = 1000;
  config.scale = 0.01;
  ube::GeneratedWorkload workload = ube::GenerateWorkload(config);
  ube::SimilarityGraph graph =
      ube::SimilarityGraph::WithDefaults(workload.universe, 0.25);
  ube::ClusterMatcher matcher(workload.universe, graph);
  ube::QualityModel model = DataOnlyModel();
  ube::ProblemSpec spec;
  spec.max_sources = 20;
  ube::CandidateEvaluator evaluator(workload.universe, matcher, model, spec);

  constexpr int kFlips = 4000;
  // `score(base, moves, candidates)` scores one one-move neighborhood.
  auto sweep = [&](const auto& score) {
    evaluator.BeginRun();
    ube::Rng rng(bench.args().SolverSeed(913));
    ube::SearchState state(evaluator, rng);
    std::vector<ube::SearchState::Move> moves(1);
    std::vector<std::vector<ube::SourceId>> candidates(1);
    double sink = 0.0;
    for (int i = 0; i < kFlips; ++i) {
      if (!state.RandomMove(rng, &moves[0])) break;
      candidates[0] = state.Apply(moves[0]);
      sink += score(state.sources(), moves, candidates)[0];
      // Commit occasionally so the sweep pays realistic rebase costs.
      if (i % 8 == 7) state.Commit(moves[0]);
    }
    benchmark::DoNotOptimize(sink);
  };

  const double delta_ms = bench.TimeMs("flip_delta", [&] {
    ube::DeltaEvaluator delta(evaluator);
    sweep([&](const auto& base, const auto& moves, const auto& candidates) {
      return delta.ScoreNeighborhood(base, moves, candidates, nullptr);
    });
  });
  const double delta_per_s = delta_ms > 0.0 ? kFlips / (delta_ms / 1e3) : 0.0;
  bench.SetMetric("flip_delta_per_s", delta_per_s);
  std::printf("flip sweep (delta): %d flips in %.2f ms (%.0f flips/s)\n",
              kFlips, delta_ms, delta_per_s);
  const double full_ms = bench.TimeMs("flip_full", [&] {
    sweep([&](const auto&, const auto&, const auto& candidates) {
      return evaluator.QualityBatch(candidates);
    });
  });
  const double full_per_s = full_ms > 0.0 ? kFlips / (full_ms / 1e3) : 0.0;
  bench.SetMetric("flip_full_per_s", full_per_s);
  const double speedup = delta_ms > 0.0 ? full_ms / delta_ms : 0.0;
  bench.SetMetric("delta_flip_speedup", speedup);
  std::printf(
      "flip sweep (full):  %d flips in %.2f ms (%.0f flips/s) — "
      "delta speedup %.1fx\n",
      kFlips, full_ms, full_per_s, speedup);
}

// Console output as usual, plus every benchmark's per-iteration real time
// harvested into the harness as `<name>_ns` for BENCH_micro_ube.json, and
// BM_Match/<k> additionally as `match_us_s<k>`.
class MetricReporter : public benchmark::ConsoleReporter {
 public:
  explicit MetricReporter(ube::bench::BenchHarness* bench)
      : bench_(bench) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.iterations <= 0) continue;
      std::string key = run.benchmark_name();
      for (char& c : key) {
        if (c == '/' || c == ':') c = '_';
      }
      const double ns_per_iter = run.real_accumulated_time /
                                 static_cast<double>(run.iterations) * 1e9;
      bench_->SetMetric(key + "_ns", ns_per_iter);
      const std::string match_prefix = "BM_Match_";
      if (key.starts_with(match_prefix)) {
        bench_->SetMetric("match_us_s" + key.substr(match_prefix.size()),
                          ns_per_iter / 1e3);
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  ube::bench::BenchHarness* bench_;
};

}  // namespace

int main(int argc, char** argv) {
  ube::bench::BenchHarness bench("micro_ube");
  // Harness flags first; --benchmark_* (and anything else) passes through
  // to google-benchmark's own parser.
  bench.ParseKnownOrExit(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  MetricReporter reporter(&bench);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  RunFlipSweep(bench);
  return bench.Finish();
}
