// Neighborhood-evaluation throughput of CandidateEvaluator::QualityBatch
// on the paper-scale 200-source universe: cache-cold batches of sampled
// tabu neighborhoods, scored at 1/2/4/8 threads. Also cross-checks that the
// parallel results are bit-identical to the sequential ones, times the same
// sweep through the solvers' incremental path (DeltaEvaluator) against
// QualityBatch on a data-only model, and reports an end-to-end tabu run at
// each thread count.
//
// Note: the speedup column only shows parallel gain on a multi-core host;
// on a single hardware thread the batch path degenerates gracefully to
// roughly sequential throughput.
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "optimize/delta_evaluator.h"
#include "optimize/search_state.h"
#include "qef/qef.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace ube;
using namespace ube::bench;

namespace {

// Scores one neighborhood: base candidate, its sampled moves, and the
// candidates they produce (parallel to the moves).
using ScoreFn = std::function<std::vector<double>(
    const std::vector<SourceId>& base, std::span<const SearchState::Move>,
    std::span<const std::vector<SourceId>>)>;

// One tabu-style neighborhood sweep: `batches` rounds of `sample` moves
// from an evolving search state, each round scored by `score`. Returns
// candidates per second.
double MeasureThroughput(const CandidateEvaluator& evaluator,
                         const ScoreFn& score, int batches, int sample,
                         std::vector<double>* qualities_out) {
  evaluator.BeginRun();
  Rng rng(123);
  SearchState state(evaluator, rng);
  qualities_out->clear();
  int64_t scored = 0;
  WallTimer timer;
  for (int b = 0; b < batches; ++b) {
    std::vector<SearchState::Move> moves;
    std::vector<std::vector<SourceId>> candidates;
    for (int k = 0; k < sample; ++k) {
      SearchState::Move move;
      if (!state.RandomMove(rng, &move)) break;
      moves.push_back(move);
      candidates.push_back(state.Apply(move));
    }
    std::vector<double> qualities = score(state.sources(), moves, candidates);
    scored += static_cast<int64_t>(qualities.size());
    qualities_out->insert(qualities_out->end(), qualities.begin(),
                          qualities.end());
    // Walk like tabu would: commit the best sampled move.
    size_t best = 0;
    for (size_t k = 1; k < qualities.size(); ++k) {
      if (qualities[k] > qualities[best]) best = k;
    }
    if (!moves.empty()) state.Commit(moves[best]);
  }
  double seconds = timer.ElapsedSeconds();
  return seconds > 0.0 ? static_cast<double>(scored) / seconds : 0.0;
}

// The full path: CandidateEvaluator::QualityBatch on `pool` (null = inline).
ScoreFn FullPath(const CandidateEvaluator& evaluator, ThreadPool* pool) {
  return [&evaluator, pool](const std::vector<SourceId>&,
                            std::span<const SearchState::Move>,
                            std::span<const std::vector<SourceId>> candidates) {
    return evaluator.QualityBatch(candidates, pool);
  };
}

}  // namespace

int main(int argc, char** argv) {
  BenchHarness bench("parallel_eval");
  bench.ParseOrExit(argc, argv);
  const BenchArgs& args = bench.args();
  WallTimer total;
  std::printf("QualityBatch throughput — 200 sources, choose 20, "
              "64-move neighborhoods, cache-cold per configuration\n");
  std::printf("(hardware threads available: %d)\n\n",
              ThreadPool::HardwareConcurrency());

  GeneratedWorkload workload = MakeWorkload(200, args.workload_seed);
  Engine engine(std::move(workload.universe), QualityModel::MakeDefault());
  ProblemSpec spec;
  spec.max_sources = 20;
  CandidateEvaluator evaluator(engine.universe(), engine.matcher(),
                               engine.quality_model(), spec);

  const int kBatches = 24;
  const int kSample = 64;
  std::vector<double> reference;
  double base = MeasureThroughput(evaluator, FullPath(evaluator, nullptr),
                                  kBatches, kSample, &reference);
  bench.SetMetric("cand_per_s_t1", base);

  bool all_identical = true;
  PrintRow({"threads", "cand/s", "speedup", "identical"});
  PrintRow({"1", Fmt("%.1f", base), "1.00x", "ref"});
  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<double> qualities;
    double rate = MeasureThroughput(evaluator, FullPath(evaluator, &pool),
                                    kBatches, kSample, &qualities);
    bool identical = qualities == reference;
    all_identical = all_identical && identical;
    if (threads == 8) bench.SetMetric("cand_per_s_t8", rate);
    PrintRow({Fmt(static_cast<int64_t>(threads)), Fmt("%.1f", rate),
              Fmt("%.2f", base > 0.0 ? rate / base : 0.0) + "x",
              identical ? "yes" : "NO"});
  }
  bench.SetMetric("batch_identical", static_cast<int64_t>(all_identical));

  // Single-flip neighborhoods on a data-only model, scored through the
  // solvers' incremental path and through the full QualityBatch path
  // (under a matching model both would be dominated by Match(S)).
  std::printf("\nSingle-flip scoring, data-only model:\n");
  QualityModel data_model;
  data_model.AddQef(std::make_unique<CardinalityQef>(), 0.4);
  data_model.AddQef(std::make_unique<CoverageQef>(), 0.3);
  data_model.AddQef(std::make_unique<RedundancyQef>(), 0.2);
  data_model.AddQef(std::make_unique<CharacteristicQef>(
                        "mttf", Aggregation::kWeightedSum),
                    0.1);
  CandidateEvaluator flip_evaluator(engine.universe(), engine.matcher(),
                                    data_model, spec);
  std::vector<double> delta_scores;
  DeltaEvaluator delta(flip_evaluator);
  double delta_rate = MeasureThroughput(
      flip_evaluator,
      [&delta](const std::vector<SourceId>& base,
               std::span<const SearchState::Move> moves,
               std::span<const std::vector<SourceId>> candidates) {
        return delta.ScoreNeighborhood(base, moves, candidates, nullptr);
      },
      kBatches, kSample, &delta_scores);
  std::vector<double> full_scores;
  double full_rate =
      MeasureThroughput(flip_evaluator, FullPath(flip_evaluator, nullptr),
                        kBatches, kSample, &full_scores);
  bool delta_identical = delta_scores == full_scores;
  bench.SetMetric("delta_cand_per_s", delta_rate);
  bench.SetMetric("delta_off_cand_per_s", full_rate);
  bench.SetMetric("delta_speedup",
                  full_rate > 0.0 ? delta_rate / full_rate : 0.0);
  bench.SetMetric("delta_identical", static_cast<int64_t>(delta_identical));
  PrintRow({"path", "cand/s", "speedup", "identical"});
  PrintRow({"full", Fmt("%.1f", full_rate), "1.00x", "ref"});
  PrintRow({"delta", Fmt("%.1f", delta_rate),
            Fmt("%.2f", full_rate > 0.0 ? delta_rate / full_rate : 0.0) + "x",
            delta_identical ? "yes" : "NO"});
  if (!delta_identical) {
    std::printf("ERROR: delta scores diverged from the full path\n");
    return 1;
  }

  std::printf("\nEnd-to-end tabu search (seed 1), same instance:\n");
  PrintRow({"threads", "time(s)", "quality", "evals"});
  std::vector<SourceId> reference_sources;
  for (int threads : {1, 8}) {
    SolverOptions options = BenchSolverOptions(args.SolverSeed(1), threads);
    options.max_iterations = 120;
    options.stall_iterations = 60;
    WallTimer timer;
    Result<Solution> solution =
        engine.Solve(spec, SolverKind::kTabu, options);
    double seconds = timer.ElapsedSeconds();
    if (!solution.ok()) continue;
    if (threads == 1) {
      reference_sources = solution->sources;
      bench.SetMetric("tabu_t1_ms", seconds * 1e3);
      bench.SetMetric("q_best", solution->quality);
      bench.SetMetric("evals", solution->stats.evaluations);
    }
    PrintRow({Fmt(static_cast<int64_t>(threads)), Fmt("%.2f", seconds),
              Fmt("%.4f", solution->quality),
              Fmt(solution->stats.evaluations)});
    if (threads != 1 && solution->sources != reference_sources) {
      std::printf("ERROR: parallel run diverged from sequential run\n");
      return 1;
    }
  }
  std::printf("\n(solutions are bit-identical across thread counts by "
              "construction)\n");
  bench.SetMetric("wall_ms", total.ElapsedMillis());
  return bench.Finish();
}
