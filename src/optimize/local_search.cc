#include <algorithm>
#include <memory>
#include <vector>

#include "optimize/search_state.h"
#include "optimize/solver_internal.h"
#include "optimize/solvers.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ube {

namespace {

constexpr double kEps = 1e-12;

}  // namespace

Result<Solution> LocalSearchSolver::Solve(const CandidateEvaluator& evaluator,
                                          const SolverOptions& options) const {
  UBE_RETURN_IF_ERROR(internal::CheckSolvable(evaluator));
  WallTimer timer(options.clock);
  evaluator.BeginRun();
  internal::SolveScope scope(evaluator, options, name());
  Rng rng(options.seed);
  std::unique_ptr<ThreadPool> pool = internal::MakeEvalPool(options);
  DeltaEvaluator delta(evaluator);

  const int n = evaluator.universe().num_sources();
  const int sample = options.candidate_moves > 0
                         ? options.candidate_moves
                         : std::min(64, std::max(24, n / 8));
  const int restarts = std::max(1, options.restarts);
  const int iters_per_restart =
      std::max(1, options.max_iterations / restarts);

  // Warm start: the first restart climbs from the seed; later restarts
  // stay random. Checked before any rng use (cold fallback bit-identity).
  std::vector<SourceId> warm = internal::ValidWarmStart(evaluator, options);

  std::vector<SourceId> best;
  double best_quality = -1.0;
  int64_t iterations = 0;
  StopReason stop = StopReason::kMaxIterations;
  std::vector<TracePoint> trace;

  for (int restart = 0; restart < restarts; ++restart) {
    // The deadline may only end the run once an incumbent exists: the first
    // restart must initialize and take its inner-loop checks, or a tiny
    // time limit would return an empty (infeasible) solution.
    if (!best.empty() &&
        internal::BudgetExpired(timer, evaluator, options, &stop)) {
      break;
    }
    SearchState state = (restart == 0 && !warm.empty())
                            ? SearchState(evaluator, warm)
                            : SearchState(evaluator, rng);
    double current = delta.Quality(state.sources());
    if (current > best_quality) {
      best_quality = current;
      best = state.sources();
      internal::MaybeTrace(options.record_trace, evaluator, best_quality,
                           &trace);
    }

    for (int iter = 0; iter < iters_per_restart; ++iter) {
      // Pre-dispatch deadline check (post-batch check below).
      if (internal::BudgetExpired(timer, evaluator, options, &stop)) {
        break;
      }
      ++iterations;
      // Sample the neighborhood up front and score it as one batch; the
      // selection below replays the sequential first-improvement rule over
      // the precomputed qualities, so any thread count gives the same walk.
      std::vector<SearchState::Move> moves;
      std::vector<std::vector<SourceId>> candidates;
      for (int k = 0; k < sample; ++k) {
        SearchState::Move move;
        if (!state.RandomMove(rng, &move)) break;
        moves.push_back(move);
        candidates.push_back(state.Apply(move));
      }
      std::vector<double> qualities = delta.ScoreNeighborhood(
          state.sources(), moves, candidates, pool.get());
      bool improved = false;
      SearchState::Move chosen;
      double chosen_quality = current;
      for (size_t k = 0; k < moves.size(); ++k) {
        if (qualities[k] > chosen_quality + kEps) {
          improved = true;
          chosen = moves[k];
          chosen_quality = qualities[k];
        }
      }
      if (improved) {
        state.Commit(chosen);
        current = chosen_quality;
        if (current > best_quality) {
          best_quality = current;
          best = state.sources();
          internal::MaybeTrace(options.record_trace, evaluator, best_quality,
                               &trace);
        }
      }
      if (scope.enabled()) {
        obs::IterationSample sample;
        sample.iteration = iterations;
        sample.evaluations = evaluator.num_evaluations();
        sample.incumbent_quality = best_quality;
        sample.neighborhood = static_cast<int32_t>(candidates.size());
        scope.RecordIteration(sample);
      }
      // Post-batch deadline check: the batch already ran, so fold its
      // result (above) but do not dispatch another one past the budget.
      if (internal::BudgetExpired(timer, evaluator, options, &stop)) {
        break;
      }
      if (!improved) break;  // local optimum w.r.t. the sampled neighborhood
    }
  }

  return internal::FinalizeSolution(evaluator, std::move(best),
                                    std::string(name()), iterations, timer,
                                    stop, std::move(trace), &scope);
}

Result<Solution> RandomSolver::Solve(const CandidateEvaluator& evaluator,
                                     const SolverOptions& options) const {
  UBE_RETURN_IF_ERROR(internal::CheckSolvable(evaluator));
  WallTimer timer(options.clock);
  evaluator.BeginRun();
  internal::SolveScope scope(evaluator, options, name());
  Rng rng(options.seed);
  DeltaEvaluator delta(evaluator);

  std::vector<SourceId> best;
  double best_quality = -1.0;
  int64_t iterations = 0;
  StopReason stop = StopReason::kMaxIterations;
  std::vector<TracePoint> trace;
  // Warm start: the seed becomes the incumbent every sample must beat.
  std::vector<SourceId> warm = internal::ValidWarmStart(evaluator, options);
  if (!warm.empty()) {
    best_quality = delta.Quality(warm);
    best = std::move(warm);
    internal::MaybeTrace(options.record_trace, evaluator, best_quality,
                         &trace);
  }
  for (int i = 0; i < std::max(1, options.random_samples); ++i) {
    // First sample always runs so a tiny time limit still yields a feasible
    // (nonempty) incumbent.
    if (!best.empty() &&
        internal::BudgetExpired(timer, evaluator, options, &stop)) {
      break;
    }
    ++iterations;
    std::vector<SourceId> candidate = RandomFeasibleCandidate(evaluator, rng);
    double quality = delta.Quality(candidate);
    if (quality > best_quality) {
      best_quality = quality;
      best = std::move(candidate);
      internal::MaybeTrace(options.record_trace, evaluator, best_quality,
                           &trace);
    }
    if (scope.enabled()) {
      obs::IterationSample sample;
      sample.iteration = iterations;
      sample.evaluations = evaluator.num_evaluations();
      sample.incumbent_quality = best_quality;
      sample.neighborhood = 1;
      scope.RecordIteration(sample);
    }
  }

  return internal::FinalizeSolution(evaluator, std::move(best),
                                    std::string(name()), iterations, timer,
                                    stop, std::move(trace), &scope);
}

}  // namespace ube
