#ifndef UBE_OPTIMIZE_SOLVER_INTERNAL_H_
#define UBE_OPTIMIZE_SOLVER_INTERNAL_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"
#include "optimize/delta_evaluator.h"
#include "optimize/evaluator.h"
#include "optimize/problem.h"
#include "optimize/solver.h"
#include "util/result.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ube::internal {

/// Per-solve observability scope shared by every solver. Construction
/// attaches SolverOptions::obs to the evaluator, opens a "solve/<name>"
/// span and allocates the telemetry ring; destruction detaches. When
/// options.obs is null (the default) every member is a cheap no-op, so
/// solvers use it unconditionally — gate only per-iteration sample
/// *assembly* on enabled() when it costs anything (e.g. counting the tabu
/// list).
class SolveScope {
 public:
  SolveScope(const CandidateEvaluator& evaluator, const SolverOptions& options,
             std::string_view solver_name);
  ~SolveScope();
  SolveScope(const SolveScope&) = delete;
  SolveScope& operator=(const SolveScope&) = delete;

  bool enabled() const { return obs_ != nullptr; }

  /// Records one outer-iteration telemetry sample (ring-bounded).
  void RecordIteration(const obs::IterationSample& sample) {
    if (ring_ != nullptr) ring_->Record(sample);
  }

  /// Copies telemetry and a metrics snapshot into `stats` and bumps the
  /// solver.stop.<reason> counter. FinalizeSolution calls this; only call
  /// it directly on non-FinalizeSolution exits.
  void Export(SolverStats* stats);

 private:
  const CandidateEvaluator& evaluator_;
  obs::ObsContext* obs_ = nullptr;
  std::unique_ptr<obs::TelemetryRing> ring_;
  obs::Tracer::Span span_;
};

/// True when the wall-clock or evaluation budget is set and spent, setting
/// `*stop` to the matching reason (time wins when both expired, so tiny
/// time-limit tests keep seeing kTimeLimit). Solvers must consult this both
/// before dispatching a QualityBatch and right after it returns: checking
/// only at the top of the outer loop lets one large batch overshoot either
/// budget by an unbounded amount.
inline bool BudgetExpired(const WallTimer& timer,
                          const CandidateEvaluator& evaluator,
                          const SolverOptions& options, StopReason* stop) {
  if (options.time_limit_seconds > 0.0 &&
      timer.ElapsedSeconds() >= options.time_limit_seconds) {
    *stop = StopReason::kTimeLimit;
    return true;
  }
  if (options.max_evaluations > 0 &&
      evaluator.num_evaluations() >= options.max_evaluations) {
    *stop = StopReason::kEvalBudget;
    return true;
  }
  return false;
}

/// Fully evaluates `best` and packages it (plus effort counters and the
/// stop reason) into a Solution. Shared by every solver. `trace` (may be
/// empty) is moved into the stats; `scope`, when given, exports telemetry
/// and metrics into the stats.
Solution FinalizeSolution(const CandidateEvaluator& evaluator,
                          std::vector<SourceId> best, std::string solver_name,
                          int64_t iterations, const WallTimer& timer,
                          StopReason stop_reason,
                          std::vector<TracePoint> trace = {},
                          SolveScope* scope = nullptr);

/// Appends a trace point when tracing is enabled.
inline void MaybeTrace(bool enabled, const CandidateEvaluator& evaluator,
                       double best_quality, std::vector<TracePoint>* trace) {
  if (!enabled) return;
  trace->push_back(TracePoint{evaluator.num_evaluations(), best_quality});
}

/// Common entry checks: non-empty universe. Returns OK or kInfeasible.
Status CheckSolvable(const CandidateEvaluator& evaluator);

/// The sanitized warm-start seed from SolverOptions::initial_incumbent, or
/// an empty vector when there is none or it is infeasible under the
/// evaluator's spec (out-of-range/banned member, missing required source,
/// size outside [1, m] after dedup). Solvers treat empty as "cold start" —
/// and MUST NOT have consumed any randomness before calling this, so the
/// infeasible-seed path stays bit-identical to a cold solve.
std::vector<SourceId> ValidWarmStart(const CandidateEvaluator& evaluator,
                                     const SolverOptions& options);

/// Thread pool for batch scoring per SolverOptions::num_threads, or null
/// when the resolved count is 1 (batches then evaluate inline).
std::unique_ptr<ThreadPool> MakeEvalPool(const SolverOptions& options);

}  // namespace ube::internal

#endif  // UBE_OPTIMIZE_SOLVER_INTERNAL_H_
