#include "core/engine.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ube {

namespace {

/// Engine::Options → LiveUniverse::Options, with the match-phase span
/// wrapping graph construction (the dominant cost of engine startup).
LiveUniverse BuildLive(Universe universe, Engine::Options* options) {
  obs::Tracer::Span span = obs::SpanIf(options->obs, "phase/match");
  LiveUniverse::Options live;
  live.similarity_floor = options->similarity_floor;
  live.similarity = std::move(options->similarity);
  return LiveUniverse(std::move(universe), std::move(live));
}

/// Required ids of a spec (source constraints + GA constraint sources),
/// sorted unique — the set breaker bans must never touch.
std::vector<SourceId> RequiredIds(const ProblemSpec& spec) {
  std::vector<SourceId> required = spec.source_constraints;
  for (const GlobalAttribute& g : spec.ga_constraints) {
    for (const AttributeId& id : g.attributes()) required.push_back(id.source);
  }
  std::sort(required.begin(), required.end());
  required.erase(std::unique(required.begin(), required.end()),
                 required.end());
  return required;
}

}  // namespace

std::string_view EscalationReasonName(EscalationReason reason) {
  switch (reason) {
    case EscalationReason::kNone:
      return "none";
    case EscalationReason::kQualityFraction:
      return "quality-fraction";
    case EscalationReason::kIncumbentWipeout:
      return "incumbent-wipeout";
    case EscalationReason::kBaseline:
      return "baseline";
  }
  return "unknown";
}

Engine::Engine(Universe universe, QualityModel model)
    : Engine(std::move(universe), std::move(model), Options{}) {}

Engine::Engine(Universe universe, QualityModel model, Options options)
    : model_(std::move(model)),
      obs_(options.obs),
      live_(BuildLive(std::move(universe), &options)) {
  unavailable_ = live_.universe().UnavailableIds();
}

Engine::Engine(Acquisition acquisition, QualityModel model)
    : Engine(std::move(acquisition), std::move(model), Options{}) {}

Engine::Engine(Acquisition acquisition, QualityModel model, Options options)
    : Engine(std::move(acquisition.universe), std::move(model),
             std::move(options)) {
  acquisition_report_ = std::move(acquisition.report);
}

Result<ProblemSpec> Engine::EffectiveSpec(const ProblemSpec& spec) const {
  const Universe& universe = live_.universe();
  if (unavailable_.empty()) return spec;
  // A constraint pinning a dropped source can never be satisfied; report it
  // cleanly instead of letting it surface as a generic validation failure
  // (the dropped shell has an empty schema, so GA constraints on it would
  // otherwise read as "nonexistent attribute").
  for (SourceId s : spec.source_constraints) {
    if (s >= 0 && s < universe.num_sources() &&
        std::binary_search(unavailable_.begin(), unavailable_.end(), s)) {
      return Status::Unavailable(
          "source constraint pins '" + universe.source(s).name() +
          "', which was dropped during acquisition");
    }
  }
  for (const GlobalAttribute& g : spec.ga_constraints) {
    for (const AttributeId& id : g.attributes()) {
      if (id.source >= 0 && id.source < universe.num_sources() &&
          std::binary_search(unavailable_.begin(), unavailable_.end(),
                             id.source)) {
        return Status::Unavailable(
            "GA constraint references '" + universe.source(id.source).name() +
            "', which was dropped during acquisition");
      }
    }
  }
  ProblemSpec effective = spec;
  effective.banned_sources.insert(effective.banned_sources.end(),
                                  unavailable_.begin(), unavailable_.end());
  std::sort(effective.banned_sources.begin(), effective.banned_sources.end());
  effective.banned_sources.erase(
      std::unique(effective.banned_sources.begin(),
                  effective.banned_sources.end()),
      effective.banned_sources.end());
  return effective;
}

Result<ProblemSpec> Engine::EvaluatorSpec(const ProblemSpec& spec) const {
  Result<ProblemSpec> effective = EffectiveSpec(spec);
  UBE_RETURN_IF_ERROR(effective.status());
  UBE_RETURN_IF_ERROR(
      CandidateEvaluator::ValidateSpec(live_.universe(), effective.value()));
  UBE_RETURN_IF_ERROR(
      CandidateEvaluator::ValidateOverlay(model_, effective.value()));
  if (spec.theta < live_.graph().floor()) {
    return Status::InvalidArgument(
        "θ is below the engine's similarity floor; rebuild the engine with a "
        "lower Options::similarity_floor");
  }
  return effective;
}

Result<Solution> Engine::Solve(const ProblemSpec& spec, SolverKind solver,
                               const SolverOptions& options) const {
  Result<ProblemSpec> effective = EvaluatorSpec(spec);
  UBE_RETURN_IF_ERROR(effective.status());
  obs::Tracer::Span evaluate_span = obs::SpanIf(obs_, "phase/evaluate");
  // The live version is the cache epoch: a shared cache warmed before a
  // churn event can never answer for the evolved universe.
  CandidateEvaluator evaluator(live_.universe(), live_.matcher(), model_,
                               effective.value(),
                               static_cast<uint64_t>(live_.version()));
  if (options.shared_cache != nullptr) {
    evaluator.AttachSharedCache(options.shared_cache);
  }
  evaluate_span.End();
  std::unique_ptr<Solver> impl = MakeSolver(solver);
  // Forward the engine's context into the solve unless the caller attached
  // their own SolverOptions::obs.
  SolverOptions effective_options = options;
  if (effective_options.obs == nullptr) effective_options.obs = obs_;
  obs::Tracer::Span solve_span = obs::SpanIf(obs_, "phase/solve");
  return impl->Solve(evaluator, effective_options);
}

Result<ContinuousReport> Engine::RunContinuous(
    const ProblemSpec& spec, const ChurnTrace& trace,
    const ContinuousOptions& options) {
  if (options.batch_ms <= 0.0) {
    return Status::InvalidArgument("ContinuousOptions::batch_ms must be > 0");
  }
  if (options.escalation_fraction < 0.0 || options.escalation_fraction > 1.0) {
    return Status::InvalidArgument(
        "ContinuousOptions::escalation_fraction must be in [0, 1]");
  }

  ContinuousReport report;
  // The initial solve is *exactly* Solve(spec, solver, solver_options), so
  // with an empty trace RunContinuous is byte-identical to a one-shot Solve
  // for any thread count (tests/test_continuous.cc pins this).
  Result<Solution> initial =
      Solve(spec, options.solver, options.solver_options);
  UBE_RETURN_IF_ERROR(initial.status());
  report.final_solution = std::move(initial.value());
  report.full_solves = 1;
  report.last_full_quality = report.final_solution.quality;

  using MetricId = obs::MetricsRegistry::MetricId;
  MetricId events_metric = obs::MetricsRegistry::kInvalidMetric;
  MetricId repairs_metric = events_metric, escalations_metric = events_metric,
           evictions_metric = events_metric, repair_evals_metric = events_metric,
           drift_metric = events_metric, repair_budget_metric = events_metric;
  if (obs_ != nullptr) {
    obs::MetricsRegistry& metrics = obs_->metrics();
    events_metric = metrics.Counter("continuous.events");
    repairs_metric = metrics.Counter("continuous.repairs");
    escalations_metric = metrics.Counter("continuous.escalations");
    evictions_metric = metrics.Counter("continuous.evictions");
    repair_evals_metric = metrics.Histogram(
        "continuous.repair_evals", {64, 256, 1'024, 4'096, 16'384});
    drift_metric = metrics.Counter("continuous.drift_events");
    repair_budget_metric = metrics.Histogram(
        "continuous.repair_budget", {256, 1'024, 4'096, 16'384});
  }

  std::vector<SourceId> incumbent = report.final_solution.sources;
  const bool baseline =
      options.mode == ContinuousOptions::Mode::kFullEverytime;
  // Sizes the repair budget per batch from recent outcomes. Deterministic
  // state fed only by deterministic repair results, so the replay contract
  // is unchanged.
  RepairBudgetController controller(options.repair.eval_budget,
                                    options.adaptive);

  size_t next = 0;
  uint64_t batch_index = 0;
  while (next < trace.events.size()) {
    obs::Tracer::Span batch_span = obs::SpanIf(obs_, "phase/churn_batch");
    // One batch = every event inside a batch_ms window anchored at the
    // first unapplied event, answered with a single repair / re-solve.
    const double window_end = trace.events[next].time_ms + options.batch_ms;
    ContinuousStep step;
    double batch_time = trace.events[next].time_ms;
    while (next < trace.events.size() &&
           trace.events[next].time_ms <= window_end + 1e-9) {
      UBE_RETURN_IF_ERROR(live_.Apply(trace.events[next]));
      batch_time = trace.events[next].time_ms;
      ++step.events_applied;
      if (IsSchemaDrift(trace.events[next].kind)) ++step.drift_events;
      ++next;
    }
    unavailable_ = live_.universe().UnavailableIds();
    step.time_ms = batch_time;
    report.events_applied += step.events_applied;
    report.drift_events += step.drift_events;
    if (obs_ != nullptr) {
      obs_->metrics().Add(events_metric, step.events_applied);
      if (step.drift_events > 0) {
        obs_->metrics().Add(drift_metric, step.drift_events);
      }
    }

    // Batch spec: dropped-source bans plus bans for every source whose
    // health breaker is open at batch time — except required sources, whose
    // absence would make the spec infeasible (the caller pinned them; an
    // open breaker is advisory, a constraint is not).
    Result<ProblemSpec> effective = EffectiveSpec(spec);
    UBE_RETURN_IF_ERROR(effective.status());
    ProblemSpec batch_spec = std::move(effective.value());
    const std::vector<SourceId> required = RequiredIds(batch_spec);
    for (SourceId s : live_.health().TrackedIds()) {
      if (live_.health().IsBlocked(s, batch_time) &&
          !std::binary_search(required.begin(), required.end(), s)) {
        batch_spec.banned_sources.push_back(s);
      }
    }
    std::sort(batch_spec.banned_sources.begin(),
              batch_spec.banned_sources.end());
    batch_spec.banned_sources.erase(
        std::unique(batch_spec.banned_sources.begin(),
                    batch_spec.banned_sources.end()),
        batch_spec.banned_sources.end());
    UBE_RETURN_IF_ERROR(
        CandidateEvaluator::ValidateSpec(live_.universe(), batch_spec));
    CandidateEvaluator evaluator(live_.universe(), live_.matcher(), model_,
                                 batch_spec);

    WallTimer timer(options.solver_options.clock);
    ++batch_index;
    bool escalate = baseline;
    EscalationReason reason =
        baseline ? EscalationReason::kBaseline : EscalationReason::kNone;
    if (!baseline) {
      RepairOptions repair = options.repair;
      // Per-batch derived stream: repairs stay decorrelated across batches
      // yet replay bit-identically from (trace, options).
      repair.seed =
          SplitMix64(options.repair.seed ^ (0x9e3779b97f4a7c15ull * batch_index));
      if (options.adaptive.enabled) {
        repair.eval_budget = controller.budget();
      }
      step.repair_budget = repair.eval_budget;
      repair.num_threads = options.solver_options.num_threads;
      repair.clock = options.solver_options.clock;
      if (repair.obs == nullptr) repair.obs = obs_;
      if (obs_ != nullptr) {
        obs_->metrics().Observe(repair_budget_metric, repair.eval_budget);
      }
      RepairResult repaired = RepairIncumbent(evaluator, incumbent, repair);
      step.evicted = repaired.evicted;
      step.quality_before = repaired.seed_quality;
      if (obs_ != nullptr && step.evicted > 0) {
        obs_->metrics().Add(evictions_metric, step.evicted);
      }
      int64_t repair_evals = 0;
      if (!repaired.seeded) {
        escalate = true;
        reason = EscalationReason::kIncumbentWipeout;
      } else {
        repair_evals = repaired.solution.stats.evaluations;
        ++report.repairs;
        step.evaluations += repair_evals;
        report.repair_evaluations += repair_evals;
        if (obs_ != nullptr) {
          obs_->metrics().Observe(repair_evals_metric, repair_evals);
          obs_->metrics().Add(repairs_metric);
        }
        if (repaired.solution.quality + 1e-12 <
            options.escalation_fraction * report.last_full_quality) {
          escalate = true;
          reason = EscalationReason::kQualityFraction;
        } else {
          report.final_solution = std::move(repaired.solution);
        }
      }
      controller.Record(repair_evals, repaired.seeded,
                        reason == EscalationReason::kQualityFraction,
                        reason == EscalationReason::kIncumbentWipeout);
    }
    if (escalate) {
      if (!baseline) {
        ++report.escalations;
        if (obs_ != nullptr) obs_->metrics().Add(escalations_metric);
      }
      SolverOptions solver_options = options.solver_options;
      if (solver_options.obs == nullptr) solver_options.obs = obs_;
      // Same evaluator as the repair, so breaker bans apply to the full
      // re-solve too.
      Result<Solution> solved =
          MakeSolver(options.solver)->Solve(evaluator, solver_options);
      UBE_RETURN_IF_ERROR(solved.status());
      ++report.full_solves;
      report.last_full_quality = solved.value().quality;
      step.evaluations += solved.value().stats.evaluations;
      report.final_solution = std::move(solved.value());
    }
    step.escalated = escalate;
    step.escalation_reason = reason;
    step.quality_after = report.final_solution.quality;
    step.elapsed_ms = timer.ElapsedMillis();
    incumbent = report.final_solution.sources;
    step.incumbent = incumbent;
    report.steps.push_back(std::move(step));
  }
  return report;
}

Result<CandidateEvaluator::Evaluation> Engine::EvaluateCandidate(
    const ProblemSpec& spec, std::vector<SourceId> sources) const {
  const Universe& universe = live_.universe();
  Result<ProblemSpec> resolved = EvaluatorSpec(spec);
  UBE_RETURN_IF_ERROR(resolved.status());
  const ProblemSpec& effective = resolved.value();
  for (SourceId s : sources) {
    UBE_RETURN_IF_ERROR(universe.ValidateId(s));
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  if (sources.empty()) {
    return Status::InvalidArgument("candidate must contain a source");
  }
  if (static_cast<int>(sources.size()) > spec.max_sources) {
    return Status::InvalidArgument("candidate exceeds m sources");
  }
  std::vector<SourceId> required;
  for (SourceId s : spec.source_constraints) required.push_back(s);
  for (const GlobalAttribute& g : spec.ga_constraints) {
    for (const AttributeId& id : g.attributes()) required.push_back(id.source);
  }
  for (SourceId s : required) {
    if (!std::binary_search(sources.begin(), sources.end(), s)) {
      return Status::InvalidArgument(
          "candidate omits a source the constraints require");
    }
  }
  for (SourceId s : effective.banned_sources) {
    if (std::binary_search(sources.begin(), sources.end(), s)) {
      if (std::binary_search(unavailable_.begin(), unavailable_.end(), s)) {
        return Status::Unavailable(
            "candidate contains '" + universe.source(s).name() +
            "', which was dropped during acquisition");
      }
      return Status::InvalidArgument("candidate contains a banned source");
    }
  }
  CandidateEvaluator evaluator(universe, live_.matcher(), model_, effective,
                               static_cast<uint64_t>(live_.version()));
  return evaluator.Evaluate(sources);
}

Result<std::vector<SourceId>> Engine::RepairSeed(
    const ProblemSpec& spec, const std::vector<SourceId>& incumbent,
    const RepairOptions& options) const {
  Result<ProblemSpec> effective = EvaluatorSpec(spec);
  UBE_RETURN_IF_ERROR(effective.status());
  CandidateEvaluator evaluator(live_.universe(), live_.matcher(), model_,
                               effective.value(),
                               static_cast<uint64_t>(live_.version()));
  if (options.shared_cache != nullptr) {
    // Repair and the subsequent solve share one spec fingerprint, so the
    // repair's evaluations pre-warm the session's solve.
    evaluator.AttachSharedCache(options.shared_cache);
  }
  RepairResult repaired = RepairIncumbent(evaluator, incumbent, options);
  if (!repaired.seeded) return std::vector<SourceId>{};
  return std::move(repaired.solution.sources);
}

Result<MatchResult> Engine::MatchSources(const ProblemSpec& spec,
                                         std::vector<SourceId> sources) const {
  const Universe& universe = live_.universe();
  UBE_RETURN_IF_ERROR(CandidateEvaluator::ValidateSpec(universe, spec));
  for (SourceId s : sources) {
    UBE_RETURN_IF_ERROR(universe.ValidateId(s));
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  MatchOptions options;
  options.theta = spec.theta;
  options.beta = spec.beta;
  return live_.matcher().Match(sources, spec.source_constraints,
                               spec.ga_constraints, options);
}

}  // namespace ube
