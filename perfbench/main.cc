// µBE benchmark program: gesture-to-schema latency on three workloads.
//
//   ube_perfbench --workload feedback|selection|churn --seed N
//                 --seconds S --trace 0|1 [--spans-out FILE]
//
// Every input (catalog text, per-user gesture streams, churn trace) is
// generated from --seed before any timed region; the library only ever sees
// the generated catalog text. See README.md in this directory for the
// metric table and why each workload exists.
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 is a separate run that wraps every public call the benchmark makes
// in a span (spans.h), adds per-candidate layer probes, and prints the
// per-layer metrics plus the exact counts that repeat for a seed.
//
// Both modes re-score every returned solution with Engine::EvaluateCandidate
// and require the quality bit for bit, pins present, bans absent and
// |S| <= m; any mismatch prints "correct": false. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/change_feed.h"
#include "core/engine.h"
#include "core/session.h"
#include "core/session_server.h"
#include "matching/similarity_graph.h"
#include "qef/quality_model.h"
#include "source/live_universe.h"
#include "util/rng.h"
#include "workload/generator.h"

#include "spans.h"

namespace perfbench {
namespace {

using ube::ChurnEventKind;
using ube::Engine;
using ube::ProblemSpec;
using ube::QualityModel;
using ube::Result;
using ube::Rng;
using ube::Session;
using ube::SessionServer;
using ube::Solution;
using ube::SourceId;
using ube::Status;

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

enum class Gesture { kBan, kPin, kPromoteGa, kReweight, kTheta };

struct SessionWorkload {
  int num_sources = 0;
  int max_sources = 0;
  double theta = 0.75;
  bool default_model = true;
  /// Universes per run, each set up once (setup_s is their median).
  int rounds = 4;
  /// Gesture mix: (kind, weight); weights sum to 1.
  std::vector<std::pair<Gesture, double>> mix;
};

/// The latency a failed operation is booked at: it misses every percentile.
constexpr double kMissed = std::numeric_limits<double>::infinity();

constexpr int kUsers = 4;               // closed-loop users, one thread each
constexpr int kGesturesPerSession = 6;  // gestures after the first schema
constexpr int kQuotaSessions = 2;       // per user, always run and digested
constexpr int kNeighbours = 3;          // traced one-flip probes per solution
constexpr int kChurnSources = 400;
constexpr int kChurnMaxSources = 20;
constexpr double kChurnEventsPerSec = 10.0;
constexpr double kChurnHorizonMs = 120'000.0;

SessionWorkload FeedbackWorkload() {
  return {200, 10, 0.75, /*default_model=*/true, /*rounds=*/8,
          {{Gesture::kBan, 0.40},
           {Gesture::kPin, 0.20},
           {Gesture::kPromoteGa, 0.20},
           {Gesture::kReweight, 0.10},
           {Gesture::kTheta, 0.10}}};
}

SessionWorkload SelectionWorkload() {
  return {1000, 40, 0.75, /*default_model=*/false, /*rounds=*/4,
          {{Gesture::kBan, 0.50},
           {Gesture::kPin, 0.25},
           {Gesture::kReweight, 0.25}}};
}

/// The paper's default model, or the data-only model (no matching QEF, so
/// Match(S) never runs during a solve).
QualityModel MakeModel(bool default_model) {
  if (default_model) return QualityModel::MakeDefault();
  QualityModel model;
  model.AddQef(std::make_unique<ube::CardinalityQef>(), 0.4);
  model.AddQef(std::make_unique<ube::CoverageQef>(), 0.3);
  model.AddQef(std::make_unique<ube::RedundancyQef>(), 0.2);
  model.AddQef(std::make_unique<ube::CharacteristicQef>(
                   "mttf", ube::Aggregation::kWeightedSum),
               0.1);
  return model;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  return ube::SplitMix64(a ^ ube::SplitMix64(b + 0x632be59bd9b4e019ull));
}

/// Seed of round `i` of a run: its universe, problems and gesture streams.
uint64_t RoundSeed(uint64_t seed, int i) {
  return Mix(seed, 0x70 + static_cast<uint64_t>(i));
}

/// The generated BAMM universe as catalog text: the only input the library
/// is given.
std::string MakeCatalogText(int num_sources, uint64_t seed) {
  ube::WorkloadConfig config;
  config.num_sources = num_sources;
  config.seed = Mix(seed, 0xca7a);
  config.scale = 0.01;
  return ube::WriteCatalog(ube::GenerateWorkload(config).universe);
}

/// Tabu with the bench budgets (200 iterations, 50 stall), one thread.
ube::SolverOptions BenchSolverOptions(uint64_t seed) {
  ube::SolverOptions options;
  options.seed = seed;
  options.max_iterations = 200;
  options.stall_iterations = 50;
  options.num_threads = 1;
  return options;
}

/// Source constraints plus every GA constraint's sources, sorted unique.
std::vector<SourceId> RequiredSources(const ProblemSpec& spec) {
  std::vector<SourceId> required = spec.source_constraints;
  for (const ube::GlobalAttribute& ga : spec.ga_constraints) {
    for (SourceId s : ga.Sources()) required.push_back(s);
  }
  std::sort(required.begin(), required.end());
  required.erase(std::unique(required.begin(), required.end()),
                 required.end());
  return required;
}

bool Contains(const std::vector<SourceId>& sorted, SourceId s) {
  return std::binary_search(sorted.begin(), sorted.end(), s);
}

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Display name of a QEF as a metric suffix ("char:mttf" -> "mttf").
std::string QefMetricName(std::string_view name) {
  const std::string_view prefix = "char:";
  if (name.substr(0, prefix.size()) == prefix) name.remove_prefix(prefix.size());
  return std::string(name);
}

const std::vector<std::string>& AllQefMetricNames() {
  static const std::vector<std::string> names = {
      "matching", "cardinality", "coverage", "redundancy", "mttf"};
  return names;
}

// ---------------------------------------------------------------------------
// Per-thread results
// ---------------------------------------------------------------------------

/// Everything one thread measured and checked. Merged after the threads join.
struct Tally {
  // End-to-end samples.
  std::vector<double> setups;  // seconds
  std::vector<double> first_ms;
  std::vector<double> resolve_ms;
  std::vector<double> episode_s;
  std::vector<double> qualities;
  std::vector<double> batch_qualities;  // churn: every batch's quality_after
  // Traced: size of the (round 0) catalog and edges of its graph.
  double catalog_bytes = 0.0;
  double graph_edges = 0.0;
  int64_t solves = 0;
  int64_t attempted = 0;
  int64_t failed = 0;

  // Correctness.
  bool correct = true;
  std::string error;

  // Session bookkeeping.
  int64_t gestures_rejected = 0;
  int64_t gesture_solves = 0;
  int64_t warm_solves = 0;
  double quota_op_ms = 0.0;  // op wall over the quota prefix (overhead)

  // Solver stats of every solve.
  std::vector<double> evaluations;
  std::vector<double> cache_hits;
  std::vector<double> iterations;
  double solve_elapsed_s = 0.0;
  std::map<std::string, int64_t> stops;

  // Exact counts, over the quota prefix only.
  uint64_t digest = 0;
  int64_t match_rounds = 0;
  int64_t evals_plus_hits = 0;
  int64_t repairs = 0;
  int64_t escalations = 0;
  int64_t events_applied = 0;
  int64_t quota_rejected = 0;

  // Traced probes (us).
  std::vector<double> match_us;
  std::vector<double> rounds;
  std::vector<double> context_us;
  std::map<std::string, std::vector<double>> qef_us;
  std::vector<double> evaluate_us;
  double share_match_us = 0.0;     // Σ MatchSources over matching models
  double share_evaluate_us = 0.0;  // Σ EvaluateCandidate, same candidates

  // Churn layer counters.
  int64_t continuous_repairs = 0;
  int64_t continuous_escalations = 0;
  int64_t continuous_repair_evals = 0;
  int64_t continuous_evals = 0;
  int64_t continuous_batches = 0;

  void Fail(const std::string& what) {
    if (correct) error = what;
    correct = false;
  }

  void Merge(const Tally& other) {
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&setups, other.setups);
    append(&first_ms, other.first_ms);
    append(&resolve_ms, other.resolve_ms);
    append(&episode_s, other.episode_s);
    append(&qualities, other.qualities);
    append(&batch_qualities, other.batch_qualities);
    catalog_bytes += other.catalog_bytes;
    graph_edges += other.graph_edges;
    solves += other.solves;
    attempted += other.attempted;
    failed += other.failed;
    if (!other.correct) Fail(other.error);
    gestures_rejected += other.gestures_rejected;
    gesture_solves += other.gesture_solves;
    warm_solves += other.warm_solves;
    quota_op_ms += other.quota_op_ms;
    append(&evaluations, other.evaluations);
    append(&cache_hits, other.cache_hits);
    append(&iterations, other.iterations);
    solve_elapsed_s += other.solve_elapsed_s;
    for (const auto& [name, n] : other.stops) stops[name] += n;
    // Threads with no quota work carry no digest.
    if (other.digest != 0) digest = MixHash(digest, other.digest);
    match_rounds += other.match_rounds;
    evals_plus_hits += other.evals_plus_hits;
    repairs += other.repairs;
    escalations += other.escalations;
    events_applied += other.events_applied;
    quota_rejected += other.quota_rejected;
    append(&match_us, other.match_us);
    append(&rounds, other.rounds);
    append(&context_us, other.context_us);
    for (const auto& [name, v] : other.qef_us) append(&qef_us[name], v);
    append(&evaluate_us, other.evaluate_us);
    share_match_us += other.share_match_us;
    share_evaluate_us += other.share_evaluate_us;
    continuous_repairs += other.continuous_repairs;
    continuous_escalations += other.continuous_escalations;
    continuous_repair_evals += other.continuous_repair_evals;
    continuous_evals += other.continuous_evals;
    continuous_batches += other.continuous_batches;
  }
};

// ---------------------------------------------------------------------------
// Output check and traced layer probes
// ---------------------------------------------------------------------------

/// One-flip neighbours of `sources` that keep the spec's constraints: drop a
/// non-required member, or add an available, unbanned outsider.
std::vector<std::vector<SourceId>> SampleNeighbours(
    const Engine& engine, const ProblemSpec& spec,
    const std::vector<SourceId>& sources, Rng& rng) {
  const std::vector<SourceId> required = RequiredSources(spec);
  std::vector<SourceId> banned = spec.banned_sources;
  std::sort(banned.begin(), banned.end());
  const int n = engine.universe().num_sources();
  std::vector<std::vector<SourceId>> out;
  for (int attempt = 0; attempt < 8 * kNeighbours &&
                        static_cast<int>(out.size()) < kNeighbours;
       ++attempt) {
    std::vector<SourceId> next = sources;
    if (rng.Bernoulli(0.5)) {
      if (sources.size() <= 1) continue;
      const SourceId drop = sources[rng.UniformInt(sources.size())];
      if (Contains(required, drop)) continue;
      next.erase(std::find(next.begin(), next.end(), drop));
    } else {
      if (static_cast<int>(sources.size()) >= spec.max_sources) continue;
      const SourceId add = static_cast<SourceId>(
          rng.UniformInt(static_cast<uint64_t>(n)));
      if (Contains(sources, add) || Contains(banned, add) ||
          !engine.universe().source(add).available()) {
        continue;
      }
      next.insert(std::upper_bound(next.begin(), next.end(), add), add);
    }
    out.push_back(std::move(next));
  }
  return out;
}

/// Times the public calls one candidate evaluation is made of: Match(S)
/// (matching models only — it is what the evaluation itself runs), the QEF
/// context, every QEF, and the whole Engine::EvaluateCandidate. An untimed
/// EvaluateCandidate runs first, so every timed call finds the same warm
/// caches; its result is returned for the caller to check.
Result<ube::CandidateEvaluator::Evaluation> ProbeCandidate(
    const Engine& engine, const ProblemSpec& spec,
    const std::vector<SourceId>& sources, bool count_rounds, SpanLog* log,
    Tally* tally) {
  Result<ube::CandidateEvaluator::Evaluation> evaluation =
      engine.EvaluateCandidate(spec, sources);
  if (!evaluation.ok()) return evaluation;
  const QualityModel& model = engine.quality_model();
  const bool matching = model.NeedsMatching();
  ube::MatchResult match;
  double match_us = 0.0;
  if (matching) {
    Scope span(log, "matching.match", Layer::kMatching);
    const int64_t t = NowNs();
    Result<ube::MatchResult> result = engine.MatchSources(spec, sources);
    match_us = MsSince(t) * 1e3;
    span.End();
    if (!result.ok()) {
      tally->Fail("MatchSources: " + result.status().ToString());
      return evaluation;
    }
    match = std::move(result.value());
    tally->match_us.push_back(match_us);
    tally->rounds.push_back(match.rounds);
    if (count_rounds) tally->match_rounds += match.rounds;
  }
  Scope context_span(log, "qef.context", Layer::kQef);
  int64_t t = NowNs();
  const ube::EvalContext ctx = model.MakeContext(
      engine.universe(), sources, matching ? &match : nullptr);
  tally->context_us.push_back(MsSince(t) * 1e3);
  context_span.End();
  for (int q = 0; q < model.num_qefs(); ++q) {
    const std::string name = QefMetricName(model.qef(q).name());
    Scope span(log, "qef.eval." + name, Layer::kQef);
    t = NowNs();
    volatile double score = model.qef(q).Evaluate(ctx);
    (void)score;
    tally->qef_us[name].push_back(MsSince(t) * 1e3);
  }
  Scope span(log, "qef.evaluate", Layer::kQef);
  t = NowNs();
  const bool ok = engine.EvaluateCandidate(spec, sources).ok();
  const double evaluate_us = MsSince(t) * 1e3;
  span.End();
  if (!ok) tally->Fail("EvaluateCandidate failed on its second call");
  tally->evaluate_us.push_back(evaluate_us);
  if (matching) {
    tally->share_match_us += match_us;
    tally->share_evaluate_us += evaluate_us;
  }
  return evaluation;
}

/// Re-scores a returned solution and checks its constraints. In the traced
/// run the re-score goes through the layer probes, and a seeded sample of
/// one-flip neighbours is probed as well.
void CheckSolution(const Engine& engine, const ProblemSpec& spec,
                   const Solution& solution, bool in_quota, uint64_t probe_seed,
                   SpanLog* log, Tally* tally) {
  const std::vector<SourceId>& sources = solution.sources;
  if (sources.empty() ||
      static_cast<int>(sources.size()) > spec.max_sources ||
      !std::is_sorted(sources.begin(), sources.end()) ||
      std::adjacent_find(sources.begin(), sources.end()) != sources.end()) {
    tally->Fail("solution violates |S| <= m or is not a sorted set");
    return;
  }
  for (SourceId s : RequiredSources(spec)) {
    if (!Contains(sources, s)) tally->Fail("a pinned source is missing");
  }
  for (SourceId s : spec.banned_sources) {
    if (Contains(sources, s)) tally->Fail("a banned source is present");
  }
  Result<ube::CandidateEvaluator::Evaluation> rescored =
      log != nullptr
          ? ProbeCandidate(engine, spec, sources, in_quota, log, tally)
          : engine.EvaluateCandidate(spec, sources);
  if (!rescored.ok()) {
    tally->Fail("EvaluateCandidate: " + rescored.status().ToString());
    return;
  }
  if (DoubleBits(rescored.value().quality) != DoubleBits(solution.quality)) {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer),
                  "re-scored quality %.17g != returned %.17g",
                  rescored.value().quality, solution.quality);
    tally->Fail(buffer);
  }
  if (log == nullptr) return;
  Rng rng(probe_seed);
  for (const std::vector<SourceId>& neighbour :
       SampleNeighbours(engine, spec, sources, rng)) {
    Result<ube::CandidateEvaluator::Evaluation> probed =
        ProbeCandidate(engine, spec, neighbour, in_quota, log, tally);
    if (!probed.ok()) {
      tally->Fail("EvaluateCandidate(neighbour): " +
                  probed.status().ToString());
    }
  }
}

/// Books one solve's outcome: failure accounting, solver stats, the output
/// check, and (in the quota prefix) the digest and exact counts.
void RecordSolve(const Engine& engine, const ProblemSpec& spec,
                 const Result<Solution>& result, bool in_quota,
                 uint64_t probe_seed, SpanLog* log, Tally* tally) {
  ++tally->attempted;
  if (!result.ok()) {
    ++tally->failed;
    std::fprintf(stderr, "solve failed: %s\n",
                 result.status().ToString().c_str());
    return;
  }
  const Solution& solution = result.value();
  ++tally->solves;
  tally->qualities.push_back(solution.quality);
  const ube::SolverStats& stats = solution.stats;
  tally->evaluations.push_back(static_cast<double>(stats.evaluations));
  tally->cache_hits.push_back(static_cast<double>(stats.cache_hits));
  tally->iterations.push_back(static_cast<double>(stats.iterations));
  tally->solve_elapsed_s += stats.elapsed_seconds;
  ++tally->stops[std::string(ube::StopReasonName(stats.stop_reason))];
  if (in_quota) {
    for (SourceId s : solution.sources) {
      tally->digest = MixHash(tally->digest, static_cast<uint64_t>(s));
    }
    tally->digest = MixHash(tally->digest, DoubleBits(solution.quality));
    tally->evals_plus_hits += stats.evaluations + stats.cache_hits;
  }
  CheckSolution(engine, spec, solution, in_quota, probe_seed, log, tally);
}

// ---------------------------------------------------------------------------
// Session workloads: feedback and selection
// ---------------------------------------------------------------------------

/// Catalog text -> ParseCatalog -> Engine (similarity graph) -> SessionServer
/// ready, timed into tally->setups; null on a parse error. The traced run
/// also times a stand-alone graph build.
std::unique_ptr<SessionServer> BuildServer(const std::string& text,
                                           const SessionWorkload& w,
                                           uint64_t seed, SpanLog* log,
                                           Tally* tally) {
  if (log != nullptr) log->BeginOp(0);
  Scope root(log, "op.setup", Layer::kCore);
  const int64_t start = NowNs();
  Scope parse_span(log, "catalog.parse", Layer::kCatalog);
  Result<ube::Universe> universe = ube::ParseCatalog(text);
  parse_span.End();
  if (!universe.ok()) {
    tally->Fail("ParseCatalog: " + universe.status().ToString());
    return nullptr;
  }
  if (log != nullptr) {
    Scope graph_span(log, "matching.graph_build", Layer::kMatching);
    ube::SimilarityGraph graph =
        ube::SimilarityGraph::WithDefaults(universe.value());
    tally->catalog_bytes = static_cast<double>(text.size());
    tally->graph_edges = static_cast<double>(graph.num_edges());
  }
  Scope engine_span(log, "core.engine", Layer::kCore);
  Engine engine(std::move(universe.value()), MakeModel(w.default_model));
  engine_span.End();
  SessionServer::Options options;
  options.solver_options = BenchSolverOptions(Mix(seed, 0x501e));
  options.warm_start = true;
  Scope server_span(log, "core.server", Layer::kCore);
  auto server = std::make_unique<SessionServer>(std::move(engine), options);
  server_span.End();
  tally->setups.push_back(MsSince(start) * 1e-3);
  return server;
}

/// Applies one gesture drawn from `kind`, with targets taken from the last
/// solution; a gesture that has no valid target falls back to the next kind
/// (pin/promote -> ban -> reweight). Keeps required sources at most m/2 so
/// the spec stays feasible.
Status ApplyGesture(Session* session, const QualityModel& model, Gesture kind,
                    Rng& rng) {
  const Solution& last = *session->last();
  const ProblemSpec& spec = session->spec();
  const std::vector<SourceId> required = RequiredSources(spec);
  const size_t room = static_cast<size_t>(spec.max_sources / 2);
  std::vector<SourceId> free;
  for (SourceId s : last.sources) {
    if (!Contains(required, s)) free.push_back(s);
  }
  if (kind == Gesture::kPromoteGa) {
    std::vector<int> promotable;
    const ube::MediatedSchema& schema = last.mediated_schema;
    for (int i = 0; i < schema.num_gas(); ++i) {
      if (last.ga_from_constraint[static_cast<size_t>(i)]) continue;
      std::vector<SourceId> after = required;
      for (SourceId s : schema.ga(i).Sources()) after.push_back(s);
      std::sort(after.begin(), after.end());
      after.erase(std::unique(after.begin(), after.end()), after.end());
      if (after.size() <= room) promotable.push_back(i);
    }
    if (!promotable.empty()) {
      return session->PromoteGa(
          promotable[rng.UniformInt(promotable.size())]);
    }
    kind = Gesture::kBan;
  }
  if (kind == Gesture::kPin) {
    if (!free.empty() && required.size() + 1 <= room) {
      return session->PinSource(free[rng.UniformInt(free.size())]);
    }
    kind = Gesture::kBan;
  }
  if (kind == Gesture::kBan) {
    if (!free.empty()) {
      return session->BanSource(free[rng.UniformInt(free.size())]);
    }
    kind = Gesture::kReweight;
  }
  if (kind == Gesture::kReweight) {
    const int q = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(model.num_qefs())));
    const double weight = rng.UniformDouble(0.05, 0.6);
    return session->SetWeight(model.qef(q).name(), weight);
  }
  double theta = spec.theta + (rng.Bernoulli(0.5) ? 0.05 : -0.05);
  if (theta > 0.9 || theta < 0.6) theta = 2.0 * spec.theta - theta;
  session->SetTheta(theta);
  return Status::Ok();
}

Gesture DrawGesture(const SessionWorkload& w, Rng& rng) {
  double u = rng.UniformDouble();
  for (const auto& [kind, weight] : w.mix) {
    if (u < weight) return kind;
    u -= weight;
  }
  return w.mix.back().first;
}

/// Solves the session's current problem. The traced run issues Iterate's
/// two steps as separate calls — Engine::RepairSeed, then the solve seeded
/// with the repaired incumbent — so each gets its own span; the results are
/// the ones Iterate returns.
Result<Solution> SolveSession(Session* session, const Engine& engine,
                              SpanLog* log, Tally* tally) {
  if (log == nullptr) {
    const int64_t warm_before = session->stats().warm_solves;
    Result<Solution> result = session->Iterate();
    tally->warm_solves += session->stats().warm_solves - warm_before;
    return result;
  }
  ube::SolverOptions options = session->solver_options();
  if (session->last() != nullptr) {
    Scope span(log, "optimize.repair", Layer::kOptimize);
    Result<std::vector<SourceId>> seed = engine.RepairSeed(
        session->spec(), session->last()->sources, session->repair_options());
    if (seed.ok() && !seed.value().empty()) {
      options.initial_incumbent = std::move(seed.value());
      ++tally->warm_solves;
    }
  }
  Scope span(log, "optimize.solve", Layer::kOptimize);
  session->set_warm_start(false);  // the repair above already ran
  Result<Solution> result = session->Iterate(ube::SolverKind::kTabu, options);
  session->set_warm_start(true);
  return result;
}

struct SessionEnv {
  const SessionWorkload* workload = nullptr;
  SessionServer* server = nullptr;
  uint64_t seed = 0;
  /// Sessions per user that always run and feed the digest and exact counts.
  int quota = kQuotaSessions;
};

/// One user session: open, solve a per-session distinct first problem cold,
/// issue kGesturesPerSession seeded gestures (each answered by a re-solve),
/// close. Session `k` of user `user` is the same for every run of a seed.
void RunSession(const SessionEnv& env, int user, int k, SpanLog* log,
                Tally* tally) {
  const SessionWorkload& w = *env.workload;
  SessionServer& server = *env.server;
  const Engine& engine = server.engine();
  const bool in_quota = k < env.quota;
  const int64_t g = static_cast<int64_t>(k) * kUsers + user;
  Rng rng(Mix(env.seed, 0x6e57 + static_cast<uint64_t>(g)));
  int64_t op = (static_cast<int64_t>(user) + 1) * 1'000'000'000 + g * 100;
  const int64_t episode_start = NowNs();
  double op_ms = 0.0;

  if (log != nullptr) log->BeginOp(op++);
  Scope root(log, "op.first_schema", Layer::kCore);
  Scope open_span(log, "server.open", Layer::kCore);
  auto [id, session] = server.Open();
  open_span.End();
  session->SetMaxSources(w.max_sources);
  session->SetTheta(w.theta);
  session->mutable_solver_options().seed =
      Mix(env.seed, 0x5eed + static_cast<uint64_t>(g));
  // The per-session distinct first problem.
  Status setup = session->BanSource(static_cast<SourceId>(g % w.num_sources));
  if (!setup.ok()) tally->Fail("first-problem ban: " + setup.ToString());
  int64_t start = NowNs();
  Result<Solution> first = SolveSession(session, engine, log, tally);
  double ms = MsSince(start);
  tally->first_ms.push_back(first.ok() ? ms : kMissed);
  op_ms += ms;
  RecordSolve(engine, session->spec(), first, in_quota, Mix(env.seed, op),
              log, tally);
  root.End();

  for (int i = 0; first.ok() && i < kGesturesPerSession; ++i) {
    const Gesture kind = DrawGesture(w, rng);
    if (log != nullptr) log->BeginOp(op++);
    Scope gesture_root(log, "op.gesture", Layer::kCore);
    start = NowNs();
    Scope gesture_span(log, "core.gesture", Layer::kCore);
    const Status status =
        ApplyGesture(session, engine.quality_model(), kind, rng);
    gesture_span.End();
    if (!status.ok()) {
      ++tally->gestures_rejected;
      if (in_quota) ++tally->quota_rejected;
      continue;
    }
    ++tally->gesture_solves;
    const int64_t warm_before = tally->warm_solves;
    Result<Solution> result = SolveSession(session, engine, log, tally);
    ms = MsSince(start);
    if (in_quota) tally->repairs += tally->warm_solves - warm_before;
    tally->resolve_ms.push_back(result.ok() ? ms : kMissed);
    op_ms += ms;
    RecordSolve(engine, session->spec(), result, in_quota, Mix(env.seed, op),
                log, tally);
    if (!result.ok()) break;
  }

  if (log != nullptr) log->BeginOp(op++);
  Scope close_root(log, "op.close", Layer::kCore);
  Scope close_span(log, "server.close", Layer::kCore);
  const Status closed = server.Close(id);
  close_span.End();
  close_root.End();
  if (!closed.ok()) tally->Fail("Close: " + closed.ToString());
  tally->episode_s.push_back(MsSince(episode_start) * 1e-3);
  if (in_quota) tally->quota_op_ms += op_ms;
}

/// Runs kUsers closed-loop users, one thread each, until `deadline_ns` (and
/// at least env.quota sessions per user). Returns the wall seconds.
double RunUsers(const SessionEnv& env, int64_t deadline_ns, bool traced,
                std::vector<SpanLog>* logs, Tally* total) {
  std::vector<Tally> tallies(kUsers);
  std::vector<SpanLog> user_logs(traced ? kUsers : 0);
  const int64_t start = NowNs();
  {
    std::vector<std::thread> threads;
    for (int u = 0; u < kUsers; ++u) {
      threads.emplace_back([&, u] {
        SpanLog* log = traced ? &user_logs[static_cast<size_t>(u)] : nullptr;
        for (int k = 0; k < env.quota || NowNs() < deadline_ns; ++k) {
          RunSession(env, u, k, log, &tallies[static_cast<size_t>(u)]);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double wall_s = MsSince(start) * 1e-3;
  for (const Tally& tally : tallies) total->Merge(tally);
  for (SpanLog& log : user_logs) logs->push_back(std::move(log));
  return wall_s;
}

// ---------------------------------------------------------------------------
// Metric assembly
// ---------------------------------------------------------------------------

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricMap metrics;
  std::vector<std::string> notes;  // extra human-readable lines
};

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void Put(MetricMap* metrics, const std::string& name, double value,
         const std::string& unit, int64_t samples) {
  (*metrics)[name] = Metric{value, unit, samples};
}

int64_t Size(const std::vector<double>& values) {
  return static_cast<int64_t>(values.size());
}

/// The end-to-end metrics (untraced run).
void PutEndToEnd(const Tally& tally, double solve_wall_s, MetricMap* m) {
  Put(m, "setup_s", Percentile(tally.setups, 0.5), "s", Size(tally.setups));
  Put(m, "first_schema_ms_p50", Percentile(tally.first_ms, 0.5), "ms",
      Size(tally.first_ms));
  Put(m, "first_schema_ms_p90", Percentile(tally.first_ms, 0.9), "ms",
      Size(tally.first_ms));
  Put(m, "resolve_ms_p50", Percentile(tally.resolve_ms, 0.5), "ms",
      Size(tally.resolve_ms));
  Put(m, "resolve_ms_p90", Percentile(tally.resolve_ms, 0.9), "ms",
      Size(tally.resolve_ms));
  Put(m, "episode_s", Percentile(tally.episode_s, 0.5), "s",
      Size(tally.episode_s));
  Put(m, "solves_per_s",
      solve_wall_s > 0.0 ? static_cast<double>(tally.solves) / solve_wall_s
                         : 0.0,
      "1/s", tally.solves);
  const std::vector<double>& q =
      tally.batch_qualities.empty() ? tally.qualities : tally.batch_qualities;
  Put(m, "quality_mean", Mean(q), "Q", Size(q));
  Put(m, "peak_rss_mb", PeakRssMb(), "MB", 1);
}

/// The per-layer metrics (traced run). `untraced` is the same quota of
/// operations run without spans, for the tracing overhead.
void PutPerLayer(const Tally& t, const Tally& untraced,
                 const std::vector<SpanLog>& logs, const SessionServer* server,
                 MetricMap* m) {
  auto p50_us = [&](const std::string& span) {
    std::vector<double> ms = DurationsMs(logs, span);
    for (double& v : ms) v *= 1e3;
    return std::make_pair(Percentile(ms, 0.5), Size(ms));
  };
  auto p50_ms = [&](const std::string& span) {
    std::vector<double> ms = DurationsMs(logs, span);
    return std::make_pair(Percentile(ms, 0.5), Size(ms));
  };
  auto [parse_ms, parses] = p50_ms("catalog.parse");
  Put(m, "catalog.parse_ms", parse_ms, "ms", parses);
  Put(m, "catalog.bytes", t.catalog_bytes, "bytes", 1);
  auto [graph_ms, graphs] = p50_ms("matching.graph_build");
  Put(m, "matching.graph_build_ms", graph_ms, "ms", graphs);
  Put(m, "matching.graph_edges", t.graph_edges, "count", 1);
  Put(m, "matching.match_us_p50", Percentile(t.match_us, 0.5), "us",
      Size(t.match_us));
  Put(m, "matching.match_us_p90", Percentile(t.match_us, 0.9), "us",
      Size(t.match_us));
  Put(m, "matching.rounds_mean", Mean(t.rounds), "count", Size(t.rounds));
  Put(m, "matching.match_share",
      t.share_evaluate_us > 0.0 ? t.share_match_us / t.share_evaluate_us : 0.0,
      "ratio", Size(t.match_us));

  Put(m, "qef.context_us_p50", Percentile(t.context_us, 0.5), "us",
      Size(t.context_us));
  for (const std::string& name : AllQefMetricNames()) {
    auto it = t.qef_us.find(name);
    const std::vector<double> none;
    const std::vector<double>& v = it == t.qef_us.end() ? none : it->second;
    Put(m, "qef.eval_us." + name, Percentile(v, 0.5), "us", Size(v));
  }
  Put(m, "qef.evaluate_us_p50", Percentile(t.evaluate_us, 0.5), "us",
      Size(t.evaluate_us));

  auto [solve_ms, solves] = p50_ms("optimize.solve");
  Put(m, "optimize.solve_ms_p50", solve_ms, "ms", solves);
  Put(m, "optimize.evaluations_mean", Mean(t.evaluations), "count",
      Size(t.evaluations));
  Put(m, "optimize.cache_hits_mean", Mean(t.cache_hits), "count",
      Size(t.cache_hits));
  const double evals = Sum(t.evaluations);
  const double hits = Sum(t.cache_hits);
  Put(m, "optimize.hit_ratio", evals + hits > 0.0 ? hits / (evals + hits) : 0.0,
      "ratio", Size(t.evaluations));
  Put(m, "optimize.iterations_mean", Mean(t.iterations), "count",
      Size(t.iterations));
  Put(m, "optimize.evals_per_s",
      t.solve_elapsed_s > 0.0 ? evals / t.solve_elapsed_s : 0.0, "1/s",
      Size(t.evaluations));
  for (ube::StopReason reason :
       {ube::StopReason::kMaxIterations, ube::StopReason::kStalled,
        ube::StopReason::kTimeLimit, ube::StopReason::kEvalBudget,
        ube::StopReason::kConverged, ube::StopReason::kExhausted}) {
    const std::string name(ube::StopReasonName(reason));
    auto it = t.stops.find(name);
    Put(m, "optimize.stop." + name,
        it == t.stops.end() ? 0.0 : static_cast<double>(it->second), "count",
        Size(t.evaluations));
  }
  auto [repair_ms, repairs] = p50_ms("optimize.repair");
  Put(m, "optimize.repair_ms_p50", repair_ms, "ms", repairs);
  Put(m, "session.warm_frac",
      t.gesture_solves > 0 ? static_cast<double>(t.warm_solves) /
                                 static_cast<double>(t.gesture_solves)
                           : 0.0,
      "ratio", t.gesture_solves);
  Put(m, "session.gestures_rejected",
      static_cast<double>(t.gestures_rejected), "count", 1);

  auto [open_us, opens] = p50_us("server.open");
  Put(m, "server.open_us_p50", open_us, "us", opens);
  auto [close_us, closes] = p50_us("server.close");
  Put(m, "server.close_us_p50", close_us, "us", closes);
  ube::SharedQualityCache::Stats cache;
  size_t cache_size = 0;
  if (server != nullptr) {
    cache = server->cache().stats();
    cache_size = server->cache().size();
  }
  const int64_t probes = cache.hits + cache.misses;
  Put(m, "server.cache_hit_ratio",
      probes > 0 ? static_cast<double>(cache.hits) /
                       static_cast<double>(probes)
                 : 0.0,
      "ratio", probes);
  Put(m, "server.cache_rejects", static_cast<double>(cache.rejects), "count",
      1);
  Put(m, "server.cache_evictions", static_cast<double>(cache.evictions),
      "count", 1);
  Put(m, "server.cache_size", static_cast<double>(cache_size), "count", 1);

  for (int k = 0; k < ube::kNumChurnEventKinds; ++k) {
    const std::string kind(
        ube::ChurnEventKindName(static_cast<ChurnEventKind>(k)));
    auto [apply_us, applies] = p50_us("source.apply." + kind);
    Put(m, "live.apply_us_p50." + kind, apply_us, "us", applies);
  }
  Put(m, "continuous.repairs", static_cast<double>(t.continuous_repairs),
      "count", 1);
  Put(m, "continuous.escalations",
      static_cast<double>(t.continuous_escalations), "count", 1);
  Put(m, "continuous.repair_evals",
      static_cast<double>(t.continuous_repair_evals), "count", 1);
  Put(m, "continuous.evals_per_batch",
      t.continuous_batches > 0 ? static_cast<double>(t.continuous_evals) /
                                     static_cast<double>(t.continuous_batches)
                               : 0.0,
      "count", t.continuous_batches);

  Put(m, "obs.trace_overhead_frac",
      untraced.quota_op_ms > 0.0
          ? (t.quota_op_ms - untraced.quota_op_ms) / untraced.quota_op_ms
          : 0.0,
      "ratio", 2);
  const std::vector<double> self = SelfMsByLayer(logs);
  for (int l = 0; l < kNumLayers; ++l) {
    Put(m, std::string("layer.") + LayerName(static_cast<Layer>(l)) +
               ".self_ms",
        self[static_cast<size_t>(l)], "ms", 1);
  }

  // Counts that do not depend on thread interleaving: they repeat exactly
  // for a seed (the digest as its low 32 bits, so it survives as a double).
  Put(m, "count.digest", static_cast<double>(t.digest & 0xffffffffu), "count",
      1);
  Put(m, "count.match_rounds", static_cast<double>(t.match_rounds), "count",
      1);
  Put(m, "count.evals_plus_hits", static_cast<double>(t.evals_plus_hits),
      "count", 1);
  Put(m, "count.repairs", static_cast<double>(t.repairs), "count", 1);
  Put(m, "count.escalations", static_cast<double>(t.escalations), "count", 1);
  Put(m, "count.events_applied", static_cast<double>(t.events_applied),
      "count", 1);
  Put(m, "count.gestures_rejected", static_cast<double>(t.quota_rejected),
      "count", 1);
}

void Finish(const Tally& tally, Report* report) {
  report->correct = tally.correct;
  report->attempted += tally.attempted;
  report->failed += tally.failed;
  if (!tally.correct) {
    std::fprintf(stderr, "output check failed: %s\n", tally.error.c_str());
  }
}

/// Common tail of a traced run: the traced quota must have returned exactly
/// the untraced quota's solutions; the untraced pass's operations count as
/// attempted too; the spans are written out.
void FinishTraced(const Tally& untraced, const std::vector<SpanLog>& logs,
                  const std::string& spans_out, Tally* tally, Report* report) {
  if (untraced.digest != tally->digest) {
    tally->Fail("traced and untraced runs returned different solutions");
  }
  if (!untraced.correct) tally->Fail(untraced.error);
  tally->attempted += untraced.attempted;
  tally->failed += untraced.failed;
  char digest[64];
  std::snprintf(digest, sizeof(digest), "digest %016" PRIx64, tally->digest);
  report->notes.push_back(digest);
  Finish(*tally, report);
  if (spans_out.empty()) return;
  if (WriteSpans(logs, spans_out)) {
    report->notes.push_back("spans written to " + spans_out);
  } else {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_out.c_str());
  }
}

Report RunSessionWorkload(const SessionWorkload& w, uint64_t seed,
                          double seconds, bool traced,
                          const std::string& spans_out) {
  Report report;
  Tally tally;
  if (!traced) {
    // w.rounds rounds, each over its own seeded universe: set up (timed),
    // then the closed loop for an equal share of the run.
    double wall_s = 0.0;
    for (int i = 0; i < w.rounds && tally.correct; ++i) {
      const uint64_t round_seed = RoundSeed(seed, i);
      const std::string text = MakeCatalogText(w.num_sources, round_seed);
      std::unique_ptr<SessionServer> server =
          BuildServer(text, w, round_seed, nullptr, &tally);
      if (server == nullptr) break;
      const SessionEnv env{&w, server.get(), round_seed,
                           i == 0 ? kQuotaSessions : 0};
      std::vector<SpanLog> none;
      wall_s += RunUsers(
          env, NowNs() + static_cast<int64_t>(seconds / w.rounds * 1e9), false,
          &none, &tally);
    }
    PutEndToEnd(tally, wall_s, &report.metrics);
    Finish(tally, &report);
    return report;
  }

  // Traced: round 0's quota untraced (overhead baseline and digest
  // reference), then the traced loop over the same universe; every pass on
  // a fresh server. The baseline pass runs twice and the first is only a
  // warm-up, so the baseline does not pay the process's cold start.
  const uint64_t round_seed = RoundSeed(seed, 0);
  const std::string text = MakeCatalogText(w.num_sources, round_seed);
  Tally passes[2];
  for (Tally& pass : passes) {
    std::unique_ptr<SessionServer> server =
        BuildServer(text, w, round_seed, nullptr, &pass);
    if (server == nullptr) continue;
    std::vector<SpanLog> none;
    RunUsers({&w, server.get(), round_seed}, 0, false, &none, &pass);
  }
  const Tally& untraced = passes[1];
  tally.attempted += passes[0].attempted;
  tally.failed += passes[0].failed;
  if (!passes[0].correct) tally.Fail(passes[0].error);
  if (passes[0].digest != untraced.digest) {
    tally.Fail("two untraced runs of one quota returned different solutions");
  }
  std::vector<SpanLog> logs(1);
  std::unique_ptr<SessionServer> server =
      BuildServer(text, w, round_seed, &logs[0], &tally);
  if (server != nullptr) {
    RunUsers({&w, server.get(), round_seed},
             NowNs() + static_cast<int64_t>(seconds * 1e9), true, &logs,
             &tally);
    PutPerLayer(tally, untraced, logs, server.get(), &report.metrics);
  }
  FinishTraced(untraced, logs, spans_out, &tally, &report);
  return report;
}

// ---------------------------------------------------------------------------
// Churn workload
// ---------------------------------------------------------------------------

struct ChurnInputs {
  std::string text;
  ube::ChurnTrace trace;
  ProblemSpec spec;
  ube::ContinuousOptions options;
};

/// One churn repeat on a fresh engine: set-up, a cold first solve, then the
/// whole trace through Engine::RunContinuous in repair mode. Returns the
/// engine (in its post-churn state) for the replica check.
std::unique_ptr<Engine> RunChurnRepeat(const ChurnInputs& in, bool in_quota,
                                       int64_t op, SpanLog* log,
                                       Tally* tally) {
  if (log != nullptr) log->BeginOp(op);
  Scope setup_root(log, "op.setup", Layer::kCore);
  int64_t start = NowNs();
  Scope parse_span(log, "catalog.parse", Layer::kCatalog);
  Result<ube::Universe> universe = ube::ParseCatalog(in.text);
  parse_span.End();
  if (!universe.ok()) {
    tally->Fail("ParseCatalog: " + universe.status().ToString());
    return nullptr;
  }
  if (log != nullptr) {
    Scope graph_span(log, "matching.graph_build", Layer::kMatching);
    ube::SimilarityGraph graph =
        ube::SimilarityGraph::WithDefaults(universe.value());
    if (in_quota) {
      tally->catalog_bytes = static_cast<double>(in.text.size());
      tally->graph_edges = static_cast<double>(graph.num_edges());
    }
  }
  Scope engine_span(log, "core.engine", Layer::kCore);
  auto engine = std::make_unique<Engine>(std::move(universe.value()),
                                         MakeModel(/*default_model=*/true));
  engine_span.End();
  tally->setups.push_back(MsSince(start) * 1e-3);
  setup_root.End();

  if (log != nullptr) log->BeginOp(op + 1);
  Scope first_root(log, "op.first_schema", Layer::kCore);
  start = NowNs();
  Scope solve_span(log, "optimize.solve", Layer::kOptimize);
  Result<Solution> first =
      engine->Solve(in.spec, ube::SolverKind::kTabu, in.options.solver_options);
  solve_span.End();
  const double first_ms = MsSince(start);
  tally->first_ms.push_back(first.ok() ? first_ms : kMissed);
  double op_ms = first_ms;
  RecordSolve(*engine, in.spec, first, in_quota, Mix(op, 1), log, tally);
  first_root.End();

  if (log != nullptr) log->BeginOp(op + 2);
  Scope run_root(log, "op.churn_run", Layer::kCore);
  start = NowNs();
  Scope run_span(log, "core.run_continuous", Layer::kCore);
  Result<ube::ContinuousReport> result =
      engine->RunContinuous(in.spec, in.trace, in.options);
  run_span.End();
  const double run_s = MsSince(start) * 1e-3;
  op_ms += run_s * 1e3;
  ++tally->attempted;
  if (!result.ok()) {
    ++tally->failed;
    tally->resolve_ms.push_back(kMissed);
    tally->episode_s.push_back(kMissed);
    std::fprintf(stderr, "RunContinuous failed: %s\n",
                 result.status().ToString().c_str());
    return engine;
  }
  const ube::ContinuousReport& run = result.value();
  tally->episode_s.push_back(run_s);
  tally->solves += 1 + static_cast<int64_t>(run.steps.size());
  tally->attempted += static_cast<int64_t>(run.steps.size());
  uint64_t digest = 0;
  for (const ube::ContinuousStep& step : run.steps) {
    tally->resolve_ms.push_back(step.elapsed_ms);
    tally->batch_qualities.push_back(step.quality_after);
    if (step.incumbent.empty() ||
        static_cast<int>(step.incumbent.size()) > in.spec.max_sources ||
        !(step.quality_after > 0.0)) {
      tally->Fail("a churn batch returned an empty, oversized or zero-Q "
                  "incumbent");
    }
    for (SourceId s : step.incumbent) {
      digest = MixHash(digest, static_cast<uint64_t>(s));
    }
    digest = MixHash(digest, DoubleBits(step.quality_after));
    tally->continuous_evals += step.evaluations;
  }
  tally->continuous_batches += static_cast<int64_t>(run.steps.size());
  tally->continuous_repairs += run.repairs;
  tally->continuous_escalations += run.escalations;
  tally->continuous_repair_evals += run.repair_evaluations;
  if (in_quota) {
    tally->digest = MixHash(tally->digest, digest);
    tally->repairs += run.repairs;
    tally->escalations += run.escalations;
    tally->events_applied += run.events_applied;
    tally->quota_op_ms += op_ms;
  }
  // The final incumbent must re-score exactly against the evolved engine.
  CheckSolution(*engine, in.spec, run.final_solution, in_quota, Mix(op, 2),
                log, tally);
  return engine;
}

/// Applies the trace to a replica LiveUniverse one event at a time (a span
/// per event) and checks the replica's graph against the engine's.
void ReplayOnReplica(const ChurnInputs& in, const Engine& engine, SpanLog* log,
                     Tally* tally) {
  log->BeginOp(1);
  Scope root(log, "op.replica", Layer::kCore);
  Scope parse_span(log, "catalog.parse", Layer::kCatalog);
  Result<ube::Universe> universe = ube::ParseCatalog(in.text);
  parse_span.End();
  if (!universe.ok()) {
    tally->Fail("ParseCatalog: " + universe.status().ToString());
    return;
  }
  Scope build_span(log, "source.live_build", Layer::kSource);
  ube::LiveUniverse replica(std::move(universe.value()));
  build_span.End();
  for (const ube::ChurnEvent& event : in.trace.events) {
    Scope span(log,
               "source.apply." + std::string(ube::ChurnEventKindName(event.kind)),
               Layer::kSource);
    const Status status = replica.Apply(event);
    if (!status.ok()) tally->Fail("LiveUniverse::Apply: " + status.ToString());
  }
  if (replica.graph().Fingerprint() != engine.similarity_graph().Fingerprint()) {
    tally->Fail("replica similarity graph differs from the engine's");
  }
}

/// Round `r`'s churn inputs: its own seeded universe and trace.
bool MakeChurnInputs(uint64_t round_seed, ChurnInputs* in, Tally* tally) {
  in->text = MakeCatalogText(kChurnSources, round_seed);
  Result<ube::Universe> universe = ube::ParseCatalog(in->text);
  if (!universe.ok()) {
    tally->Fail("ParseCatalog: " + universe.status().ToString());
    return false;
  }
  ube::ChurnFeedConfig feed;
  feed.seed = Mix(round_seed, 0xc4a7);
  feed.events_per_sec = kChurnEventsPerSec;
  feed.horizon_ms = kChurnHorizonMs;
  Result<ube::ChurnTrace> trace =
      ube::GenerateChurnTrace(universe.value(), feed);
  if (!trace.ok()) {
    tally->Fail("GenerateChurnTrace: " + trace.status().ToString());
    return false;
  }
  in->trace = std::move(trace.value());
  in->spec.max_sources = kChurnMaxSources;
  in->spec.theta = 0.75;
  in->options.solver_options = BenchSolverOptions(Mix(round_seed, 0x501e));
  in->options.solver_options.max_iterations = 100;
  in->options.solver_options.stall_iterations = 0;
  return true;
}

/// Runs churn rounds on kUsers threads — one engine and one solver thread
/// each, every round over its own seeded universe and trace — until the
/// deadline (at least one round per thread). In the traced run, round 0 is
/// also replayed on a replica LiveUniverse. Returns the loop's wall seconds.
double RunChurnRounds(uint64_t seed, int64_t deadline_ns, bool traced,
                      std::vector<SpanLog>* logs, Tally* total) {
  std::vector<Tally> tallies(kUsers);
  std::vector<SpanLog> user_logs(traced ? kUsers + 1 : 0);
  const int64_t start = NowNs();
  {
    std::vector<std::thread> threads;
    for (int u = 0; u < kUsers; ++u) {
      threads.emplace_back([&, u] {
        Tally* tally = &tallies[static_cast<size_t>(u)];
        SpanLog* log = traced ? &user_logs[static_cast<size_t>(u)] : nullptr;
        for (int k = 0; tally->correct && (k == 0 || NowNs() < deadline_ns);
             ++k) {
          const int r = k * kUsers + u;
          ChurnInputs in;
          if (!MakeChurnInputs(RoundSeed(seed, r), &in, tally)) break;
          std::unique_ptr<Engine> engine =
              RunChurnRepeat(in, r == 0, 10 + 10 * r, log, tally);
          if (traced && r == 0 && engine != nullptr) {
            ReplayOnReplica(in, *engine, &user_logs[kUsers], tally);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double wall_s = MsSince(start) * 1e-3;
  for (const Tally& tally : tallies) total->Merge(tally);
  for (SpanLog& log : user_logs) logs->push_back(std::move(log));
  return wall_s;
}

Report RunChurnWorkload(uint64_t seed, double seconds, bool traced,
                        const std::string& spans_out) {
  Report report;
  Tally tally;
  std::vector<SpanLog> logs;
  if (!traced) {
    const double wall_s = RunChurnRounds(
        seed, NowNs() + static_cast<int64_t>(seconds * 1e9), false, &logs,
        &tally);
    PutEndToEnd(tally, wall_s, &report.metrics);
    Finish(tally, &report);
    return report;
  }

  // Traced: one untraced round per thread first (overhead baseline for
  // round 0 under the same 4-thread load, and the digest reference), then
  // the traced rounds.
  Tally untraced;
  RunChurnRounds(seed, 0, false, &logs, &untraced);
  RunChurnRounds(seed, NowNs() + static_cast<int64_t>(seconds * 1e9), true,
                 &logs, &tally);
  PutPerLayer(tally, untraced, logs, nullptr, &report.metrics);
  FinishTraced(untraced, logs, spans_out, &tally, &report);
  return report;
}

// ---------------------------------------------------------------------------
// Output and command line
// ---------------------------------------------------------------------------

void PrintReport(const std::string& workload, bool traced,
                 const Report& report) {
  std::printf("workload %s (%s)\n", workload.c_str(),
              traced ? "traced run: per-layer metrics" : "end-to-end metrics");
  std::printf("%-34s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%-34s %16.6f  %-6s %lld\n", name.c_str(), metric.value,
                metric.unit.c_str(), static_cast<long long>(metric.samples));
  }
  std::printf("%-34s %16.6f  %-6s %lld\n", "failed_frac",
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 0.0,
              "ratio", static_cast<long long>(report.attempted));
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    // JSON has no infinity; a missed latency prints as the largest double.
    const double value = std::isfinite(metric.value)
                             ? metric.value
                             : std::numeric_limits<double>::max();
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ube_perfbench --workload feedback|selection|churn "
                 "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n");
    return 2;
  }
  Report report;
  if (args.workload == "feedback") {
    report = RunSessionWorkload(FeedbackWorkload(), args.seed, args.seconds,
                                args.trace, args.spans_out);
  } else if (args.workload == "selection") {
    report = RunSessionWorkload(SelectionWorkload(), args.seed, args.seconds,
                                args.trace, args.spans_out);
  } else if (args.workload == "churn") {
    report = RunChurnWorkload(args.seed, args.seconds, args.trace,
                              args.spans_out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  PrintReport(args.workload, args.trace, report);
  return 0;
}
