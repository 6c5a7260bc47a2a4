// Convergence-telemetry exporter: runs one solver with the observability
// layer attached and writes (a) the chrome://tracing JSON of the run's
// spans, (b) a per-iteration CSV of the convergence telemetry ring, and
// (c) the human-readable solution + metrics report to stdout. This is the
// tool behind the convergence-curve table in EXPERIMENTS.md and the CI
// observability job's trace artifact.
//
//   solver_trace [--seed N] [--solver NAME] [--golden[=PATH]]
//                [--out trace.json] [--csv trace.csv] [--json[=PATH]]
//
// Default substrate is the paper-scale workload (choose 20 of 200); with
// --golden the pinned small universe from tests/data is used instead (the
// CI job runs that, so the artifact is bit-stable across machines).
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "core/report.h"
#include "obs/obs.h"
#include "testkit/golden.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ube;
using namespace ube::bench;

namespace {

#ifndef UBE_TEST_DATA_DIR
#define UBE_TEST_DATA_DIR "tests/data"
#endif

std::optional<SolverKind> KindFromName(const std::string& name) {
  for (SolverKind kind : AllSolverKinds()) {
    if (name == SolverKindName(kind)) return kind;
  }
  return std::nullopt;
}

std::string TelemetryCsv(const SolverStats& stats) {
  std::string csv =
      "iteration,evaluations,incumbent_quality,neighborhood,"
      "tabu_occupancy,temperature,stall\n";
  char row[160];
  for (const obs::IterationSample& s : stats.telemetry) {
    std::snprintf(row, sizeof(row), "%lld,%lld,%.17g,%d,%d,%.17g,%d\n",
                  static_cast<long long>(s.iteration),
                  static_cast<long long>(s.evaluations), s.incumbent_quality,
                  s.neighborhood, s.tabu_occupancy, s.temperature, s.stall);
    csv += row;
  }
  return csv;
}

}  // namespace

int main(int argc, char** argv) {
  BenchHarness bench("solver_trace");
  std::string solver_name = "tabu";
  std::optional<std::string> golden_path;
  std::string out_json = "solver_trace.json";
  std::string out_csv = "solver_trace.csv";
  const std::string default_golden =
      std::string(UBE_TEST_DATA_DIR) + "/golden_small_universe.json";
  bench.flags().AddString("--solver",
                          "solver to trace: tabu, sls, annealing, pso, "
                          "greedy, random or exhaustive",
                          &solver_name);
  bench.flags().AddOptionalString("--golden",
                                  "use the pinned golden universe "
                                  "(optionally from PATH)",
                                  &golden_path, default_golden);
  bench.flags().AddString("--out", "chrome-trace output path", &out_json);
  bench.flags().AddString("--csv", "telemetry CSV output path", &out_csv);
  bench.ParseOrExit(argc, argv);
  const BenchArgs& args = bench.args();
  WallTimer total;

  std::optional<SolverKind> kind = KindFromName(solver_name);
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown solver: %s\n%s", solver_name.c_str(),
                 bench.flags().Usage(argv[0]).c_str());
    return 2;
  }

  obs::ObsContext obs;
  Engine::Options engine_options;
  engine_options.obs = &obs;

  ProblemSpec spec;
  std::optional<Engine> engine;
  if (golden_path.has_value()) {
    Result<testkit::GoldenSmallUniverse> golden =
        testkit::LoadGoldenSmallUniverse(*golden_path);
    if (!golden.ok()) {
      std::fprintf(stderr, "cannot load golden universe %s: %s\n",
                   golden_path->c_str(),
                   golden.status().ToString().c_str());
      return 1;
    }
    Rng rng(golden->universe_seed);
    Universe universe = testkit::GenerateUniverse(rng, golden->universe);
    spec = golden->spec;
    std::printf("substrate: golden universe (%s), m=%d\n",
                golden->description.c_str(), spec.max_sources);
    engine.emplace(std::move(universe), QualityModel::MakeDefault(),
                   std::move(engine_options));
  } else {
    GeneratedWorkload workload = MakeWorkload(200, args.workload_seed);
    spec.max_sources = 20;
    std::printf("substrate: paper workload (choose 20 of 200)\n");
    engine.emplace(std::move(workload.universe), QualityModel::MakeDefault(),
                   std::move(engine_options));
  }

  // Historically --seed set the solver seed directly (default 42); under
  // the shared parser an explicit --seed shifts workload and search seeds
  // together via SolverSeed().
  SolverOptions options;
  options.seed = args.SolverSeed(42);
  options.record_trace = true;
  options.max_iterations = 400;
  options.stall_iterations = 100;
  options.num_threads = args.threads;
  std::printf("solver: %s, seed %llu\n\n", solver_name.c_str(),
              static_cast<unsigned long long>(options.seed));

  Result<Solution> solution = engine->Solve(spec, *kind, options);
  if (!solution.ok()) {
    std::fprintf(stderr, "solve failed: %s\n",
                 solution.status().ToString().c_str());
    return 1;
  }

  std::printf("%s\n", FormatSolution(solution.value(), engine->universe(),
                                     engine->quality_model())
                          .c_str());
  std::printf("span summary:\n%s\n", obs.tracer().Summary().c_str());

  if (!WriteTextFile(out_json, obs.tracer().ToChromeTraceJson())) {
    std::fprintf(stderr, "cannot write %s\n", out_json.c_str());
    return 1;
  }
  std::printf("chrome trace: %s (%lld events; load in chrome://tracing)\n",
              out_json.c_str(),
              static_cast<long long>(obs.tracer().num_events()));

  if (!WriteTextFile(out_csv, TelemetryCsv(solution->stats))) {
    std::fprintf(stderr, "cannot write %s\n", out_csv.c_str());
    return 1;
  }
  std::printf("telemetry csv: %s (%zu iteration samples, %lld dropped)\n",
              out_csv.c_str(), solution->stats.telemetry.size(),
              static_cast<long long>(solution->stats.telemetry_dropped));

  bench.SetMetric("q_best", solution->quality);
  bench.SetMetric("evals", solution->stats.evaluations);
  bench.SetMetric("telemetry_samples",
                  static_cast<int64_t>(solution->stats.telemetry.size()));
  bench.SetMetric("wall_ms", total.ElapsedMillis());
  return bench.Finish();
}
