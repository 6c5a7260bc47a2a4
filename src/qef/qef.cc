#include "qef/qef.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace ube {

namespace {

double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

/// Section 5's aggregation of a characteristic over S, shared by
/// CharacteristicQef::Evaluate and its table scorer so both run identical
/// arithmetic in identical order — identical bits. `normalized(s)` and
/// `cardinality(s)` give one member's normalized value and |s|.
template <typename Normalized, typename Cardinality>
double Aggregate(Aggregation aggregation, const std::vector<SourceId>& sources,
                 const Normalized& normalized, const Cardinality& cardinality) {
  switch (aggregation) {
    case Aggregation::kWeightedSum: {
      // wsum(S) = Σ_s normalized(q_s)·|s| / Σ_s |s|  (Section 5).
      double weighted = 0.0;
      double total_card = 0.0;
      for (SourceId s : sources) {
        double card = cardinality(s);
        weighted += normalized(s) * card;
        total_card += card;
      }
      if (total_card <= 0.0) return 0.0;
      return Clamp01(weighted / total_card);
    }
    case Aggregation::kMean: {
      double sum = 0.0;
      for (SourceId s : sources) sum += normalized(s);
      return Clamp01(sum / static_cast<double>(sources.size()));
    }
    case Aggregation::kMin: {
      double best = 1.0;
      for (SourceId s : sources) best = std::min(best, normalized(s));
      return best;
    }
    case Aggregation::kMax: {
      double best = 0.0;
      for (SourceId s : sources) best = std::max(best, normalized(s));
      return best;
    }
  }
  UBE_CHECK(false, "unknown aggregation");
  return 0.0;
}

/// CharacteristicQef's Evaluate rescans the universe (min/max) and hits the
/// per-source characteristic map for every candidate. This scorer freezes
/// both into per-source tables at construction and aggregates over them.
class CharacteristicDeltaScorer final : public QefDeltaScorer {
 public:
  CharacteristicDeltaScorer(Aggregation aggregation, bool any,
                            std::vector<double> normalized,
                            std::vector<double> cardinality)
      : aggregation_(aggregation),
        any_(any),
        normalized_(std::move(normalized)),
        cardinality_(std::move(cardinality)) {}

  double Score(const EvalContext& ctx) const override {
    if (ctx.sources->empty() || !any_) return 0.0;
    return Aggregate(
        aggregation_, *ctx.sources,
        [this](SourceId s) { return normalized_[static_cast<size_t>(s)]; },
        [this](SourceId s) { return cardinality_[static_cast<size_t>(s)]; });
  }

 private:
  Aggregation aggregation_;
  bool any_;
  std::vector<double> normalized_;
  std::vector<double> cardinality_;
};

}  // namespace

std::string_view DegradationPolicyName(DegradationPolicy policy) {
  switch (policy) {
    case DegradationPolicy::kPessimisticPrior:
      return "pessimistic-prior";
    case DegradationPolicy::kLastKnownGood:
      return "last-known-good";
    case DegradationPolicy::kExcludeRenormalize:
      return "exclude-renormalize";
  }
  return "unknown";
}

double MatchingQualityQef::Evaluate(const EvalContext& ctx) const {
  UBE_CHECK(ctx.match != nullptr,
            "MatchingQualityQef requires a Match(S) result in the context");
  if (!ctx.match->valid) return 0.0;
  return Clamp01(ctx.match->matching_quality);
}

std::unique_ptr<QefDeltaScorer> CharacteristicQef::MakeDeltaScorer(
    const Universe& universe) const {
  double min_u = 0.0;
  double max_u = 0.0;
  const bool any = Range(universe, &min_u, &max_u);
  const size_t n = static_cast<size_t>(universe.num_sources());
  std::vector<double> normalized(n, 0.0);
  std::vector<double> cardinality(n, 0.0);
  for (SourceId s = 0; s < universe.num_sources(); ++s) {
    normalized[static_cast<size_t>(s)] = Normalized(universe, s, min_u, max_u);
    cardinality[static_cast<size_t>(s)] =
        static_cast<double>(universe.source(s).cardinality());
  }
  return std::make_unique<CharacteristicDeltaScorer>(
      aggregation_, any, std::move(normalized), std::move(cardinality));
}

double CardinalityQef::Evaluate(const EvalContext& ctx) const {
  UBE_CHECK(ctx.universe != nullptr, "EvalContext missing universe");
  // MakeContext fills universe_cardinality per the degradation policy.
  if (ctx.universe_cardinality <= 0) return 0.0;
  return Clamp01(ctx.effective_cardinality /
                 static_cast<double>(ctx.universe_cardinality));
}

double CoverageQef::Evaluate(const EvalContext& ctx) const {
  UBE_CHECK(ctx.universe != nullptr, "EvalContext missing universe");
  if (ctx.universe_union_estimate <= 0.0) return 0.0;
  return Clamp01(ctx.union_estimate / ctx.universe_union_estimate);
}

double RedundancyQef::Evaluate(const EvalContext& ctx) const {
  // Only cooperating sources take part; the others are "assigned 0
  // coverage and redundancy QEFs" (Section 4), i.e. excluded here.
  const int n = ctx.cooperating_count;
  if (n <= 1) return 1.0;  // a single source cannot overlap with itself
  if (ctx.union_estimate <= 0.0 || ctx.cooperating_cardinality <= 0.0) {
    return 1.0;
  }
  double overlap_factor = ctx.cooperating_cardinality / ctx.union_estimate;
  switch (mode_) {
    case Mode::kOverlapFactor: {
      overlap_factor = std::clamp(overlap_factor, 1.0, static_cast<double>(n));
      return Clamp01((static_cast<double>(n) - overlap_factor) /
                     (static_cast<double>(n) - 1.0));
    }
    case Mode::kUnionRatio:
      return Clamp01(1.0 / overlap_factor);
  }
  UBE_CHECK(false, "unknown redundancy mode");
  return 0.0;
}

double SchemaCoverageQef::Evaluate(const EvalContext& ctx) const {
  UBE_CHECK(ctx.match != nullptr && ctx.universe != nullptr &&
                ctx.sources != nullptr,
            "SchemaCoverageQef requires match result, universe and sources");
  if (!ctx.match->valid) return 0.0;
  int total_attributes = 0;
  for (SourceId s : *ctx.sources) {
    total_attributes += ctx.universe->source(s).schema().num_attributes();
  }
  if (total_attributes == 0) return 0.0;
  int covered = ctx.match->schema.TotalAttributes();
  return Clamp01(static_cast<double>(covered) /
                 static_cast<double>(total_attributes));
}

CharacteristicQef::CharacteristicQef(std::string characteristic,
                                     Aggregation aggregation, bool invert)
    : characteristic_(std::move(characteristic)),
      aggregation_(aggregation),
      invert_(invert) {
  display_name_ = "char:" + characteristic_;
}

double CharacteristicQef::Normalized(const Universe& universe, SourceId s,
                                     double min_u, double max_u) const {
  std::optional<double> value =
      universe.source(s).GetCharacteristic(characteristic_);
  if (!value.has_value()) return 0.0;
  if (max_u <= min_u) return 1.0;  // degenerate range: all sources equal
  double normalized = invert_ ? (max_u - *value) / (max_u - min_u)
                              : (*value - min_u) / (max_u - min_u);
  return Clamp01(normalized);
}

bool CharacteristicQef::Range(const Universe& universe, double* min_u,
                              double* max_u) const {
  *min_u = std::numeric_limits<double>::infinity();
  *max_u = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (SourceId s = 0; s < universe.num_sources(); ++s) {
    std::optional<double> value =
        universe.source(s).GetCharacteristic(characteristic_);
    if (!value.has_value()) continue;
    any = true;
    *min_u = std::min(*min_u, *value);
    *max_u = std::max(*max_u, *value);
  }
  return any;
}

double CharacteristicQef::Evaluate(const EvalContext& ctx) const {
  UBE_CHECK(ctx.universe != nullptr && ctx.sources != nullptr,
            "EvalContext missing universe or sources");
  const Universe& universe = *ctx.universe;
  if (ctx.sources->empty()) return 0.0;
  double min_u = 0.0;
  double max_u = 0.0;
  if (!Range(universe, &min_u, &max_u)) return 0.0;
  return Aggregate(
      aggregation_, *ctx.sources,
      [&](SourceId s) { return Normalized(universe, s, min_u, max_u); },
      [&](SourceId s) {
        return static_cast<double>(universe.source(s).cardinality());
      });
}

}  // namespace ube
