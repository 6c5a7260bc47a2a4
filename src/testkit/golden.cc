#include "testkit/golden.h"

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <variant>

#include "util/json.h"

namespace ube::testkit {

namespace {

using JsonObject = json::Object;
using JsonArray = json::Array;
using JsonValue = json::Value;

// ---------------------------------------------------------------------------
// Mapping JSON (parsed by util/json) onto GoldenSmallUniverse. Every key
// must be known; numeric fields are fetched through one typed accessor.
// ---------------------------------------------------------------------------

Status UnknownKeys(const JsonObject& object,
                   std::initializer_list<const char*> known,
                   const std::string& where) {
  for (const auto& [key, value] : object) {
    bool found = false;
    for (const char* k : known) found = found || key == k;
    if (!found) {
      return Status::InvalidArgument("unknown key '" + key + "' in " + where);
    }
  }
  return Status::Ok();
}

Result<double> Number(const JsonObject& object, const std::string& key) {
  auto it = object.find(key);
  if (it == object.end()) {
    return Status::InvalidArgument("missing key '" + key + "'");
  }
  const double* value = std::get_if<double>(&it->second.data);
  if (value == nullptr) {
    return Status::InvalidArgument("key '" + key + "' is not a number");
  }
  return *value;
}

Result<JsonValue> ParseFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open golden file: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return json::Parse(buffer.str());
}

}  // namespace

Result<GoldenSmallUniverse> LoadGoldenSmallUniverse(const std::string& path) {
  Result<JsonValue> root = ParseFile(path);
  if (!root.ok()) return root.status();
  const JsonObject* top = std::get_if<JsonObject>(&root->data);
  if (top == nullptr) {
    return Status::InvalidArgument("golden file root must be an object");
  }
  Status keys = UnknownKeys(
      *top, {"description", "universe_seed", "generator", "spec", "optimum"},
      "top level");
  if (!keys.ok()) return keys;

  GoldenSmallUniverse golden;
  if (auto it = top->find("description"); it != top->end()) {
    if (const std::string* s = std::get_if<std::string>(&it->second.data)) {
      golden.description = *s;
    }
  }
  Result<double> seed = Number(*top, "universe_seed");
  if (!seed.ok()) return seed.status();
  golden.universe_seed = static_cast<uint64_t>(*seed);

  auto generator_it = top->find("generator");
  if (generator_it == top->end()) {
    return Status::InvalidArgument("missing 'generator' object");
  }
  const JsonObject* gen = std::get_if<JsonObject>(&generator_it->second.data);
  if (gen == nullptr) {
    return Status::InvalidArgument("'generator' must be an object");
  }
  keys = UnknownKeys(*gen,
                     {"min_sources", "max_sources", "min_attributes",
                      "max_attributes", "vocabulary_concepts",
                      "noise_attribute_probability", "variant_probability",
                      "min_cardinality", "max_cardinality",
                      "uncooperative_probability", "shared_fraction",
                      "shared_pool", "exact_signatures",
                      "characteristic_probability"},
                     "'generator'");
  if (!keys.ok()) return keys;
  struct IntField { const char* key; int* out; };
  struct DoubleField { const char* key; double* out; };
  struct Int64Field { const char* key; int64_t* out; };
  UniverseGenOptions& u = golden.universe;
  for (IntField f : {IntField{"min_sources", &u.min_sources},
                     IntField{"max_sources", &u.max_sources},
                     IntField{"min_attributes", &u.min_attributes},
                     IntField{"max_attributes", &u.max_attributes},
                     IntField{"vocabulary_concepts",
                              &u.vocabulary_concepts}}) {
    Result<double> value = Number(*gen, f.key);
    if (!value.ok()) return value.status();
    *f.out = static_cast<int>(*value);
  }
  for (DoubleField f :
       {DoubleField{"noise_attribute_probability",
                    &u.noise_attribute_probability},
        DoubleField{"variant_probability", &u.variant_probability},
        DoubleField{"uncooperative_probability",
                    &u.uncooperative_probability},
        DoubleField{"shared_fraction", &u.shared_fraction},
        DoubleField{"characteristic_probability",
                    &u.characteristic_probability}}) {
    Result<double> value = Number(*gen, f.key);
    if (!value.ok()) return value.status();
    *f.out = *value;
  }
  for (Int64Field f : {Int64Field{"min_cardinality", &u.min_cardinality},
                       Int64Field{"max_cardinality", &u.max_cardinality},
                       Int64Field{"shared_pool", &u.shared_pool}}) {
    Result<double> value = Number(*gen, f.key);
    if (!value.ok()) return value.status();
    *f.out = static_cast<int64_t>(*value);
  }
  if (auto it = gen->find("exact_signatures"); it != gen->end()) {
    const bool* flag = std::get_if<bool>(&it->second.data);
    if (flag == nullptr) {
      return Status::InvalidArgument("'exact_signatures' must be a bool");
    }
    u.exact_signatures = *flag;
  }

  auto spec_it = top->find("spec");
  if (spec_it == top->end()) {
    return Status::InvalidArgument("missing 'spec' object");
  }
  const JsonObject* spec = std::get_if<JsonObject>(&spec_it->second.data);
  if (spec == nullptr) {
    return Status::InvalidArgument("'spec' must be an object");
  }
  keys = UnknownKeys(*spec, {"max_sources", "theta", "beta"}, "'spec'");
  if (!keys.ok()) return keys;
  Result<double> m = Number(*spec, "max_sources");
  if (!m.ok()) return m.status();
  golden.spec.max_sources = static_cast<int>(*m);
  Result<double> theta = Number(*spec, "theta");
  if (!theta.ok()) return theta.status();
  golden.spec.theta = *theta;
  Result<double> beta = Number(*spec, "beta");
  if (!beta.ok()) return beta.status();
  golden.spec.beta = static_cast<int>(*beta);

  auto optimum_it = top->find("optimum");
  if (optimum_it == top->end()) {
    return Status::InvalidArgument("missing 'optimum' object");
  }
  const JsonObject* optimum =
      std::get_if<JsonObject>(&optimum_it->second.data);
  if (optimum == nullptr) {
    return Status::InvalidArgument("'optimum' must be an object");
  }
  keys = UnknownKeys(*optimum, {"sources", "quality"}, "'optimum'");
  if (!keys.ok()) return keys;
  auto sources_it = optimum->find("sources");
  if (sources_it == optimum->end()) {
    return Status::InvalidArgument("missing 'optimum.sources'");
  }
  const JsonArray* sources =
      std::get_if<JsonArray>(&sources_it->second.data);
  if (sources == nullptr) {
    return Status::InvalidArgument("'optimum.sources' must be an array");
  }
  for (const JsonValue& entry : *sources) {
    const double* id = std::get_if<double>(&entry.data);
    if (id == nullptr) {
      return Status::InvalidArgument("'optimum.sources' entries must be ids");
    }
    golden.optimal_sources.push_back(static_cast<SourceId>(*id));
  }
  Result<double> quality = Number(*optimum, "quality");
  if (!quality.ok()) return quality.status();
  golden.optimal_quality = *quality;

  return golden;
}

Result<std::map<std::string, uint64_t>> LoadGoldenDigests(
    const std::string& path) {
  Result<JsonValue> root = ParseFile(path);
  if (!root.ok()) return root.status();
  const JsonObject* top = std::get_if<JsonObject>(&root->data);
  if (top == nullptr) {
    return Status::InvalidArgument("golden file root must be an object");
  }
  Status keys = UnknownKeys(*top, {"description", "digests"}, "top level");
  if (!keys.ok()) return keys;
  auto digests_it = top->find("digests");
  const JsonObject* digests =
      digests_it == top->end()
          ? nullptr
          : std::get_if<JsonObject>(&digests_it->second.data);
  if (digests == nullptr) {
    return Status::InvalidArgument("missing 'digests' object");
  }
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : *digests) {
    const std::string* hex = std::get_if<std::string>(&value.data);
    if (hex == nullptr || hex->size() != 16 ||
        hex->find_first_not_of("0123456789abcdef") != std::string::npos) {
      return Status::InvalidArgument("digest '" + name +
                                     "' must be 16 lowercase hex digits");
    }
    out[name] = std::stoull(*hex, nullptr, 16);
  }
  return out;
}

}  // namespace ube::testkit
