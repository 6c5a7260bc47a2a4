// In-memory span recorder and small statistics helpers for the benchmark
// program (main.cc).
//
// A span covers one public call the benchmark makes into a layer of the
// library. Spans of one operation (a first solve, a gesture, a churn run)
// share an operation id; each span records its parent, so a layer's self
// time is its spans' durations minus the parts their child spans cover.
// Every user thread records into its own SpanLog (no locking); the logs
// are merged and written out once, when the run ends.
#ifndef UBE_PERFBENCH_SPANS_H_
#define UBE_PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-6;
}

/// The library layers spans are attributed to (the src/ module names).
enum class Layer { kCatalog, kMatching, kQef, kOptimize, kCore, kSource };
inline constexpr int kNumLayers = 6;

inline const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kCatalog:
      return "catalog";
    case Layer::kMatching:
      return "matching";
    case Layer::kQef:
      return "qef";
    case Layer::kOptimize:
      return "optimize";
    case Layer::kCore:
      return "core";
    case Layer::kSource:
      return "source";
  }
  return "unknown";
}

struct SpanRecord {
  std::string name;
  Layer layer = Layer::kCore;
  int64_t op = 0;
  int32_t parent = -1;  // index into the same log, -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// One thread's spans. A null SpanLog* disables tracing at every call site
/// (see Scope), which is how the untraced run records nothing.
class SpanLog {
 public:
  /// Starts a new operation: spans opened from now on belong to it.
  void BeginOp(int64_t op) { op_ = op; }

  int32_t Open(std::string name, Layer layer) {
    SpanRecord record;
    record.name = std::move(name);
    record.layer = layer;
    record.op = op_;
    record.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(record));
    const int32_t index = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(index);
    spans_[static_cast<size_t>(index)].start_ns = NowNs();
    return index;
  }

  void Close(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  int64_t op_ = 0;
  std::vector<int32_t> open_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when `log` is null.
class Scope {
 public:
  Scope(SpanLog* log, std::string name, Layer layer) : log_(log) {
    if (log_ != nullptr) index_ = log_->Open(std::move(name), layer);
  }
  ~Scope() { End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void End() {
    if (log_ != nullptr && index_ >= 0) log_->Close(index_);
    index_ = -1;
  }

 private:
  SpanLog* log_;
  int32_t index_ = -1;
};

/// Self time per layer (ms): each span's duration minus its direct
/// children's (children of one span run sequentially on its thread).
inline std::vector<double> SelfMsByLayer(const std::vector<SpanLog>& logs) {
  std::vector<double> self(kNumLayers, 0.0);
  for (const SpanLog& log : logs) {
    const std::vector<SpanRecord>& spans = log.spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const SpanRecord& span : spans) {
      if (span.parent >= 0) {
        child_ms[static_cast<size_t>(span.parent)] += span.ms();
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      self[static_cast<size_t>(spans[i].layer)] += spans[i].ms() - child_ms[i];
    }
  }
  return self;
}

/// Durations (ms) of every span with this exact name, across all logs.
inline std::vector<double> DurationsMs(const std::vector<SpanLog>& logs,
                                       const std::string& name) {
  std::vector<double> out;
  for (const SpanLog& log : logs) {
    for (const SpanRecord& span : log.spans()) {
      if (span.name == name) out.push_back(span.ms());
    }
  }
  return out;
}

/// Writes every span as one JSON object per line. Returns false when the
/// file cannot be written.
inline bool WriteSpans(const std::vector<SpanLog>& logs,
                       const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const SpanLog& log : logs) {
    for (const SpanRecord& span : log.spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<SpanRecord>& spans = logs[t].spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = spans[i];
      std::fprintf(file,
                   "{\"thread\":%zu,\"id\":%zu,\"parent\":%d,\"op\":%lld,"
                   "\"name\":\"%s\",\"layer\":\"%s\",\"start_us\":%.3f,"
                   "\"end_us\":%.3f}\n",
                   t, i, span.parent, static_cast<long long>(span.op),
                   span.name.c_str(), LayerName(span.layer),
                   static_cast<double>(span.start_ns - origin) * 1e-3,
                   static_cast<double>(span.end_ns - origin) * 1e-3);
    }
  }
  return std::fclose(file) == 0;
}

/// Nearest-rank percentile (p in (0, 1]); 0 for an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

inline double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

/// Order-sensitive 64-bit mixing (the per-workload output digest).
inline uint64_t MixHash(uint64_t h, uint64_t v) {
  uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// The metrics one run prints: name -> (value, unit, samples behind it).
struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};
using MetricMap = std::map<std::string, Metric>;

}  // namespace perfbench

#endif  // UBE_PERFBENCH_SPANS_H_
