#ifndef ADABENCH_REPLAY_H_
#define ADABENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "core/lightmob.h"
#include "harness.h"

namespace adabench {

/// In-memory span log of a traced run, written out when the run ends.
/// Spans of one request share its id; each names its parent span (0 for a
/// request's root).
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Records a finished span and returns its id (ids start at 1).
  uint32_t Add(const char* name, uint64_t request, uint32_t parent,
               Clock::time_point start, Clock::time_point end);

  /// Closes a span added before its children (a request's root).
  void SetEnd(uint32_t id, Clock::time_point end);

  /// Mean self time per span name in ms: duration minus the part covered by
  /// the span's children.
  std::map<std::string, double> MeanSelfMs() const;

  /// One JSON object per line: request, span, parent, name, start and
  /// duration in microseconds from the run's origin.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    uint64_t request;
    uint32_t parent;
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-layer metrics of a serial replay, by the names in BENCHMARK.json.
struct ReplayResult {
  std::map<std::string, double> metrics;
  std::vector<int64_t> frozen_argmax;
  size_t attempted = 0;
  size_t failed = 0;
  size_t hits = 0;  // store.adapt top-1 hits
  /// Cross-layer consistency: plan encode == graph encode, and the
  /// standalone adapter's scores == the store's, bit for bit.
  size_t mismatches = 0;
};

/// Replays the first `n` requests serially through each layer's public
/// calls — LightMob::PrefixRepresentations, ForwardPlanner::EncodeInto,
/// OnlineAdapter::Observe / CollectRebuildJobs / ScoreCollectedJobsInto,
/// SessionStore::ObserveAndPredictEncoded and TestTimeAdapter::Predict —
/// with one child span per call under the request's span, and counts the
/// work each layer did. Every `stride`-th request's per-sample PTTA scores
/// go through CheckPerSamplePtta into `checks`.
ReplayResult RunReplay(core::LightMob& model,
                       const std::vector<data::Sample>& stream, size_t n,
                       int64_t num_locations, size_t stride, SpanLog* log,
                       CheckLog* checks);

}  // namespace adabench

#endif  // ADABENCH_REPLAY_H_
