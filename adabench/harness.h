#ifndef ADABENCH_HARNESS_H_
#define ADABENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/lightmob.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "serve/prediction_service.h"
#include "serve/session_store.h"

namespace adabench {

namespace core = adamove::core;
namespace data = adamove::data;
namespace nn = adamove::nn;
namespace serve = adamove::serve;
namespace common = adamove::common;

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to);

/// One benchmark workload: which preset it serves and how hard.
struct Workload {
  std::string name;
  data::DatasetPreset preset;
  /// Fixed open-loop rate of the paced phase (requests per second).
  double rate_qps = 0;
};

/// Looks `name` up among nyc_extend and lymob_slide; false when unknown.
bool FindWorkload(const std::string& name, Workload* out);

/// Everything a run needs before its first timed request: the trained model
/// and the chronological replay stream of the uncapped test split.
struct World {
  std::unique_ptr<core::LightMob> model;
  /// One chronological pass of the test split (target timestamp order,
  /// history stripped — the model reads only `recent`).
  std::vector<data::Sample> stream;
  int64_t num_locations = 0;
};

/// Synthesises the preset from `seed`, preprocesses it, and trains LightMob
/// from `seed` on the benchmark's fixed budget.
World BuildWorld(const Workload& workload, uint64_t seed);

/// The benchmark's service settings: 2 workers, everything else at the
/// shipped defaults.
serve::ServiceConfig BenchServiceConfig();

/// Requests a paced phase replays: the first rate × seconds requests of the
/// pass (the whole pass when it is shorter).
size_t PacedRequestCount(const Workload& workload, size_t pass, int seconds);

/// Exact quantile (linear interpolation between order statistics).
double Quantile(std::vector<double> values, double q);

/// Splits `values` (in arrival order) into `parts` contiguous equal parts,
/// takes quantile `q` of each and returns the median over the parts, so a
/// disturbed stretch of the run moves one part, not the result.
double MedianOfPartQuantiles(const std::vector<double>& values, int parts,
                             double q);

/// Same, for per-part means.
double MedianOfPartMeans(const std::vector<double>& values, int parts);

int64_t ArgMax(const std::vector<float>& scores);

/// True when `scores` has `n` entries and all are finite.
bool ValidScores(const std::vector<float>& scores, int64_t n);

/// Spans a paced phase records when tracing: one per request from its due
/// instant to its scores, with the submit instant.
struct PacedSpan {
  Clock::time_point due;
  Clock::time_point submit;
  Clock::time_point done;
};

/// Result of one open-loop paced phase.
struct PacedResult {
  std::vector<double> latency_ms;  // due -> scores, request order
  std::vector<double> late_ms;     // due -> submit (generator lateness)
  /// Scores of every `keep_stride`-th request, for the column checks.
  std::vector<std::vector<float>> kept;
  size_t attempted = 0;
  size_t failed = 0;
  size_t hits = 0;
  serve::ServiceStats stats;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  std::vector<PacedSpan> spans;  // filled when traced
};

/// Open-loop generator on PredictionService::TrySubmit: request i is due at
/// start + i / rate and is timed from that instant until its scores arrive,
/// so a stalled generator is charged to the requests it delayed. A rejected
/// TrySubmit or a response that is not kOk with `num_locations` finite
/// scores counts as failed. `traced` turns on the process-wide allocation
/// counter for the phase and records one PacedSpan per request. The phase
/// ends with `service` shut down.
PacedResult RunPaced(serve::PredictionService& service,
                     const std::vector<data::Sample>& stream, size_t n,
                     double rate_qps, int64_t num_locations,
                     size_t keep_stride, bool traced);

/// Result of one saturated phase.
struct SaturatedResult {
  double throughput_qps = 0;  // median over equal parts of every pass
  double batch_mean = 0;
  size_t attempted = 0;
  size_t failed = 0;
};

/// Replays the first `n` requests into a fresh store with one generator
/// thread holding `window` requests outstanding, enough to fill every
/// worker's batch; whole passes until `seconds` / 2 have elapsed.
SaturatedResult RunSaturated(core::AdaptableModel& model,
                             const std::vector<data::Sample>& stream,
                             size_t n, int64_t num_locations, size_t window,
                             int seconds);

/// Result of the snapshot phase.
struct SnapshotResult {
  double snapshot_ms = 0;  // median over timed commits
  double restore_ms = 0;   // median over restores into fresh stores
  double snapshot_mb = 0;  // file size after the final commit
  size_t attempted = 0;
  size_t failed = 0;
};

/// One untimed warm-up commit of `store` to `path`, then `reps` timed
/// commits and `reps` timed restores, each into a fresh store. The last
/// restored store is left in `*restored` for the restore check.
SnapshotResult RunSnapshots(const serve::SessionStore& store,
                            const std::string& path, int reps,
                            std::unique_ptr<serve::SessionStore>* restored);

/// Peak resident set of this process in MB (getrusage).
double PeakRssMb();

}  // namespace adabench

#endif  // ADABENCH_HARNESS_H_
