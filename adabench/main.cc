// adabench: the request-level benchmark of AdaMove — the streaming serving
// path (PredictionService over SessionStore) on two check-in streams, with
// the paper's per-sample PTTA (Algorithm 1) timed in the traced replay.
//
//   adabench --workload nyc_extend|lymob_slide --seed N
//            --seconds S --trace 0|1 [--workdir DIR]
//   adabench --self-test --seed N [--workdir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (a separate run; its spans go to DIR/trace-<workload>-seed<N>.jsonl).
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --self-test runs the negative controls: it corrupts each checked output
// and exits non-zero unless every matching check fails. See README.md.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "core/ptta.h"
#include "harness.h"
#include "replay.h"

using namespace adamove;
using adabench::Clock;

namespace {

// Every 8th response is kept for the column-locality and reference checks.
constexpr size_t kStride = 8;
constexpr int kSetupRepeats = 3;
constexpr int kSnapshotReps = 9;
constexpr int kCheckThreads = 4;
constexpr int kLatencyParts = 15;
// Two workers × the shipped max_batch of 8, doubled so a batch is always
// waiting when a worker frees up.
constexpr size_t kSaturationWindow = 32;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  int trace = 0;
  std::string workdir = ".";
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return args->self_test || (!args->workload.empty() && args->seconds > 0);
}

/// The result line: metrics in insertion order with their units.
class Report {
 public:
  void Add(const std::string& name, const char* unit, double value) {
    metrics_.push_back({name, unit, value});
  }

  void Print(bool correct, size_t attempted, size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    const char* unit;
    double value;
  };
  std::vector<Metric> metrics_;
};

/// A workload ready for its first timed request.
struct Ready {
  adabench::World world;
  std::unique_ptr<serve::SessionStore> store;
  std::unique_ptr<serve::PredictionService> service;
  double setup_s = 0;
};

/// Builds the workload `repeats` times and reports the median set-up time;
/// the first set-up is timed from process start. Every repeat must train
/// bit-identical weights from the same seed.
Ready SetUp(const adabench::Workload& workload, uint64_t seed,
            Clock::time_point process_start, int repeats,
            adabench::CheckLog* log) {
  Ready ready;
  std::vector<double> seconds;
  std::vector<std::vector<float>> first_weights;
  for (int r = 0; r < repeats; ++r) {
    // Each set-up starts from the same state: the previous one is released
    // first, the service before the store and model it references.
    ready.service.reset();
    ready.store.reset();
    ready.world = adabench::World{};
    const auto t0 = r == 0 ? process_start : Clock::now();
    ready.world = adabench::BuildWorld(workload, seed);
    ready.store =
        std::make_unique<serve::SessionStore>(serve::SessionStoreConfig{});
    ready.service = std::make_unique<serve::PredictionService>(
        *ready.world.model, *ready.store, adabench::BenchServiceConfig());
    seconds.push_back(adabench::MsBetween(t0, Clock::now()) / 1000.0);
    std::vector<std::vector<float>> weights;
    for (const nn::Tensor& p : ready.world.model->Parameters()) {
      weights.push_back(p.data());
    }
    if (r == 0) {
      first_weights = std::move(weights);
    } else {
      log->Expect(weights == first_weights,
                  "set-up from the same seed trained different weights");
    }
  }
  ready.setup_s = adabench::Quantile(seconds, 0.5);
  return ready;
}

double FrozenHitRate(const std::vector<int64_t>& argmax,
                     const std::vector<data::Sample>& stream) {
  size_t hits = 0;
  for (size_t i = 0; i < argmax.size(); ++i) {
    if (argmax[i] == stream[i].target.location) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(argmax.size());
}

/// Snapshot size of `store` plus the restore check; the commit and restore
/// times are per-layer metrics of the traced run.
adabench::SnapshotResult MeasureSnapshot(const adabench::World& world,
                                         serve::SessionStore& store, size_t n,
                                         const std::string& path,
                                         adabench::CheckLog* log) {
  std::unique_ptr<serve::SessionStore> restored;
  const adabench::SnapshotResult snap =
      adabench::RunSnapshots(store, path, 1, &restored);
  std::string why = "no store was restored";
  const std::vector<adabench::Probe> probes =
      adabench::BuildProbes(*world.model, world.stream, n);
  const bool same = restored != nullptr &&
                    adabench::SameStoreState(*world.model, store, *restored,
                                             probes, &why);
  log->Expect(same, "restore: " + why);
  std::filesystem::remove(path);
  return snap;
}

/// Every kept serving response is column-local against the labels fed for
/// its user.
void CheckServedColumns(const adabench::World& world, size_t n,
                        const std::vector<std::vector<float>>& served,
                        const std::vector<std::vector<float>>& frozen,
                        adabench::CheckLog* log) {
  const auto fed =
      adabench::FedLabels(world.stream, n, world.num_locations);
  for (size_t j = 0; j < served.size(); ++j) {
    const data::Sample& s = world.stream[j * kStride];
    std::string why;
    const bool local =
        adabench::ColumnsLocal(served[j], frozen[j], fed.at(s.user), 0, &why);
    log->Expect(local, "request " + std::to_string(j * kStride) + ": " + why);
  }
}

std::string SnapshotPath(const Args& args) {
  return args.workdir + "/snapshot-" + std::to_string(::getpid()) + ".bin";
}

/// p50 latency of a paced phase: median over equal parts of the phase.
double PacedP50(const adabench::PacedResult& paced) {
  return adabench::MedianOfPartQuantiles(paced.latency_ms, kLatencyParts,
                                         0.5);
}

int RunEndToEnd(const adabench::Workload& workload, const Args& args,
                Clock::time_point process_start) {
  adabench::CheckLog log;
  Ready ready =
      SetUp(workload, args.seed, process_start, kSetupRepeats, &log);
  adabench::World& world = ready.world;
  const size_t n = adabench::PacedRequestCount(workload, world.stream.size(),
                                               args.seconds);
  adabench::PacedResult paced = adabench::RunPaced(
      *ready.service, world.stream, n, workload.rate_qps, world.num_locations,
      kStride, /*traced=*/false);
  const double hit = static_cast<double>(paced.hits) / static_cast<double>(n);
  ready.service.reset();

  const adabench::SnapshotResult snap =
      MeasureSnapshot(world, *ready.store, n, SnapshotPath(args), &log);
  const adabench::FrozenPass frozen = adabench::RunFrozenPass(
      *world.model, world.stream, n, kStride, kCheckThreads);
  const double frozen_hit = FrozenHitRate(frozen.argmax, world.stream);
  CheckServedColumns(world, n, paced.kept, frozen.kept, &log);

  Report report;
  report.Add("setup_s", "s", ready.setup_s);
  report.Add("p50_ms", "ms", PacedP50(paced));
  report.Add("hit_at_1", "ratio", hit);
  report.Add("rss_mb", "MB", adabench::PeakRssMb());
  report.Add("snapshot_mb", "MB", snap.snapshot_mb);
  log.Expect(hit > frozen_hit, "hit@1 " + std::to_string(hit) +
                                   " does not exceed the frozen model's " +
                                   std::to_string(frozen_hit));
  std::fprintf(stderr, "%s seed %llu: hit@1 %.4f, frozen %.4f\n",
               workload.name.c_str(),
               static_cast<unsigned long long>(args.seed), hit, frozen_hit);
  report.Print(log.ok(), paced.attempted + snap.attempted,
               paced.failed + snap.failed);
  return 0;
}

/// Per-layer metric names and units, in BENCHMARK.json order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"encode.ms", "ms"},
    {"encode.gflops", "GFLOP/s"},
    {"encode.steps", "steps/req"},
    {"encode.useful_step_ratio", "ratio"},
    {"plan_encode.ms", "ms"},
    {"kb.ingest_ms", "ms"},
    {"kb.ingests", "ingests/req"},
    {"kb.useful_ingest_ratio", "ratio"},
    {"kb.collect_ms", "ms"},
    {"kb.jobs", "jobs/req"},
    {"kb.kept_patterns", "patterns/req"},
    {"kb.score_ms", "ms"},
    {"store.adapt_ms", "ms"},
    {"store.patterns", "count"},
    {"store.resident_mb", "MB"},
    {"snapshot.bytes_per_pattern", "B/pattern"},
    {"snapshot.ms", "ms"},
    {"snapshot.restore_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.batch_mean", "req/batch"},
    {"serve.sat_qps", "1/s"},
    {"serve.sat_batch_mean", "req/batch"},
    {"serve.allocs_per_req", "allocs/req"},
    {"serve.alloc_kb_per_req", "KB/req"},
    {"ptta.predict_ms", "ms"},
    {"ptta.encode_ms", "ms"},
    {"ptta.adjust_ms", "ms"},
    {"ptta.columns", "cols/sample"},
    {"ptta.weight_kb", "KB/sample"},
    {"ptta.patterns", "patterns/sample"},
    {"gen.late_p99_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};


/// The traced run of a workload: the paced phase untraced and again
/// with one span per request and the allocation counter on, the saturated
/// phase for its batch sizes, and a serial replay of the same requests
/// through every layer's calls, the per-sample TestTimeAdapter included.
int RunTraced(const adabench::Workload& workload, const Args& args) {
  adabench::CheckLog log;
  Ready ready = SetUp(workload, args.seed, Clock::now(), 1, &log);
  adabench::World& world = ready.world;
  adabench::SpanLog spans(Clock::now());
  std::map<std::string, double> m;
  size_t attempted = 0, failed = 0;
  auto count = [&](size_t a, size_t f) {
    attempted += a;
    failed += f;
  };
  const size_t n = adabench::PacedRequestCount(workload, world.stream.size(),
                                               args.seconds);

  // The untraced reference p50 for trace.overhead_ms.
  const adabench::PacedResult untraced =
      adabench::RunPaced(*ready.service, world.stream, n, workload.rate_qps,
                         world.num_locations, kStride, false);
  count(untraced.attempted, untraced.failed);
  double traced_p50 = 0;

  serve::SessionStore store{serve::SessionStoreConfig{}};
  {
    serve::PredictionService service(*world.model, store,
                                     adabench::BenchServiceConfig());
    const adabench::PacedResult paced =
        adabench::RunPaced(service, world.stream, n, workload.rate_qps,
                           world.num_locations, kStride, true);
    count(paced.attempted, paced.failed);
    traced_p50 = PacedP50(paced);
    for (size_t i = 0; i < paced.spans.size(); ++i) {
      const adabench::PacedSpan& sp = paced.spans[i];
      const uint32_t root = spans.Add("paced.request", i, 0, sp.due, sp.done);
      spans.Add("paced.submit_wait", i, root, sp.due, sp.submit);
    }
    m["serve.queue_wait_ms"] = paced.stats.queue_us.QuantileUs(0.5) / 1000.0;
    m["serve.batch_mean"] = paced.stats.MeanBatchSize();
    m["serve.allocs_per_req"] =
        static_cast<double>(paced.allocs) / static_cast<double>(n);
    m["serve.alloc_kb_per_req"] = static_cast<double>(paced.alloc_bytes) /
                                  1024.0 / static_cast<double>(n);
    m["gen.late_p99_ms"] = adabench::Quantile(paced.late_ms, 0.99);
  }
  double patterns = 0;
  for (int64_t user : store.ResidentUsers()) {
    patterns += static_cast<double>(store.PatternCount(user));
  }
  m["store.patterns"] = patterns;
  m["store.resident_mb"] =
      static_cast<double>(store.ResidentBytes()) / (1024.0 * 1024.0);
  {
    const std::string path = SnapshotPath(args);
    std::unique_ptr<serve::SessionStore> restored;
    const adabench::SnapshotResult snap =
        adabench::RunSnapshots(store, path, kSnapshotReps, &restored);
    count(snap.attempted, snap.failed);
    m["snapshot.bytes_per_pattern"] =
        snap.snapshot_mb * 1024.0 * 1024.0 / std::max(1.0, patterns);
    m["snapshot.ms"] = snap.snapshot_ms;
    m["snapshot.restore_ms"] = snap.restore_ms;
    std::filesystem::remove(path);
  }

  const adabench::SaturatedResult sat =
      adabench::RunSaturated(*world.model, world.stream, n,
                             world.num_locations, kSaturationWindow,
                             args.seconds);
  count(sat.attempted, sat.failed);
  m["serve.sat_qps"] = sat.throughput_qps;
  m["serve.sat_batch_mean"] = sat.batch_mean;

  adabench::ReplayResult replay = adabench::RunReplay(
      *world.model, world.stream, n, world.num_locations, kStride, &spans,
      &log);
  count(replay.attempted, replay.failed);
  for (const auto& [name, value] : replay.metrics) m[name] = value;
  m["trace.overhead_ms"] = traced_p50 - PacedP50(untraced);

  log.Expect(replay.mismatches == 0,
             std::to_string(replay.mismatches) +
                 " replayed requests disagree across layers (plan vs graph "
                 "encode, or adapter vs store scores)");
  const double hit =
      static_cast<double>(replay.hits) / static_cast<double>(n);
  const double frozen_hit = FrozenHitRate(replay.frozen_argmax, world.stream);
  log.Expect(hit > frozen_hit, "replayed hit@1 " + std::to_string(hit) +
                                   " does not exceed the frozen model's " +
                                   std::to_string(frozen_hit));

  const std::string trace_path = args.workdir + "/trace-" + workload.name +
                                 "-seed" + std::to_string(args.seed) +
                                 ".jsonl";
  log.Expect(spans.Write(trace_path), "cannot write " + trace_path);
  std::fprintf(stderr, "spans written to %s\nmean self time per span (ms):\n",
               trace_path.c_str());
  for (const auto& [name, ms] : spans.MeanSelfMs()) {
    std::fprintf(stderr, "  %-20s %10.4f\n", name.c_str(), ms);
  }

  Report report;
  for (const LayerMetric& metric : kLayerMetrics) {
    log.Expect(m.count(metric.name) == 1,
               std::string("no value for ") + metric.name);
    report.Add(metric.name, metric.unit, m[metric.name]);
  }
  report.Print(log.ok(), attempted, failed);
  return 0;
}

/// One negative control: the clean check must pass and the corrupted one
/// must fail.
bool Control(const char* name, bool clean_passes, bool corrupted_passes) {
  const bool as_intended = clean_passes && !corrupted_passes;
  std::printf("control %-34s clean check %s, corrupted check %s: %s\n", name,
              clean_passes ? "passed" : "FAILED",
              corrupted_passes ? "passed" : "failed",
              as_intended ? "as intended" : "NOT AS INTENDED");
  return as_intended;
}

/// The negative controls: corrupts each checked output and shows that the
/// matching check fails, on a short nyc_extend stream.
int RunSelfTest(const Args& args) {
  adabench::Workload workload;
  adabench::FindWorkload("nyc_extend", &workload);
  adabench::CheckLog log;
  Ready ready = SetUp(workload, args.seed, Clock::now(), 1, &log);
  adabench::World& world = ready.world;
  const int64_t locations = world.num_locations;
  const size_t n = std::min<size_t>(world.stream.size(), 2000);
  const adabench::PacedResult paced =
      adabench::RunPaced(*ready.service, world.stream, n, workload.rate_qps,
                         locations, kStride, false);
  const adabench::FrozenPass frozen = adabench::RunFrozenPass(
      *world.model, world.stream, n, kStride, kCheckThreads);
  std::string why;
  auto all_local = [&](const std::vector<std::vector<float>>& served,
                       int64_t shift) {
    const auto fed = adabench::FedLabels(world.stream, n, locations, shift);
    for (size_t j = 0; j < served.size(); ++j) {
      const data::Sample& s = world.stream[j * kStride];
      if (!adabench::ColumnsLocal(served[j], frozen.kept[j], fed.at(s.user), 0,
                                  &why)) {
        return false;
      }
    }
    return true;
  };
  bool ok = paced.failed == 0;

  // 1. One untouched score column altered.
  std::vector<std::vector<float>> altered = paced.kept;
  const auto fed = adabench::FedLabels(world.stream, n, locations);
  const adabench::LabelSet& first_labels = fed.at(world.stream[0].user);
  int64_t untouched = 0;
  while (first_labels.count(untouched) != 0) ++untouched;
  altered[0][static_cast<size_t>(untouched)] += 1.0f;
  ok &= Control("untouched-column-altered", all_local(paced.kept, 0),
                all_local(altered, 0));

  // 2. One user dropped from a restored store.
  std::unique_ptr<serve::SessionStore> restored;
  const adabench::SnapshotResult snap = adabench::RunSnapshots(
      *ready.store, SnapshotPath(args), 1, &restored);
  std::filesystem::remove(SnapshotPath(args));
  const std::vector<adabench::Probe> probes =
      adabench::BuildProbes(*world.model, world.stream, n);
  const bool clean_restore =
      snap.failed == 0 && adabench::SameStoreState(*world.model, *ready.store,
                                                   *restored, probes, &why);
  restored->Forget(world.stream[0].user);
  ok &= Control("user-dropped-from-restored-store", clean_restore,
                adabench::SameStoreState(*world.model, *ready.store,
                                         *restored, probes, &why));

  // 3. Labels shifted by one location id: the fed-label sets (serving) and
  // the adjusted-weight reference (per-sample PTTA) no longer match the
  // outputs.
  ok &= Control("labels-shifted-serving", all_local(paced.kept, 0),
                all_local(paced.kept, 1));
  const core::TestTimeAdapter adapter{core::PttaConfig{}};
  bool clean_ref = true, shifted_ref = true;
  for (size_t i = 0; i < 400; i += 40) {
    const std::vector<float> scores =
        adapter.Predict(*world.model, world.stream[i]);
    clean_ref &= adabench::MatchesAdjustedWeights(
        *world.model, world.stream[i], scores, 0, &why);
    shifted_ref &= adabench::MatchesAdjustedWeights(
        *world.model, world.stream[i], scores, 1, &why);
  }
  ok &= Control("labels-shifted-per-sample", clean_ref, shifted_ref);
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: adabench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] | --self-test --seed N\n");
    return 2;
  }
  if (args.self_test) return RunSelfTest(args);
  adabench::Workload workload;
  if (!adabench::FindWorkload(args.workload, &workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.trace == 0) return RunEndToEnd(workload, args, process_start);
  return RunTraced(workload, args);
}
