#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <thread>
#include <utility>

#include "alloc_count.h"
#include "common/mutex.h"
#include "core/trainer.h"
#include "data/preprocess.h"
#include "serve/load_gen.h"

namespace adabench {

namespace {

// The fixed training budget: enough for adaptation to beat the frozen model
// clearly, small enough that set-up stays a few seconds. Changing it moves
// setup_s and hit_at_1 on every workload.
constexpr int kTrainEpochs = 1;
constexpr int kTrainSamplesPerEpoch = 1000;

// Serving workers. Two on the 4-core reference host leave a core each for
// the generator and the kernel pool; the shipped default of 4 spread p50 by
// 10 % between identical runs, 2 by 1 %.
constexpr int kWorkers = 2;

// Shares of each saturated pass.
constexpr int kPartsPerPass = 5;

constexpr std::chrono::microseconds kPoll(500);

}  // namespace

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

bool FindWorkload(const std::string& name, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "nyc_extend") {
    w.preset = data::NycLikePreset();
    w.rate_qps = 500.0;
  } else if (name == "lymob_slide") {
    w.preset = data::LymobLikePreset();
    w.rate_qps = 400.0;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

World BuildWorld(const Workload& workload, uint64_t seed) {
  data::DatasetPreset preset = workload.preset;
  preset.synthetic.seed = seed;
  const data::SyntheticResult synthetic =
      data::GenerateSynthetic(preset.synthetic);
  const data::PreprocessedData preprocessed =
      data::Preprocess(synthetic.trajectories, preset.preprocess);
  data::SplitConfig split;
  split.eval_samples.context_sessions = preset.eval_context_sessions;
  const data::Dataset dataset = data::MakeDataset(preprocessed, split);

  core::ModelConfig model_config;
  model_config.num_locations = dataset.num_locations;
  model_config.num_users = dataset.num_users;
  model_config.lambda = preset.lambda;
  model_config.seed = seed * 2 + 1;
  World world;
  world.model = std::make_unique<core::LightMob>(model_config);
  world.num_locations = dataset.num_locations;

  core::TrainConfig train;
  train.max_epochs = kTrainEpochs;
  train.max_train_samples_per_epoch = kTrainSamplesPerEpoch;
  train.seed = seed * 2 + 2;
  world.model->Fit(dataset);
  core::Trainer(train).Train(*world.model, dataset);

  world.stream = serve::BuildReplayStream(dataset.test, 0);
  for (data::Sample& s : world.stream) {
    s.history.clear();
    s.history.shrink_to_fit();
  }
  return world;
}

serve::ServiceConfig BenchServiceConfig() {
  serve::ServiceConfig config;
  config.workers = kWorkers;
  config.forward = serve::ServiceForwardMode::kAuto;
  return config;
}

size_t PacedRequestCount(const Workload& workload, size_t pass,
                         int seconds) {
  const size_t budget =
      static_cast<size_t>(workload.rate_qps * static_cast<double>(seconds));
  return std::min(pass, budget);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

template <typename F>
double MedianOfParts(const std::vector<double>& values, int parts, F per_part) {
  const size_t n = values.size();
  const size_t k = std::max<size_t>(1, std::min<size_t>(parts, n));
  std::vector<double> results;
  for (size_t p = 0; p < k; ++p) {
    const size_t lo = n * p / k;
    const size_t hi = n * (p + 1) / k;
    results.push_back(per_part(std::vector<double>(
        values.begin() + static_cast<std::ptrdiff_t>(lo),
        values.begin() + static_cast<std::ptrdiff_t>(hi))));
  }
  return Quantile(std::move(results), 0.5);
}

}  // namespace

double MedianOfPartQuantiles(const std::vector<double>& values, int parts,
                             double q) {
  return MedianOfParts(values, parts, [q](std::vector<double> part) {
    return Quantile(std::move(part), q);
  });
}

double MedianOfPartMeans(const std::vector<double>& values, int parts) {
  return MedianOfParts(values, parts, [](const std::vector<double>& part) {
    double sum = 0;
    for (double v : part) sum += v;
    return part.empty() ? 0.0 : sum / static_cast<double>(part.size());
  });
}

namespace {

/// Completions per second over `parts` equal shares of `done` (completion
/// instants; the first share is timed from `start`).
std::vector<double> PartThroughputs(Clock::time_point start,
                                    std::vector<Clock::time_point> done,
                                    int parts) {
  std::sort(done.begin(), done.end());
  const size_t n = done.size();
  const size_t k = std::max<size_t>(1, std::min<size_t>(parts, n));
  std::vector<double> qps;
  Clock::time_point prev = start;
  for (size_t p = 0; p < k; ++p) {
    const size_t lo = n * p / k;
    const size_t hi = n * (p + 1) / k;
    const double ms = MsBetween(prev, done[hi - 1]);
    if (ms > 0) qps.push_back(static_cast<double>(hi - lo) * 1000.0 / ms);
    prev = done[hi - 1];
  }
  return qps;
}

}  // namespace

int64_t ArgMax(const std::vector<float>& scores) {
  return static_cast<int64_t>(
      std::max_element(scores.begin(), scores.end()) - scores.begin());
}

bool ValidScores(const std::vector<float>& scores, int64_t n) {
  if (static_cast<int64_t>(scores.size()) != n) return false;
  for (float s : scores) {
    if (!std::isfinite(s)) return false;
  }
  return true;
}

namespace {

/// Completion state shared between the generator and the workers' on_complete
/// hooks. Slot i is written only by request i's hook (or by the generator
/// when TrySubmit rejects request i), and read after `completed` says so.
struct Completions {
  explicit Completions(size_t n, int64_t locations, size_t stride)
      : futures(n), done(n), argmax(n, -1), bad(n, 0),
        kept(stride > 0 ? (n + stride - 1) / stride : 0),
        num_locations(locations),
        keep_stride(stride) {}

  void Complete(size_t i) {
    done[i] = Clock::now();
    serve::Prediction p = futures[i].get();
    const bool ok = p.outcome == serve::RequestOutcome::kOk &&
                    ValidScores(p.scores, num_locations);
    bad[i] = ok ? 0 : 1;
    if (ok) argmax[i] = ArgMax(p.scores);
    if (keep_stride > 0 && i % keep_stride == 0) {
      kept[i / keep_stride] = std::move(p.scores);
    }
    completed.fetch_add(1, std::memory_order_acq_rel);
  }

  void Reject(size_t i) {
    bad[i] = 1;
    completed.fetch_add(1, std::memory_order_acq_rel);
  }

  void WaitFor(size_t n) const {
    while (completed.load(std::memory_order_acquire) < n) {
      std::this_thread::sleep_for(kPoll);
    }
  }

  std::vector<std::future<serve::Prediction>> futures;
  std::vector<Clock::time_point> done;
  std::vector<int64_t> argmax;
  std::vector<char> bad;
  std::vector<std::vector<float>> kept;
  int64_t num_locations;
  size_t keep_stride;
  std::atomic<size_t> completed{0};
};

}  // namespace

PacedResult RunPaced(serve::PredictionService& service,
                     const std::vector<data::Sample>& stream, size_t n,
                     double rate_qps, int64_t num_locations,
                     size_t keep_stride, bool traced) {
  PacedResult result;
  Completions c(n, num_locations, keep_stride);
  std::vector<Clock::time_point> due(n);
  std::vector<Clock::time_point> submit(n);
  std::vector<char> refused(n, 0);

  if (traced) EnableAllocCounting(true);
  const AllocTotals before = AllocCounts();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const std::chrono::duration<double> period(1.0 / rate_qps);
  for (size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         period * static_cast<double>(i));
    std::this_thread::sleep_until(due[i]);
    submit[i] = Clock::now();
    Completions* shared = &c;
    if (!service.TrySubmit(stream[i], &c.futures[i],
                           [shared, i] { shared->Complete(i); })) {
      refused[i] = 1;
      c.Reject(i);
    }
  }
  c.WaitFor(n);
  const AllocTotals after = AllocCounts();
  EnableAllocCounting(false);
  const auto end = Clock::now();
  service.Shutdown();
  result.stats = service.Stats();
  result.allocs = after.count - before.count;
  result.alloc_bytes = after.bytes - before.bytes;

  result.attempted = n;
  result.latency_ms.resize(n);
  result.late_ms.resize(n);
  for (size_t i = 0; i < n; ++i) {
    // A refused request counts as late as the phase itself.
    const Clock::time_point finished = refused[i] != 0 ? end : c.done[i];
    result.latency_ms[i] = MsBetween(due[i], finished);
    result.late_ms[i] = MsBetween(due[i], submit[i]);
    if (c.bad[i] != 0) ++result.failed;
    if (c.argmax[i] == stream[i].target.location) ++result.hits;
    if (traced) result.spans.push_back({due[i], submit[i], finished});
  }
  result.kept = std::move(c.kept);
  return result;
}

namespace {

/// One saturated pass over the first `n` requests into a fresh store:
/// completion instants, failures and the service's mean batch size.
struct SaturatedPass {
  Clock::time_point start;
  std::vector<Clock::time_point> done;
  size_t failed = 0;
  serve::ServiceStats stats;
};

SaturatedPass RunSaturatedPass(core::AdaptableModel& model,
                               const std::vector<data::Sample>& stream,
                               size_t n, int64_t num_locations,
                               size_t window) {
  SaturatedPass pass;
  Completions c(n, num_locations, /*stride=*/0);
  common::Mutex mu;
  common::CondVar slot_free;
  size_t outstanding = 0;
  serve::SessionStore store{serve::SessionStoreConfig{}};
  serve::PredictionService service(model, store, BenchServiceConfig());

  struct Hook {
    Completions* c;
    common::Mutex* mu;
    common::CondVar* cv;
    size_t* outstanding;
  };
  Hook hook{&c, &mu, &slot_free, &outstanding};
  pass.start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    {
      common::MutexLock lock(mu);
      slot_free.Wait(mu, [&] { return outstanding < window; });
      ++outstanding;
    }
    const Hook* h = &hook;
    if (!service.TrySubmit(stream[i], &c.futures[i], [h, i] {
          h->c->Complete(i);
          {
            common::MutexLock lock(*h->mu);
            --*h->outstanding;
          }
          h->cv->NotifyOne();
        })) {
      c.Reject(i);
      c.done[i] = Clock::now();
      common::MutexLock lock(mu);
      --outstanding;
    }
  }
  c.WaitFor(n);
  service.Shutdown();
  pass.stats = service.Stats();
  for (size_t i = 0; i < n; ++i) {
    if (c.bad[i] != 0) ++pass.failed;
  }
  pass.done = std::move(c.done);
  return pass;
}

}  // namespace

SaturatedResult RunSaturated(core::AdaptableModel& model,
                             const std::vector<data::Sample>& stream,
                             size_t n, int64_t num_locations, size_t window,
                             int seconds) {
  SaturatedResult result;
  std::vector<double> qps;
  double completed = 0, batches = 0;
  const auto phase_start = Clock::now();
  do {
    const SaturatedPass pass =
        RunSaturatedPass(model, stream, n, num_locations, window);
    result.attempted += n;
    result.failed += pass.failed;
    completed += static_cast<double>(pass.stats.completed);
    batches += static_cast<double>(pass.stats.batches);
    const std::vector<double> part_qps =
        PartThroughputs(pass.start, pass.done, kPartsPerPass);
    qps.insert(qps.end(), part_qps.begin(), part_qps.end());
  } while (MsBetween(phase_start, Clock::now()) < 500.0 * seconds);
  result.throughput_qps = Quantile(std::move(qps), 0.5);
  result.batch_mean = batches > 0 ? completed / batches : 0.0;
  return result;
}

SnapshotResult RunSnapshots(const serve::SessionStore& store,
                            const std::string& path, int reps,
                            std::unique_ptr<serve::SessionStore>* restored) {
  SnapshotResult result;
  serve::SnapshotStats stats;
  ++result.attempted;
  if (!store.Snapshot(path, &stats)) ++result.failed;  // untimed warm-up
  std::vector<double> commit_ms;
  for (int r = 0; r < reps; ++r) {
    ++result.attempted;
    const auto t0 = Clock::now();
    const bool ok = static_cast<bool>(store.Snapshot(path, &stats));
    commit_ms.push_back(MsBetween(t0, Clock::now()));
    if (!ok) ++result.failed;
  }
  std::error_code ec;
  const uintmax_t bytes = std::filesystem::file_size(path, ec);
  if (ec) ++result.failed;
  result.snapshot_mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
  std::vector<double> restore_ms;
  for (int r = 0; r < reps; ++r) {
    auto fresh = std::make_unique<serve::SessionStore>(
        serve::SessionStoreConfig{});
    ++result.attempted;
    serve::SnapshotStats rs;
    const auto t0 = Clock::now();
    const bool ok = static_cast<bool>(fresh->Restore(path, &rs));
    restore_ms.push_back(MsBetween(t0, Clock::now()));
    if (!ok || rs.torn_tail) ++result.failed;
    *restored = std::move(fresh);
  }
  result.snapshot_ms = Quantile(std::move(commit_ms), 0.5);
  result.restore_ms = Quantile(std::move(restore_ms), 0.5);
  return result;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace adabench
