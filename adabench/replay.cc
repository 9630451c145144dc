#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "core/forward_plan.h"
#include "core/online_adapter.h"
#include "core/ptta.h"
#include "serve/session_store.h"

namespace adabench {

uint32_t SpanLog::Add(const char* name, uint64_t request, uint32_t parent,
                      Clock::time_point start, Clock::time_point end) {
  spans_.push_back(Span{request, parent, name, start, end});
  return static_cast<uint32_t>(spans_.size());
}

void SpanLog::SetEnd(uint32_t id, Clock::time_point end) {
  spans_[id - 1].end = end;
}

std::map<std::string, double> SpanLog::MeanSelfMs() const {
  std::vector<double> self(spans_.size());
  for (size_t s = 0; s < spans_.size(); ++s) {
    self[s] += MsBetween(spans_[s].start, spans_[s].end);
    if (spans_[s].parent != 0) {
      self[spans_[s].parent - 1] -= MsBetween(spans_[s].start, spans_[s].end);
    }
  }
  std::map<std::string, std::pair<double, size_t>> sums;
  for (size_t s = 0; s < spans_.size(); ++s) {
    auto& [sum, count] = sums[spans_[s].name];
    sum += self[s];
    ++count;
  }
  std::map<std::string, double> mean;
  for (const auto& [name, sc] : sums) {
    mean[name] = sc.first / static_cast<double>(sc.second);
  }
  return mean;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t s = 0; s < spans_.size(); ++s) {
    const Span& sp = spans_[s];
    std::fprintf(f,
                 "{\"request\":%llu,\"span\":%zu,\"parent\":%u,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                 static_cast<unsigned long long>(sp.request), s + 1,
                 sp.parent, sp.name, 1000.0 * MsBetween(origin_, sp.start),
                 1000.0 * MsBetween(sp.start, sp.end));
  }
  return std::fclose(f) == 0;
}

namespace {

// Ingest identity: one (user, location, timestamp) transition.
uint64_t TransitionKey(int64_t user, int64_t location, int64_t timestamp) {
  uint64_t h = static_cast<uint64_t>(user) * 0x9E3779B97F4A7C15ULL;
  h ^= static_cast<uint64_t>(location) + 0x632BE59BD9B4E019ULL + (h << 6) +
       (h >> 2);
  h ^= static_cast<uint64_t>(timestamp) + 0x8CB92BA72F3D8DD7ULL + (h << 6) +
       (h >> 2);
  return h;
}

bool SameFloats(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

}  // namespace

ReplayResult RunReplay(core::LightMob& model,
                       const std::vector<data::Sample>& stream, size_t n,
                       int64_t num_locations, size_t stride, SpanLog* log,
                       CheckLog* checks) {
  ReplayResult r;
  serve::SessionStore store{serve::SessionStoreConfig{}};
  core::OnlineAdapter adapter{core::PttaConfig{}};
  core::ForwardPlanner planner(model);
  core::PlanScratch plan;
  core::OnlineAdapter::PredictScratch kb;
  const core::TestTimeAdapter ptta{core::PttaConfig{}};
  std::vector<float> frozen;
  std::unordered_map<int64_t, std::vector<data::Point>> previous_window;
  std::unordered_set<uint64_t> fed;

  std::map<std::string, std::vector<double>> ms;
  double steps = 0, new_steps = 0, ingests = 0, useful_ingests = 0;
  double jobs = 0, kept = 0, columns = 0, weight_bytes = 0, patterns = 0;
  r.frozen_argmax.assign(n, -1);

  for (size_t i = 0; i < n; ++i) {
    const data::Sample& s = stream[i];
    const int64_t t = static_cast<int64_t>(s.recent.size());
    const auto request_start = Clock::now();
    const uint32_t root =
        log->Add("replay.request", i, 0, request_start, request_start);
    auto span = [&](const char* name, auto&& call) {
      const auto t0 = Clock::now();
      call();
      const auto t1 = Clock::now();
      log->Add(name, i, root, t0, t1);
      ms[name].push_back(MsBetween(t0, t1));
    };

    nn::Tensor reps;
    span("encode", [&] { reps = model.PrefixRepresentations(s); });
    const int64_t h = reps.cols();
    bool planned = false;
    span("plan_encode", [&] { planned = planner.EncodeInto(s, &plan); });
    if (!planned || plan.rows != t || plan.cols != h ||
        !SameFloats(plan.reps.data(), reps.data().data(),
                    static_cast<size_t>(t * h))) {
      ++r.mismatches;
    }

    // Steps this request adds over the user's previous window: only the
    // suffix when the window strictly extends the previous one, else all.
    std::vector<data::Point>& prev = previous_window[s.user];
    const bool extends =
        !prev.empty() && prev.size() < s.recent.size() &&
        std::equal(prev.begin(), prev.end(), s.recent.begin());
    steps += static_cast<double>(t);
    new_steps += static_cast<double>(extends ? t - static_cast<int64_t>(prev.size())
                                             : t);
    prev = s.recent;

    std::vector<std::vector<float>> rows;
    for (int64_t k = 0; k + 1 < t; ++k) {
      rows.emplace_back(reps.data().begin() + k * h,
                        reps.data().begin() + (k + 1) * h);
      const data::Point& next = s.recent[static_cast<size_t>(k + 1)];
      ingests += 1;
      if (fed.insert(TransitionKey(s.user, next.location, next.timestamp))
              .second) {
        useful_ingests += 1;
      }
    }
    span("kb.ingest", [&] {
      for (int64_t k = 0; k + 1 < t; ++k) {
        const data::Point& next = s.recent[static_cast<size_t>(k + 1)];
        adapter.Observe(s.user, rows[static_cast<size_t>(k)], next.location,
                        next.timestamp);
      }
    });
    const float* query = reps.data().data() + (t - 1) * h;
    span("kb.collect", [&] {
      kb.arena.Clear();
      kb.jobs.clear();
      adapter.CollectRebuildJobs(s.user, query, h, s.target.timestamp,
                                 &kb.arena, &kb.jobs, &kb.fresh);
    });
    span("kb.score", [&] {
      core::OnlineAdapter::ScoreCollectedJobsInto(model, query, h, kb.jobs,
                                                  kb.arena, &kb.scores);
    });
    jobs += static_cast<double>(kb.jobs.size());
    for (const auto& job : kb.jobs) kept += static_cast<double>(job.keep);

    std::vector<float> served;
    span("store.adapt",
         [&] { served = store.ObserveAndPredictEncoded(model, s, reps); });
    if (served.size() != kb.scores.size() ||
        !SameFloats(served.data(), kb.scores.data(), served.size())) {
      ++r.mismatches;
    }

    core::AdapterStats stats;
    std::vector<float> per_sample;
    span("ptta.predict",
         [&] { per_sample = ptta.Predict(model, s, &stats); });
    columns += stats.columns_updated;
    weight_bytes += static_cast<double>(stats.weight_bytes_touched);
    patterns += stats.patterns_generated;

    ++r.attempted;
    if (!ValidScores(served, num_locations) ||
        !ValidScores(per_sample, num_locations)) {
      ++r.failed;
    } else if (ArgMax(served) == s.target.location) {
      ++r.hits;
    }
    core::OnlineAdapter::PredictFrozenInto(model, query, h, &frozen);
    r.frozen_argmax[i] = ArgMax(frozen);
    log->SetEnd(root, Clock::now());
    if (i % stride == 0) {
      CheckPerSamplePtta(model, s, per_sample, frozen, num_locations, checks);
    }
  }

  constexpr int kParts = 15;
  auto mean_ms = [&](const char* name) {
    return MedianOfPartMeans(ms[name], kParts);
  };
  const double requests = static_cast<double>(n);
  const double e = static_cast<double>(model.encoder().input_size());
  const double hd = static_cast<double>(model.encoder().hidden_size());
  // The LSTM's two matmuls per step: x·W_ih {E,4H} and h·W_hh {H,4H}.
  const double flops_per_step = 2.0 * 4.0 * hd * (e + hd);
  std::vector<double> adjust;
  for (size_t i = 0; i < n; ++i) {
    adjust.push_back(ms["ptta.predict"][i] - ms["encode"][i]);
  }

  auto& m = r.metrics;
  m["encode.ms"] = mean_ms("encode");
  m["encode.gflops"] =
      flops_per_step * (steps / requests) / (m["encode.ms"] * 1e6);
  m["encode.steps"] = steps / requests;
  m["encode.useful_step_ratio"] = new_steps / steps;
  m["plan_encode.ms"] = mean_ms("plan_encode");
  m["kb.ingest_ms"] = mean_ms("kb.ingest");
  m["kb.ingests"] = ingests / requests;
  m["kb.useful_ingest_ratio"] = useful_ingests / ingests;
  m["kb.collect_ms"] = mean_ms("kb.collect");
  m["kb.jobs"] = jobs / requests;
  m["kb.kept_patterns"] = kept / requests;
  m["kb.score_ms"] = mean_ms("kb.score");
  m["store.adapt_ms"] = mean_ms("store.adapt");
  m["ptta.predict_ms"] = mean_ms("ptta.predict");
  m["ptta.encode_ms"] = m["encode.ms"];
  m["ptta.adjust_ms"] = MedianOfPartMeans(adjust, kParts);
  m["ptta.columns"] = columns / requests;
  m["ptta.weight_kb"] = weight_bytes / 1024.0 / requests;
  m["ptta.patterns"] = patterns / requests;
  return r;
}

}  // namespace adabench
