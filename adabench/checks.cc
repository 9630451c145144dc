#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/online_adapter.h"
#include "core/ptta.h"

namespace adabench {

void CheckLog::Expect(bool ok, const std::string& what) {
  if (ok) return;
  failures_.push_back(what);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

LabelSet WindowLabels(const data::Sample& sample, int64_t num_locations,
                      int64_t shift) {
  LabelSet labels;
  for (size_t k = 1; k < sample.recent.size(); ++k) {
    labels.insert((sample.recent[k].location + shift) % num_locations);
  }
  return labels;
}

std::unordered_map<int64_t, LabelSet> FedLabels(
    const std::vector<data::Sample>& stream, size_t n, int64_t num_locations,
    int64_t shift) {
  std::unordered_map<int64_t, LabelSet> fed;
  for (size_t i = 0; i < n; ++i) {
    const LabelSet window = WindowLabels(stream[i], num_locations, shift);
    fed[stream[i].user].insert(window.begin(), window.end());
  }
  return fed;
}

bool ColumnsLocal(const std::vector<float>& scores,
                  const std::vector<float>& frozen, const LabelSet& labels,
                  double tolerance, std::string* why) {
  if (scores.size() != frozen.size()) {
    *why = "score and frozen sizes differ";
    return false;
  }
  for (size_t l = 0; l < scores.size(); ++l) {
    const bool same =
        tolerance == 0
            ? std::memcmp(&scores[l], &frozen[l], sizeof(float)) == 0
            : std::fabs(scores[l] - frozen[l]) <=
                  tolerance * std::max(1.0, std::fabs(double{frozen[l]}));
    if (same) continue;
    if (labels.count(static_cast<int64_t>(l)) == 0) {
      *why = "column " + std::to_string(l) +
             " differs from the frozen score but was never fed as a label";
      return false;
    }
  }
  return true;
}

namespace {

std::vector<float> LastRow(const nn::Tensor& reps) {
  const int64_t h = reps.cols();
  return std::vector<float>(reps.data().end() - h, reps.data().end());
}

}  // namespace

FrozenPass RunFrozenPass(core::AdaptableModel& model,
                         const std::vector<data::Sample>& stream, size_t n,
                         size_t stride, int threads) {
  FrozenPass pass;
  pass.argmax.assign(n, -1);
  pass.kept.resize((n + stride - 1) / stride);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < n;
           i += static_cast<size_t>(threads)) {
        const nn::Tensor reps = model.PrefixRepresentations(stream[i]);
        std::vector<float> frozen =
            core::OnlineAdapter::PredictFrozen(model, LastRow(reps));
        pass.argmax[i] = ArgMax(frozen);
        if (i % stride == 0) pass.kept[i / stride] = std::move(frozen);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return pass;
}

bool MatchesAdjustedWeights(core::AdaptableModel& model,
                            const data::Sample& sample,
                            const std::vector<float>& scores,
                            int64_t label_shift, std::string* why) {
  const nn::Tensor reps = model.PrefixRepresentations(sample);
  const int64_t t = reps.rows();
  const int64_t h = reps.cols();
  const nn::Linear& classifier = model.classifier();
  const int64_t num_loc = classifier.out_features();
  std::vector<int64_t> labels;
  for (int64_t k = 0; k + 1 < t; ++k) {
    labels.push_back((sample.recent[static_cast<size_t>(k + 1)].location +
                      label_shift) %
                     num_loc);
  }
  const core::TestTimeAdapter adapter{core::PttaConfig{}};
  const std::vector<float> adjusted =
      adapter.AdjustedWeights(reps, labels, classifier);  // {H, L}
  const float* query = reps.data().data() + (t - 1) * h;
  for (int64_t l = 0; l < num_loc; ++l) {
    double ref = classifier.has_bias()
                     ? static_cast<double>(classifier.bias().data()[l])
                     : 0.0;
    for (int64_t i = 0; i < h; ++i) {
      ref += static_cast<double>(query[i]) *
             static_cast<double>(adjusted[static_cast<size_t>(i * num_loc + l)]);
    }
    const double got = scores[static_cast<size_t>(l)];
    if (std::fabs(got - ref) > 1e-4 * std::max(1.0, std::fabs(ref))) {
      *why = "location " + std::to_string(l) + " scored " +
             std::to_string(got) + ", the adjusted-weight product gives " +
             std::to_string(ref);
      return false;
    }
  }
  return true;
}

void CheckPerSamplePtta(core::AdaptableModel& model,
                        const data::Sample& sample,
                        const std::vector<float>& scores,
                        const std::vector<float>& frozen,
                        int64_t num_locations, CheckLog* log) {
  std::string why;
  const bool local = ColumnsLocal(
      scores, frozen, WindowLabels(sample, num_locations), 1e-4, &why);
  log->Expect(local, "per-sample PTTA: " + why);
  const bool matches = MatchesAdjustedWeights(model, sample, scores, 0, &why);
  log->Expect(matches, "per-sample PTTA: " + why);
}

std::vector<Probe> BuildProbes(core::AdaptableModel& model,
                               const std::vector<data::Sample>& stream,
                               size_t n) {
  std::unordered_map<int64_t, size_t> last;
  for (size_t i = 0; i < n; ++i) last[stream[i].user] = i;
  std::vector<Probe> probes;
  for (const auto& [user, i] : last) {
    Probe p;
    p.user = user;
    p.query = LastRow(model.PrefixRepresentations(stream[i]));
    p.time = stream[i].target.timestamp;
    probes.push_back(std::move(p));
  }
  return probes;
}

bool SameStoreState(const core::AdaptableModel& model,
                    serve::SessionStore& original,
                    serve::SessionStore& restored,
                    const std::vector<Probe>& probes, std::string* why) {
  const std::vector<int64_t> users = original.ResidentUsers();
  if (users != restored.ResidentUsers()) {
    *why = "restored store holds " +
           std::to_string(restored.ResidentUsers().size()) + " users, not " +
           std::to_string(users.size());
    return false;
  }
  for (int64_t user : users) {
    if (original.PatternCount(user) != restored.PatternCount(user)) {
      *why = "user " + std::to_string(user) + " has " +
             std::to_string(restored.PatternCount(user)) +
             " patterns after restore, not " +
             std::to_string(original.PatternCount(user));
      return false;
    }
  }
  for (const Probe& p : probes) {
    const std::vector<float> a =
        original.Predict(model, p.user, p.query, p.time);
    const std::vector<float> b =
        restored.Predict(model, p.user, p.query, p.time);
    if (a.size() != b.size() ||
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
      *why = "user " + std::to_string(p.user) +
             "'s adapted prediction changed across snapshot and restore";
      return false;
    }
  }
  return true;
}

}  // namespace adabench
