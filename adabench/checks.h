#ifndef ADABENCH_CHECKS_H_
#define ADABENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "harness.h"

namespace adabench {

/// Collects failed output checks; a run is correct when none failed.
class CheckLog {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

using LabelSet = std::unordered_set<int64_t>;

/// Labels of the transitions one window feeds: recent[1..T-1] locations.
/// `shift` moves every label by that many location ids (mod
/// `num_locations`); only the negative control passes a non-zero shift.
LabelSet WindowLabels(const data::Sample& sample, int64_t num_locations,
                      int64_t shift = 0);

/// Per user, the union of WindowLabels over the first `n` requests — every
/// label the serving store was fed for that user, whatever order the
/// workers applied them in.
std::unordered_map<int64_t, LabelSet> FedLabels(
    const std::vector<data::Sample>& stream, size_t n, int64_t num_locations,
    int64_t shift = 0);

/// PTTA's column locality: every score that differs from the frozen score
/// belongs to a location in `labels`. With `tolerance` 0 "differs" is
/// bitwise — the serving path scores untouched columns with the frozen
/// arithmetic itself. The per-sample TestTimeAdapter scores them in float
/// where PredictFrozen accumulates in double, so the per-sample check passes
/// a relative tolerance.
bool ColumnsLocal(const std::vector<float>& scores,
                  const std::vector<float>& frozen, const LabelSet& labels,
                  double tolerance, std::string* why);

/// Frozen-model scores over the first `n` requests, encoded on `threads`
/// threads.
struct FrozenPass {
  std::vector<int64_t> argmax;           // frozen top-1 per request
  std::vector<std::vector<float>> kept;  // every stride-th request
};
FrozenPass RunFrozenPass(core::AdaptableModel& model,
                         const std::vector<data::Sample>& stream, size_t n,
                         size_t stride, int threads);

/// The per-sample reference: `scores` agree, within a relative 1e-4, with the
/// benchmark's own double-precision product of the materialised
/// TestTimeAdapter::AdjustedWeights matrix and the query, plus bias.
/// `label_shift` is for the negative control.
bool MatchesAdjustedWeights(core::AdaptableModel& model,
                            const data::Sample& sample,
                            const std::vector<float>& scores,
                            int64_t label_shift, std::string* why);

/// The per-sample PTTA checks on one sample's `scores`: column locality
/// against the sample's own window (relative 1e-4 against `frozen`) and
/// MatchesAdjustedWeights.
void CheckPerSamplePtta(core::AdaptableModel& model,
                        const data::Sample& sample,
                        const std::vector<float>& scores,
                        const std::vector<float>& frozen,
                        int64_t num_locations, CheckLog* log);

/// One probe per user: the final representation of the user's last request
/// among the first `n`, and that request's target time.
struct Probe {
  int64_t user = 0;
  std::vector<float> query;
  int64_t time = 0;
};
std::vector<Probe> BuildProbes(core::AdaptableModel& model,
                               const std::vector<data::Sample>& stream,
                               size_t n);

/// After Restore: the restored store holds the same users with the same
/// pattern counts, and every probe's adapted prediction is bit-identical.
bool SameStoreState(const core::AdaptableModel& model,
                    serve::SessionStore& original,
                    serve::SessionStore& restored,
                    const std::vector<Probe>& probes, std::string* why);

}  // namespace adabench

#endif  // ADABENCH_CHECKS_H_
