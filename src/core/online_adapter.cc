#include "core/online_adapter.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/parallel_for.h"
#include "common/qfloat.h"
#include "core/ptta.h"
#include "nn/kernels.h"

namespace adamove::core {

namespace {

/// Frozen-classifier scores without bias, written into `scores` (resized to
/// num_locations; zero-filled first because VecMatColsF64 accumulates):
/// scores[l] = query · θ_l. Shared by every predict flavour — adapted,
/// frozen, batched — so the fallback path is arithmetically identical to the
/// untouched-column path. VecMatColsF64 keeps the historical ascending-i
/// double accumulation per column on every backend.
void FrozenColumnScoresInto(const nn::Linear& classifier, const float* query,
                            int64_t hidden, std::vector<float>* scores) {
  ADAMOVE_CHECK_EQ(hidden, classifier.in_features());
  const int64_t num_loc = classifier.out_features();
  const std::vector<float>& weight = classifier.weight().data();
  scores->resize(static_cast<size_t>(num_loc));
  std::fill(scores->begin(), scores->end(), 0.0f);
  nn::kernels::VecMatColsF64(query, weight.data(), scores->data(), hidden,
                             num_loc);
}

void AddBias(const nn::Linear& classifier, std::vector<float>* scores) {
  if (!classifier.has_bias()) return;
  const auto& bias = classifier.bias().data();
  for (size_t l = 0; l < scores->size(); ++l) (*scores)[l] += bias[l];
}

float Cosine(const float* a, size_t n, const std::vector<float>& b) {
  ADAMOVE_CHECK_EQ(n, b.size());
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < n; ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  const double denom = std::sqrt(na) * std::sqrt(nb);
  return denom > 1e-12 ? static_cast<float>(dot / denom) : 0.0f;
}

}  // namespace

void OnlineAdapter::Observe(int64_t user, std::vector<float> pattern,
                            int64_t next_location, int64_t timestamp) {
  ADAMOVE_CHECK(!pattern.empty());
  // Simulated ingestion failure: the pattern is dropped, the knowledge base
  // stays consistent (it just never saw this transition).
  if (common::FaultPoint("core.kb.ingest")) return;
  auto& entries = users_[user].by_location[next_location];
  entries.push_back(Entry{std::move(pattern), timestamp});
  if (entries.size() > kMaxCandidatesPerLocation) {
    entries.erase(entries.begin());  // FIFO: drop the oldest candidate
  }
}

size_t OnlineAdapter::ObserveDeferred(int64_t user,
                                      std::vector<float>&& pattern,
                                      int64_t next_location,
                                      int64_t timestamp) {
  ADAMOVE_CHECK(!pattern.empty());
  UserState& state = users_[user];
  state.pending.push_back(
      PendingDelta{std::move(pattern), next_location, timestamp});
  dirty_.insert(user);
  // Exact coalescing: Observe's per-location FIFO cap keeps only the newest
  // kMaxCandidatesPerLocation entries, so once that many deltas for one
  // location are buffered, the oldest buffered delta for it could never
  // survive the drain — drop it now and the post-drain state is unchanged.
  size_t for_location = 0;
  for (const PendingDelta& delta : state.pending) {
    if (delta.next_location == next_location) ++for_location;
  }
  if (for_location <= kMaxCandidatesPerLocation) return 0;
  for (auto it = state.pending.begin(); it != state.pending.end(); ++it) {
    if (it->next_location == next_location) {
      state.pending.erase(it);
      break;
    }
  }
  return 1;
}

size_t OnlineAdapter::DrainPending(int64_t user) {
  auto it = users_.find(user);
  if (it == users_.end() || it->second.pending.empty()) return 0;
  // Move the buffer out first: Observe touches users_ and could in
  // principle rehash the map under us.
  std::vector<PendingDelta> pending = std::move(it->second.pending);
  it->second.pending.clear();
  dirty_.erase(user);
  for (PendingDelta& delta : pending) {
    Observe(user, std::move(delta.pattern), delta.next_location,
            delta.timestamp);
  }
  return pending.size();
}

size_t OnlineAdapter::DrainSomePending(size_t max_users) {
  size_t drained = 0;
  while (!dirty_.empty() && (max_users == 0 || drained < max_users)) {
    DrainPending(*dirty_.begin());
    ++drained;
  }
  return drained;
}

size_t OnlineAdapter::PendingCount(int64_t user) const {
  auto it = users_.find(user);
  return it == users_.end() ? 0 : it->second.pending.size();
}

size_t OnlineAdapter::PendingTotal() const {
  size_t n = 0;
  for (int64_t user : dirty_) n += PendingCount(user);
  return n;
}

void OnlineAdapter::StoreRebuildCache(
    int64_t user, const std::vector<RebuildJob>& jobs,
    const common::AlignedBuffer<float>& arena) {
  auto it = users_.find(user);
  if (it == users_.end()) return;
  CachedRebuild& cache = it->second.cache;
  cache.jobs.clear();
  cache.patterns.clear();
  if (jobs.empty()) return;
  // A job's block spans keep * width floats; the width is the user's
  // pattern dimension, recoverable from any stored entry (jobs only exist
  // when entries do).
  size_t width = 0;
  for (const auto& [location, entries] : it->second.by_location) {
    if (!entries.empty()) {
      width = entries.front().pattern.size();
      break;
    }
  }
  if (width == 0) return;
  cache.jobs.reserve(jobs.size());
  for (const RebuildJob& job : jobs) {
    const size_t len = static_cast<size_t>(job.keep) * width;
    ADAMOVE_CHECK_LE(job.arena_offset + len, arena.size());
    RebuildJob rebased = job;
    rebased.arena_offset = cache.patterns.size();
    cache.patterns.insert(cache.patterns.end(),
                          arena.data() + job.arena_offset,
                          arena.data() + job.arena_offset + len);
    cache.jobs.push_back(rebased);
  }
}

size_t OnlineAdapter::CollectCachedJobs(int64_t user,
                                        common::AlignedBuffer<float>* arena,
                                        std::vector<RebuildJob>* jobs) const {
  auto it = users_.find(user);
  if (it == users_.end() || it->second.cache.jobs.empty()) return 0;
  const CachedRebuild& cache = it->second.cache;
  const size_t base = arena->size();
  arena->Append(cache.patterns.data(), cache.patterns.size());
  for (const RebuildJob& job : cache.jobs) {
    RebuildJob rebased = job;
    rebased.arena_offset += base;
    jobs->push_back(rebased);
  }
  return cache.jobs.size();
}

void OnlineAdapter::PredictFrozenInto(const AdaptableModel& model,
                                      const float* query, int64_t hidden,
                                      std::vector<float>* scores) {
  // Serial kernels: the pool path would allocate per-range futures, and the
  // §13 determinism contract makes scheduling value-neutral anyway.
  common::SerialKernelRegion serial;
  const nn::Linear& classifier = model.classifier();
  FrozenColumnScoresInto(classifier, query, hidden, scores);
  AddBias(classifier, scores);
}

std::vector<float> OnlineAdapter::PredictFrozen(
    const AdaptableModel& model, const std::vector<float>& query) {
  std::vector<float> scores;
  PredictFrozenInto(model, query.data(),
                    static_cast<int64_t>(query.size()), &scores);
  return scores;
}

size_t OnlineAdapter::CollectRebuildJobs(
    int64_t user, const float* query, int64_t hidden, int64_t query_time,
    common::AlignedBuffer<float>* arena, std::vector<RebuildJob>* jobs,
    std::vector<std::pair<float, const Entry*>>* fresh) const {
  // Simulated knowledge-base lookup failure: the per-user adjustment is
  // skipped and the frozen scores stand — a valid base-model prediction.
  auto it = common::FaultPoint("core.kb.lookup") ? users_.end()
                                                 : users_.find(user);
  if (it == users_.end()) return 0;
  const size_t width = static_cast<size_t>(hidden);
  size_t appended = 0;
  for (const auto& [location, entries] : it->second.by_location) {
    // Fresh candidates ranked by similarity to the query pattern.
    fresh->clear();
    for (const auto& entry : entries) {
      if (max_age_seconds_ > 0 &&
          query_time - entry.timestamp > max_age_seconds_) {
        continue;
      }
      fresh->emplace_back(Cosine(query, width, entry.pattern), &entry);
    }
    if (fresh->empty()) continue;
    const size_t keep =
        std::min(fresh->size(), static_cast<size_t>(config_.capacity));
    std::partial_sort(fresh->begin(), fresh->begin() + keep, fresh->end(),
                      [](const auto& a, const auto& b) {
                        return a.first > b.first;
                      });
    RebuildJob job;
    job.location = location;
    job.keep = static_cast<int64_t>(keep);
    // Copy the kept patterns out in ranking order: the job survives any
    // later adapter mutation, and the centroid kernel reads them as one
    // contiguous {keep, hidden} block.
    job.arena_offset = arena->size();
    for (size_t k = 0; k < keep; ++k) {
      arena->Append((*fresh)[k].second->pattern.data(), width);
    }
    jobs->push_back(job);
    ++appended;
  }
  return appended;
}

void OnlineAdapter::ScoreCollectedJobsInto(
    const AdaptableModel& model, const float* query, int64_t hidden,
    const std::vector<RebuildJob>& jobs,
    const common::AlignedBuffer<float>& arena, std::vector<float>* scores) {
  common::SerialKernelRegion serial;
  const nn::Linear& classifier = model.classifier();
  const int64_t num_loc = classifier.out_features();
  const std::vector<float>& weight = classifier.weight().data();

  // Start from the frozen column scores; overwrite adapted columns below.
  FrozenColumnScoresInto(classifier, query, hidden, scores);
  for (const RebuildJob& job : jobs) {
    // θ'_l = mean({θ_l} ∪ kept patterns); score = query · θ'_l. The fused
    // kernel accumulates each centroid element exactly as the historical
    // loop pair (θ first, patterns in ranking order, double throughout).
    const double acc = nn::kernels::PttaCentroidDot(
        query, weight.data() + job.location, num_loc,
        arena.data() + job.arena_offset, job.keep, hidden);
    (*scores)[static_cast<size_t>(job.location)] = static_cast<float>(
        acc / (1.0 + static_cast<double>(job.keep)));
  }
  AddBias(classifier, scores);
}

void OnlineAdapter::PredictInto(const AdaptableModel& model, int64_t user,
                                const float* query, int64_t hidden,
                                int64_t query_time, PredictScratch* scratch,
                                AdapterStats* stats) const {
  scratch->arena.Clear();
  scratch->jobs.clear();
  CollectRebuildJobs(user, query, hidden, query_time, &scratch->arena,
                     &scratch->jobs, &scratch->fresh);
  ScoreCollectedJobsInto(model, query, hidden, scratch->jobs, scratch->arena,
                         &scratch->scores);
  if (stats != nullptr) {
    stats->columns_updated = static_cast<int>(scratch->jobs.size());
    stats->weight_bytes_touched = static_cast<int64_t>(scratch->jobs.size()) *
                                  hidden * static_cast<int64_t>(sizeof(float));
    stats->resident_bytes = static_cast<int64_t>(ResidentBytes(user));
  }
}

std::vector<float> OnlineAdapter::Predict(const AdaptableModel& model,
                                          int64_t user,
                                          const std::vector<float>& query,
                                          int64_t query_time,
                                          AdapterStats* stats) const {
  PredictScratch scratch;
  PredictInto(model, user, query.data(), static_cast<int64_t>(query.size()),
              query_time, &scratch, stats);
  return std::move(scratch.scores);
}

std::vector<float> OnlineAdapter::ObserveAndPredict(
    AdaptableModel& model, const data::Sample& sample) {
  nn::Tensor reps = model.PrefixRepresentations(sample);
  const int64_t t = reps.rows();
  const int64_t hidden = reps.cols();
  for (int64_t k = 0; k + 1 < t; ++k) {
    std::vector<float> pattern(
        reps.data().begin() + k * hidden,
        reps.data().begin() + (k + 1) * hidden);
    Observe(sample.user, std::move(pattern),
            sample.recent[static_cast<size_t>(k + 1)].location,
            sample.recent[static_cast<size_t>(k + 1)].timestamp);
  }
  std::vector<float> query(reps.data().end() - hidden, reps.data().end());
  return Predict(model, sample.user, query, sample.target.timestamp);
}

std::vector<int64_t> OnlineAdapter::Users() const {
  std::vector<int64_t> users;
  users.reserve(users_.size());
  for (const auto& [user, state] : users_) users.push_back(user);
  std::sort(users.begin(), users.end());
  return users;
}

OnlineAdapter::UserSnapshot OnlineAdapter::ExportUser(int64_t user) const {
  UserSnapshot snap;
  snap.user = user;
  auto it = users_.find(user);
  if (it == users_.end()) return snap;
  snap.locations.reserve(it->second.by_location.size());
  for (const auto& [location, entries] : it->second.by_location) {
    snap.locations.emplace_back(location, entries);
  }
  std::sort(snap.locations.begin(), snap.locations.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  snap.pending = it->second.pending;
  return snap;
}

void OnlineAdapter::Adopt(UserSnapshot&& snap) {
  UserState state;
  for (auto& [location, entries] : snap.locations) {
    if (entries.empty()) continue;
    if (entries.size() > kMaxCandidatesPerLocation) {
      // Same FIFO policy as Observe: the newest candidates win.
      entries.erase(entries.begin(),
                    entries.end() - kMaxCandidatesPerLocation);
    }
    state.by_location[location] = std::move(entries);
  }
  // Install pending deltas under the same per-location coalescing bound
  // ObserveDeferred enforces (newest win), so a hostile snapshot cannot
  // inflate the buffer past what a live deferral could hold.
  for (PendingDelta& delta : snap.pending) {
    if (delta.pattern.empty()) continue;
    size_t for_location = 0;
    for (const PendingDelta& kept : state.pending) {
      if (kept.next_location == delta.next_location) ++for_location;
    }
    state.pending.push_back(std::move(delta));
    if (for_location + 1 <= kMaxCandidatesPerLocation) continue;
    for (auto p = state.pending.begin(); p != state.pending.end(); ++p) {
      if (p->next_location == state.pending.back().next_location) {
        state.pending.erase(p);
        break;
      }
    }
  }
  if (state.by_location.empty() && state.pending.empty()) {
    users_.erase(snap.user);  // adopting an empty snapshot == Forget
    dirty_.erase(snap.user);
    return;
  }
  if (state.pending.empty()) {
    dirty_.erase(snap.user);
  } else {
    dirty_.insert(snap.user);
  }
  users_[snap.user] = std::move(state);
}

namespace {

constexpr uint8_t kModeRawF32 = 0;
constexpr uint8_t kModeQ8 = 1;
/// Raw f32 with an explicit per-entry length, for patterns whose size
/// differs from the header dimension (the store accepts any size).
constexpr uint8_t kModeRawVar = 2;

/// Dimension cap mirroring the durable layer's frame-size discipline: no
/// legitimate encoder hidden state is near this, so a larger on-wire value
/// is corruption, rejected before any allocation.
constexpr uint64_t kMaxPatternDim = 1u << 20;

/// True iff `block` decodes back to exactly `x` — the losslessness gate for
/// q8 storage.
bool Q8RoundTripsExactly(const std::vector<float>& x,
                         const common::QfloatBlock& block) {
  const float scale = std::ldexp(1.0f, block.exponent);
  for (size_t i = 0; i < x.size(); ++i) {
    if (static_cast<float>(block.q[i]) * scale != x[i]) return false;
  }
  return true;
}

/// Appends one pattern as mode byte + payload (shared by stored entries and
/// pending deltas, so both sections keep the same lossless-quantize rules)
/// and counts it in `stats`.
void AppendPattern(const std::vector<float>& pattern, uint64_t dim,
                   common::QfloatBlock* block, std::string* out,
                   OnlineAdapter::EncodeStats* stats) {
  const size_t size = pattern.size();
  if (stats != nullptr) stats->patterns += 1;
  // q8 payloads are implicitly `dim` bytes, so only uniform-size patterns
  // qualify; off-dimension patterns fall through to the explicit-length raw
  // mode and the bytes stay decodable.
  if (size == dim && common::QfloatEncodable(pattern.data(), size)) {
    common::QfloatEncode(pattern.data(), size, block);
    if (Q8RoundTripsExactly(pattern, *block)) {
      out->push_back(static_cast<char>(kModeQ8));
      common::AppendZigzag(out, block->exponent);
      out->append(reinterpret_cast<const char*>(block->q.data()),
                  block->q.size());
      return;
    }
  }
  if (stats != nullptr) stats->raw_patterns += 1;
  if (size == dim) {
    out->push_back(static_cast<char>(kModeRawF32));
  } else {
    out->push_back(static_cast<char>(kModeRawVar));
    common::AppendVarint(out, size);
  }
  common::AppendF32Array(out, pattern.data(), size);
}

/// Reads one mode byte + pattern payload (the inverse of AppendPattern).
common::IoResult ReadPattern(common::WireReader* reader, uint64_t dim,
                             std::vector<float>* pattern) {
  std::string_view mode_byte;
  if (!reader->ReadBytes(1, &mode_byte)) {
    return common::IoResult::Fail("user frame: truncated pattern mode");
  }
  const auto mode = static_cast<uint8_t>(mode_byte[0]);
  if (mode == kModeRawF32) {
    if (!reader->ReadF32Array(dim, pattern)) {
      return common::IoResult::Fail(
          "user frame: raw pattern larger than the remaining bytes");
    }
  } else if (mode == kModeQ8) {
    int64_t exponent = 0;
    std::string_view q_bytes;
    if (!reader->ReadZigzag(&exponent) || !reader->ReadBytes(dim, &q_bytes)) {
      return common::IoResult::Fail(
          "user frame: q8 pattern larger than the remaining bytes");
    }
    // Float exponents live in a narrow band; anything else is corrupt (and
    // would push ldexp into inf/0, breaking the exactness contract).
    if (exponent < -160 || exponent > 140) {
      return common::IoResult::Fail("user frame: q8 exponent " +
                                    std::to_string(exponent) +
                                    " out of range");
    }
    const float scale = std::ldexp(1.0f, static_cast<int>(exponent));
    pattern->resize(dim);
    for (uint64_t i = 0; i < dim; ++i) {
      (*pattern)[i] =
          static_cast<float>(static_cast<int8_t>(q_bytes[i])) * scale;
    }
  } else if (mode == kModeRawVar) {
    uint64_t size = 0;
    if (!reader->ReadVarint(&size)) {
      return common::IoResult::Fail("user frame: truncated pattern length");
    }
    if (size > kMaxPatternDim) {
      return common::IoResult::Fail("user frame: pattern length " +
                                    std::to_string(size) +
                                    " exceeds the cap");
    }
    if (!reader->ReadF32Array(size, pattern)) {
      return common::IoResult::Fail(
          "user frame: raw pattern larger than the remaining bytes");
    }
  } else {
    return common::IoResult::Fail("user frame: unknown pattern mode " +
                                  std::to_string(mode));
  }
  return common::IoResult::Ok();
}

}  // namespace

void OnlineAdapter::EncodeUser(const UserSnapshot& snap, std::string* out,
                               EncodeStats* stats) {
  uint64_t dim = 0;
  for (const auto& [location, entries] : snap.locations) {
    if (!entries.empty()) {
      dim = entries.front().pattern.size();
      break;
    }
  }
  // A pending-only user (dirty, nothing drained yet) still has a natural
  // dimension; taking it keeps q8 available for the buffered deltas.
  if (dim == 0 && !snap.pending.empty()) {
    dim = snap.pending.front().pattern.size();
  }
  common::AppendZigzag(out, snap.user);
  common::AppendVarint(out, dim);
  common::AppendVarint(out, snap.locations.size());
  int64_t prev_location = 0;
  common::QfloatBlock block;
  for (const auto& [location, entries] : snap.locations) {
    common::AppendZigzag(out, location - prev_location);
    prev_location = location;
    common::AppendVarint(out, entries.size());
    int64_t prev_timestamp = 0;
    for (const Entry& entry : entries) {
      common::AppendZigzag(out, entry.timestamp - prev_timestamp);
      prev_timestamp = entry.timestamp;
      AppendPattern(entry.pattern, dim, &block, out, stats);
    }
    if (stats != nullptr) stats->locations += 1;
  }
  // Pending section, present only for dirty users: a clean user's bytes are
  // unchanged by deferral, and decoders treat end-of-bytes after the
  // locations as "no pending".
  if (snap.pending.empty()) return;
  common::AppendVarint(out, snap.pending.size());
  int64_t prev_timestamp = 0;
  for (const PendingDelta& delta : snap.pending) {
    common::AppendZigzag(out, delta.timestamp - prev_timestamp);
    prev_timestamp = delta.timestamp;
    common::AppendZigzag(out, delta.next_location);
    AppendPattern(delta.pattern, dim, &block, out, stats);
  }
}

common::IoResult OnlineAdapter::DecodeUser(std::string_view bytes,
                                           UserSnapshot* out) {
  out->locations.clear();
  out->pending.clear();
  common::WireReader reader(bytes);
  if (!reader.ReadZigzag(&out->user)) {
    return common::IoResult::Fail("user frame: truncated user id");
  }
  uint64_t dim = 0;
  if (!reader.ReadVarint(&dim)) {
    return common::IoResult::Fail("user frame: truncated pattern dim");
  }
  if (dim > kMaxPatternDim) {
    return common::IoResult::Fail("user frame: pattern dim " +
                                  std::to_string(dim) + " exceeds the cap");
  }
  uint64_t location_count = 0;
  if (!reader.ReadVarint(&location_count)) {
    return common::IoResult::Fail("user frame: truncated location count");
  }
  // A location record is at least 3 bytes (delta, count, one entry byte);
  // a count beyond remaining/3 is provably corrupt — reject pre-reserve.
  if (location_count > reader.remaining() / 3 + 1) {
    return common::IoResult::Fail(
        "user frame: location count " + std::to_string(location_count) +
        " larger than the frame could hold");
  }
  out->locations.reserve(location_count);
  int64_t prev_location = 0;
  for (uint64_t l = 0; l < location_count; ++l) {
    int64_t delta = 0;
    uint64_t entry_count = 0;
    if (!reader.ReadZigzag(&delta) || !reader.ReadVarint(&entry_count)) {
      return common::IoResult::Fail("user frame: truncated location record");
    }
    const int64_t location = prev_location + delta;
    // Strictly ascending ids are the encoder's invariant; a violation would
    // silently merge locations on Adopt, so reject it structurally.
    if (l > 0 && location <= prev_location) {
      return common::IoResult::Fail(
          "user frame: location ids not strictly ascending");
    }
    prev_location = location;
    if (entry_count == 0) {
      return common::IoResult::Fail("user frame: empty location record");
    }
    // An entry is at least timestamp + mode (payload may be empty).
    if (entry_count > reader.remaining() / 2 + 1) {
      return common::IoResult::Fail(
          "user frame: entry count " + std::to_string(entry_count) +
          " larger than the frame could hold");
    }
    std::vector<Entry> entries;
    entries.reserve(entry_count);
    int64_t prev_timestamp = 0;
    for (uint64_t e = 0; e < entry_count; ++e) {
      Entry entry;
      int64_t ts_delta = 0;
      if (!reader.ReadZigzag(&ts_delta)) {
        return common::IoResult::Fail("user frame: truncated entry header");
      }
      entry.timestamp = prev_timestamp + ts_delta;
      prev_timestamp = entry.timestamp;
      common::IoResult read = ReadPattern(&reader, dim, &entry.pattern);
      if (!read.ok) return read;
      entries.push_back(std::move(entry));
    }
    out->locations.emplace_back(location, std::move(entries));
  }
  if (reader.AtEnd()) return common::IoResult::Ok();  // no pending section
  uint64_t pending_count = 0;
  if (!reader.ReadVarint(&pending_count)) {
    return common::IoResult::Fail("user frame: truncated pending count");
  }
  // The encoder omits an empty section, so an explicit zero is corruption
  // (or trailing garbage).
  if (pending_count == 0) {
    return common::IoResult::Fail("user frame: empty pending section");
  }
  // A pending delta is at least timestamp + location + mode (3 bytes).
  if (pending_count > reader.remaining() / 3 + 1) {
    return common::IoResult::Fail(
        "user frame: pending count " + std::to_string(pending_count) +
        " larger than the frame could hold");
  }
  out->pending.reserve(pending_count);
  int64_t prev_timestamp = 0;
  for (uint64_t p = 0; p < pending_count; ++p) {
    PendingDelta delta;
    int64_t ts_delta = 0;
    if (!reader.ReadZigzag(&ts_delta) ||
        !reader.ReadZigzag(&delta.next_location)) {
      return common::IoResult::Fail(
          "user frame: truncated pending delta header");
    }
    delta.timestamp = prev_timestamp + ts_delta;
    prev_timestamp = delta.timestamp;
    common::IoResult read = ReadPattern(&reader, dim, &delta.pattern);
    if (!read.ok) return read;
    out->pending.push_back(std::move(delta));
  }
  if (!reader.AtEnd()) {
    return common::IoResult::Fail("user frame: trailing bytes");
  }
  return common::IoResult::Ok();
}

size_t OnlineAdapter::Forget(int64_t user) {
  auto it = users_.find(user);
  if (it == users_.end()) return 0;
  size_t n = 0;
  for (const auto& [loc, entries] : it->second.by_location) {
    n += entries.size();
  }
  users_.erase(it);
  dirty_.erase(user);
  return n;
}

size_t OnlineAdapter::StateBytes(const UserState& state) {
  // Fixed per-node overhead standing in for the hash node header plus its
  // bucket slot — a deterministic proxy, not malloc truth, so the number is
  // reproducible across allocators and runs.
  constexpr size_t kMapNodeOverhead = 32;
  size_t bytes = sizeof(UserState) + kMapNodeOverhead;
  for (const auto& [location, entries] : state.by_location) {
    bytes += kMapNodeOverhead + sizeof(location) + sizeof(entries);
    bytes += entries.capacity() * sizeof(Entry);
    for (const Entry& entry : entries) {
      bytes += entry.pattern.capacity() * sizeof(float);
    }
  }
  bytes += state.pending.capacity() * sizeof(PendingDelta);
  for (const PendingDelta& delta : state.pending) {
    bytes += delta.pattern.capacity() * sizeof(float);
  }
  return bytes;
}

size_t OnlineAdapter::ResidentBytes(int64_t user) const {
  auto it = users_.find(user);
  return it == users_.end() ? 0 : StateBytes(it->second);
}

size_t OnlineAdapter::ResidentBytes() const {
  size_t bytes = 0;
  for (const auto& [user, state] : users_) bytes += StateBytes(state);
  return bytes;
}

size_t OnlineAdapter::PatternCount(int64_t user) const {
  auto it = users_.find(user);
  if (it == users_.end()) return 0;
  size_t n = 0;
  for (const auto& [loc, entries] : it->second.by_location) {
    n += entries.size();
  }
  return n;
}

}  // namespace adamove::core
