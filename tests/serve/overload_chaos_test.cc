#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/lightmob.h"
#include "core/online_adapter.h"
#include "serve/adapt_scheduler.h"
#include "serve/load_gen.h"
#include "serve/prediction_service.h"
#include "serve/session_store.h"

namespace adamove::serve {
namespace {

using common::FaultRegistry;
using common::FaultSpec;

core::ModelConfig SmallConfig() {
  core::ModelConfig c;
  c.num_locations = 12;
  c.num_users = 8;
  c.hidden_size = 8;
  c.location_emb_dim = 4;
  c.time_emb_dim = 4;
  c.user_emb_dim = 2;
  c.lambda = 0.0;
  return c;
}

std::vector<data::Sample> MakeStream(int users, int steps_per_user) {
  std::vector<data::Sample> stream;
  for (int u = 0; u < users; ++u) {
    std::vector<data::Point> window;
    int64_t t = 1333238400 + u * 100;
    for (int s = 0; s < steps_per_user; ++s) {
      const int64_t loc = (u + s) % 12;
      window.push_back({u, loc, t});
      if (static_cast<int>(window.size()) > 6) window.erase(window.begin());
      data::Sample sample;
      sample.user = u;
      sample.recent = window;
      t += 3 * data::kSecondsPerHour;
      sample.target = {u, (u + s + 1) % 12, t};
      stream.push_back(sample);
    }
  }
  return stream;
}

bool AllFinite(const std::vector<float>& scores) {
  for (float s : scores) {
    if (!std::isfinite(s)) return false;
  }
  return true;
}

/// One user's complete stored state as comparable bytes (pending included —
/// EncodeUser appends the dirty section), via the extraction primitive.
std::string StoreUserBytes(SessionStore& store, int64_t user) {
  core::OnlineAdapter::UserSnapshot snap;
  if (!store.ExtractUser(user, &snap)) return {};
  std::string bytes;
  core::OnlineAdapter::EncodeUser(snap, &bytes);
  return bytes;
}

constexpr const char* kAdaptEnvKnobs[] = {
    "ADAMOVE_ADAPT_MODE",      "ADAMOVE_ADAPT_HIGH",
    "ADAMOVE_ADAPT_LOW",       "ADAMOVE_ADAPT_EWMA",
    "ADAMOVE_ADAPT_MAX_STALE", "ADAMOVE_ADAPT_DRAIN_USERS",
};

/// Owns the process-global fault registry AND the ADAMOVE_ADAPT_* process
/// environment: both are cleared on both sides of every test so a failure
/// in one case cannot leak chaos (or a scheduler override) into the next.
class OverloadChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Instance().DisarmAll();
    FaultRegistry::Instance().SetSeed(7);
    for (const char* knob : kAdaptEnvKnobs) unsetenv(knob);
  }
  void TearDown() override {
    FaultRegistry::Instance().DisarmAll();
    for (const char* knob : kAdaptEnvKnobs) unsetenv(knob);
  }
};

/// The pressure signal itself: trips at the high watermark, holds through
/// the hysteresis band, recovers only at the low watermark, and counts each
/// crossing exactly once. Both saturation arms (queue depth and oldest
/// wait) are exercised.
TEST_F(OverloadChaosTest, PressureGaugeTripsWithHysteresisAndCountsSwitches) {
  AdaptSchedulerConfig config;
  config.high_watermark = 0.75;
  config.low_watermark = 0.35;
  config.ewma_alpha = 1.0;  // raw instantaneous pressure: exact thresholds
  PressureGauge gauge(config);

  EXPECT_FALSE(gauge.deferred());
  gauge.Update(50, 100, 0.0, 1000.0);  // 0.50: below high -> still inline
  EXPECT_FALSE(gauge.deferred());
  gauge.Update(80, 100, 0.0, 1000.0);  // 0.80: trips
  EXPECT_TRUE(gauge.deferred());
  EXPECT_EQ(gauge.mode_switches(), 1u);
  gauge.Update(50, 100, 0.0, 1000.0);  // 0.50: inside the band -> holds
  EXPECT_TRUE(gauge.deferred());
  EXPECT_EQ(gauge.mode_switches(), 1u);
  gauge.Update(10, 100, 0.0, 1000.0);  // 0.10: at/below low -> recovers
  EXPECT_FALSE(gauge.deferred());
  EXPECT_EQ(gauge.mode_switches(), 2u);
  // The wait arm saturates the gauge even with an empty queue.
  gauge.Update(0, 100, 900.0, 1000.0);  // max(0.0, 0.9) = 0.9: trips again
  EXPECT_TRUE(gauge.deferred());
  EXPECT_EQ(gauge.mode_switches(), 3u);

  // EWMA smoothing: with alpha 0.5 a single saturated report (1.0 from 0)
  // lands at 0.5 — under the high watermark — and only a sustained overload
  // trips the gauge. One calm report then cannot recover it on its own.
  AdaptSchedulerConfig smooth = config;
  smooth.ewma_alpha = 0.5;
  PressureGauge slow(smooth);
  slow.Update(100, 100, 0.0, 1000.0);  // ewma 0.5: not tripped
  EXPECT_FALSE(slow.deferred());
  slow.Update(100, 100, 0.0, 1000.0);  // ewma 0.75: tripped
  EXPECT_TRUE(slow.deferred());
  slow.Update(0, 100, 0.0, 1000.0);  // ewma 0.375: inside the band, holds
  EXPECT_TRUE(slow.deferred());
  slow.Update(0, 100, 0.0, 1000.0);  // ewma 0.1875: recovers
  EXPECT_FALSE(slow.deferred());
}

/// ADAMOVE_ADAPT_* resolution: every knob overrides its config field, kAuto
/// resolves through the env (defaulting to the legacy inline mode), and an
/// unknown mode string fails safe to inline.
TEST_F(OverloadChaosTest, AdaptConfigResolvesEnvironmentKnobs) {
  // Unconfigured: kAuto resolves to the legacy bit-identical path.
  EXPECT_EQ(AdaptSchedulerConfig{}.Resolve().mode, AdaptMode::kInline);

  setenv("ADAMOVE_ADAPT_MODE", "elastic", 1);
  setenv("ADAMOVE_ADAPT_HIGH", "0.9", 1);
  setenv("ADAMOVE_ADAPT_LOW", "0.1", 1);
  setenv("ADAMOVE_ADAPT_EWMA", "0.5", 1);
  setenv("ADAMOVE_ADAPT_MAX_STALE", "17", 1);
  setenv("ADAMOVE_ADAPT_DRAIN_USERS", "9", 1);
  const AdaptSchedulerConfig resolved = AdaptSchedulerConfig{}.Resolve();
  EXPECT_EQ(resolved.mode, AdaptMode::kElastic);
  EXPECT_DOUBLE_EQ(resolved.high_watermark, 0.9);
  EXPECT_DOUBLE_EQ(resolved.low_watermark, 0.1);
  EXPECT_DOUBLE_EQ(resolved.ewma_alpha, 0.5);
  EXPECT_EQ(resolved.max_stale, 17u);
  EXPECT_EQ(resolved.drain_users_per_batch, 9u);

  // An explicit (non-kAuto) config mode wins over the environment.
  AdaptSchedulerConfig pinned;
  pinned.mode = AdaptMode::kDeferredAlways;
  EXPECT_EQ(pinned.Resolve().mode, AdaptMode::kDeferredAlways);

  setenv("ADAMOVE_ADAPT_MODE", "deferred", 1);
  EXPECT_EQ(AdaptSchedulerConfig{}.Resolve().mode, AdaptMode::kDeferredAlways);
  setenv("ADAMOVE_ADAPT_MODE", "sideways", 1);  // unknown -> fail safe
  EXPECT_EQ(AdaptSchedulerConfig{}.Resolve().mode, AdaptMode::kInline);

  // The band is clamped into sanity: low is capped at high, alpha into
  // (0, 1], so a hostile environment cannot wedge the gauge.
  setenv("ADAMOVE_ADAPT_LOW", "5.0", 1);
  setenv("ADAMOVE_ADAPT_HIGH", "0.6", 1);
  setenv("ADAMOVE_ADAPT_EWMA", "7.0", 1);
  const AdaptSchedulerConfig clamped = AdaptSchedulerConfig{}.Resolve();
  EXPECT_LE(clamped.low_watermark, clamped.high_watermark);
  EXPECT_LE(clamped.ewma_alpha, 1.0);
}

/// THE tentpole invariant, end to end through the service: a fully deferred
/// run — every request answered from stale cached state, every ingest
/// buffered — converges, after one drain, to per-user state that is
/// byte-for-byte identical to the inline run of the same request sequence.
TEST_F(OverloadChaosTest, DeferredRunDrainsToInlineBitIdenticalState) {
  core::LightMob model(SmallConfig());
  const std::vector<data::Sample> stream = MakeStream(4, 12);

  // Inline reference: the legacy path over the same sequence.
  SessionStore inline_store{SessionStoreConfig{}};
  {
    ServiceConfig config;
    config.workers = 1;
    config.max_batch = 1;
    config.adapt.mode = AdaptMode::kInline;
    PredictionService service(model, inline_store, config);
    for (const auto& sample : stream) {
      const Prediction p = service.Submit(sample).get();
      EXPECT_EQ(p.outcome, RequestOutcome::kOk);
      EXPECT_FALSE(p.stale_adapt);
    }
    service.Shutdown();
    EXPECT_EQ(service.Stats().stale_adapt_requests, 0u);
    EXPECT_EQ(service.Stats().deferred_ingests, 0u);
  }

  // Deferred run: same sequence, every adapt-path request deferred.
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 1;
  config.max_batch = 1;
  config.adapt.mode = AdaptMode::kDeferredAlways;
  PredictionService service(model, store, config);
  size_t stale_seen = 0;
  uint32_t max_depth = 0;
  for (const auto& sample : stream) {
    const Prediction p = service.Submit(sample).get();
    // A stale answer is still a valid on-time adapted response: kOk, with
    // the deferral flagged out of band.
    EXPECT_EQ(p.outcome, RequestOutcome::kOk);
    ASSERT_EQ(p.scores.size(), 12u);
    EXPECT_TRUE(AllFinite(p.scores));
    if (p.stale_adapt) {
      ++stale_seen;
      max_depth = std::max(max_depth, p.stale_depth);
    }
  }
  service.Shutdown();

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.stale_adapt_requests, stale_seen);
  EXPECT_GT(stats.stale_adapt_requests, 0u);
  EXPECT_GT(stats.deferred_ingests, 0u);
  EXPECT_EQ(stats.stale_depth.Count(), stale_seen);
  EXPECT_EQ(static_cast<uint32_t>(stats.stale_depth.MaxUs()), max_depth);
  EXPECT_GT(store.DirtyUserCount(), 0u);
  EXPECT_GT(store.PendingDeltaCount(), 0u);

  // Pressure "subsides" (the run ended); one full drain must leave zero
  // deferred residue and bit-identical per-user state.
  store.DrainDirtyUsers(0);
  EXPECT_EQ(store.DirtyUserCount(), 0u);
  EXPECT_EQ(store.PendingDeltaCount(), 0u);
  for (int64_t user = 0; user < 4; ++user) {
    const std::string drained = StoreUserBytes(store, user);
    const std::string reference = StoreUserBytes(inline_store, user);
    ASSERT_FALSE(reference.empty()) << "user " << user;
    EXPECT_EQ(drained, reference) << "user " << user;
  }
}

/// Bounded staleness by construction: with a tiny max_stale, a deferred
/// predict that finds the buffer at the bound is forced inline (drain +
/// fresh rebuild), so the observed staleness depth can never run away even
/// in kDeferredAlways.
TEST_F(OverloadChaosTest, MaxStaleBoundForcesInlineRebuilds) {
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 1;
  config.max_batch = 1;
  config.adapt.mode = AdaptMode::kDeferredAlways;
  config.adapt.max_stale = 4;
  PredictionService service(model, store, config);

  // One user, many requests: without the bound the pending buffer would
  // grow with every request.
  const std::vector<data::Sample> stream = MakeStream(1, 30);
  for (const auto& sample : stream) {
    const Prediction p = service.Submit(sample).get();
    EXPECT_EQ(p.outcome, RequestOutcome::kOk);
  }
  service.Shutdown();

  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.forced_inline_rebuilds, 0u);
  EXPECT_GT(stats.stale_adapt_requests, 0u);
  // Depth is sampled after the request buffers its own transitions, so the
  // reachable maximum is (max_stale - 1) + the per-request transition count
  // (the rolling window holds at most 6 points -> at most 5 transitions).
  EXPECT_LE(stats.stale_depth.MaxUs(), 4.0 - 1.0 + 5.0);
  // The bound also caps the live buffer itself.
  EXPECT_LE(store.PendingDeltaCount(), 4u + 5u);
}

/// `serve.adapt_schedule` chaos: a misfiring scheduler defers every batch
/// even though the gauge reads calm. The fault must only ever cost
/// freshness — never an observation: after the fault clears and the store
/// drains, per-user state is bit-identical to the inline run.
TEST_F(OverloadChaosTest, SchedulerMisfireFaultDefersButLosesNothing) {
  core::LightMob model(SmallConfig());
  const std::vector<data::Sample> stream = MakeStream(4, 10);

  SessionStore inline_store{SessionStoreConfig{}};
  {
    ServiceConfig config;
    config.workers = 1;
    config.max_batch = 1;
    config.adapt.mode = AdaptMode::kInline;
    PredictionService service(model, inline_store, config);
    for (const auto& sample : stream) (void)service.Submit(sample).get();
    service.Shutdown();
  }

  FaultRegistry::Instance().Arm("serve.adapt_schedule", FaultSpec{1.0, 0, true});
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 1;
  config.max_batch = 1;
  config.adapt.mode = AdaptMode::kElastic;
  config.adapt.high_watermark = 1e9;  // the gauge itself can never trip
  config.adapt.drain_users_per_batch = 0;  // no background catch-up either
  PredictionService service(model, store, config);
  for (const auto& sample : stream) {
    const Prediction p = service.Submit(sample).get();
    EXPECT_EQ(p.outcome, RequestOutcome::kOk);
    EXPECT_TRUE(p.stale_adapt);  // every batch misfired into deferral
    ASSERT_EQ(p.scores.size(), 12u);
    EXPECT_TRUE(AllFinite(p.scores));
  }
  service.Shutdown();
  EXPECT_FALSE(service.adapt_deferred());  // the gauge stayed calm throughout
  EXPECT_EQ(service.Stats().adapt_mode_switches, 0u);
  EXPECT_EQ(service.Stats().stale_adapt_requests, stream.size());
  EXPECT_GT(
      FaultRegistry::Instance().StatsFor("serve.adapt_schedule").evaluations,
      0u);

  FaultRegistry::Instance().DisarmAll();
  store.DrainDirtyUsers(0);
  EXPECT_EQ(store.DirtyUserCount(), 0u);
  EXPECT_EQ(store.PendingDeltaCount(), 0u);
  for (int64_t user = 0; user < 4; ++user) {
    const std::string drained = StoreUserBytes(store, user);
    const std::string reference = StoreUserBytes(inline_store, user);
    ASSERT_FALSE(reference.empty()) << "user " << user;
    EXPECT_EQ(drained, reference) << "user " << user;
  }
}

/// Headline acceptance: true open-loop bursts at three intensities against
/// an elastic service with the scheduler fault armed at a partial rate.
/// Arrivals, completions, sheds and source drops must balance exactly on
/// both sides of the admission boundary, delivered scores stay finite, and
/// after every burst one drain clears all deferred residue.
TEST_F(OverloadChaosTest, OpenLoopBurstsKeepExactAccountingUnderChaos) {
  core::LightMob model(SmallConfig());
  const std::vector<data::Sample> stream =
      BuildReplayStream(MakeStream(8, 25), /*min_requests=*/600);

  FaultRegistry::Instance().Arm("serve.adapt_schedule", FaultSpec{0.2, 0, true});

  uint64_t stale_total = 0;
  const double rates[] = {2000.0, 8000.0, 32000.0};
  for (const double qps : rates) {
    SessionStore store{SessionStoreConfig{}};
    ServiceConfig config;
    config.workers = 2;
    config.max_batch = 8;
    config.queue_capacity = 32;
    config.adapt.mode = AdaptMode::kElastic;
    // An aggressive band so the burst genuinely exercises pressure-driven
    // deferral (trip at 5% queue occupancy) on top of the armed fault.
    config.adapt.high_watermark = 0.05;
    config.adapt.low_watermark = 0.02;
    config.adapt.ewma_alpha = 1.0;
    PredictionService service(model, store, config);

    LoadGenConfig lg;
    lg.open_loop = true;
    lg.target_qps = qps;
    lg.clients = 4;
    lg.max_requests = 600;
    lg.max_in_flight = 64;
    lg.track_hits = true;
    const LoadGenResult result = RunLoadGen(service, stream, lg);
    service.Shutdown();

    // Generator-side ledger: every scheduled arrival is delivered, shed at
    // admission, or dropped at the source — nothing vanishes.
    EXPECT_EQ(result.arrivals, 600u) << "qps " << qps;
    EXPECT_EQ(result.arrivals,
              result.completed + result.shed + result.dropped_arrivals)
        << "qps " << qps;
    EXPECT_GT(result.completed, 0u) << "qps " << qps;
    EXPECT_LE(result.hits, result.scored);
    EXPECT_LE(result.scored, result.completed);

    // Service-side ledger mirrors it exactly (source drops never submitted).
    const ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.accounted(), result.completed + result.shed)
        << "qps " << qps;
    EXPECT_EQ(stats.completed, result.completed) << "qps " << qps;
    EXPECT_EQ(stats.stale_adapt_requests, stats.stale_depth.Count());
    stale_total += stats.stale_adapt_requests;

    // Post-burst convergence: one drain, zero deferred residue.
    store.DrainDirtyUsers(0);
    EXPECT_EQ(store.DirtyUserCount(), 0u) << "qps " << qps;
    EXPECT_EQ(store.PendingDeltaCount(), 0u) << "qps " << qps;
  }

  // Across three bursts the deferral rung must actually have been used —
  // the armed fault alone guarantees it statistically (~75+ batches/run).
  EXPECT_GT(stale_total, 0u);
  EXPECT_GT(
      FaultRegistry::Instance().StatsFor("serve.adapt_schedule").evaluations,
      0u);
  EXPECT_GT(FaultRegistry::Instance().StatsFor("serve.adapt_schedule").fired,
            0u);
}

}  // namespace
}  // namespace adamove::serve
