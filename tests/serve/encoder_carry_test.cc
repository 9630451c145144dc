// Encoder carry (DESIGN.md §17): a window that strictly extends the user's
// previous one is encoded by stepping only its new points from the carried
// recurrent state. The carried encode must be BIT-IDENTICAL to a full
// encode — for every recurrent family, both kernel backends, 1 and 4 kernel
// threads, every window length 1..17 and every split point — and the
// service answers built on it must equal core::OnlineAdapter's, whatever
// mix of extending, sliding and resetting windows two workers serve. The
// carry is a cache, not state: the store's lifecycle drops it, snapshots
// never see it, and the hot-swap hook invalidates it.

#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/encoder.h"
#include "core/lightmob.h"
#include "core/online_adapter.h"
#include "nn/autograd_mode.h"
#include "nn/kernels.h"
#include "serve/prediction_service.h"
#include "serve/session_store.h"

namespace adamove::serve {
namespace {

namespace k = ::adamove::nn::kernels;

constexpr int64_t kLocations = 12;
constexpr int64_t kUsers = 8;

core::ModelConfig Config(core::EncoderType encoder, int64_t hidden = 8,
                         int64_t emb = 10, int64_t layers = 1) {
  core::ModelConfig c;
  c.num_locations = kLocations;
  c.num_users = kUsers;
  c.hidden_size = hidden;
  c.location_emb_dim = emb - emb / 2;
  c.time_emb_dim = emb / 2 - 1;
  c.user_emb_dim = 1;
  c.encoder = encoder;
  c.rnn_layers = layers;
  c.lambda = 0.0;
  c.seed = 17;
  return c;
}

constexpr core::EncoderType kRecurrentFamilies[] = {
    core::EncoderType::kRnn, core::EncoderType::kLstm,
    core::EncoderType::kGru};

std::vector<data::Point> MakeWindow(int64_t user, int len) {
  std::vector<data::Point> window;
  int64_t t = 1333238400 + user * 911;
  for (int i = 0; i < len; ++i) {
    window.push_back({user, (user * 5 + i * 7) % kLocations, t});
    t += 2 * data::kSecondsPerHour + 17 * i;
  }
  return window;
}

std::vector<float> FullEncode(core::TrajectoryEncoder& encoder,
                              const std::vector<data::Point>& window) {
  nn::NoGradGuard no_grad;
  return encoder.Forward(window, /*training=*/false).data();
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<k::Backend> Backends() {
  const k::Backend saved = k::ActiveBackend();
  k::SetBackendForTest(k::Backend::kSimd);
  std::vector<k::Backend> backends = {k::Backend::kScalar};
  if (k::ActiveBackend() == k::Backend::kSimd) {
    backends.push_back(k::Backend::kSimd);
  }
  k::SetBackendForTest(saved);
  return backends;
}

/// Restores the dispatch state (backend, kernel threads) a sweep changed.
class EncoderCarryTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_backend_ = k::ActiveBackend(); }
  void TearDown() override {
    k::SetBackendForTest(saved_backend_);
    common::SetKernelThreads(0);
  }

 private:
  k::Backend saved_backend_ = k::Backend::kScalar;
};

/// The property the carry rests on: a product row depends only on its own
/// input row, wherever that row sits in the batch. Rows [a, b) multiplied
/// alone equal rows [a, b) of the full product, at every offset a — not
/// only prefixes — for input sizes that cover every vector remainder.
TEST_F(EncoderCarryTest, MatMulRowsAreRowPositionInvariant) {
  struct Shape {
    int64_t k, m;
  };
  // Paper sizes (72-wide embedding into an LSTM's 4 x 64 gates, 64 x 256
  // recurrence) plus remainder-heavy ones; 4 threads split these rows.
  const Shape shapes[] = {{72, 256}, {64, 256}, {5, 13}, {9, 27}};
  constexpr int64_t n = 17;
  common::Rng rng(3);
  for (const k::Backend backend : Backends()) {
    k::SetBackendForTest(backend);
    for (const int threads : {1, 4}) {
      common::SetKernelThreads(threads);
      for (const Shape& s : shapes) {
        std::vector<float> x(static_cast<size_t>(n * s.k));
        std::vector<float> w(static_cast<size_t>(s.k * s.m));
        for (size_t i = 0; i < x.size(); ++i) {
          // Exact zeros exercise the scalar backend's skip-zero path.
          x[i] = i % 5 == 0 ? 0.0f
                            : static_cast<float>(rng.Uniform(-1.0, 1.0));
        }
        for (float& v : w) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
        std::vector<float> full(static_cast<size_t>(n * s.m), 0.0f);
        k::MatMulNN(x.data(), w.data(), full.data(), n, s.k, s.m);
        for (int64_t a = 0; a < n; ++a) {
          for (int64_t b = a + 1; b <= n; ++b) {
            std::vector<float> part(static_cast<size_t>((b - a) * s.m), 0.0f);
            k::MatMulNN(x.data() + a * s.k, w.data(), part.data(), b - a, s.k,
                        s.m);
            ASSERT_EQ(std::memcmp(part.data(), full.data() + a * s.m,
                                  part.size() * sizeof(float)),
                      0)
                << "backend " << k::BackendName(backend) << " threads "
                << threads << " k " << s.k << " m " << s.m << " rows [" << a
                << ", " << b << ")";
          }
        }
      }
    }
  }
}

/// Every split point of every window length 1..17: encode the head, then
/// the whole window from the head's carry. The reps and the final state
/// match a full encode bit for bit. A chain of one-point extensions (the
/// serving steady state) must too.
TEST_F(EncoderCarryTest, CarriedSuffixEncodeIsBitIdenticalToFullEncode) {
  struct Dims {
    int64_t hidden, emb;
  };
  const Dims dims[] = {{9, 10}, {64, 72}};  // remainder-heavy, paper
  for (const k::Backend backend : Backends()) {
    k::SetBackendForTest(backend);
    for (const int threads : {1, 4}) {
      common::SetKernelThreads(threads);
      for (const core::EncoderType family : kRecurrentFamilies) {
        for (const Dims& d : dims) {
          core::LightMob model(Config(family, d.hidden, d.emb));
          core::TrajectoryEncoder& encoder = *model.trajectory_encoder();
          ASSERT_TRUE(encoder.can_carry());
          for (int len = 1; len <= 17; ++len) {
            const std::string context =
                core::EncoderTypeName(family) + " hidden " +
                std::to_string(d.hidden) + " " + k::BackendName(backend) +
                " threads " + std::to_string(threads) + " len " +
                std::to_string(len);
            const std::vector<data::Point> window = MakeWindow(2, len);
            const std::vector<float> full = FullEncode(encoder, window);
            core::EncoderCarry whole;
            ASSERT_EQ(encoder.EncodeCarried(window, nullptr, &whole), 0u);
            ASSERT_TRUE(SameBits(whole.reps, full)) << context;
            for (int split = 1; split < len; ++split) {
              const std::vector<data::Point> head(window.begin(),
                                                  window.begin() + split);
              core::EncoderCarry first;
              encoder.EncodeCarried(head, nullptr, &first);
              core::EncoderCarry next;
              ASSERT_EQ(encoder.EncodeCarried(window, &first, &next),
                        static_cast<size_t>(split))
                  << context;
              ASSERT_TRUE(SameBits(next.reps, full))
                  << context << " split " << split;
              ASSERT_TRUE(SameBits(next.state, whole.state))
                  << context << " split " << split;
            }
            core::EncoderCarry chain;
            for (int step = 1; step <= len; ++step) {
              core::EncoderCarry grown;
              encoder.EncodeCarried(
                  std::vector<data::Point>(window.begin(),
                                           window.begin() + step),
                  step == 1 ? nullptr : &chain, &grown);
              chain = std::move(grown);
            }
            ASSERT_TRUE(SameBits(chain.reps, full)) << context << " chain";
          }
        }
      }
    }
  }
}

TEST_F(EncoderCarryTest, StackedEncodersCarryEveryLayer) {
  for (const core::EncoderType family : kRecurrentFamilies) {
    core::LightMob model(Config(family, 7, 10, /*layers=*/2));
    core::TrajectoryEncoder& encoder = *model.trajectory_encoder();
    ASSERT_TRUE(encoder.can_carry());
    const std::vector<data::Point> window = MakeWindow(3, 9);
    const std::vector<float> full = FullEncode(encoder, window);
    for (int split = 1; split < 9; ++split) {
      core::EncoderCarry first;
      encoder.EncodeCarried(
          std::vector<data::Point>(window.begin(), window.begin() + split),
          nullptr, &first);
      core::EncoderCarry next;
      ASSERT_EQ(encoder.EncodeCarried(window, &first, &next),
                static_cast<size_t>(split));
      ASSERT_TRUE(SameBits(next.reps, full))
          << core::EncoderTypeName(family) << " split " << split;
    }
  }
}

/// Only a strict extension hits; a slide, a reset, an equal window and a
/// window that differs in one earlier point all encode in full — and still
/// answer bit-identically.
TEST_F(EncoderCarryTest, AnythingButAStrictExtensionMisses) {
  core::LightMob model(Config(core::EncoderType::kLstm));
  core::TrajectoryEncoder& encoder = *model.trajectory_encoder();
  const std::vector<data::Point> base = MakeWindow(1, 6);
  core::EncoderCarry prev;
  encoder.EncodeCarried(base, nullptr, &prev);

  std::vector<data::Point> slid(base.begin() + 1, base.end());
  slid.push_back({1, 3, base.back().timestamp + 60});
  std::vector<data::Point> changed = base;
  changed[2].location = (changed[2].location + 1) % kLocations;
  changed.push_back({1, 4, base.back().timestamp + 60});
  const std::vector<data::Point> reset = MakeWindow(1, 2);
  const std::vector<data::Point> misses[] = {slid, changed, reset, base};
  for (const auto& window : misses) {
    core::EncoderCarry next;
    EXPECT_EQ(encoder.EncodeCarried(window, &prev, &next), 0u);
    EXPECT_TRUE(SameBits(next.reps, FullEncode(encoder, window)));
  }
  core::LightMob transformer(Config(core::EncoderType::kTransformer, 8));
  EXPECT_FALSE(transformer.trajectory_encoder()->can_carry());
}

/// One user's request stream: windows that extend, slide at a 6-point cap,
/// or reset to a fresh short window.
std::vector<data::Sample> MixedUserStream(int64_t user, int steps,
                                          common::Rng& rng) {
  std::vector<data::Sample> stream;
  std::vector<data::Point> window;
  int64_t t = 1333238400 + user * 977;
  for (int s = 0; s < steps; ++s) {
    const double roll = rng.Uniform();
    if (roll < 0.15) window.clear();  // reset: a new session
    window.push_back({user, (user + 3 * s) % kLocations, t});
    if (window.size() > 6 || (roll > 0.85 && window.size() > 1)) {
      window.erase(window.begin());  // slide
    }
    t += 3 * data::kSecondsPerHour;
    data::Sample sample;
    sample.user = user;
    sample.recent = window;
    sample.target = {user, (user + 3 * s + 1) % kLocations, t};
    stream.push_back(sample);
  }
  return stream;
}

/// Two graph-mode workers serve every user's mixed stream, users
/// interleaved and batched, each user's requests in order. Every served
/// score equals OnlineAdapter::ObserveAndPredict (which always encodes in
/// full) bit for bit, and the carry demonstrably hit.
TEST_F(EncoderCarryTest, TwoWorkerMixedStreamMatchesOnlineAdapter) {
  constexpr int kSteps = 24;
  for (const core::EncoderType family : kRecurrentFamilies) {
    core::LightMob model(Config(family));
    common::Rng rng(41);
    std::vector<std::vector<data::Sample>> streams;
    for (int64_t u = 0; u < kUsers; ++u) {
      streams.push_back(MixedUserStream(u, kSteps, rng));
    }
    core::OnlineAdapter reference{core::PttaConfig{}};
    SessionStore store{SessionStoreConfig{}};
    ServiceConfig config;
    config.workers = 2;
    config.max_batch = 4;
    config.forward = ServiceForwardMode::kGraph;
    PredictionService service(model, store, config);
    uint64_t steps_served = 0;
    for (int s = 0; s < kSteps; ++s) {
      std::vector<std::future<Prediction>> futures;
      for (int64_t u = 0; u < kUsers; ++u) {
        futures.push_back(service.Submit(streams[u][s]));
      }
      for (int64_t u = 0; u < kUsers; ++u) {
        const data::Sample& sample = streams[u][s];
        steps_served += sample.recent.size();
        const std::vector<float> expected =
            reference.ObserveAndPredict(model, sample);
        const Prediction p = futures[static_cast<size_t>(u)].get();
        ASSERT_EQ(p.outcome, RequestOutcome::kOk);
        ASSERT_TRUE(SameBits(p.scores, expected))
            << core::EncoderTypeName(family) << " user " << u << " step "
            << s;
      }
    }
    service.Shutdown();
    const ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.encoded_steps + stats.carried_steps, steps_served);
    EXPECT_GT(stats.carried_steps, 0u) << core::EncoderTypeName(family);
    EXPECT_GT(stats.encoded_steps, static_cast<uint64_t>(kUsers * kSteps));
  }
}

/// Two workers race different windows of ONE user: whichever carry lands
/// last must still be self-consistent (window, reps and state from one
/// encode), so a race costs a miss, never a wrong answer.
TEST_F(EncoderCarryTest, RacingWindowsOfOneUserLeaveASelfConsistentCarry) {
  core::LightMob model(Config(core::EncoderType::kGru));
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 2;
  config.max_batch = 2;
  config.forward = ServiceForwardMode::kGraph;
  PredictionService service(model, store, config);
  const std::vector<data::Point> base = MakeWindow(0, 12);
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (int len = 1; len <= 12; ++len) {
        data::Sample sample;
        sample.user = 0;
        // Client c serves the base window's suffix from point c: three
        // histories that extend themselves and contradict each other.
        sample.recent.assign(base.begin() + std::min(c, len - 1),
                             base.begin() + len);
        sample.target = {0, 1, base.back().timestamp + 3600};
        const Prediction p = service.Submit(sample).get();
        EXPECT_EQ(p.scores.size(), static_cast<size_t>(kLocations));
      }
    });
  }
  for (auto& t : clients) t.join();
  service.Shutdown();
  const std::shared_ptr<const core::EncoderCarry> carry = store.Carry(0);
  ASSERT_NE(carry, nullptr);
  core::EncoderCarry fresh;
  model.trajectory_encoder()->EncodeCarried(carry->window, nullptr, &fresh);
  EXPECT_TRUE(SameBits(carry->reps, fresh.reps));
  EXPECT_TRUE(SameBits(carry->state, fresh.state));
}

/// Carries hold activations, so an in-place weight overwrite makes them
/// stale even though plans survive it. The hot-swap hook drops them: the
/// next request equals a fresh full encode under the new weights, bitwise.
TEST_F(EncoderCarryTest, HotSwapHookDropsCarriesSoTheNextRequestIsFresh) {
  core::LightMob model(Config(core::EncoderType::kLstm));
  const std::vector<data::Point> window = MakeWindow(4, 5);
  data::Sample first;
  first.user = 4;
  first.recent.assign(window.begin(), window.end() - 1);
  first.target = window.back();
  data::Sample second = first;
  second.recent = window;
  second.target = {4, 2, window.back().timestamp + 3600};

  core::OnlineAdapter reference{core::PttaConfig{}};
  SessionStore store{SessionStoreConfig{}};
  SessionStore stale_store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 1;
  config.max_batch = 1;
  config.forward = ServiceForwardMode::kGraph;
  PredictionService service(model, store, config);
  PredictionService stale_service(model, stale_store, config);

  ASSERT_TRUE(SameBits(service.Submit(first).get().scores,
                       reference.ObserveAndPredict(model, first)));
  stale_service.Submit(first).get();
  ASSERT_NE(store.Carry(4), nullptr);

  for (nn::Tensor& p : model.Parameters()) {
    for (float& v : p.data()) v = v * 0.75f + 0.01f;
  }
  service.InvalidatePlans();
  EXPECT_EQ(store.Carry(4), nullptr);

  const Prediction swapped = service.Submit(second).get();
  EXPECT_TRUE(SameBits(swapped.scores,
                       reference.ObserveAndPredict(model, second)));
  core::TrajectoryEncoder& encoder = *model.trajectory_encoder();
  ASSERT_NE(store.Carry(4), nullptr);
  EXPECT_TRUE(SameBits(store.Carry(4)->reps, FullEncode(encoder, window)));

  // Without the hook the old activations would be resumed: the control
  // service, never invalidated, now holds rows of two different models.
  stale_service.Submit(second).get();
  ASSERT_NE(stale_store.Carry(4), nullptr);
  EXPECT_FALSE(
      SameBits(stale_store.Carry(4)->reps, FullEncode(encoder, window)));
  service.Shutdown();
  stale_service.Shutdown();
}

/// Serves one request per user, so each user holds a carry.
void ServeUsers(PredictionService& service, int64_t users) {
  for (int64_t u = 0; u < users; ++u) {
    const std::vector<data::Point> window = MakeWindow(u, 4);
    data::Sample sample;
    sample.user = u;
    sample.recent = window;
    sample.target = {u, 1, window.back().timestamp + 3600};
    service.Submit(sample).get();
  }
}

/// The carry is a cache beside the user, not state: snapshots and the
/// user listings never see it, Forget / ExtractUser / LRU eviction drop
/// it, and ResidentBytes counts exactly its bytes.
TEST_F(EncoderCarryTest, CarryIsACacheNotState) {
  core::LightMob model(Config(core::EncoderType::kLstm));
  ServiceConfig config;
  config.workers = 1;
  config.forward = ServiceForwardMode::kGraph;

  SessionStore store{SessionStoreConfig{}};
  PredictionService service(model, store, config);
  ServeUsers(service, 4);
  service.Shutdown();
  for (int64_t u = 0; u < 4; ++u) ASSERT_NE(store.Carry(u), nullptr);

  const std::string path =
      ::testing::TempDir() + "/encoder_carry_test.snap";
  ASSERT_TRUE(store.Snapshot(path));
  SessionStore restored{SessionStoreConfig{}};
  ASSERT_TRUE(restored.Restore(path));
  EXPECT_EQ(restored.ResidentUsers(), store.ResidentUsers());
  for (int64_t u = 0; u < 4; ++u) {
    EXPECT_EQ(restored.Carry(u), nullptr);
    EXPECT_EQ(restored.PatternCount(u), store.PatternCount(u));
  }

  size_t carry_bytes = 0;
  for (int64_t u = 0; u < 4; ++u) carry_bytes += store.Carry(u)->Bytes();
  const size_t with_carries = store.ResidentBytes();
  const std::vector<int64_t> users = store.ResidentUsers();
  store.Forget(0);
  core::OnlineAdapter::UserSnapshot extracted;
  ASSERT_TRUE(store.ExtractUser(1, &extracted));
  EXPECT_EQ(store.Carry(0), nullptr);
  EXPECT_EQ(store.Carry(1), nullptr);
  ASSERT_NE(store.Carry(2), nullptr);
  const size_t remaining = store.Carry(2)->Bytes() + store.Carry(3)->Bytes();
  const size_t before_invalidate = store.ResidentBytes();
  store.InvalidateCarries();
  EXPECT_EQ(before_invalidate - store.ResidentBytes(), remaining);
  EXPECT_GT(with_carries, carry_bytes);
  EXPECT_EQ(store.UserCount(), users.size() - 2);

  // LRU eviction: one resident user at a time, so serving user 1 evicts
  // user 0 together with its carry.
  SessionStoreConfig capped;
  capped.num_shards = 1;
  capped.max_resident_users = 1;
  SessionStore small(capped);
  PredictionService small_service(model, small, config);
  ServeUsers(small_service, 2);
  small_service.Shutdown();
  EXPECT_EQ(small.Carry(0), nullptr);
  EXPECT_NE(small.Carry(1), nullptr);
  EXPECT_EQ(small.EvictionCount(), 1u);
}

/// Plan mode and the transformer never carry: every step is encoded.
TEST_F(EncoderCarryTest, PlanModeAndTransformerEncodeEveryStep) {
  const struct {
    core::EncoderType family;
    ServiceForwardMode forward;
  } cases[] = {{core::EncoderType::kLstm, ServiceForwardMode::kPlan},
               {core::EncoderType::kTransformer, ServiceForwardMode::kGraph}};
  for (const auto& c : cases) {
    core::LightMob model(Config(c.family));
    SessionStore store{SessionStoreConfig{}};
    ServiceConfig config;
    config.workers = 1;
    config.forward = c.forward;
    PredictionService service(model, store, config);
    const std::vector<data::Point> window = MakeWindow(5, 6);
    uint64_t steps = 0;
    for (int len = 1; len <= 6; ++len) {
      data::Sample sample;
      sample.user = 5;
      sample.recent.assign(window.begin(), window.begin() + len);
      sample.target = {5, 0, window.back().timestamp + 3600};
      service.Submit(sample).get();
      steps += static_cast<uint64_t>(len);
    }
    service.Shutdown();
    EXPECT_EQ(service.Stats().carried_steps, 0u);
    EXPECT_EQ(service.Stats().encoded_steps, steps);
    EXPECT_EQ(store.Carry(5), nullptr);
  }
}

}  // namespace
}  // namespace adamove::serve
