#ifndef ADAMOVE_SERVE_ADAPT_SCHEDULER_H_
#define ADAMOVE_SERVE_ADAPT_SCHEDULER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/annotations.h"
#include "common/mutex.h"

namespace adamove::serve {

/// How the service schedules per-user adaptation work (DESIGN.md §16).
enum class AdaptMode : uint8_t {
  /// Resolve from ADAMOVE_ADAPT_MODE at service construction (the default;
  /// the env default is `inline`, so an unconfigured service is
  /// bit-identical to the pre-scheduler path).
  kAuto,
  /// Legacy behaviour: every KB ingest and adjusted-column rebuild runs
  /// inline in the request's batch, regardless of load.
  kInline,
  /// Pressure-driven: inline while the service is calm, deferred (buffered
  /// ingests + cached-rebuild predicts) while the pressure gauge reads
  /// overload, with hysteresis between the two.
  kElastic,
  /// Every adapt-path request is deferred — the deterministic mode the
  /// parity tests pin and the bench's worst-case staleness probe.
  kDeferredAlways,
};

/// Knobs of the elastic adaptation scheduler. Each field can be overridden
/// at service construction by an ADAMOVE_ADAPT_* environment variable (see
/// Resolve); explicit env values win over the config struct so deployments
/// and the check.sh smoke can retune without a rebuild.
struct AdaptSchedulerConfig {
  AdaptMode mode = AdaptMode::kAuto;  // ADAMOVE_ADAPT_MODE: inline|elastic|deferred
  /// Pressure at or above which the gauge trips into deferred adaptation.
  double high_watermark = 0.75;  // ADAMOVE_ADAPT_HIGH
  /// Pressure at or below which it recovers to inline (hysteresis band:
  /// low < high, so the gauge cannot flap on a noisy boundary load).
  double low_watermark = 0.35;  // ADAMOVE_ADAPT_LOW
  /// EWMA smoothing factor in (0, 1]; 1 = raw instantaneous pressure.
  double ewma_alpha = 0.3;  // ADAMOVE_ADAPT_EWMA
  /// Per-user pending-delta bound: a deferred predict that finds this many
  /// buffered deltas is forced inline (drain + fresh rebuild) instead, so
  /// staleness depth is bounded by construction.
  size_t max_stale = 256;  // ADAMOVE_ADAPT_MAX_STALE
  /// Dirty users the worker drains in the background after each batch while
  /// the gauge reads calm (0 disables background draining).
  size_t drain_users_per_batch = 4;  // ADAMOVE_ADAPT_DRAIN_USERS

  /// Applies the ADAMOVE_ADAPT_* environment overrides and resolves kAuto
  /// to a concrete mode. Unknown ADAMOVE_ADAPT_MODE strings fall back to
  /// `inline` (fail safe: the legacy bit-identical path).
  AdaptSchedulerConfig Resolve() const;
};

/// The per-service load signal: a queue-pressure EWMA with hysteresis.
///
/// Each batch formation reports two saturation ratios — queue depth over
/// capacity, and the oldest queued request's wait over its deadline slack —
/// and the gauge folds max(both) into an EWMA. Crossing high_watermark trips
/// `deferred()`; it stays tripped until the EWMA falls back to
/// low_watermark, so a load hovering at the boundary cannot flap the
/// scheduler (the classic hysteresis band).
///
/// deferred() is one relaxed-ish atomic load, so the worker hot path reads
/// it for free; Update runs under a private mutex (workers race to report,
/// the EWMA just folds their reports in arrival order).
class PressureGauge {
 public:
  explicit PressureGauge(const AdaptSchedulerConfig& config)
      : config_(config) {}

  /// Folds one batch-formation observation into the gauge.
  /// `oldest_wait_us` is how long the oldest request of the batch queued;
  /// `slack_ref_us` is the wait considered fully saturated (the deadline
  /// when one is configured, else a fixed 4 ms — see PredictionService).
  void Update(size_t queue_depth, size_t queue_capacity,
              double oldest_wait_us, double slack_ref_us);

  /// Whether the scheduler is currently in deferred adaptation.
  bool deferred() const { return deferred_.load(std::memory_order_acquire); }

  /// Current smoothed pressure (diagnostics; racy snapshot).
  double pressure() const {
    common::MutexLock lock(mu_);
    return ewma_;
  }

  /// Inline<->deferred transitions so far (diagnostics).
  uint64_t mode_switches() const {
    return switches_.load(std::memory_order_relaxed);
  }

 private:
  AdaptSchedulerConfig config_;
  mutable common::Mutex mu_;
  double ewma_ ADAMOVE_GUARDED_BY(mu_) = 0.0;
  std::atomic<bool> deferred_{false};
  std::atomic<uint64_t> switches_{0};
};

}  // namespace adamove::serve

#endif  // ADAMOVE_SERVE_ADAPT_SCHEDULER_H_
