#ifndef ADAMOVE_TESTS_SERVE_WORKER_LATCH_H_
#define ADAMOVE_TESTS_SERVE_WORKER_LATCH_H_

#include <functional>
#include <future>

namespace adamove::serve {

/// Holds a service worker inside the on_complete hook of one request until
/// Release(), so requests submitted meanwhile stay queued: deterministic
/// batch formation and a full queue without timing assumptions. One use per
/// latch.
class WorkerLatch {
 public:
  std::function<void()> Hook() {
    return [this] {
      held_.set_value();
      release_future_.wait();
    };
  }
  void WaitUntilHeld() { held_future_.wait(); }
  void Release() { release_.set_value(); }

 private:
  std::promise<void> held_;
  std::future<void> held_future_ = held_.get_future();
  std::promise<void> release_;
  std::shared_future<void> release_future_ = release_.get_future().share();
};

}  // namespace adamove::serve

#endif  // ADAMOVE_TESTS_SERVE_WORKER_LATCH_H_
