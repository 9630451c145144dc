#ifndef ADAMOVE_NN_STACKED_H_
#define ADAMOVE_NN_STACKED_H_

#include <memory>
#include <vector>

#include "common/check.h"
#include "nn/rnn.h"

namespace adamove::nn {

/// Chains several causal sequence encoders: layer 0 maps {T, in} -> {T, H},
/// subsequent layers map {T, H} -> {T, H}. Composing causal layers stays
/// causal, so the prefix property PTTA needs is preserved (tested).
class StackedEncoder : public SequenceEncoder {
 public:
  explicit StackedEncoder(std::vector<std::unique_ptr<SequenceEncoder>> layers)
      : layers_(std::move(layers)) {
    ADAMOVE_CHECK(!layers_.empty());
    for (size_t i = 0; i < layers_.size(); ++i) {
      RegisterModule("layer" + std::to_string(i), layers_[i].get());
    }
  }

  Tensor Forward(const Tensor& x, bool training) override {
    Tensor h = x;
    for (auto& layer : layers_) h = layer->Forward(h, training);
    return h;
  }

  int64_t hidden_size() const override {
    return layers_.back()->hidden_size();
  }

  /// The layers' states back to back, in layer order; 0 unless every layer
  /// carries one.
  int64_t state_size() const override {
    int64_t total = 0;
    for (const auto& layer : layers_) {
      if (layer->state_size() == 0) return 0;
      total += layer->state_size();
    }
    return total;
  }

  Tensor ForwardCarry(const Tensor& x, std::vector<float>* state) override {
    ADAMOVE_CHECK(state->empty() ||
                  static_cast<int64_t>(state->size()) == state_size());
    std::vector<float> next;
    std::vector<float> layer_state;
    size_t offset = 0;
    Tensor h = x;
    for (auto& layer : layers_) {
      const size_t n = static_cast<size_t>(layer->state_size());
      layer_state.clear();
      if (!state->empty()) {
        layer_state.assign(state->begin() + static_cast<int64_t>(offset),
                           state->begin() + static_cast<int64_t>(offset + n));
      }
      h = layer->ForwardCarry(h, &layer_state);
      next.insert(next.end(), layer_state.begin(), layer_state.end());
      offset += n;
    }
    *state = std::move(next);
    return h;
  }

  size_t num_layers() const { return layers_.size(); }

  /// Layer access for the static forward-plan compiler (src/nn/plan), which
  /// chains per-layer traces through intermediate arena buffers.
  const std::vector<std::unique_ptr<SequenceEncoder>>& layers() const {
    return layers_;
  }

 private:
  std::vector<std::unique_ptr<SequenceEncoder>> layers_;
};

}  // namespace adamove::nn

#endif  // ADAMOVE_NN_STACKED_H_
