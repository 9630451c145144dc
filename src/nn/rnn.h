#ifndef ADAMOVE_NN_RNN_H_
#define ADAMOVE_NN_RNN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/tensor.h"

namespace adamove::nn {

/// Interface for causal sequence encoders: given a {T, in} sequence of step
/// embeddings, produce a {T, H} matrix whose row t encodes the prefix
/// x[0..t]. The causal (prefix) property is what lets PTTA obtain every
/// prefix representation from a single forward pass.
class SequenceEncoder : public Module {
 public:
  virtual Tensor Forward(const Tensor& x, bool training) = 0;
  virtual int64_t hidden_size() const = 0;

  /// Floats of recurrent state carried from one step to the next (h, plus
  /// c for an LSTM, per layer). 0 means the encoder cannot resume from a
  /// state: the transformer attends to every earlier row.
  virtual int64_t state_size() const { return 0; }

  /// Forward resumed from a carried state, for inference. `*state` is
  /// either empty (the zero state a sequence starts from) or the
  /// state_size() floats an earlier call left; on return it holds the
  /// state after x's last row. The recurrence is the one Forward runs and
  /// MatMul is row-position invariant, so a sequence encoded in pieces,
  /// with the state carried between them, gives Forward's rows bit for
  /// bit. CHECK-fails when state_size() is 0.
  virtual Tensor ForwardCarry(const Tensor& x, std::vector<float>* state);
};

/// Vanilla (Elman) RNN: h_t = tanh(x_t W_ih + h_{t-1} W_hh + b).
class RnnEncoder : public SequenceEncoder {
 public:
  RnnEncoder(int64_t input_size, int64_t hidden_size, common::Rng& rng);

  Tensor Forward(const Tensor& x, bool training) override;
  int64_t hidden_size() const override { return hidden_size_; }
  int64_t state_size() const override { return hidden_size_; }
  Tensor ForwardCarry(const Tensor& x, std::vector<float>* state) override;

  /// Weight accessors for the static forward-plan compiler (src/nn/plan),
  /// which re-expresses Forward as a flat op list over these tensors.
  int64_t input_size() const { return input_size_; }
  const Tensor& w_ih() const { return w_ih_; }
  const Tensor& w_hh() const { return w_hh_; }
  const Tensor& bias() const { return bias_; }

 private:
  /// The recurrence shared by Forward and ForwardCarry: steps x's rows
  /// from *h and leaves the final hidden state there.
  Tensor Recur(const Tensor& x, Tensor* h) const;

  int64_t input_size_;
  int64_t hidden_size_;
  Tensor w_ih_;
  Tensor w_hh_;
  Tensor bias_;
};

/// Single-layer LSTM with the standard i,f,g,o gate layout.
class LstmEncoder : public SequenceEncoder {
 public:
  LstmEncoder(int64_t input_size, int64_t hidden_size, common::Rng& rng);

  Tensor Forward(const Tensor& x, bool training) override;
  int64_t hidden_size() const override { return hidden_size_; }
  /// h then c.
  int64_t state_size() const override { return 2 * hidden_size_; }
  Tensor ForwardCarry(const Tensor& x, std::vector<float>* state) override;

  /// Weight accessors for the static forward-plan compiler (src/nn/plan).
  int64_t input_size() const { return input_size_; }
  const Tensor& w_ih() const { return w_ih_; }
  const Tensor& w_hh() const { return w_hh_; }
  const Tensor& bias() const { return bias_; }

 private:
  /// The recurrence shared by Forward and ForwardCarry: steps x's rows
  /// from (*h, *c) and leaves the final state there.
  Tensor Recur(const Tensor& x, Tensor* h, Tensor* c) const;

  int64_t input_size_;
  int64_t hidden_size_;
  Tensor w_ih_;  // {in, 4H}
  Tensor w_hh_;  // {H, 4H}
  Tensor bias_;  // {1, 4H}
};

/// Single-layer GRU (reset/update/new-gate layout r,z,n).
class GruEncoder : public SequenceEncoder {
 public:
  GruEncoder(int64_t input_size, int64_t hidden_size, common::Rng& rng);

  Tensor Forward(const Tensor& x, bool training) override;
  int64_t hidden_size() const override { return hidden_size_; }
  int64_t state_size() const override { return hidden_size_; }
  Tensor ForwardCarry(const Tensor& x, std::vector<float>* state) override;

  /// Weight accessors for the static forward-plan compiler (src/nn/plan).
  int64_t input_size() const { return input_size_; }
  const Tensor& w_ih() const { return w_ih_; }
  const Tensor& w_hh() const { return w_hh_; }
  const Tensor& b_ih() const { return b_ih_; }
  const Tensor& b_hh() const { return b_hh_; }

 private:
  /// The recurrence shared by Forward and ForwardCarry (see RnnEncoder).
  Tensor Recur(const Tensor& x, Tensor* h) const;

  int64_t input_size_;
  int64_t hidden_size_;
  Tensor w_ih_;  // {in, 3H}
  Tensor w_hh_;  // {H, 3H}
  Tensor b_ih_;  // {1, 3H}
  Tensor b_hh_;  // {1, 3H}
};

}  // namespace adamove::nn

#endif  // ADAMOVE_NN_RNN_H_
