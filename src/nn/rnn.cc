#include "nn/rnn.h"

#include <cmath>

#include "common/check.h"
#include "nn/ops.h"

namespace adamove::nn {

namespace {

float UniformBound(int64_t hidden_size) {
  return 1.0f / std::sqrt(static_cast<float>(hidden_size));
}

/// {1, n} slice of a carried state at `offset`, or zeros for the empty
/// (start-of-sequence) state.
Tensor StateRow(const std::vector<float>& state, int64_t offset, int64_t n) {
  if (state.empty()) return Tensor::Zeros({1, n});
  return Tensor::FromVector(
      {1, n}, std::vector<float>(state.begin() + offset,
                                 state.begin() + offset + n));
}

}  // namespace

Tensor SequenceEncoder::ForwardCarry(const Tensor& /*x*/,
                                     std::vector<float>* /*state*/) {
  common::FatalCheckFailure(__FILE__, __LINE__,
                            "ForwardCarry on an encoder without state");
}

RnnEncoder::RnnEncoder(int64_t input_size, int64_t hidden_size,
                       common::Rng& rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  const float b = UniformBound(hidden_size);
  w_ih_ = RegisterParameter(
      "w_ih", Tensor::RandUniform({input_size, hidden_size}, rng, b));
  w_hh_ = RegisterParameter(
      "w_hh", Tensor::RandUniform({hidden_size, hidden_size}, rng, b));
  bias_ = RegisterParameter("bias", Tensor::Zeros({1, hidden_size}));
}

Tensor RnnEncoder::Forward(const Tensor& x, bool /*training*/) {
  Tensor h = Tensor::Zeros({1, hidden_size_});
  return Recur(x, &h);
}

Tensor RnnEncoder::ForwardCarry(const Tensor& x, std::vector<float>* state) {
  ADAMOVE_CHECK(state->empty() ||
                static_cast<int64_t>(state->size()) == state_size());
  Tensor h = StateRow(*state, 0, hidden_size_);
  Tensor out = Recur(x, &h);
  state->assign(h.data().begin(), h.data().end());
  return out;
}

Tensor RnnEncoder::Recur(const Tensor& x, Tensor* h) const {
  ADAMOVE_CHECK_EQ(x.cols(), input_size_);
  const int64_t t_len = x.rows();
  // Pre-compute x W_ih for all steps at once.
  Tensor xw = Add(MatMul(x, w_ih_), bias_);
  std::vector<Tensor> hiddens;
  hiddens.reserve(static_cast<size_t>(t_len));
  for (int64_t t = 0; t < t_len; ++t) {
    // Fused add+tanh kernel: one pass, one tape node (bit-identical to
    // Tanh(Add(...))).
    *h = AddTanh(Row(xw, t), MatMul(*h, w_hh_));
    hiddens.push_back(*h);
  }
  return ConcatRows(hiddens);
}

LstmEncoder::LstmEncoder(int64_t input_size, int64_t hidden_size,
                         common::Rng& rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  const float b = UniformBound(hidden_size);
  w_ih_ = RegisterParameter(
      "w_ih", Tensor::RandUniform({input_size, 4 * hidden_size}, rng, b));
  w_hh_ = RegisterParameter(
      "w_hh", Tensor::RandUniform({hidden_size, 4 * hidden_size}, rng, b));
  bias_ = RegisterParameter("bias", Tensor::Zeros({1, 4 * hidden_size}));
  // Forget-gate bias init to 1 helps gradient flow early in training.
  for (int64_t c = hidden_size; c < 2 * hidden_size; ++c) {
    bias_.set(0, c, 1.0f);
  }
}

Tensor LstmEncoder::Forward(const Tensor& x, bool /*training*/) {
  Tensor h = Tensor::Zeros({1, hidden_size_});
  Tensor c = Tensor::Zeros({1, hidden_size_});
  return Recur(x, &h, &c);
}

Tensor LstmEncoder::ForwardCarry(const Tensor& x, std::vector<float>* state) {
  ADAMOVE_CHECK(state->empty() ||
                static_cast<int64_t>(state->size()) == state_size());
  Tensor h = StateRow(*state, 0, hidden_size_);
  Tensor c = StateRow(*state, hidden_size_, hidden_size_);
  Tensor out = Recur(x, &h, &c);
  state->assign(h.data().begin(), h.data().end());
  state->insert(state->end(), c.data().begin(), c.data().end());
  return out;
}

Tensor LstmEncoder::Recur(const Tensor& x, Tensor* h, Tensor* c) const {
  ADAMOVE_CHECK_EQ(x.cols(), input_size_);
  const int64_t t_len = x.rows();
  const int64_t hs = hidden_size_;
  Tensor xw = Add(MatMul(x, w_ih_), bias_);
  std::vector<Tensor> hiddens;
  hiddens.reserve(static_cast<size_t>(t_len));
  for (int64_t t = 0; t < t_len; ++t) {
    Tensor gates = Add(Row(xw, t), MatMul(*h, w_hh_));  // {1, 4H}
    Tensor i = Sigmoid(SliceCols(gates, 0, hs));
    Tensor f = Sigmoid(SliceCols(gates, hs, hs));
    Tensor g = Tanh(SliceCols(gates, 2 * hs, hs));
    Tensor o = Sigmoid(SliceCols(gates, 3 * hs, hs));
    *c = Add(Mul(f, *c), Mul(i, g));
    *h = Mul(o, Tanh(*c));
    hiddens.push_back(*h);
  }
  return ConcatRows(hiddens);
}

GruEncoder::GruEncoder(int64_t input_size, int64_t hidden_size,
                       common::Rng& rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  const float b = UniformBound(hidden_size);
  w_ih_ = RegisterParameter(
      "w_ih", Tensor::RandUniform({input_size, 3 * hidden_size}, rng, b));
  w_hh_ = RegisterParameter(
      "w_hh", Tensor::RandUniform({hidden_size, 3 * hidden_size}, rng, b));
  b_ih_ = RegisterParameter("b_ih", Tensor::Zeros({1, 3 * hidden_size}));
  b_hh_ = RegisterParameter("b_hh", Tensor::Zeros({1, 3 * hidden_size}));
}

Tensor GruEncoder::Forward(const Tensor& x, bool /*training*/) {
  Tensor h = Tensor::Zeros({1, hidden_size_});
  return Recur(x, &h);
}

Tensor GruEncoder::ForwardCarry(const Tensor& x, std::vector<float>* state) {
  ADAMOVE_CHECK(state->empty() ||
                static_cast<int64_t>(state->size()) == state_size());
  Tensor h = StateRow(*state, 0, hidden_size_);
  Tensor out = Recur(x, &h);
  state->assign(h.data().begin(), h.data().end());
  return out;
}

Tensor GruEncoder::Recur(const Tensor& x, Tensor* h) const {
  ADAMOVE_CHECK_EQ(x.cols(), input_size_);
  const int64_t t_len = x.rows();
  const int64_t hs = hidden_size_;
  Tensor xw = Add(MatMul(x, w_ih_), b_ih_);
  std::vector<Tensor> hiddens;
  hiddens.reserve(static_cast<size_t>(t_len));
  for (int64_t t = 0; t < t_len; ++t) {
    Tensor hw = Add(MatMul(*h, w_hh_), b_hh_);  // {1, 3H}
    Tensor xt = Row(xw, t);
    Tensor r = AddSigmoid(SliceCols(xt, 0, hs), SliceCols(hw, 0, hs));
    Tensor z = AddSigmoid(SliceCols(xt, hs, hs), SliceCols(hw, hs, hs));
    Tensor n = AddTanh(SliceCols(xt, 2 * hs, hs),
                       Mul(r, SliceCols(hw, 2 * hs, hs)));
    // h = (1 - z) * n + z * h
    Tensor one_minus_z = ScalarAdd(ScalarMul(z, -1.0f), 1.0f);
    *h = Add(Mul(one_minus_z, n), Mul(z, *h));
    hiddens.push_back(*h);
  }
  return ConcatRows(hiddens);
}

}  // namespace adamove::nn
