#ifndef ADAMOVE_COMMON_QFLOAT_H_
#define ADAMOVE_COMMON_QFLOAT_H_

#include <cmath>
#include <cstdint>
#include <vector>

namespace adamove::common {

/// Power-of-two int8 block quantization for pattern vectors (DESIGN.md §12).
///
/// A vector is stored as one shared exponent e plus one int8 per element,
/// reconstructing x_i = q_i * 2^e. The exponent is chosen so the magnitude
/// maximum lands in [64, 127] — six significant bits for the largest
/// element, which is ample for the cosine-similarity and centroid math the
/// knowledge base feeds (patterns are bounded tanh outputs, and similarity
/// ranking is insensitive to <1% per-element noise).
///
/// The whole point of the power-of-two scale is *exactness of the decoded
/// form*: q_i * 2^e is exactly representable in IEEE float for |q_i| <= 127
/// (7 mantissa bits against 24 available), and dividing a decoded value by
/// 2^e is again exact. Hence:
///
///   * Decode(Encode(x)) is a deterministic canonical vector x';
///   * Encode(x') reproduces exactly the same (e, q) — the codec is
///     idempotent on its own image (pinned by tests/shard/compact_state_test);
///   * dehydrate -> rehydrate round trips of canonical state are therefore
///     bit-identical, which is what lets the shard subsystem's compact tier
///     promise bit-identical Predict outputs across eviction cycles.
///
/// Vectors containing non-finite values (or empty ones) are not quantizable;
/// callers fall back to raw f32 storage (the per-pattern mode byte of
/// core::OnlineAdapter::EncodeUser).
struct QfloatBlock {
  /// Shared exponent: scale = 2^exponent.
  int exponent = 0;
  std::vector<int8_t> q;
};

/// True iff every element is finite (quantization would otherwise produce
/// garbage ranks instead of degrading gracefully).
inline bool QfloatEncodable(const float* x, size_t n) {
  if (n == 0) return false;
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(x[i])) return false;
  }
  return true;
}

/// Encodes `x` into (e, q). Pre-condition: QfloatEncodable(x, n).
inline void QfloatEncode(const float* x, size_t n, QfloatBlock* out) {
  float m = 0.0f;
  for (size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  out->q.resize(n);
  if (m == 0.0f) {
    out->exponent = 0;
    for (size_t i = 0; i < n; ++i) out->q[i] = 0;
    return;
  }
  // m = frac * 2^k with frac in [0.5, 1), so m / 2^(k-7) lies in [64, 128).
  int k = 0;
  std::frexp(m, &k);
  out->exponent = k - 7;
  // Double precision: for subnormal inputs -exponent can exceed float's
  // range (2^155 overflows a float but not a double), and scaling by a
  // power of two stays exact in double for every float input.
  const double inv_scale = std::ldexp(1.0, -out->exponent);
  for (size_t i = 0; i < n; ++i) {
    // Multiplication by a power of two is exact; only the rounding to
    // integer loses information (once — see idempotence note above). The
    // magnitude maximum can round up to 128, so clamp into int8 range.
    long v = std::lround(static_cast<double>(x[i]) * inv_scale);
    if (v > 127) v = 127;
    if (v < -127) v = -127;
    out->q[i] = static_cast<int8_t>(v);
  }
}

/// Decodes (e, q) back to floats; exact (see header comment).
inline void QfloatDecode(const QfloatBlock& block, std::vector<float>* out) {
  const float scale = std::ldexp(1.0f, block.exponent);
  out->resize(block.q.size());
  for (size_t i = 0; i < block.q.size(); ++i) {
    (*out)[i] = static_cast<float>(block.q[i]) * scale;
  }
}

/// Projects `x` onto the codec's image in place: x -> Decode(Encode(x)).
/// The serving layer applies this once at pattern-ingest time (see
/// serve::SessionStoreConfig::canonicalize_patterns); every later
/// encode/decode cycle of the canonical vector is then lossless. Vectors
/// that are not encodable are left untouched (they stay raw-f32 forever).
inline void QfloatCanonicalize(std::vector<float>* x) {
  if (!QfloatEncodable(x->data(), x->size())) return;
  QfloatBlock block;
  QfloatEncode(x->data(), x->size(), &block);
  QfloatDecode(block, x);
}

}  // namespace adamove::common

#endif  // ADAMOVE_COMMON_QFLOAT_H_
