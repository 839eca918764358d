// Endian-safe wire format for Prio protocol messages.
//
// Little-endian fixed-width integers, length-prefixed byte strings, and
// canonical field-element encodings. Reader methods return Status-style
// failures (malformed client traffic is an expected event, handled on the
// hot path, not an exception).
#pragma once

#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "field/field.h"
#include "util/common.h"

namespace prio::net {

// Encoded sizes of the vectorized round payloads (Writer::field_pairs and
// Writer::bitmap below). The simulated network accounts message sizes
// without always materializing the bytes, so these are the single source
// of truth for the layout arithmetic.
template <PrimeField F>
constexpr size_t field_pairs_len(size_t n) {
  return 4 + n * 2 * F::kByteLen;  // u32 count + n (a, b) pairs
}
constexpr size_t bitmap_len(size_t n) {
  return 4 + (n + 7) / 8;  // u32 count + packed bits
}

class Writer {
 public:
  void u8_(u8 v) { buf_.push_back(v); }
  void u16_(u16 v) { put_le(v, 2); }
  void u32_(u32 v) { put_le(v, 4); }
  void u64_(u64 v) { put_le(v, 8); }

  void str_(std::string_view s) {
    u32_(static_cast<u32>(s.size()));
    for (char c : s) buf_.push_back(static_cast<u8>(c));
  }

  void bytes(std::span<const u8> b) {
    u32_(static_cast<u32>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  void raw(std::span<const u8> b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

  template <PrimeField F>
  void field(const F& v) {
    u8 tmp[F::kByteLen];
    v.to_bytes(tmp);
    raw(std::span<const u8>(tmp, F::kByteLen));
  }

  template <PrimeField F>
  void field_vector(std::span<const F> vs) {
    u32_(static_cast<u32>(vs.size()));
    for (const F& v : vs) field(v);
  }

  // Vectorized round payloads for the batch pipeline: Q per-submission
  // (d, e)-style pairs coalesced into one length-prefixed message.
  template <PrimeField F>
  void field_pairs(std::span<const std::pair<F, F>> ps) {
    u32_(static_cast<u32>(ps.size()));
    for (const auto& [a, b] : ps) {
      field(a);
      field(b);
    }
  }

  // Packed accept/reject bitmap (batch round 4): bit q of the payload is
  // the decision for submission q.
  void bitmap(std::span<const u8> bits) {
    u32_(static_cast<u32>(bits.size()));
    u8 acc = 0;
    for (size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) acc |= static_cast<u8>(1u << (i % 8));
      if (i % 8 == 7) {
        buf_.push_back(acc);
        acc = 0;
      }
    }
    if (bits.size() % 8 != 0) buf_.push_back(acc);
  }

  const std::vector<u8>& data() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void put_le(u64 v, int n) {
    for (int i = 0; i < n; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
  }

  std::vector<u8> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const u8> data) : data_(data) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

  u8 u8_() { return static_cast<u8>(get_le(1)); }
  u16 u16_() { return static_cast<u16>(get_le(2)); }
  u32 u32_() { return static_cast<u32>(get_le(4)); }
  u64 u64_() { return get_le(8); }

  std::string str_(size_t max_len = 4096) {
    u32 len = u32_();
    if (!ok_ || len > max_len || remaining() < len) {
      ok_ = false;
      return {};
    }
    std::string out(data_.begin() + pos_, data_.begin() + pos_ + len);
    pos_ += len;
    return out;
  }

  std::vector<u8> bytes() {
    u32 len = u32_();
    if (!ok_ || remaining() < len) {
      ok_ = false;
      return {};
    }
    std::vector<u8> out(data_.begin() + pos_, data_.begin() + pos_ + len);
    pos_ += len;
    return out;
  }

  template <PrimeField F>
  F field() {
    if (remaining() < F::kByteLen) {
      ok_ = false;
      return F::zero();
    }
    // A non-canonical encoding is a soft failure, like a short read.
    F v;
    if (!F::from_canonical_bytes(data_.data() + pos_, &v)) {
      ok_ = false;
      return F::zero();
    }
    pos_ += F::kByteLen;
    return v;
  }

  template <PrimeField F>
  std::vector<std::pair<F, F>> field_pairs(size_t max_len = 1u << 24) {
    u32 len = u32_();
    if (!ok_ || len > max_len || remaining() < u64{len} * 2 * F::kByteLen) {
      ok_ = false;
      return {};
    }
    std::vector<std::pair<F, F>> out;
    out.reserve(len);
    for (u32 i = 0; i < len && ok_; ++i) {
      F a = field<F>();
      F b = field<F>();
      out.emplace_back(a, b);
    }
    return out;
  }

  std::vector<u8> bitmap(size_t max_len = 1u << 24) {
    u32 len = u32_();
    const size_t packed = (len + 7) / 8;
    if (!ok_ || len > max_len || remaining() < packed) {
      ok_ = false;
      return {};
    }
    std::vector<u8> out(len);
    for (u32 i = 0; i < len; ++i) {
      out[i] = (data_[pos_ + i / 8] >> (i % 8)) & 1;
    }
    pos_ += packed;
    return out;
  }

  template <PrimeField F>
  std::vector<F> field_vector(size_t max_len = 1u << 24) {
    u32 len = u32_();
    if (!ok_ || len > max_len || remaining() < len * F::kByteLen) {
      ok_ = false;
      return {};
    }
    std::vector<F> out;
    out.reserve(len);
    for (u32 i = 0; i < len && ok_; ++i) out.push_back(field<F>());
    return out;
  }

 private:
  u64 get_le(int n) {
    if (remaining() < static_cast<size_t>(n)) {
      ok_ = false;
      return 0;
    }
    u64 v = 0;
    for (int i = 0; i < n; ++i) v |= static_cast<u64>(data_[pos_ + i]) << (8 * i);
    pos_ += n;
    return v;
  }

  std::span<const u8> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace prio::net
