// An out-of-tree codec for tests: registered through pcw::register_codec,
// so the h5 layer reads it without knowing it exists.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "pcw/pcw.h"

namespace pcw::testsupport {

inline constexpr std::uint32_t kToyId = 77;

/// Lossless toy codec: element bytes XOR'd with a constant, plus an
/// 8-byte element-count trailer so decode can sanity-check. Deliberately
/// not self-describing beyond that — it exercises the generic (flat,
/// full-decode) paths of the h5 layer.
class ToyXorCodec final : public Codec {
 public:
  static constexpr std::uint8_t kMask = 0xA5;

  std::vector<std::uint8_t> encode(const FieldView& field) const override {
    std::vector<std::uint8_t> out(field.bytes.size() + 8);
    for (std::size_t i = 0; i < field.bytes.size(); ++i) {
      out[i] = field.bytes[i] ^ kMask;
    }
    const std::uint64_t elems = field.elements();
    std::memcpy(out.data() + field.bytes.size(), &elems, 8);
    return out;
  }

  std::vector<std::uint8_t> decode(std::span<const std::uint8_t> blob, DType dtype,
                                   std::uint64_t expect_elems) const override {
    const std::size_t esize = element_size(dtype);
    if (blob.size() != expect_elems * esize + 8) {
      throw std::runtime_error("toy: blob size mismatch");
    }
    std::uint64_t elems = 0;
    std::memcpy(&elems, blob.data() + blob.size() - 8, 8);
    if (elems != expect_elems) throw std::runtime_error("toy: element count mismatch");
    std::vector<std::uint8_t> out(blob.size() - 8);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = blob[i] ^ kMask;
    return out;
  }
};

/// Registers the toy codec once per process and returns that first
/// registration's status on every call.
inline Status register_toy_codec() {
  static const Status status = register_codec(
      kToyId, "toy-xor", CodecCaps{},
      [] { return std::make_unique<ToyXorCodec>(); });
  return status;
}

}  // namespace pcw::testsupport
