// Bit-granular serialization used by the Huffman codec.
//
// Both ends operate word-at-a-time: the writer accumulates into a 64-bit
// register and spills all whole bytes in one step, and the reader refills
// its register with a single unaligned 64-bit load instead of a byte
// loop. This is what keeps the compressor in the hundreds-of-MB/s range
// the paper's throughput model (Fig. 5) assumes.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

#include "util/uninit_vector.h"

namespace pcw::util {

class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `nbits` bits of `bits` (LSB-first within the stream).
  /// nbits must be in [0, 57]; longer fields are split by callers.
  void put(std::uint64_t bits, int nbits) {
    assert(nbits >= 0 && nbits <= 57);
    assert(nbits == 64 || (bits >> nbits) == 0);
    acc_ |= bits << nbits_;
    nbits_ += nbits;
    if (nbits_ >= 8) spill();
  }

  /// Flushes the partial register and returns the finished byte stream.
  /// The writer is left empty and reusable.
  UninitVector<std::uint8_t> finish();

  /// Number of bits written so far (excluding padding).
  std::size_t bit_count() const { return bytes_.size() * 8 + nbits_; }

  /// True when the stream holds whole bytes only (no partial register).
  bool byte_aligned() const { return nbits_ == 0; }

  /// Bulk encoders write whole bytes straight into a byte_aligned()
  /// stream: extend() appends `max_bytes` unwritten bytes and returns
  /// where they start, and commit(end) keeps the bytes before `end`,
  /// dropping the rest of the extension.
  std::uint8_t* extend(std::size_t max_bytes) {
    assert(nbits_ == 0);
    const std::size_t pos = bytes_.size();
    bytes_.resize(pos + max_bytes);
    return bytes_.data() + pos;
  }
  void commit(const std::uint8_t* end) {
    bytes_.resize(static_cast<std::size_t>(end - bytes_.data()));
  }

 private:
  /// Moves every whole byte of the register into the stream.
  void spill();

  UninitVector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;
  int nbits_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Reads `nbits` bits (matching BitWriter::put order). nbits in [0, 57].
  std::uint64_t get(int nbits);

  /// Peeks up to `nbits` without consuming; bits past the end read as zero.
  std::uint64_t peek(int nbits);

  /// Consumes `nbits` previously peeked bits.
  void skip(int nbits);

  std::size_t bits_consumed() const { return bit_pos_; }
  bool exhausted() const { return bit_pos_ >= bytes_.size() * 8; }

  /// Bits left before the stream is exhausted (0 at and past the end).
  /// Lets batch decoders prove a fast-path step cannot read or skip past
  /// the end without consulting peek's zero-fill semantics.
  std::size_t bits_remaining() const {
    const std::size_t total = bytes_.size() * 8;
    return bit_pos_ >= total ? 0 : total - bit_pos_;
  }

 private:
  void refill();

  std::span<const std::uint8_t> bytes_;
  std::size_t byte_pos_ = 0;   // next byte to load into the register
  std::size_t bit_pos_ = 0;    // absolute bits consumed
  std::uint64_t acc_ = 0;      // register of loaded-but-unconsumed bits
  int avail_ = 0;              // valid bits in acc_
};

}  // namespace pcw::util
