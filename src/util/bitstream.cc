#include "util/bitstream.h"

#include <bit>
#include <cassert>
#include <cstring>

namespace pcw::util {

void BitWriter::spill() {
  // Called with nbits_ >= 8: move every whole byte of the register into
  // the stream in one resize instead of per-byte push_backs.
  const int nbytes = nbits_ >> 3;
  const std::size_t pos = bytes_.size();
  bytes_.resize(pos + static_cast<std::size_t>(nbytes));
  if constexpr (std::endian::native == std::endian::little) {
    // Byte k of the little-endian register image is (acc_ >> 8k) & 0xff —
    // exactly the byte loop below — so one memcpy replaces it.
    std::memcpy(bytes_.data() + pos, &acc_, static_cast<std::size_t>(nbytes));
    acc_ = nbytes >= 8 ? 0 : acc_ >> (nbytes * 8);
  } else {
    std::uint64_t a = acc_;
    for (int k = 0; k < nbytes; ++k) {
      bytes_[pos + static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(a);
      a >>= 8;
    }
    acc_ = a;
  }
  nbits_ &= 7;
}

UninitVector<std::uint8_t> BitWriter::finish() {
  if (nbits_ > 0) {
    bytes_.push_back(static_cast<std::uint8_t>(acc_));
  }
  acc_ = 0;
  nbits_ = 0;
  UninitVector<std::uint8_t> out;
  out.swap(bytes_);
  return out;
}

void BitReader::refill() {
  // Word-at-a-time refill (avail_ <= 56 here; get/peek cap nbits at 57).
  // One unaligned 64-bit load replaces up to 8 byte loads. `acc_ |= w <<
  // avail_` may deposit up to 7 bits beyond the bytes we account for; those
  // bits are the true continuation of the stream, so the next refill ORs
  // identical values over them — harmless.
  if (byte_pos_ + 8 <= bytes_.size()) {
    std::uint64_t w;
    std::memcpy(&w, bytes_.data() + byte_pos_, 8);
    if constexpr (std::endian::native == std::endian::big) {
      w = __builtin_bswap64(w);
    }
    acc_ |= w << avail_;
    const int consumed = (64 - avail_) >> 3;
    byte_pos_ += static_cast<std::size_t>(consumed);
    avail_ += consumed * 8;
    return;
  }
  // Tail: fewer than 8 bytes left; fall back to byte-at-a-time.
  while (avail_ <= 56 && byte_pos_ < bytes_.size()) {
    acc_ |= static_cast<std::uint64_t>(bytes_[byte_pos_++]) << avail_;
    avail_ += 8;
  }
}

std::uint64_t BitReader::get(int nbits) {
  assert(nbits >= 0 && nbits <= 57);
  if (avail_ < nbits) refill();
  const std::uint64_t mask = nbits == 0 ? 0 : (~0ull >> (64 - nbits));
  const std::uint64_t out = acc_ & mask;
  acc_ >>= nbits;
  avail_ -= nbits;
  bit_pos_ += static_cast<std::size_t>(nbits);
  return out;
}

std::uint64_t BitReader::peek(int nbits) {
  assert(nbits >= 0 && nbits <= 57);
  if (avail_ < nbits) refill();
  const std::uint64_t mask = nbits == 0 ? 0 : (~0ull >> (64 - nbits));
  std::uint64_t out = acc_ & mask;
  if (avail_ < nbits) {
    // Past the stream end the unaccounted register bits may hold stale
    // stream data; the documented contract is that they read as zero.
    const std::uint64_t valid =
        avail_ <= 0 ? 0 : (~0ull >> (64 - avail_));
    out &= valid;
  }
  return out;
}

void BitReader::skip(int nbits) {
  assert(nbits <= avail_);
  acc_ >>= nbits;
  avail_ -= nbits;
  bit_pos_ += static_cast<std::size_t>(nbits);
}

}  // namespace pcw::util
