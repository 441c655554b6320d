#include "sz/lossless.h"

#include <stdexcept>

namespace pcw::sz {
namespace {

constexpr std::size_t kMinMatch = 4;

std::size_t get_extended_length(std::span<const std::uint8_t> in, std::size_t& pos) {
  std::size_t len = 0;
  for (;;) {
    if (pos >= in.size()) throw std::runtime_error("lz: truncated length");
    const std::uint8_t b = in[pos++];
    len += b;
    if (b != 255) return len;
  }
}

}  // namespace

std::vector<std::uint8_t> lz_decompress(std::span<const std::uint8_t> input,
                                        std::size_t expected_size) {
  std::vector<std::uint8_t> out;
  out.reserve(expected_size);
  std::size_t pos = 0;
  while (pos < input.size()) {
    const std::uint8_t token = input[pos++];
    std::size_t lit_len = token >> 4;
    if (lit_len == 15) lit_len += get_extended_length(input, pos);
    if (pos + lit_len > input.size()) throw std::runtime_error("lz: truncated literals");
    out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(pos),
               input.begin() + static_cast<std::ptrdiff_t>(pos + lit_len));
    pos += lit_len;
    if (pos >= input.size()) break;  // final literal-only sequence
    if (pos + 2 > input.size()) throw std::runtime_error("lz: truncated offset");
    const std::size_t offset = input[pos] | (static_cast<std::size_t>(input[pos + 1]) << 8);
    pos += 2;
    std::size_t match_len = (token & 0x0f) + kMinMatch;
    if ((token & 0x0f) == 15) match_len += get_extended_length(input, pos);
    if (offset == 0 || offset > out.size()) throw std::runtime_error("lz: bad offset");
    // Byte-by-byte copy: overlapping matches (offset < match_len) are the
    // run-length case and must replicate progressively.
    std::size_t from = out.size() - offset;
    for (std::size_t i = 0; i < match_len; ++i) out.push_back(out[from + i]);
  }
  if (out.size() != expected_size) throw std::runtime_error("lz: size mismatch");
  return out;
}

}  // namespace pcw::sz
