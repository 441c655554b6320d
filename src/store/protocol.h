// pcwd wire protocol (internal): length-prefixed binary frames over a
// Unix or TCP stream socket, shared by the server (src/store/server.cc)
// and the client façade (src/store/client.cc).
//
// Frame layout (all integers little-endian):
//
//   request:  u32 payload_len | u8 opcode | payload
//   response: u32 payload_len | u8 status | payload
//
// The response status byte is the numeric pcw::StatusCode; a non-OK
// response carries the error message as its whole payload (one wire
// string). Strings and byte blobs are u32-length-prefixed. A frame
// longer than kMaxFrameBytes is a protocol error and closes the
// connection. docs/store.md is the normative description of every
// request/response payload.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "pcw/store.h"
#include "pcw/types.h"

namespace pcw::store {

inline constexpr std::uint32_t kProtocolVersion = 1;
/// Upper bound on one frame's payload: a whole decoded field plus
/// metadata must fit (1 GiB covers every in-tree workload many times
/// over while still bounding a hostile length prefix).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;
/// read_frame grows a payload buffer by at most this much per read, so a
/// length prefix alone commits no more than one chunk of memory.
inline constexpr std::size_t kFrameChunkBytes = std::size_t{1} << 20;

/// Request opcodes. The response tag is a StatusCode, not an Op.
enum class Op : std::uint8_t {
  kOpen = 1,
  kList = 2,        // file_id 0 = whole-catalog listing
  kReadRegion = 3,
  kReadStep = 4,
  kWriteStep = 5,
  kScrub = 6,
  kStats = 7,
  kPing = 8,
  kShutdown = 9,
};

/// Span/telemetry name of an opcode ("?" for an unknown byte). Returns a
/// string literal, as util::trace requires.
const char* op_name(std::uint8_t op);

/// The wire encoding of "use the dataset's stored dtype" in the
/// expected-dtype byte of READ_REGION / READ_STEP.
inline constexpr std::uint8_t kDTypeAny = 0xFF;

// ---- serialization ---------------------------------------------------------

/// Append-only little-endian serializer for one frame payload.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void blob(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void region(const std::optional<Region>& r) {
    u8(r.has_value() ? 1 : 0);
    const Region box = r.value_or(Region{});
    for (int i = 0; i < 3; ++i) u64(box.lo[static_cast<std::size_t>(i)]);
    for (int i = 0; i < 3; ++i) u64(box.hi[static_cast<std::size_t>(i)]);
  }

  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <typename T>
  void put(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked cursor over a received payload; any overrun throws
/// (the dispatch loop converts that into a kInvalidArgument reply).
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  double f64() {
    const std::uint64_t bits = get<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<std::uint8_t> blob() {
    const std::uint32_t n = u32();
    need(n);
    std::vector<std::uint8_t> b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }
  std::optional<Region> region() {
    if (u8() == 0) {
      for (int i = 0; i < 6; ++i) (void)u64();
      return std::nullopt;
    }
    Region r;
    for (int i = 0; i < 3; ++i) r.lo[static_cast<std::size_t>(i)] = static_cast<std::size_t>(u64());
    for (int i = 0; i < 3; ++i) r.hi[static_cast<std::size_t>(i)] = static_cast<std::size_t>(u64());
    return r;
  }
  bool done() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  T get() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) {
      throw std::runtime_error("store: truncated frame");
    }
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// Shared payload shapes (the structs live in pcw/store.h).
void put_dataset(WireWriter& w, const RemoteDataset& d);
RemoteDataset get_dataset(WireReader& r);
void put_scrub(WireWriter& w, const ScrubReport& report);
ScrubReport get_scrub(WireReader& r);

// ---- frame + socket I/O ----------------------------------------------------

/// Reads one frame. Returns false on clean EOF at a frame boundary;
/// throws std::runtime_error on a short/oversized/failed read.
bool read_frame(int fd, std::uint8_t* tag, std::vector<std::uint8_t>* payload);

/// Writes one frame (tag + payload) or throws std::runtime_error.
void write_frame(int fd, std::uint8_t tag, std::span<const std::uint8_t> payload);

/// A parsed listen/connect address: "unix:<path>" or "tcp:<host>:<port>".
/// A bare spec containing '/' is treated as a Unix socket path.
struct Address {
  bool tcp = false;
  std::string path;  // unix socket path
  std::string host;  // tcp host
  std::uint16_t port = 0;
};

/// Parses the address grammar; throws std::invalid_argument on a spec
/// that matches neither form.
Address parse_address(const std::string& spec);

/// Formats back to the canonical spec string.
std::string to_spec(const Address& addr);

/// Binds + listens; returns the fd and (for "tcp:host:0") rewrites
/// addr.port to the kernel-assigned port. Throws std::runtime_error.
int listen_on(Address& addr);

/// Connects; throws std::runtime_error naming the address on failure.
int connect_to(const Address& addr);

}  // namespace pcw::store
