#include "store/protocol.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace pcw::store {

const char* op_name(std::uint8_t op) {
  switch (static_cast<Op>(op)) {
    case Op::kOpen: return "store.open";
    case Op::kList: return "store.list";
    case Op::kReadRegion: return "store.read_region";
    case Op::kReadStep: return "store.read_step";
    case Op::kWriteStep: return "store.write_step";
    case Op::kScrub: return "store.scrub";
    case Op::kStats: return "store.stats";
    case Op::kPing: return "store.ping";
    case Op::kShutdown: return "store.shutdown";
  }
  return "store.unknown";
}

void put_dataset(WireWriter& w, const RemoteDataset& d) {
  w.str(d.name);
  w.u8(static_cast<std::uint8_t>(d.dtype));
  w.u64(d.dims.d0);
  w.u64(d.dims.d1);
  w.u64(d.dims.d2);
  w.u32(d.filter_id);
  w.u64(d.stored_bytes);
  w.u32(d.partitions);
  w.u8(d.series_member ? 1 : 0);
  w.str(d.series_base);
  w.u32(d.series_step);
  w.u32(d.series_ref_step);
}

RemoteDataset get_dataset(WireReader& r) {
  RemoteDataset d;
  d.name = r.str();
  d.dtype = static_cast<DType>(r.u8());
  d.dims.d0 = static_cast<std::size_t>(r.u64());
  d.dims.d1 = static_cast<std::size_t>(r.u64());
  d.dims.d2 = static_cast<std::size_t>(r.u64());
  d.filter_id = r.u32();
  d.stored_bytes = r.u64();
  d.partitions = r.u32();
  d.series_member = r.u8() != 0;
  d.series_base = r.str();
  d.series_step = r.u32();
  d.series_ref_step = r.u32();
  return d;
}

void put_scrub(WireWriter& w, const ScrubReport& report) {
  w.u64(report.clean);
  w.u64(report.damaged);
  w.u64(report.unreadable);
  w.u32(static_cast<std::uint32_t>(report.datasets.size()));
  for (const ScrubDataset& d : report.datasets) {
    w.str(d.name);
    w.u8(static_cast<std::uint8_t>(d.state));
    w.u8(d.salvageable ? 1 : 0);
    w.u64(d.partitions);
    w.u64(d.damaged_partitions);
    w.str(d.detail);
  }
}

ScrubReport get_scrub(WireReader& r) {
  ScrubReport report;
  report.clean = r.u64();
  report.damaged = r.u64();
  report.unreadable = r.u64();
  const std::uint32_t n = r.u32();
  report.datasets.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ScrubDataset d;
    d.name = r.str();
    d.state = static_cast<ScrubHealth>(r.u8());
    d.salvageable = r.u8() != 0;
    d.partitions = r.u64();
    d.damaged_partitions = r.u64();
    d.detail = r.str();
    report.datasets.push_back(std::move(d));
  }
  return report;
}

namespace {

[[noreturn]] void raise_errno(const std::string& what) {
  throw std::runtime_error("store: " + what + ": " + std::strerror(errno));
}

/// Reads exactly n bytes. Returns false only on EOF before the first
/// byte when eof_ok; throws otherwise.
bool read_exact(int fd, void* buf, std::size_t n, bool eof_ok) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0 && eof_ok) return false;
      throw std::runtime_error("store: connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    raise_errno("recv");
  }
  return true;
}

void write_exact(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that vanished mid-reply must surface as EPIPE,
    // not kill the daemon with SIGPIPE.
    const ssize_t r = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (r >= 0) {
      sent += static_cast<std::size_t>(r);
      continue;
    }
    if (errno == EINTR) continue;
    raise_errno("send");
  }
}

}  // namespace

bool read_frame(int fd, std::uint8_t* tag, std::vector<std::uint8_t>* payload) {
  std::uint8_t head[5];
  if (!read_exact(fd, head, sizeof head, /*eof_ok=*/true)) return false;
  const std::uint32_t len = static_cast<std::uint32_t>(head[0]) |
                            static_cast<std::uint32_t>(head[1]) << 8 |
                            static_cast<std::uint32_t>(head[2]) << 16 |
                            static_cast<std::uint32_t>(head[3]) << 24;
  if (len > kMaxFrameBytes) {
    throw std::runtime_error("store: frame exceeds " + std::to_string(kMaxFrameBytes) +
                             " bytes");
  }
  *tag = head[4];
  // The buffer grows as bytes arrive, one bounded chunk at a time: a
  // header alone never commits memory for the length it claims. A frame
  // under one chunk is still a single read.
  payload->clear();
  for (std::size_t got = 0; got < len;) {
    const std::size_t n = std::min<std::size_t>(kFrameChunkBytes, len - got);
    payload->resize(got + n);
    read_exact(fd, payload->data() + got, n, /*eof_ok=*/false);
    got += n;
  }
  return true;
}

void write_frame(int fd, std::uint8_t tag, std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw std::runtime_error("store: oversized reply frame");
  }
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::uint8_t head[5] = {static_cast<std::uint8_t>(len),
                          static_cast<std::uint8_t>(len >> 8),
                          static_cast<std::uint8_t>(len >> 16),
                          static_cast<std::uint8_t>(len >> 24), tag};
  // One coalesced buffer per frame: small replies go out in one send.
  std::vector<std::uint8_t> frame;
  frame.reserve(sizeof head + payload.size());
  frame.insert(frame.end(), head, head + sizeof head);
  frame.insert(frame.end(), payload.begin(), payload.end());
  write_exact(fd, frame.data(), frame.size());
}

Address parse_address(const std::string& spec) {
  Address addr;
  if (spec.rfind("unix:", 0) == 0) {
    addr.tcp = false;
    addr.path = spec.substr(5);
  } else if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
      throw std::invalid_argument("store: bad tcp address '" + spec +
                                  "' (want tcp:<host>:<port>)");
    }
    addr.tcp = true;
    addr.host = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    char* end = nullptr;
    const unsigned long v = std::strtoul(port.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v > 65535) {
      throw std::invalid_argument("store: bad tcp port '" + port + "'");
    }
    addr.port = static_cast<std::uint16_t>(v);
  } else if (spec.find('/') != std::string::npos) {
    addr.tcp = false;
    addr.path = spec;
  } else {
    throw std::invalid_argument("store: bad address '" + spec +
                                "' (want unix:<path> or tcp:<host>:<port>)");
  }
  if (!addr.tcp && addr.path.empty()) {
    throw std::invalid_argument("store: empty unix socket path");
  }
  if (!addr.tcp && addr.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw std::invalid_argument("store: unix socket path too long: " + addr.path);
  }
  return addr;
}

std::string to_spec(const Address& addr) {
  if (!addr.tcp) return "unix:" + addr.path;
  return "tcp:" + addr.host + ":" + std::to_string(addr.port);
}

namespace {

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
  return sa;
}

struct AddrInfo {
  addrinfo* list = nullptr;
  ~AddrInfo() {
    if (list != nullptr) ::freeaddrinfo(list);
  }
};

AddrInfo resolve_tcp(const Address& addr, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (passive) hints.ai_flags = AI_PASSIVE;
  AddrInfo out;
  const std::string port = std::to_string(addr.port);
  const int rc = ::getaddrinfo(addr.host.empty() ? nullptr : addr.host.c_str(),
                               port.c_str(), &hints, &out.list);
  if (rc != 0) {
    throw std::runtime_error("store: cannot resolve " + to_spec(addr) + ": " +
                             ::gai_strerror(rc));
  }
  return out;
}

}  // namespace

int listen_on(Address& addr) {
  int fd = -1;
  if (!addr.tcp) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) raise_errno("socket");
    const sockaddr_un sa = make_unix_addr(addr.path);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      raise_errno("bind " + addr.path);
    }
  } else {
    const AddrInfo ai = resolve_tcp(addr, /*passive=*/true);
    for (addrinfo* a = ai.list; a != nullptr; a = a->ai_next) {
      fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
      if (fd < 0) continue;
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      if (::bind(fd, a->ai_addr, a->ai_addrlen) == 0) break;
      ::close(fd);
      fd = -1;
    }
    if (fd < 0) raise_errno("bind " + to_spec(addr));
    if (addr.port == 0) {
      sockaddr_storage ss{};
      socklen_t len = sizeof ss;
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&ss), &len) == 0) {
        if (ss.ss_family == AF_INET) {
          addr.port = ntohs(reinterpret_cast<sockaddr_in*>(&ss)->sin_port);
        } else if (ss.ss_family == AF_INET6) {
          addr.port = ntohs(reinterpret_cast<sockaddr_in6*>(&ss)->sin6_port);
        }
      }
    }
  }
  if (::listen(fd, 64) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    raise_errno("listen " + to_spec(addr));
  }
  return fd;
}

int connect_to(const Address& addr) {
  if (!addr.tcp) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) raise_errno("socket");
    const sockaddr_un sa = make_unix_addr(addr.path);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      raise_errno("connect " + to_spec(addr));
    }
    return fd;
  }
  const AddrInfo ai = resolve_tcp(addr, /*passive=*/false);
  for (addrinfo* a = ai.list; a != nullptr; a = a->ai_next) {
    const int fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, a->ai_addr, a->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    ::close(fd);
  }
  raise_errno("connect " + to_spec(addr));
}

}  // namespace pcw::store
