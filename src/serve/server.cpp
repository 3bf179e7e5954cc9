#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "snapshot/snapshot.hpp"

namespace simty::serve {

namespace {

/// Reads exactly n bytes; returns the count read before EOF (short only at
/// EOF; throws on errors). Retries EINTR.
std::size_t read_exact(int fd, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r == 0) return got;
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("serve: read failed: ") +
                               std::strerror(errno));
    }
    got += static_cast<std::size_t>(r);
  }
  return got;
}

void write_all(int fd, const char* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that closed its end must surface as EPIPE (a
    // per-connection runtime_error the serve loop absorbs), not as a
    // process-killing SIGPIPE.
    const ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("serve: write failed: ") +
                               std::strerror(errno));
    }
    sent += static_cast<std::size_t>(r);
  }
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Bounds every blocking read and write on `fd` by kConnectionTimeout.
void set_timeouts(int fd) {
  timeval tv{};
  tv.tv_sec = kConnectionTimeout.count();
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) < 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) < 0) {
    throw std::runtime_error(std::string("serve: setsockopt failed: ") +
                             std::strerror(errno));
  }
}

std::string encode_error(const std::string& message) {
  snapshot::Writer w;
  w.begin_section("simty-error", kProtocolVersion);
  w.str(message);
  w.end_section();
  return w.finish();
}

}  // namespace

bool recv_frame(int fd, std::string& out) {
  unsigned char header[4];
  const std::size_t got =
      read_exact(fd, reinterpret_cast<char*>(header), sizeof(header));
  if (got == 0) return false;  // orderly close between frames
  if (got < sizeof(header)) {
    throw std::runtime_error("serve: truncated frame header");
  }
  const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                            static_cast<std::uint32_t>(header[1]) << 8 |
                            static_cast<std::uint32_t>(header[2]) << 16 |
                            static_cast<std::uint32_t>(header[3]) << 24;
  // Bounds-check BEFORE the resize: a forged header must not size a
  // multi-gigabyte allocation.
  if (len > kMaxFrameBytes) {
    throw std::runtime_error("serve: frame length " + std::to_string(len) +
                             " exceeds limit");
  }
  out.resize(len);
  if (read_exact(fd, out.data(), len) < len) {
    throw std::runtime_error("serve: truncated frame body");
  }
  return true;
}

void send_frame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw std::runtime_error("serve: refusing to send oversized frame");
  }
  const auto len = static_cast<std::uint32_t>(payload.size());
  const unsigned char header[4] = {
      static_cast<unsigned char>(len & 0xff),
      static_cast<unsigned char>((len >> 8) & 0xff),
      static_cast<unsigned char>((len >> 16) & 0xff),
      static_cast<unsigned char>((len >> 24) & 0xff)};
  write_all(fd, reinterpret_cast<const char*>(header), sizeof(header));
  write_all(fd, payload.data(), payload.size());
}

std::string encode_shutdown() {
  snapshot::Writer w;
  w.begin_section("simty-shutdown", kProtocolVersion);
  w.end_section();
  return w.finish();
}

bool is_shutdown_frame(const std::string& bytes) {
  try {
    return snapshot::Reader(bytes).has_section("simty-shutdown");
  } catch (const std::logic_error&) {
    return false;
  }
}

Server::Server(std::string socket_path, ServeCore& core)
    : socket_path_(std::move(socket_path)), core_(core) {
  const sockaddr_un addr = make_addr(socket_path_);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("serve: socket failed: ") +
                             std::strerror(errno));
  }
  ::unlink(socket_path_.c_str());  // replace a stale socket file
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 8) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot listen on " + socket_path_ +
                             ": " + why);
  }
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(socket_path_.c_str());
}

bool Server::serve_connection(int fd) {
  std::string frame;
  while (recv_frame(fd, frame)) {
    if (is_shutdown_frame(frame)) {
      send_frame(fd, encode_shutdown());
      return false;
    }
    std::string reply;
    try {
      reply = core_.handle_frame(frame);
    } catch (const std::logic_error& e) {
      // Malformed frame: the hardened decoder rejected it. Tell the peer
      // and keep serving.
      reply = encode_error(e.what());
    }
    send_frame(fd, reply);
  }
  return true;
}

void Server::serve(int max_connections) {
  int served = 0;
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("serve: accept failed: ") +
                               std::strerror(errno));
    }
    bool keep_going = true;
    try {
      set_timeouts(fd);
      keep_going = serve_connection(fd);
    } catch (const std::runtime_error&) {
      // Transport error on this connection (truncated frame, dead or silent
      // peer): drop it, keep the daemon up.
    }
    ::close(fd);
    if (!keep_going) return;
    if (max_connections > 0 && ++served >= max_connections) return;
  }
}

std::string query(const std::string& socket_path, const std::string& frame) {
  const sockaddr_un addr = make_addr(socket_path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("serve: socket failed: ") +
                             std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("serve: cannot connect to " + socket_path + ": " +
                             why);
  }
  try {
    send_frame(fd, frame);
    std::string reply;
    if (!recv_frame(fd, reply)) {
      throw std::runtime_error("serve: daemon closed without replying");
    }
    ::close(fd);
    return reply;
  } catch (...) {
    ::close(fd);
    throw;
  }
}

}  // namespace simty::serve
