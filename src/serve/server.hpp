#pragma once
// Local-socket transport for the sweep server: u32 little-endian
// length-prefixed frames over an AF_UNIX stream socket. The transport is a
// dumb pump — every frame payload is a snapshot container and all
// interpretation (and all input validation) lives in ServeCore /
// snapshot::Reader. Frame lengths are bounds-checked against
// kMaxFrameBytes before any allocation, so a hostile peer cannot size a
// buffer with a forged header.

#include <chrono>
#include <cstdint>
#include <string>

#include "serve/serve_core.hpp"

namespace simty::serve {

/// Protocol frames are requests, not run state: 1 MiB is orders of
/// magnitude above any legal frame and cheap to reject.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// The serve loop is serial, so a peer that connects and never sends (or
/// never reads) would stall every client queued behind it. Each accepted
/// connection gets this receive and send timeout; a read or write that
/// waits longer fails, and the connection is dropped.
inline constexpr std::chrono::seconds kConnectionTimeout{3};

/// Reads one length-prefixed frame. Returns false on orderly EOF before a
/// header byte; throws std::runtime_error on I/O errors, truncation inside
/// a frame, or an oversized length.
bool recv_frame(int fd, std::string& out);

/// Writes one length-prefixed frame; throws std::runtime_error on failure.
void send_frame(int fd, const std::string& payload);

/// Blocking single-threaded server bound to `socket_path` (any existing
/// socket file is replaced). Each accepted connection is served until the
/// peer closes or stays silent for kConnectionTimeout; a "simty-shutdown" frame stops the serve loop after the
/// acknowledgement is sent. Malformed frames get a "simty-error" reply and
/// the connection stays up — a bad client cannot take the daemon down.
/// Replies are written with MSG_NOSIGNAL, so a client that disconnects
/// before reading its reply costs one dropped connection (EPIPE), never a
/// process-wide SIGPIPE.
class Server {
 public:
  Server(std::string socket_path, ServeCore& core);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accept/serve loop; returns after a shutdown frame, or after
  /// `max_connections` connections when it is > 0 (tests).
  void serve(int max_connections = 0);

  const std::string& socket_path() const { return socket_path_; }

 private:
  /// Serves one connection; returns false when a shutdown was requested.
  bool serve_connection(int fd);

  std::string socket_path_;
  ServeCore& core_;
  int listen_fd_ = -1;
};

/// One round trip as a client: connect, send `frame`, return the reply.
/// Throws std::runtime_error when the daemon is unreachable.
std::string query(const std::string& socket_path, const std::string& frame);

/// The shutdown frame ("simty-shutdown" section) and its acknowledgement.
std::string encode_shutdown();
bool is_shutdown_frame(const std::string& bytes);

}  // namespace simty::serve
