// Failures at the daemon's request boundary that are not malformed input.
// An exception other than std::logic_error thrown while answering a frame
// must come back as a "simty-error" reply on a connection that stays up,
// and one thrown while reading a frame must drop only that connection.
//
// The failure is a std::bad_alloc injected by this binary's replacement
// operator new: armed with a size window, it fails the next allocation
// whose size falls inside it, once. The replacement is why these tests
// have their own binary.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>

#include "serve/serve_core.hpp"
#include "serve/server.hpp"
#include "snapshot/snapshot.hpp"

namespace {

// The armed window [lo, hi]; lo == 0 is disarmed.
std::atomic<std::size_t> g_fail_lo{0};
std::atomic<std::size_t> g_fail_hi{0};

bool fail_now(std::size_t size) {
  std::size_t lo = g_fail_lo.load(std::memory_order_acquire);
  if (lo == 0 || size < lo || size > g_fail_hi.load(std::memory_order_acquire)) {
    return false;
  }
  return g_fail_lo.compare_exchange_strong(lo, 0);  // once
}

}  // namespace

// Replacements for every operator new/delete form, malloc/free underneath.
// GCC flags free() in a delete that it inlines next to a visible new; the
// pairing is correct here because both sides are these replacements.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (fail_now(size)) throw std::bad_alloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return fail_now(size) ? nullptr : std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (fail_now(size)) throw std::bad_alloc();
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace simty::serve {
namespace {

/// Long enough that no other allocation of the exchange comes near it.
constexpr std::size_t kNameBytes = 100000;

/// Fails the next allocation of [lo, hi] bytes.
void arm(std::size_t lo, std::size_t hi) {
  g_fail_hi.store(hi, std::memory_order_release);
  g_fail_lo.store(lo, std::memory_order_release);
}

Request small_request(std::uint64_t seed) {
  Request req;
  req.policy = exp::PolicyKind::kSimty;
  req.workload = exp::WorkloadKind::kLight;
  req.duration = Duration::minutes(20);
  req.seed = seed;
  return req;
}

/// A request whose decode allocates a kNameBytes-character app name.
std::string big_frame() {
  Request req = small_request(1);
  apps::AppProfile app;
  app.name = std::string(kNameBytes, 'x');
  app.repeat = Duration::seconds(300);
  req.custom_profiles = {app};
  return encode_request(req);
}

int connect_raw(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(RequestBoundary, BadAllocWhileAnsweringGetsAnErrorReplyOnALiveConnection) {
  // Regression: serve_connection caught only std::logic_error, so a
  // bad_alloc while decoding a request escaped the serve loop and ended
  // the process.
  const std::string path = ::testing::TempDir() + "simty_serve_bad_alloc.sock";
  ServeCore core;
  Server server(path, core);
  std::thread daemon([&] { server.serve(); });

  const std::string frame = big_frame();
  ASSERT_LT(frame.size(), kMaxFrameBytes);
  const int fd = connect_raw(path);
  ASSERT_GE(fd, 0);
  // The decoded name's buffer (kNameBytes + 1); every frame-sized buffer
  // is several hundred bytes longer.
  arm(kNameBytes, kNameBytes + 64);
  send_frame(fd, frame);
  std::string reply;
  ASSERT_TRUE(recv_frame(fd, reply));
  const snapshot::Reader error(reply);
  ASSERT_TRUE(error.has_section("simty-error"));
  EXPECT_NE(error.section("simty-error", kProtocolVersion).str().find("bad_alloc"),
            std::string::npos);

  // Same connection, next request: served.
  send_frame(fd, encode_request(small_request(2)));
  ASSERT_TRUE(recv_frame(fd, reply));
  const Response resp = decode_response(reply);
  EXPECT_FALSE(resp.cached);
  EXPECT_FALSE(resp.policy_name.empty());
  ::close(fd);

  EXPECT_EQ(decode_stats(query(path, encode_stats_request())).requests, 1u);
  EXPECT_TRUE(is_shutdown_frame(query(path, encode_shutdown())));
  daemon.join();
}

TEST(RequestBoundary, BadAllocWhileReadingAFrameDropsOnlyThatConnection) {
  // Regression: serve caught only std::runtime_error, so a bad_alloc
  // sizing a frame buffer escaped the accept loop and ended the process.
  const std::string path = ::testing::TempDir() + "simty_serve_bad_frame.sock";
  ServeCore core;
  Server server(path, core);
  std::thread daemon([&] { server.serve(); });

  const std::string frame = big_frame();
  // The daemon's frame buffer: the frame's length and its terminator.
  arm(frame.size(), frame.size() + 64);
  EXPECT_THROW(query(path, frame), std::runtime_error);  // closed, no reply
  arm(0, 0);

  const Response resp = decode_response(query(path, encode_request(small_request(3))));
  EXPECT_FALSE(resp.policy_name.empty());
  EXPECT_EQ(decode_stats(query(path, encode_stats_request())).requests, 1u);
  EXPECT_TRUE(is_shutdown_frame(query(path, encode_shutdown())));
  daemon.join();
}

}  // namespace
}  // namespace simty::serve
