#include "net/frame.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace deltacol {

namespace {

using Deadline = std::optional<std::chrono::steady_clock::time_point>;

[[noreturn]] void io_fail(const char* what) {
  throw WireError(std::string(what) + ": " + std::strerror(errno));
}

// A deadline `timeout_ms` from now; none (wait forever) when <= 0.
Deadline deadline_after(int timeout_ms) {
  if (timeout_ms <= 0) return std::nullopt;
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(timeout_ms);
}

// Blocks until `fd` is ready for `events` (POLLIN / POLLOUT) or `deadline`
// passes; throws WireError(`expired`) on an expired deadline. No deadline
// waits forever.
void wait_ready(int fd, short events, const Deadline& deadline,
                const char* expired) {
  for (;;) {
    int wait_ms = -1;
    if (deadline) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          *deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) throw WireError(expired);
      wait_ms = static_cast<int>(left.count());
    }
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int rv = ::poll(&p, 1, wait_ms);
    if (rv > 0) return;  // ready (or HUP/ERR — the I/O call will surface it)
    if (rv < 0 && errno != EINTR) io_fail("frame poll failed");
    // rv == 0 (poll timeout) loops back to re-check the deadline and throw.
  }
}

// write(2) raises SIGPIPE (fatal by default) when the peer has gone;
// sendmsg(2) with MSG_NOSIGNAL turns that into EPIPE, which we surface as
// WireError. Writes the `n` pieces of `iov` as one gather write, advancing
// over partial writes. Under a deadline every send is non-blocking and only
// an EAGAIN waits, in poll(2) — so a peer that stopped reading cannot block
// this thread past the deadline, and a send that fits the socket buffer
// costs no extra syscall. Non-socket fds (the framing tests run over pipes
// too) fall back to a blocking writev.
void write_all(int fd, iovec* iov, int n, const Deadline& deadline) {
  const int flags = MSG_NOSIGNAL | (deadline ? MSG_DONTWAIT : 0);
  for (;;) {
    while (n > 0 && iov->iov_len == 0) {
      ++iov;
      --n;
    }
    if (n == 0) return;
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(n);
    std::ptrdiff_t w = ::sendmsg(fd, &msg, flags);
    if (w < 0 && errno == ENOTSOCK) w = ::writev(fd, iov, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        wait_ready(fd, POLLOUT, deadline,
                   "frame write timed out: peer stopped reading");
        continue;
      }
      io_fail("frame write failed");
    }
    for (auto left = static_cast<std::size_t>(w); left > 0;) {
      const std::size_t step = std::min(left, iov->iov_len);
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + step;
      iov->iov_len -= step;
      left -= step;
      if (iov->iov_len == 0) {
        ++iov;
        --n;
      }
    }
  }
}

// Returns bytes read into [data, data+n); stops early only on EOF. Loops
// over short reads and EINTR — the segmentation a stream socket delivers is
// never visible above this function. A `deadline` bounds every wait (see
// wait_ready).
std::size_t read_upto(int fd, std::uint8_t* data, std::size_t n,
                      const Deadline& deadline) {
  std::size_t got = 0;
  while (got < n) {
    if (deadline) {
      wait_ready(fd, POLLIN, deadline, "frame read timed out: peer went silent");
    }
    const std::ptrdiff_t r = ::read(fd, data + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      io_fail("frame read failed");
    }
    if (r == 0) break;  // EOF
    got += static_cast<std::size_t>(r);
  }
  return got;
}

}  // namespace

void write_frame(int fd, const WireBuf& payload, int timeout_ms) {
  write_frame(fd, payload, {}, timeout_ms);
}

void write_frame(int fd, std::span<const std::uint8_t> head,
                 std::span<const std::uint8_t> body, int timeout_ms) {
  const std::uint32_t len =
      static_cast<std::uint32_t>(head.size() + body.size());
  std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
      static_cast<std::uint8_t>(len >> 16),
      static_cast<std::uint8_t>(len >> 24)};
  iovec iov[3] = {{prefix, sizeof(prefix)},
                  {const_cast<std::uint8_t*>(head.data()), head.size()},
                  {const_cast<std::uint8_t*>(body.data()), body.size()}};
  write_all(fd, iov, 3, deadline_after(timeout_ms));
}

bool try_read_frame(int fd, WireBuf& out, int timeout_ms) {
  const Deadline deadline = deadline_after(timeout_ms);
  std::uint8_t prefix[4];
  const std::size_t got = read_upto(fd, prefix, 4, deadline);
  if (got == 0) return false;  // clean EOF at a frame boundary
  if (got < 4) throw WireError("torn frame: EOF inside the length prefix");
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            static_cast<std::uint32_t>(prefix[1]) << 8 |
                            static_cast<std::uint32_t>(prefix[2]) << 16 |
                            static_cast<std::uint32_t>(prefix[3]) << 24;
  if (len > kMaxFrameBytes) {
    throw WireError("frame length " + std::to_string(len) +
                    " exceeds kMaxFrameBytes — corrupted stream");
  }
  // The prefix is the peer's word, not a measurement: grow the buffer by
  // what has arrived (doubling from one chunk, or up to the size an earlier
  // frame left), so a 4-byte lie cannot make this rank allocate and
  // zero-fill the length it claims. Bytes an earlier frame already sized
  // are overwritten in place, never zero-filled again.
  constexpr std::size_t kFirstChunk = std::size_t{64} << 10;
  std::size_t have = 0;
  while (have < len) {
    const std::size_t want = std::min<std::size_t>(
        len, std::max({out.size(), 2 * have, kFirstChunk}));
    if (out.size() < want) out.resize(want);
    if (read_upto(fd, out.data() + have, want - have, deadline) <
        want - have) {
      throw WireError("torn frame: EOF inside a " + std::to_string(len) +
                      "-byte payload");
    }
    have = want;
  }
  out.resize(len);
  return true;
}

WireBuf read_frame(int fd, int timeout_ms) {
  WireBuf out;
  if (!try_read_frame(fd, out, timeout_ms)) {
    throw WireError("unexpected EOF: peer closed before sending a frame");
  }
  return out;
}

}  // namespace deltacol
