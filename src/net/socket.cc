#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/fault.h"

namespace xjoin {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

// Blocks until `fd` is ready for `events` or the deadline passes.
Status WaitReady(int fd, short events, int64_t deadline_micros) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline_micros > 0) {
      const int64_t left = deadline_micros - SteadyNowMicros();
      if (left <= 0) return Status::DeadlineExceeded("socket wait timed out");
      timeout_ms = static_cast<int>((left + 999) / 1000);
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (rc == 0) return Status::DeadlineExceeded("socket wait timed out");
    if (pfd.revents & (POLLERR | POLLNVAL)) {
      return Status::IOError("socket error while waiting for readiness");
    }
    return Status::OK();
  }
}

// Sends every byte the `count` iovecs hold in one gather write per
// wakeup (MSG_NOSIGNAL: a dead peer is a kIOError, not a SIGPIPE),
// advancing `iov` past what each partial write took.
Status SendAll(int fd, struct iovec* iov, size_t count,
               int64_t deadline_micros) {
  for (;;) {
    while (count > 0 && iov->iov_len == 0) {
      ++iov;
      --count;
    }
    if (count == 0) return Status::OK();
    struct msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t rc = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (rc > 0) {
      size_t sent = static_cast<size_t>(rc);
      while (sent > 0) {
        const size_t step = std::min(sent, iov->iov_len);
        iov->iov_base = static_cast<char*>(iov->iov_base) + step;
        iov->iov_len -= step;
        sent -= step;
        if (iov->iov_len == 0) {
          ++iov;
          --count;
        }
      }
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      XJ_RETURN_NOT_OK(WaitReady(fd, POLLOUT, deadline_micros));
      continue;
    }
    return Errno("send");
  }
}

}  // namespace

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(F_SETFL, O_NONBLOCK)");
  }
  return Status::OK();
}

Result<int> ListenLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st = Errno("bind");
    ::close(fd);
    return st;
  }
  if (::listen(fd, 128) < 0) {
    const Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  const Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  return fd;
}

Result<int> ListenerPort(int fd) {
  struct sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Result<int> ConnectTcp(const std::string& host, int port,
                       int64_t deadline_micros) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("invalid IPv4 address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS) {
      const Status st = Errno("connect");
      ::close(fd);
      return st;
    }
    const Status ready = WaitReady(fd, POLLOUT, deadline_micros);
    if (!ready.ok()) {
      ::close(fd);
      return ready.WithContext("connect to " + host + ":" +
                               std::to_string(port));
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0 ||
        err != 0) {
      ::close(fd);
      return Status::IOError("connect to " + host + ":" +
                             std::to_string(port) + ": " +
                             std::strerror(err != 0 ? err : errno));
    }
  }
  return fd;
}

Status ReadFull(int fd, uint8_t* buf, size_t n, int64_t deadline_micros) {
  size_t have = 0;
  while (have < n) {
    const ssize_t rc = ::recv(fd, buf + have, n - have, 0);
    if (rc > 0) {
      have += static_cast<size_t>(rc);
      continue;
    }
    if (rc == 0) {
      if (have == 0) return Status::IOError("connection closed");
      return Status::IOError("connection closed mid-frame (" +
                             std::to_string(have) + "/" + std::to_string(n) +
                             " bytes)");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      XJ_RETURN_NOT_OK(WaitReady(fd, POLLIN, deadline_micros));
      continue;
    }
    return Errno("recv");
  }
  return Status::OK();
}

Status WriteFull(int fd, const uint8_t* buf, size_t n,
                 int64_t deadline_micros) {
  struct iovec iov;
  iov.iov_base = const_cast<uint8_t*>(buf);
  iov.iov_len = n;
  return SendAll(fd, &iov, 1, deadline_micros);
}

Status WriteFrame(int fd, FrameType type, std::string_view payload,
                  int64_t deadline_micros) {
  if (XJOIN_FAULT("net.write")) {
    return Status::IOError(
        "fault injection: response write failed (site net.write)");
  }
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload exceeds the 64 MiB cap");
  }
  FrameHeader header;
  header.type = type;
  header.payload_len = static_cast<uint32_t>(payload.size());
  uint8_t head[kFrameHeaderSize];
  EncodeFrameHeader(header, head);
  // Header and payload leave in one gather write, with no copy of the
  // payload to put the header in front of it.
  struct iovec iov[2];
  iov[0].iov_base = head;
  iov[0].iov_len = kFrameHeaderSize;
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  return SendAll(fd, iov, 2, deadline_micros);
}

Result<std::pair<FrameHeader, std::string>> ReadFrame(
    int fd, int64_t deadline_micros) {
  uint8_t head[kFrameHeaderSize];
  XJ_RETURN_NOT_OK(ReadFull(fd, head, kFrameHeaderSize, deadline_micros));
  XJ_ASSIGN_OR_RETURN(FrameHeader header, DecodeFrameHeader(head));
  std::string payload(header.payload_len, '\0');
  if (header.payload_len > 0) {
    XJ_RETURN_NOT_OK(ReadFull(fd,
                              reinterpret_cast<uint8_t*>(&payload[0]),
                              header.payload_len, deadline_micros));
  }
  return std::make_pair(header, std::move(payload));
}

}  // namespace net
}  // namespace xjoin
