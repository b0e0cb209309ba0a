#include "util/net.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/flags.h"

namespace gorder::util {

namespace {

GORDER_FAILPOINT_DEFINE(fp_listen, "net.listen.socket");
GORDER_FAILPOINT_DEFINE(fp_accept, "net.accept");
GORDER_FAILPOINT_DEFINE(fp_connect, "net.connect");
GORDER_FAILPOINT_DEFINE(fp_read, "net.read");
GORDER_FAILPOINT_DEFINE(fp_write, "net.write");

GORDER_OBS_COUNTER(c_bytes_in, "net.bytes_in");
GORDER_OBS_COUNTER(c_bytes_out, "net.bytes_out");

std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

IoResult FillSockaddrUn(const NetAddress& addr, sockaddr_un* sa) {
  std::memset(sa, 0, sizeof(*sa));
  sa->sun_family = AF_UNIX;
  if (addr.path.size() >= sizeof(sa->sun_path)) {
    return IoResult::Error("unix socket path too long (" +
                           std::to_string(addr.path.size()) + " bytes, max " +
                           std::to_string(sizeof(sa->sun_path) - 1) + "): " +
                           addr.path);
  }
  std::memcpy(sa->sun_path, addr.path.data(), addr.path.size());
  return IoResult::Ok();
}

IoResult FillSockaddrIn(const NetAddress& addr, sockaddr_in* sa) {
  std::memset(sa, 0, sizeof(*sa));
  sa->sin_family = AF_INET;
  sa->sin_port = htons(static_cast<std::uint16_t>(addr.port));
  const std::string host = addr.host.empty() ? "127.0.0.1" : addr.host;
  if (inet_pton(AF_INET, host.c_str(), &sa->sin_addr) != 1) {
    return IoResult::Error("invalid IPv4 address: " + host);
  }
  return IoResult::Ok();
}

/// Turns Nagle's algorithm off on a TCP socket. A reply written while
/// the previous one is still unacknowledged would otherwise wait for
/// the peer's delayed ACK. Unix-domain sockets have no such delay.
void SetNoDelayIfTcp(int fd) {
  sockaddr_storage sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0 ||
      (sa.ss_family != AF_INET && sa.ss_family != AF_INET6)) {
    return;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

std::string NetAddress::ToString() const {
  if (is_unix) return "unix:" + path;
  return "tcp:" + (host.empty() ? std::string("127.0.0.1") : host) + ":" +
         std::to_string(port);
}

bool ParseNetAddress(const std::string& spec, NetAddress* out,
                     std::string* error) {
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (spec.rfind("unix:", 0) == 0) {
    std::string path = spec.substr(5);
    if (path.empty()) return fail("unix: address needs a path");
    out->is_unix = true;
    out->path = std::move(path);
    out->host.clear();
    out->port = 0;
    return true;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    std::string rest = spec.substr(4);
    std::string host;
    std::string port_text = rest;
    std::size_t colon = rest.rfind(':');
    if (colon != std::string::npos) {
      host = rest.substr(0, colon);
      port_text = rest.substr(colon + 1);
    }
    std::int64_t port = 0;
    if (!ParseInt64(port_text, &port) || port < 0 || port > 65535) {
      return fail("tcp: '" + port_text + "' is not a port number (0-65535)");
    }
    out->is_unix = false;
    out->path.clear();
    out->host = std::move(host);
    out->port = static_cast<int>(port);
    return true;
  }
  return fail("address must start with unix: or tcp:, got '" + spec + "'");
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

int Socket::LocalPort() const {
  if (fd_ < 0) return 0;
  sockaddr_in sa;
  socklen_t len = sizeof(sa);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) != 0 ||
      sa.sin_family != AF_INET) {
    return 0;
  }
  return static_cast<int>(ntohs(sa.sin_port));
}

IoResult ListenSocket(const NetAddress& addr, Socket* out, int backlog) {
  if (GORDER_FAILPOINT(fp_listen) != FaultKind::kNone) {
    errno = EIO;
    return IoResult::Error(ErrnoMessage(
        ("cannot listen on " + addr.ToString()).c_str()));
  }
  Socket sock(::socket(addr.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return IoResult::Error(ErrnoMessage("socket"));
  if (addr.is_unix) {
    sockaddr_un sa;
    IoResult r = FillSockaddrUn(addr, &sa);
    if (!r.ok) return r;
    ::unlink(addr.path.c_str());  // stale socket from a previous daemon
    if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      return IoResult::Error(ErrnoMessage(("bind " + addr.path).c_str()));
    }
  } else {
    sockaddr_in sa;
    IoResult r = FillSockaddrIn(addr, &sa);
    if (!r.ok) return r;
    int one = 1;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      return IoResult::Error(ErrnoMessage(("bind " + addr.ToString()).c_str()));
    }
  }
  if (::listen(sock.fd(), backlog) != 0) {
    return IoResult::Error(ErrnoMessage("listen"));
  }
  *out = std::move(sock);
  return IoResult::Ok();
}

IoResult AcceptSocket(const Socket& listener, Socket* out) {
  if (GORDER_FAILPOINT(fp_accept) != FaultKind::kNone) {
    errno = EIO;
    return IoResult::Error(ErrnoMessage("accept"));
  }
  while (true) {
    int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      *out = Socket(fd);
      SetNoDelayIfTcp(fd);
      return IoResult::Ok();
    }
    if (errno == EINTR) continue;
    return IoResult::Error(ErrnoMessage("accept"));
  }
}

IoResult ConnectSocket(const NetAddress& addr, Socket* out, double timeout_s) {
  if (GORDER_FAILPOINT(fp_connect) != FaultKind::kNone) {
    errno = EIO;
    return IoResult::Error(ErrnoMessage(
        ("cannot connect to " + addr.ToString()).c_str()));
  }
  Socket sock(::socket(addr.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return IoResult::Error(ErrnoMessage("socket"));
  int rc;
  if (addr.is_unix) {
    sockaddr_un sa;
    IoResult r = FillSockaddrUn(addr, &sa);
    if (!r.ok) return r;
    rc = ::connect(sock.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  } else {
    sockaddr_in sa;
    IoResult r = FillSockaddrIn(addr, &sa);
    if (!r.ok) return r;
    rc = ::connect(sock.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  }
  if (rc != 0) {
    return IoResult::Error(
        ErrnoMessage(("connect " + addr.ToString()).c_str()));
  }
  if (timeout_s > 0) {
    timeval tv;
    tv.tv_sec = static_cast<long>(timeout_s);
    tv.tv_usec = static_cast<long>((timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  *out = std::move(sock);
  return IoResult::Ok();
}

IoResult ReadFull(const Socket& sock, void* buf, std::size_t n,
                  bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  std::size_t done = 0;
  auto* bytes = static_cast<char*>(buf);
  while (done < n) {
    ssize_t got = ::recv(sock.fd(), bytes + done, n - done, 0);
    if (got > 0) {
      // Injected faults model a peer/kernel failure part-way through the
      // transfer: shrink the observed byte count (kShort) or fail it.
      std::size_t eff = GORDER_FAULT_IO(fp_read, static_cast<std::size_t>(got),
                                        static_cast<std::size_t>(got));
      if (eff == 0) return IoResult::Error(ErrnoMessage("recv"));
      if (eff < static_cast<std::size_t>(got)) {
        return IoResult::Error("recv: short read (injected)");
      }
      done += static_cast<std::size_t>(got);
      GORDER_OBS_ADD(c_bytes_in, static_cast<std::uint64_t>(got));
      continue;
    }
    if (got == 0) {
      if (done == 0 && clean_eof != nullptr) *clean_eof = true;
      return IoResult::Error(done == 0 ? "connection closed by peer"
                                       : "connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    return IoResult::Error(ErrnoMessage("recv"));
  }
  return IoResult::Ok();
}

IoResult ReadSome(const Socket& sock, void* buf, std::size_t cap,
                  std::size_t* got) {
  *got = 0;
  while (true) {
    ssize_t n = ::recv(sock.fd(), buf, cap, 0);
    if (n >= 0) {
      *got = static_cast<std::size_t>(n);
      GORDER_OBS_ADD(c_bytes_in, static_cast<std::uint64_t>(n));
      return IoResult::Ok();
    }
    if (errno == EINTR) continue;
    return IoResult::Error(ErrnoMessage("recv"));
  }
}

IoResult WriteFull(const Socket& sock, const void* buf, std::size_t n) {
  std::size_t done = 0;
  const auto* bytes = static_cast<const char*>(buf);
  while (done < n) {
    ssize_t put = ::send(sock.fd(), bytes + done, n - done, MSG_NOSIGNAL);
    if (put > 0) {
      std::size_t eff = GORDER_FAULT_IO(fp_write, static_cast<std::size_t>(put),
                                        static_cast<std::size_t>(put));
      if (eff == 0 || eff < static_cast<std::size_t>(put)) {
        return IoResult::Error(ErrnoMessage("send (injected)"));
      }
      done += static_cast<std::size_t>(put);
      GORDER_OBS_ADD(c_bytes_out, static_cast<std::uint64_t>(put));
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    return IoResult::Error(ErrnoMessage("send"));
  }
  return IoResult::Ok();
}

}  // namespace gorder::util
