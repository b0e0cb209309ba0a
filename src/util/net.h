#ifndef GORDER_UTIL_NET_H_
#define GORDER_UTIL_NET_H_

/// Minimal blocking socket layer for the serving subsystem (src/serve).
///
/// Lives in util so the serve layer stays free of raw syscalls: every
/// socket/accept/connect/read/write site here is a registered failpoint
/// (DESIGN.md §14) — `net.listen.socket`, `net.accept`, `net.connect`,
/// `net.read`, `net.write` — so the fault-sweep suite can prove that a
/// failing network syscall degrades to a clean IoResult, never UB or a
/// wedged daemon.
///
/// Addresses are spelled as flag-friendly strings:
///
///   unix:/path/to/socket      stream socket in the filesystem
///   tcp:PORT                  TCP on 127.0.0.1 (loopback only)
///   tcp:HOST:PORT             TCP on an explicit address
///
/// `tcp:0` binds an ephemeral port; the bound port is readable from the
/// listener afterwards (Socket::LocalPort), which is what lets tests and
/// the daemon's LISTENING line avoid port races.

#include <cstddef>
#include <string>

#include "util/io_result.h"

namespace gorder::util {

struct NetAddress {
  bool is_unix = false;
  std::string path;         // unix socket path
  std::string host;         // tcp host (numeric or "127.0.0.1")
  int port = 0;             // tcp port (0 = ephemeral)

  /// Canonical "unix:..." / "tcp:host:port" spelling.
  std::string ToString() const;
};

/// Parses an address spec (grammar above). Returns false and fills
/// `*error` on malformed input; nothing is resolved via DNS — hosts must
/// be numeric.
bool ParseNetAddress(const std::string& spec, NetAddress* out,
                     std::string* error);

/// Move-only owning file-descriptor wrapper.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void Close();
  /// shutdown(SHUT_RDWR): unblocks any thread parked in a read/accept on
  /// this socket (the graceful-stop path). The fd stays owned.
  void ShutdownBoth();

  /// Bound local TCP port (after ListenSocket on tcp:0); 0 for unix
  /// sockets or on error.
  int LocalPort() const;

 private:
  int fd_ = -1;
};

/// Creates, binds and listens. For unix addresses a stale socket file at
/// the path is removed first (a daemon restart must not need manual rm).
IoResult ListenSocket(const NetAddress& addr, Socket* out, int backlog = 128);

/// Accepts one connection (blocking), with TCP_NODELAY set when it is a
/// TCP one. EINTR is retried; every other failure — including an
/// injected one — returns a clean error so the accept loop can decide
/// to retry or stop.
IoResult AcceptSocket(const Socket& listener, Socket* out);

/// Connects (blocking) and applies `timeout_s` as both the send and
/// receive timeout on the resulting socket (0 = no timeout). A timeout
/// surfaces as a failed ReadFull/WriteFull, so a client can never hang
/// forever on a wedged peer.
IoResult ConnectSocket(const NetAddress& addr, Socket* out,
                       double timeout_s = 30.0);

/// Reads exactly `n` bytes. EOF before the first byte is a "connection
/// closed" error with `*clean_eof` set (when provided) so callers can
/// tell an orderly peer close from a mid-frame truncation.
IoResult ReadFull(const Socket& sock, void* buf, std::size_t n,
                  bool* clean_eof = nullptr);

/// Reads whatever is available, up to `cap` bytes, into `buf`; `*got`
/// receives the byte count (0 on orderly EOF, which is still ok). The
/// admin HTTP listener uses this to accumulate a request head whose
/// length is not known in advance.
IoResult ReadSome(const Socket& sock, void* buf, std::size_t cap,
                  std::size_t* got);

/// Writes exactly `n` bytes (SIGPIPE suppressed; a closed peer surfaces
/// as an error, never a signal).
IoResult WriteFull(const Socket& sock, const void* buf, std::size_t n);

}  // namespace gorder::util

#endif  // GORDER_UTIL_NET_H_
