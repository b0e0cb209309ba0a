#include "loadgen.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common.h"
#include "graph/graph.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/gpack.h"
#include "util/net.h"
#include "util/parallel.h"

namespace perfbench {

using gorder::IoResult;
using gorder::serve::Opcode;
using gorder::serve::Status;

namespace {

gorder::util::NetAddress Loopback(int port) {
  gorder::util::NetAddress addr;
  addr.host = "127.0.0.1";
  addr.port = port;
  return addr;
}

// Bounds every read and write on a traffic or control connection, so a
// wedged daemon fails the run instead of hanging it.
constexpr double kIoTimeoutS = 20.0;

}  // namespace

int RunDaemon(const std::string& pack_path) {
  gorder::SetNumThreads(1);  // the kernel pool
  gorder::Graph graph;
  IoResult r = gorder::store::LoadPack(pack_path, &graph);
  if (!r.ok) {
    std::fprintf(stderr, "daemon: %s\n", r.error.c_str());
    return 1;
  }
  gorder::serve::ServerOptions options;
  options.listen = Loopback(0);
  options.serve_threads = 2;
  gorder::serve::Server server(std::move(graph), options);
  r = server.Start();
  if (!r.ok) {
    std::fprintf(stderr, "daemon: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("ready %d\n", server.Port());
  std::fflush(stdout);
  // Nothing reads the pipe after the ready line.
  if (!std::freopen("/dev/null", "w", stdout)) return 1;
  while (!server.WaitForShutdown(0.25)) {
  }
  server.Stop();
  return 0;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
}

bool Daemon::Start(const std::string& exe, const std::string& pack_path,
                   std::string* error) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Only async-signal-safe calls until exec.
    dup2(fds[1], STDOUT_FILENO);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(126);
    execl(exe.c_str(), exe.c_str(), "--daemon", pack_path.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  pid_ = pid;
  close(fds[1]);
  std::string line;
  const double deadline = 60.0;
  const auto start = std::chrono::steady_clock::now();
  while (line.find('\n') == std::string::npos) {
    const double left =
        deadline - std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    pollfd p{fds[0], POLLIN, 0};
    if (left <= 0 || poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) {
      break;
    }
    char buf[64];
    const ssize_t got = read(fds[0], buf, sizeof(buf));
    if (got <= 0) break;
    line.append(buf, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  if (std::sscanf(line.c_str(), "ready %d", &port_) != 1 || port_ <= 0) {
    *error = "daemon did not report ready: '" + line + "'";
    return false;
  }
  return true;
}

bool Daemon::Stop(double* peak_rss_mb) {
  *peak_rss_mb = 0.0;
  if (pid_ <= 0) return false;
  *peak_rss_mb = PeakRssMb("/proc/" + std::to_string(pid_) + "/status");
  bool asked = false;
  {
    gorder::serve::Client client;
    if (client.Connect(Loopback(port_), kIoTimeoutS).ok) {
      asked = client.Shutdown().ok();
    }
  }
  int status = 0;
  pid_t done = 0;
  for (int i = 0; i < 300 && done == 0; ++i) {  // up to 15 s
    done = waitpid(pid_, &status, WNOHANG);
    if (done == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (done == 0) {
    kill(pid_, SIGKILL);
    done = waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return asked && done > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

namespace {

bool Handshake(const gorder::util::Socket& sock, std::string* error) {
  std::string hello;
  gorder::serve::AppendHandshake(&hello);
  IoResult r = gorder::util::WriteFull(sock, hello.data(), hello.size());
  unsigned char ack[gorder::serve::kHandshakeBytes];
  if (r.ok) r = gorder::util::ReadFull(sock, ack, sizeof(ack));
  if (!r.ok) {
    *error = r.error;
    return false;
  }
  std::uint32_t version = 0;
  std::memcpy(&version, ack + 4, sizeof(version));
  if (version == 0) *error = "handshake rejected";
  return version != 0;
}

void ParseBody(Opcode op, const std::byte* body, std::size_t len,
               ReplyRecord* rec) {
  gorder::serve::WireReader r(body, len);
  std::uint32_t reached = 0, u32 = 0, rounds = 0;
  std::uint64_t u64 = 0, hash = 0;
  if (op == Opcode::kBfs && r.GetU32(&reached) && r.GetU64(&u64) &&
      r.GetU64(&hash)) {
    rec->reached = reached;
    rec->extent = u64;
    rec->hash = hash;
  } else if (op == Opcode::kSp && r.GetU32(&reached) && r.GetU32(&u32) &&
             r.GetU32(&rounds) && r.GetU64(&hash)) {
    rec->reached = reached;
    rec->extent = u32;
    rec->hash = hash;
  }
}

}  // namespace

TrafficResult RunTraffic(int port, const std::vector<Arrival>& schedule,
                         const std::string pack_paths[2], int connections) {
  TrafficResult result;
  result.replies.resize(schedule.size());
  result.swap_paths.resize(schedule.size());
  for (std::size_t i = 0, swaps = 0; i < schedule.size(); ++i) {
    if (schedule[i].op == Opcode::kSwapPack) {
      result.swap_paths[i] = pack_paths[(swaps + 1) % 2];
      ++swaps;
    }
  }
  struct Conn {
    gorder::util::Socket sock;
    std::string out;          // encoded requests not yet written
    std::size_t out_pos = 0;
    std::string in;           // received bytes not yet decoded
  };
  std::vector<Conn> conns(connections);
  for (Conn& conn : conns) {
    IoResult r =
        gorder::util::ConnectSocket(Loopback(port), &conn.sock, kIoTimeoutS);
    std::string error = r.error;
    if (!r.ok || !Handshake(conn.sock, &error)) {
      result.transport_error = "connect: " + error;
      return result;
    }
    // Each request is one small write; without this, Nagle's algorithm
    // holds it until the previous one is acknowledged.
    const int one = 1;
    setsockopt(conn.sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(conn.sock.fd(), F_SETFL,
          fcntl(conn.sock.fd(), F_GETFL) | O_NONBLOCK);
  }
  // One thread polls every socket without sleeping: requests leave within
  // a microsecond or two of their due time and replies are stamped when
  // they arrive, with no thread wake-up in either measurement.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  auto since_t0 = [&t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const double give_up_s =
      (schedule.empty() ? 0.0 : schedule.back().due_s) + kIoTimeoutS;
  std::size_t next = 0, answered = 0;
  char buf[1 << 16];
  while (answered < schedule.size() && result.transport_error.empty()) {
    const double now = since_t0();
    for (; next < schedule.size() && schedule[next].due_s <= now; ++next) {
      gorder::serve::Request req;
      req.id = next + 1;
      req.opcode = schedule[next].op;
      req.node = schedule[next].node;
      req.pack_path = result.swap_paths[next];
      gorder::serve::AppendRequest(&conns[schedule[next].connection].out, req);
      result.replies[next].sent_s = now;
    }
    for (Conn& conn : conns) {
      if (conn.out_pos < conn.out.size()) {
        const ssize_t n = send(conn.sock.fd(), conn.out.data() + conn.out_pos,
                               conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
        if (n > 0) {
          conn.out_pos += static_cast<std::size_t>(n);
          if (conn.out_pos == conn.out.size()) {
            conn.out.clear();
            conn.out_pos = 0;
          }
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          result.transport_error = std::string("send: ") + std::strerror(errno);
        }
      }
      const ssize_t got = recv(conn.sock.fd(), buf, sizeof(buf), 0);
      if (got == 0 ||
          (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        result.transport_error = got == 0 ? "daemon closed a connection"
                                          : std::string("recv: ") +
                                                std::strerror(errno);
        break;
      }
      if (got < 0) continue;
      const double arrived = since_t0();
      conn.in.append(buf, static_cast<std::size_t>(got));
      // The daemon leaves Nagle's algorithm on for its replies, so a
      // reply written while the previous one is unacknowledged waits
      // for our ACK. Acknowledge at once (the kernel clears this flag
      // again, so it is set after every read).
      const int one = 1;
      setsockopt(conn.sock.fd(), IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      std::size_t pos = 0;
      while (true) {
        gorder::serve::ResponseHeader header;
        const std::byte* body = nullptr;
        std::size_t body_len = 0, consumed = 0;
        std::string error;
        const auto decoded = gorder::serve::DecodeResponse(
            reinterpret_cast<const std::byte*>(conn.in.data()) + pos,
            conn.in.size() - pos, &consumed, &header, &body, &body_len,
            &error);
        if (decoded == gorder::serve::DecodeResult::kNeedMoreData) break;
        if (decoded != gorder::serve::DecodeResult::kOk || header.id == 0 ||
            header.id > next || result.replies[header.id - 1].answered) {
          result.transport_error = "bad reply: " + error;
          break;
        }
        ReplyRecord& rec = result.replies[header.id - 1];
        rec.answered = true;
        rec.status = header.status;
        rec.epoch = header.epoch;
        rec.recv_s = arrived;
        if (header.status == Status::kOk) {
          ParseBody(schedule[header.id - 1].op, body, body_len, &rec);
        }
        ++answered;
        pos += consumed;
      }
      conn.in.erase(0, pos);
    }
    if (now > give_up_s && result.transport_error.empty()) {
      result.transport_error = "replies missing after the timeout";
    }
  }
  return result;
}

bool FetchStats(int port, std::string* json, std::string* error) {
  gorder::serve::Client client;
  IoResult r = client.Connect(Loopback(port), kIoTimeoutS);
  if (!r.ok) {
    *error = r.error;
    return false;
  }
  gorder::serve::StatsReply reply = client.Stats();
  if (!reply.ok()) {
    *error = reply.error;
    return false;
  }
  *json = reply.json;
  return true;
}

}  // namespace perfbench
