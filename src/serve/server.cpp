#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <vector>

#include "algo/algorithms.h"
#include "obs/expo.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/trace.h"
#include "order/ordering.h"
#include "serve/admin.h"
#include "serve/stats.h"
#include "store/gpack.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gorder::serve {

namespace {

GORDER_OBS_COUNTER(c_connections, "serve.connections");
GORDER_OBS_COUNTER(c_conn_rejected, "serve.conn_rejected");
GORDER_OBS_COUNTER(c_handshake_rejected, "serve.handshake_rejected");
GORDER_OBS_COUNTER(c_requests, "serve.requests");
GORDER_OBS_COUNTER(c_responses, "serve.responses");
GORDER_OBS_COUNTER(c_overloaded, "serve.overloaded");
GORDER_OBS_COUNTER(c_bad_frames, "serve.bad_frames");
GORDER_OBS_COUNTER(c_errors, "serve.error_responses");
GORDER_OBS_COUNTER(c_swaps, "serve.swaps");
GORDER_OBS_COUNTER(c_shutdown_reqs, "serve.shutdown_requests");
GORDER_OBS_HISTOGRAM(h_request_us, "serve.request_us");
GORDER_OBS_GAUGE(g_queue_depth, "serve.queue_depth");
GORDER_OBS_COUNTER(c_slow_requests, "serve.slow_requests");
GORDER_OBS_COUNTER(c_stats_reqs, "serve.stats_requests");

// Per-opcode windowed latencies (serve.req_us.<opcode>) — the live p99
// the admin plane and gordertop read. Resolved once here, not per
// request: the registry lookup takes a mutex.
GORDER_OBS_WINDOWED(w_ping, "serve.req_us.ping");
GORDER_OBS_WINDOWED(w_info, "serve.req_us.info");
GORDER_OBS_WINDOWED(w_degree, "serve.req_us.degree");
GORDER_OBS_WINDOWED(w_neighbors, "serve.req_us.neighbors");
GORDER_OBS_WINDOWED(w_bfs, "serve.req_us.bfs");
GORDER_OBS_WINDOWED(w_sp, "serve.req_us.sp");
GORDER_OBS_WINDOWED(w_pagerank, "serve.req_us.pagerank_topk");
GORDER_OBS_WINDOWED(w_order, "serve.req_us.order");
GORDER_OBS_WINDOWED(w_swap, "serve.req_us.swap_pack");
GORDER_OBS_WINDOWED(w_shutdown, "serve.req_us.shutdown");
GORDER_OBS_WINDOWED(w_stats, "serve.req_us.stats");

obs::WindowedHistogram& WindowedForOpcode(Opcode op) {
  switch (op) {
    case Opcode::kPing: return w_ping;
    case Opcode::kInfo: return w_info;
    case Opcode::kDegree: return w_degree;
    case Opcode::kNeighbors: return w_neighbors;
    case Opcode::kBfs: return w_bfs;
    case Opcode::kSp: return w_sp;
    case Opcode::kPageRankTopK: return w_pagerank;
    case Opcode::kOrder: return w_order;
    case Opcode::kSwapPack: return w_swap;
    case Opcode::kShutdown: return w_shutdown;
    case Opcode::kStats: return w_stats;
  }
  return w_ping;  // unreachable: decode rejects unknown opcodes
}

}  // namespace

struct Server::Impl {
  /// One immutable epoch of the served graph. Queries pin it via
  /// shared_ptr; Publish swaps the pointer and the old epoch (and its
  /// mmap, if the Graph borrows one) dies with its last reader.
  struct Snapshot {
    Graph graph;
    std::uint64_t epoch = 0;
    Snapshot(Graph g, std::uint64_t e) : graph(std::move(g)), epoch(e) {}
  };

  struct Conn {
    util::Socket sock;
    std::mutex write_mu;
  };

  struct QueueItem {
    std::shared_ptr<Conn> conn;
    Request req;
    std::uint64_t trace_id = 0;
    double enqueue_s = 0;        // obs::NowSeconds() at decode
    std::uint64_t bytes_in = 0;  // full frame size, length prefix included
  };

  ServerOptions options;

  std::mutex snap_mu;
  std::shared_ptr<const Snapshot> snapshot;
  std::atomic<std::uint64_t> epoch{0};

  util::Socket listener;
  std::atomic<bool> started{false};
  std::atomic<bool> stopping{false};
  std::atomic<bool> shutdown_requested{false};

  std::mutex queue_mu;
  std::condition_variable queue_cv;      // workers wait for work
  std::condition_variable drained_cv;    // Stop waits for drain
  std::deque<QueueItem> queue;
  int in_flight = 0;  // dequeued but not yet answered

  std::mutex conns_mu;
  std::vector<std::shared_ptr<Conn>> conns;

  AdminListener admin;
  std::atomic<std::uint64_t> next_trace_id{1};

  std::mutex threads_mu;
  std::thread acceptor;
  std::vector<std::thread> workers;
  std::vector<std::thread> readers;

  std::mutex shutdown_mu;
  std::condition_variable shutdown_cv;

  std::function<void(const Request&)> execute_hook;

  std::shared_ptr<const Snapshot> CurrentSnapshot() {
    std::lock_guard<std::mutex> lock(snap_mu);
    return snapshot;
  }

  void SendResponse(const std::shared_ptr<Conn>& conn,
                    const ResponseHeader& header, const std::string& body) {
    std::string frame;
    frame.reserve(4 + kResponsePrefixBytes + body.size());
    AppendResponse(&frame, header, body);
    std::lock_guard<std::mutex> lock(conn->write_mu);
    // A failed write (peer gone, injected fault) is the peer's problem:
    // the reader thread will observe the broken stream and retire the
    // connection; the server keeps serving everyone else.
    IoResult r = util::WriteFull(conn->sock, frame.data(), frame.size());
    if (r.ok) {
      GORDER_OBS_INC(c_responses);
    } else {
      GORDER_LOG_DEBUG("serve: write failed: %s\n", r.error.c_str());
    }
  }

  void SendError(const std::shared_ptr<Conn>& conn, std::uint64_t id,
                 Status status, const std::string& message) {
    GORDER_OBS_INC(c_errors);
    SendResponse(conn, {id, status, epoch.load(std::memory_order_relaxed)},
                 ErrorBody(message));
  }

  // ---- Request execution (worker threads) ----

  std::string ExecuteQuery(const Request& req, const Snapshot& snap,
                           Status* status, std::string* message,
                           std::uint64_t* reply_epoch) {
    const Graph& g = snap.graph;
    std::string body;
    auto bad_request = [&](const std::string& m) {
      *status = Status::kBadRequest;
      *message = m;
      return std::string();
    };
    switch (req.opcode) {
      case Opcode::kPing:
        return body;
      case Opcode::kInfo:
        PutU64(&body, g.NumNodes());
        PutU64(&body, g.NumEdges());
        PutU32(&body, static_cast<std::uint32_t>(options.serve_threads));
        PutU32(&body, kProtocolVersion);
        return body;
      case Opcode::kDegree:
        if (req.node >= g.NumNodes()) return bad_request("node out of range");
        PutU32(&body, g.OutDegree(req.node));
        PutU32(&body, g.InDegree(req.node));
        return body;
      case Opcode::kNeighbors: {
        if (req.node >= g.NumNodes()) return bad_request("node out of range");
        auto neigh = g.OutNeighbors(req.node);
        if (neigh.size() > options.max_neighbors) {
          *status = Status::kTooLarge;
          *message = "neighbor list exceeds max_neighbors";
          return std::string();
        }
        PutU32(&body, static_cast<std::uint32_t>(neigh.size()));
        body.append(reinterpret_cast<const char*>(neigh.data()),
                    neigh.size() * sizeof(NodeId));
        return body;
      }
      case Opcode::kBfs: {
        if (req.node >= g.NumNodes()) return bad_request("node out of range");
        algo::BfsResult r = algo::Bfs(g, req.node);
        PutU32(&body, r.num_reached);
        PutU64(&body, r.sum_levels);
        PutU64(&body, HashVector64(r.level));
        return body;
      }
      case Opcode::kSp: {
        if (req.node >= g.NumNodes()) return bad_request("node out of range");
        algo::SpResult r = algo::Sp(g, req.node);
        PutU32(&body, r.num_reached);
        PutU32(&body, r.max_dist);
        PutU32(&body, r.num_rounds);
        PutU64(&body, HashVector64(r.dist));
        return body;
      }
      case Opcode::kPageRankTopK: {
        if (req.k == 0) return bad_request("k must be positive");
        if (req.k > options.max_topk) return bad_request("k exceeds max_topk");
        if (req.iterations == 0 || req.iterations > options.max_iterations) {
          return bad_request("iterations out of range");
        }
        if (g.NumNodes() == 0) return bad_request("graph is empty");
        algo::PageRankResult r =
            algo::PageRank(g, static_cast<int>(req.iterations));
        const NodeId n = g.NumNodes();
        const NodeId k = std::min<NodeId>(req.k, n);
        std::vector<NodeId> idx(n);
        for (NodeId v = 0; v < n; ++v) idx[v] = v;
        // Deterministic top-k: rank descending, node id ascending on ties
        // — the same lexicographic tie-break every kernel uses.
        std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                          [&r](NodeId a, NodeId b) {
                            if (r.rank[a] != r.rank[b]) {
                              return r.rank[a] > r.rank[b];
                            }
                            return a < b;
                          });
        PutF64(&body, r.total_mass);
        PutU32(&body, k);
        for (NodeId i = 0; i < k; ++i) {
          PutU32(&body, idx[i]);
          PutF64(&body, r.rank[idx[i]]);
        }
        return body;
      }
      case Opcode::kOrder: {
        if (req.num_nodes > options.max_order_nodes) {
          return bad_request("num_nodes exceeds max_order_nodes");
        }
        order::Method method;
        if (!order::ParseMethod(req.method, &method)) {
          return bad_request("unknown ordering method '" + req.method + "'");
        }
        for (const Edge& e : req.edges) {
          if (e.src >= req.num_nodes || e.dst >= req.num_nodes) {
            return bad_request("edge endpoint out of range");
          }
        }
        Graph uploaded = Graph::FromEdges(req.num_nodes, req.edges);
        order::OrderingParams params;
        params.seed = req.seed;
        std::vector<NodeId> perm =
            order::ComputeOrdering(uploaded, method, params);
        PutU32(&body, static_cast<std::uint32_t>(perm.size()));
        body.append(reinterpret_cast<const char*>(perm.data()),
                    perm.size() * sizeof(NodeId));
        return body;
      }
      case Opcode::kSwapPack: {
        if (!options.allow_swap) return bad_request("swap is disabled");
        Graph loaded;
        IoResult r = store::LoadPack(req.pack_path, &loaded);
        if (!r.ok) {
          *status = Status::kInternal;
          *message = "swap failed: " + r.error;
          return std::string();
        }
        *reply_epoch = PublishGraph(std::move(loaded));
        GORDER_OBS_INC(c_swaps);
        return body;
      }
      case Opcode::kShutdown: {
        if (!options.allow_shutdown) return bad_request("shutdown is disabled");
        GORDER_OBS_INC(c_shutdown_reqs);
        RequestShutdown();
        return body;
      }
      case Opcode::kStats: {
        GORDER_OBS_INC(c_stats_reqs);
        return EncodeStatsBody(RenderStatsJson(
            StatsView(snap.epoch), obs::DumpMetrics(), obs::DumpWindowed()));
      }
    }
    *status = Status::kBadOpcode;
    *message = "unknown opcode";
    return std::string();
  }

  ServerStatsView StatsView(std::uint64_t current_epoch) {
    ServerStatsView view;
    view.epoch = current_epoch;
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      view.queue_depth = queue.size();
      view.in_flight = static_cast<std::uint64_t>(in_flight);
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      view.connections = conns.size();
    }
    view.traces_sampled = obs::GlobalReqTraceRing().TotalPushed();
    return view;
  }

  void ExecuteAndReply(const QueueItem& item) {
    GORDER_OBS_SPAN(span, std::string("serve:req:") + OpcodeName(item.req.opcode));
    const double picked_s = obs::NowSeconds();
    Timer timer;
    std::shared_ptr<const Snapshot> snap = CurrentSnapshot();
    Status status = Status::kOk;
    std::string message;
    std::uint64_t reply_epoch = snap->epoch;
    std::string body =
        ExecuteQuery(item.req, *snap, &status, &message, &reply_epoch);
    std::uint64_t bytes_out = 4 + kResponsePrefixBytes;
    if (status == Status::kOk) {
      bytes_out += body.size();
      SendResponse(item.conn, {item.req.id, status, reply_epoch}, body);
    } else {
      GORDER_OBS_INC(c_errors);
      std::string err = ErrorBody(message);
      bytes_out += err.size();
      SendResponse(item.conn, {item.req.id, status, reply_epoch}, err);
    }
    const auto exec_us = static_cast<std::uint64_t>(timer.Seconds() * 1e6);
    GORDER_OBS_OBSERVE(h_request_us, exec_us);
    GORDER_OBS_WRECORD(WindowedForOpcode(item.req.opcode), exec_us);
    FinishTrace(item, status, reply_epoch, picked_s, exec_us, bytes_out);
  }

  /// Trace sampling + slow-request accounting, after the reply is sent.
  void FinishTrace(const QueueItem& item, Status status,
                   std::uint64_t reply_epoch, double picked_s,
                   std::uint64_t exec_us, std::uint64_t bytes_out) {
    if (!obs::Enabled()) return;  // GORDER_OBS=off: tracing fully off
    const auto queue_us = item.enqueue_s > 0 && picked_s > item.enqueue_s
                              ? static_cast<std::uint64_t>(
                                    (picked_s - item.enqueue_s) * 1e6)
                              : 0;
    const bool slow =
        options.slow_request_ms > 0 &&
        queue_us + exec_us >=
            static_cast<std::uint64_t>(options.slow_request_ms) * 1000;
    const bool sampled = options.trace_sample > 0 &&
                         item.trace_id % options.trace_sample == 0;
    if (!slow && !sampled) return;
    obs::ReqTraceRecord rec;
    rec.trace_id = item.trace_id;
    rec.start_us = static_cast<std::uint64_t>(item.enqueue_s * 1e6);
    rec.queue_us = queue_us;
    rec.exec_us = exec_us;
    rec.bytes_in = item.bytes_in;
    rec.bytes_out = bytes_out;
    rec.epoch = reply_epoch;
    rec.opcode = static_cast<std::uint16_t>(item.req.opcode);
    rec.status = static_cast<std::uint16_t>(status);
    rec.slow = slow;
    obs::GlobalReqTraceRing().Push(rec);
    if (slow) {
      GORDER_OBS_INC(c_slow_requests);
      GORDER_LOG_INFO(
          "gorderd: slow-request trace_id=%llu opcode=%s status=%s "
          "queue_us=%llu exec_us=%llu bytes_in=%llu bytes_out=%llu "
          "epoch=%llu\n",
          static_cast<unsigned long long>(item.trace_id),
          OpcodeName(item.req.opcode), StatusName(status),
          static_cast<unsigned long long>(queue_us),
          static_cast<unsigned long long>(exec_us),
          static_cast<unsigned long long>(item.bytes_in),
          static_cast<unsigned long long>(bytes_out),
          static_cast<unsigned long long>(reply_epoch));
    }
  }

  std::uint64_t PublishGraph(Graph g) {
    std::lock_guard<std::mutex> lock(snap_mu);
    const std::uint64_t next = snapshot->epoch + 1;
    snapshot = std::make_shared<const Snapshot>(std::move(g), next);
    epoch.store(next, std::memory_order_relaxed);
    return next;
  }

  void RequestShutdown() {
    shutdown_requested.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(shutdown_mu);
    shutdown_cv.notify_all();
  }

  // ---- Worker threads ----

  void WorkerLoop() {
    while (true) {
      QueueItem item;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock, [this] {
          return !queue.empty() || stopping.load(std::memory_order_relaxed);
        });
        if (queue.empty()) {
          if (stopping.load(std::memory_order_relaxed)) return;
          continue;
        }
        item = std::move(queue.front());
        queue.pop_front();
        GORDER_OBS_SET(g_queue_depth,
                       static_cast<std::int64_t>(queue.size()));
        ++in_flight;
      }
      if (execute_hook) execute_hook(item.req);
      ExecuteAndReply(item);
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        --in_flight;
        if (queue.empty() && in_flight == 0) drained_cv.notify_all();
      }
    }
  }

  // ---- Reader threads (one per connection) ----

  bool DoHandshake(const std::shared_ptr<Conn>& conn) {
    std::byte hello[kHandshakeBytes];
    IoResult r = util::ReadFull(conn->sock, hello, sizeof(hello));
    if (!r.ok) return false;
    std::uint32_t magic, version;
    std::memcpy(&magic, hello, 4);
    std::memcpy(&version, hello + 4, 4);
    const bool accepted = magic == kWireMagic && version == kProtocolVersion;
    std::string ack;
    AppendHandshakeAck(&ack, accepted);
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      IoResult w = util::WriteFull(conn->sock, ack.data(), ack.size());
      if (!w.ok) return false;
    }
    if (!accepted) GORDER_OBS_INC(c_handshake_rejected);
    return accepted;
  }

  void ReaderLoop(std::shared_ptr<Conn> conn) {
    if (!DoHandshake(conn)) {
      RetireConn(conn);
      return;
    }
    std::vector<std::byte> frame;
    while (!stopping.load(std::memory_order_relaxed)) {
      std::byte len_bytes[4];
      bool clean_eof = false;
      IoResult r = util::ReadFull(conn->sock, len_bytes, 4, &clean_eof);
      if (!r.ok) {
        if (!clean_eof) {
          GORDER_LOG_DEBUG("serve: read failed: %s\n", r.error.c_str());
        }
        break;
      }
      std::uint32_t payload_len;
      std::memcpy(&payload_len, len_bytes, 4);
      if (payload_len > kMaxPayloadBytes) {
        // The stream can no longer be framed; answer and hang up.
        GORDER_OBS_INC(c_bad_frames);
        SendError(conn, 0, Status::kTooLarge,
                  "declared payload exceeds kMaxPayloadBytes");
        break;
      }
      frame.resize(4 + payload_len);
      std::memcpy(frame.data(), len_bytes, 4);
      if (payload_len > 0) {
        r = util::ReadFull(conn->sock, frame.data() + 4, payload_len);
        if (!r.ok) {
          GORDER_LOG_DEBUG("serve: read failed mid-frame: %s\n",
                           r.error.c_str());
          break;
        }
      }
      std::size_t consumed = 0;
      Request req;
      std::string error;
      DecodeResult d =
          DecodeRequest(frame.data(), frame.size(), &consumed, &req, &error);
      switch (d) {
        case DecodeResult::kOk:
          break;
        case DecodeResult::kBadFrame:
          GORDER_OBS_INC(c_bad_frames);
          SendError(conn, req.id, Status::kBadFrame, error);
          continue;
        case DecodeResult::kBadOpcode:
          GORDER_OBS_INC(c_bad_frames);
          SendError(conn, req.id, Status::kBadOpcode, error);
          continue;
        case DecodeResult::kTooLarge:
        case DecodeResult::kNeedMoreData:  // impossible: full frame in hand
          GORDER_OBS_INC(c_bad_frames);
          SendError(conn, req.id, Status::kBadFrame, error);
          continue;
      }
      GORDER_OBS_INC(c_requests);
      if (stopping.load(std::memory_order_relaxed)) {
        SendError(conn, req.id, Status::kShuttingDown, "daemon is draining");
        break;
      }
      // Admission control: a full queue answers immediately instead of
      // buffering without bound (explicit backpressure).
      QueueItem item;
      item.conn = conn;
      item.trace_id =
          next_trace_id.fetch_add(1, std::memory_order_relaxed);
      item.enqueue_s = obs::NowSeconds();
      item.bytes_in = frame.size();
      item.req = std::move(req);
      bool enqueued = false;
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        if (queue.size() <
            static_cast<std::size_t>(options.queue_capacity)) {
          queue.push_back(std::move(item));
          GORDER_OBS_SET(g_queue_depth,
                         static_cast<std::int64_t>(queue.size()));
          enqueued = true;
        }
      }
      if (enqueued) {
        queue_cv.notify_one();
      } else {
        GORDER_OBS_INC(c_overloaded);
        SendError(conn, item.req.id, Status::kOverloaded,
                  "request queue full");
      }
    }
    RetireConn(conn);
  }

  void RetireConn(const std::shared_ptr<Conn>& conn) {
    conn->sock.ShutdownBoth();
    std::lock_guard<std::mutex> lock(conns_mu);
    conns.erase(std::remove(conns.begin(), conns.end(), conn), conns.end());
  }

  // ---- Acceptor thread ----

  void AcceptLoop() {
    while (!stopping.load(std::memory_order_relaxed)) {
      util::Socket sock;
      IoResult r = util::AcceptSocket(listener, &sock);
      if (stopping.load(std::memory_order_relaxed)) return;
      if (!r.ok) {
        GORDER_LOG_DEBUG("serve: accept failed: %s\n", r.error.c_str());
        // Transient (or injected) failure: don't spin, don't die.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      auto conn = std::make_shared<Conn>();
      conn->sock = std::move(sock);
      {
        std::lock_guard<std::mutex> lock(conns_mu);
        if (conns.size() >=
            static_cast<std::size_t>(options.max_connections)) {
          GORDER_OBS_INC(c_conn_rejected);
          continue;  // conn drops here; the client sees a clean EOF
        }
        conns.push_back(conn);
      }
      GORDER_OBS_INC(c_connections);
      std::lock_guard<std::mutex> lock(threads_mu);
      readers.emplace_back([this, conn] { ReaderLoop(std::move(conn)); });
    }
  }
};

Server::Server(Graph graph, ServerOptions options) : impl_(new Impl) {
  impl_->options = std::move(options);
  impl_->snapshot =
      std::make_shared<const Impl::Snapshot>(std::move(graph), 1);
  impl_->epoch.store(1, std::memory_order_relaxed);
}

Server::~Server() {
  Stop();
  delete impl_;
}

IoResult Server::Start() {
  GORDER_CHECK(!impl_->started.load());
  if (impl_->options.admin_enabled) {
    AdminHandlers handlers;
    handlers.metrics_text = [] { return obs::RenderPrometheusText(); };
    handlers.healthz_text = [] { return std::string("ok\n"); };
    handlers.tracez_json = [] {
      obs::ReqTraceRing& ring = obs::GlobalReqTraceRing();
      return RenderTracezJson(ring.TotalPushed(), ring.SnapshotRecent(256));
    };
    IoResult a = impl_->admin.Start(impl_->options.admin_listen,
                                    std::move(handlers));
    if (!a.ok) {
      return IoResult::Error("admin listener: " + a.error);
    }
    GORDER_LOG_INFO("gorderd: admin plane on %s\n",
                    impl_->options.admin_listen.ToString().c_str());
  }
  IoResult r = util::ListenSocket(impl_->options.listen, &impl_->listener);
  if (!r.ok) {
    impl_->admin.Stop();
    return r;
  }
  impl_->started.store(true);
  impl_->stopping.store(false);
  {
    std::lock_guard<std::mutex> lock(impl_->threads_mu);
    for (int i = 0; i < impl_->options.serve_threads; ++i) {
      impl_->workers.emplace_back([this] { impl_->WorkerLoop(); });
    }
    impl_->acceptor = std::thread([this] { impl_->AcceptLoop(); });
  }
  GORDER_LOG_INFO("gorderd: listening on %s (%d worker threads, queue %d)\n",
                  impl_->options.listen.ToString().c_str(),
                  impl_->options.serve_threads, impl_->options.queue_capacity);
  return IoResult::Ok();
}

void Server::Stop() {
  if (!impl_->started.load()) return;
  if (impl_->stopping.exchange(true)) return;
  // 0. The admin plane goes first: a scrape racing teardown would read
  //    half-dismantled state.
  impl_->admin.Stop();
  // 1. Break the acceptor out of accept() and join it, so no new reader
  //    threads can be registered while we collect the ones to join.
  impl_->listener.ShutdownBoth();
  if (impl_->acceptor.joinable()) impl_->acceptor.join();
  impl_->listener.Close();
  // 2. Drain queued work (readers now answer kShuttingDown, so the
  //    queue only shrinks). Bounded wait: a wedged peer must not block
  //    shutdown forever.
  {
    std::unique_lock<std::mutex> lock(impl_->queue_mu);
    impl_->queue_cv.notify_all();
    impl_->drained_cv.wait_for(lock, std::chrono::seconds(10), [this] {
      return impl_->queue.empty() && impl_->in_flight == 0;
    });
  }
  // 3. Tear down connections so blocked readers unblock.
  {
    std::lock_guard<std::mutex> lock(impl_->conns_mu);
    for (const auto& conn : impl_->conns) conn->sock.ShutdownBoth();
  }
  // 4. Join everything.
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(impl_->threads_mu);
    impl_->queue_cv.notify_all();
    for (auto& t : impl_->workers) to_join.push_back(std::move(t));
    for (auto& t : impl_->readers) to_join.push_back(std::move(t));
    impl_->workers.clear();
    impl_->readers.clear();
  }
  for (auto& t : to_join) {
    if (t.joinable()) t.join();
  }
  if (impl_->options.listen.is_unix) {
    ::unlink(impl_->options.listen.path.c_str());
  }
  impl_->started.store(false);
  impl_->RequestShutdown();  // release any WaitForShutdown caller
}

bool Server::WaitForShutdown(double timeout_s) {
  std::unique_lock<std::mutex> lock(impl_->shutdown_mu);
  impl_->shutdown_cv.wait_for(
      lock, std::chrono::duration<double>(timeout_s), [this] {
        return impl_->shutdown_requested.load(std::memory_order_relaxed);
      });
  return impl_->shutdown_requested.load(std::memory_order_relaxed);
}

std::uint64_t Server::Publish(Graph graph) {
  return impl_->PublishGraph(std::move(graph));
}

std::uint64_t Server::Epoch() const {
  return impl_->epoch.load(std::memory_order_relaxed);
}

int Server::Port() const { return impl_->listener.LocalPort(); }

int Server::AdminPort() const { return impl_->admin.Port(); }

const ServerOptions& Server::options() const { return impl_->options; }

void Server::SetExecuteHookForTest(std::function<void(const Request&)> hook) {
  impl_->execute_hook = std::move(hook);
}

}  // namespace gorder::serve
