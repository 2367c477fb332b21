#include "net/server.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "net/socket.h"

namespace xjoin {
namespace net {

namespace {

enum ConnState : int {
  kReadHeader = 0,
  kReadBody = 1,
  kQueued = 2,
  kExecuting = 3,
  kClosed = 4,
};

// Budget for small frames the event loop writes itself (shed errors,
// pongs): long enough for any live loopback peer, short enough that a
// wedged one cannot stall the loop.
constexpr int64_t kInlineWriteBudgetMicros = 100 * 1000;

// Most payload bytes one recv may read. A frame's body grows only by
// what each recv asks for, so a header that declares a large payload
// costs no memory until the payload itself arrives.
constexpr size_t kBodyChunkBytes = 64 * 1024;

#ifdef POLLRDHUP
constexpr short kHangupEvents = POLLRDHUP;
constexpr bool kHaveRdhup = true;
#else
// No POLLRDHUP: watch POLLIN on busy connections and probe with
// MSG_PEEK — 0 bytes means the peer hung up.
constexpr short kHangupEvents = POLLIN;
constexpr bool kHaveRdhup = false;
#endif

}  // namespace

struct XJoinServer::Conn {
  int fd = -1;
  std::atomic<int> state{kReadHeader};

  // Frame assembly. Event-loop-only while the state is kReadHeader /
  // kReadBody; the worker resets the handful it touches before handing
  // the connection back (the release of the atomic state store orders
  // those writes, and the loop never reads them while the connection is
  // kQueued / kExecuting).
  uint8_t head[kFrameHeaderSize];
  size_t have = 0;
  bool have_header = false;
  FrameHeader header;
  std::string body;
  int64_t frame_deadline = 0;  ///< 0 = no partial frame in flight
  int64_t idle_since = 0;

  /// The active request's cancel scope. Guarded by cancel_mu: the event
  /// loop cancels it on disconnect while the worker clears it on
  /// completion.
  std::mutex cancel_mu;
  std::shared_ptr<CancellationToken> cancel;

  /// Peer hung up (or a write failed): the response is undeliverable
  /// and the loop should close as soon as the worker hands back.
  std::atomic<bool> client_gone{false};

  /// Fallback-only (no POLLRDHUP): the peer pipelined bytes while a
  /// request was executing; stop polling until the worker hands back,
  /// or the loop would spin on POLLIN.
  std::atomic<bool> pipelined{false};
};

struct XJoinServer::Job {
  std::shared_ptr<Conn> conn;
  QueryRequest request;
};

XJoinServer::XJoinServer(const MultiModelDatabase* db, ServerOptions options)
    : db_(db), options_(options) {}

XJoinServer::~XJoinServer() { Shutdown(); }

Status XJoinServer::Start() {
  if (started_.exchange(true)) {
    return Status::Internal("server already started");
  }
  XJ_ASSIGN_OR_RETURN(listen_fd_, ListenLoopback(options_.port));
  XJ_ASSIGN_OR_RETURN(port_, ListenerPort(listen_fd_));
  int pipefd[2];
  if (::pipe(pipefd) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  XJ_RETURN_NOT_OK(SetNonBlocking(wake_rd_));
  XJ_RETURN_NOT_OK(SetNonBlocking(wake_wr_));
  const int num_workers = std::max(1, options_.num_workers);
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  loop_thread_ = std::thread([this] { EventLoop(); });
  XJ_LOG(Info) << "xjoin server listening on 127.0.0.1:" << port_ << " ("
               << num_workers << " workers, max " << options_.max_connections
               << " connections, max " << options_.max_inflight
               << " in-flight)";
  return Status::OK();
}

void XJoinServer::Poke() {
  if (wake_wr_ < 0) return;
  const char b = 0;
  const ssize_t ignored = ::write(wake_wr_, &b, 1);
  (void)ignored;  // a full pipe already guarantees a wakeup
}

Status XJoinServer::ShedError(const std::string& why, int queue_depth) const {
  return Status::ResourceExhausted(why).WithRetryInfo(
      RetryInfo{options_.shed_retry_after_micros, queue_depth});
}

HealthReply XJoinServer::Health() const {
  HealthReply health;
  health.draining = draining_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    health.active_connections = static_cast<int32_t>(conns_.size());
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    health.inflight = inflight_;
  }
  health.served = served_ok_.load(std::memory_order_relaxed) +
                  served_error_.load(std::memory_order_relaxed);
  health.shed = rejected_conn_limit_.load(std::memory_order_relaxed) +
                shed_inflight_.load(std::memory_order_relaxed) +
                shed_draining_.load(std::memory_order_relaxed);
  return health;
}

ServerStats XJoinServer::stats() const {
  ServerStats out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.rejected_conn_limit =
      rejected_conn_limit_.load(std::memory_order_relaxed);
  out.shed_inflight = shed_inflight_.load(std::memory_order_relaxed);
  out.shed_draining = shed_draining_.load(std::memory_order_relaxed);
  out.evicted_slow = evicted_slow_.load(std::memory_order_relaxed);
  out.served_ok = served_ok_.load(std::memory_order_relaxed);
  out.served_error = served_error_.load(std::memory_order_relaxed);
  out.cancelled_disconnect =
      cancelled_disconnect_.load(std::memory_order_relaxed);
  out.cancelled_drain = cancelled_drain_.load(std::memory_order_relaxed);
  out.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  out.pings = pings_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    out.active_connections = static_cast<int>(conns_.size());
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    out.inflight = inflight_;
  }
  return out;
}

void XJoinServer::EventLoop() {
  std::vector<struct pollfd> pfds;
  std::vector<std::shared_ptr<Conn>> polled;
  while (!loop_stop_.load(std::memory_order_relaxed)) {
    // Draining: stop accepting. Only this thread touches listen_fd_
    // after Start(), so the close cannot race a poll() on it.
    if (draining_.load(std::memory_order_relaxed) && listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }

    pfds.clear();
    polled.clear();
    pfds.push_back({wake_rd_, POLLIN, 0});
    if (listen_fd_ >= 0) pfds.push_back({listen_fd_, POLLIN, 0});
    const size_t fixed = pfds.size();

    // Sweep: close finished/evicted connections, poll the rest.
    const int64_t now = SteadyNowMicros();
    int64_t next_deadline = 0;
    auto track_deadline = [&next_deadline](int64_t d) {
      if (d > 0 && (next_deadline == 0 || d < next_deadline)) {
        next_deadline = d;
      }
    };
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        const std::shared_ptr<Conn>& conn = it->second;
        const int state = conn->state.load();
        bool close_now = state == kClosed;
        if (!close_now && (state == kReadHeader || state == kReadBody)) {
          if (conn->client_gone.load(std::memory_order_relaxed)) {
            close_now = true;
          } else if (conn->frame_deadline > 0 &&
                     now >= conn->frame_deadline) {
            evicted_slow_.fetch_add(1, std::memory_order_relaxed);
            close_now = true;
          } else if (options_.idle_timeout_micros > 0 &&
                     conn->frame_deadline == 0 &&
                     now - conn->idle_since >= options_.idle_timeout_micros) {
            evicted_slow_.fetch_add(1, std::memory_order_relaxed);
            close_now = true;
          }
        }
        if (close_now) {
          ::close(conn->fd);
          it = conns_.erase(it);
          continue;
        }
        if (state == kReadHeader || state == kReadBody) {
          pfds.push_back({conn->fd, POLLIN, 0});
          polled.push_back(conn);
          track_deadline(conn->frame_deadline);
          if (options_.idle_timeout_micros > 0 && conn->frame_deadline == 0) {
            track_deadline(conn->idle_since + options_.idle_timeout_micros);
          }
        } else if (!conn->pipelined.load(std::memory_order_relaxed)) {
          // kQueued / kExecuting: watch only for the peer hanging up.
          pfds.push_back({conn->fd, kHangupEvents, 0});
          polled.push_back(conn);
        }
        ++it;
      }
    }

    int timeout_ms = 100;
    if (next_deadline > 0) {
      const int64_t left_ms = (next_deadline - now) / 1000 + 1;
      timeout_ms = static_cast<int>(std::max<int64_t>(
          1, std::min<int64_t>(left_ms, timeout_ms)));
    }
    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      XJ_LOG(Warning) << "server poll failed: " << std::strerror(errno);
      continue;
    }
    if (pfds[0].revents != 0) {
      char buf[64];
      while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
    }
    if (listen_fd_ >= 0 && fixed > 1 && pfds[1].revents != 0) {
      HandleAccept();
    }
    for (size_t i = fixed; i < pfds.size(); ++i) {
      const std::shared_ptr<Conn>& conn = polled[i - fixed];
      const short revents = pfds[i].revents;
      if (revents == 0) continue;
      const int state = conn->state.load();
      if (state == kQueued || state == kExecuting) {
        bool gone = (revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
#ifdef POLLRDHUP
        gone = gone || (revents & POLLRDHUP) != 0;
#endif
        if (!kHaveRdhup && !gone && (revents & POLLIN) != 0) {
          char probe;
          const ssize_t n =
              ::recv(conn->fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
          if (n == 0) {
            gone = true;
          } else if (n > 0) {
            conn->pipelined.store(true, std::memory_order_relaxed);
          }
        }
        if (gone &&
            !conn->client_gone.exchange(true, std::memory_order_relaxed)) {
          std::lock_guard<std::mutex> lk(conn->cancel_mu);
          if (conn->cancel != nullptr) {
            conn->cancel->Cancel("client disconnected");
            cancelled_disconnect_.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } else if (state == kReadHeader || state == kReadBody) {
        HandleReadable(conn);
      }
    }
  }
}

void XJoinServer::HandleAccept() {
  for (;;) {
    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained the backlog
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (XJOIN_FAULT("net.accept")) {
      ::close(cfd);
      continue;
    }
    if (!SetNonBlocking(cfd).ok()) {
      ::close(cfd);
      continue;
    }
    const int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    size_t live;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      live = conns_.size();
    }
    if (static_cast<int>(live) >= options_.max_connections) {
      rejected_conn_limit_.fetch_add(1, std::memory_order_relaxed);
      const Status shed =
          ShedError("connection ceiling reached (" +
                        std::to_string(options_.max_connections) +
                        " connections); retry against a live slot",
                    /*queue_depth=*/-1);
      WriteFrame(cfd, FrameType::kError, EncodeErrorStatus(shed),
                 SteadyNowMicros() + kInlineWriteBudgetMicros);
      ::close(cfd);
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = cfd;
    conn->idle_since = SteadyNowMicros();
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.emplace(cfd, std::move(conn));
  }
}

void XJoinServer::HandleReadable(const std::shared_ptr<Conn>& conn) {
  for (;;) {
    size_t want =
        !conn->have_header
            ? kFrameHeaderSize - conn->have
            : static_cast<size_t>(conn->header.payload_len) - conn->have;
    if (want > 0) {
      uint8_t* dst = conn->head + conn->have;
      if (conn->have_header) {
        want = std::min(want, kBodyChunkBytes);
        conn->body.resize(conn->have + want);
        dst = reinterpret_cast<uint8_t*>(&conn->body[conn->have]);
      }
      const ssize_t n = ::recv(conn->fd, dst, want, 0);
      if (conn->have_header) {
        conn->body.resize(conn->have + (n > 0 ? static_cast<size_t>(n) : 0));
      }
      if (n == 0) {  // clean EOF
        conn->state.store(kClosed);
        return;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // more later
        conn->state.store(kClosed);
        return;
      }
      if (XJOIN_FAULT("net.read")) {  // simulated torn read
        conn->state.store(kClosed);
        return;
      }
      conn->have += static_cast<size_t>(n);
      if (conn->frame_deadline == 0 && options_.read_timeout_micros > 0) {
        conn->frame_deadline =
            SteadyNowMicros() + options_.read_timeout_micros;
      }
      conn->state.store(conn->have_header ? kReadBody : kReadHeader);
    }
    if (!conn->have_header) {
      if (conn->have < kFrameHeaderSize) continue;
      const Result<FrameHeader> header = DecodeFrameHeader(conn->head);
      if (!header.ok()) {
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        conn->state.store(kClosed);
        return;
      }
      conn->header = *header;
      conn->have_header = true;
      conn->have = 0;
      if (conn->header.payload_len > 0) continue;
    } else if (conn->have < conn->header.payload_len) {
      continue;
    }
    HandleFrame(conn);
    if (conn->state.load() != kReadHeader) return;  // queued or closed
  }
}

void XJoinServer::HandleFrame(const std::shared_ptr<Conn>& conn) {
  const FrameType type = conn->header.type;
  const std::string body = std::move(conn->body);
  // Forget the assembled frame before dispatch so an inline reply
  // leaves the connection ready for its next request.
  conn->have = 0;
  conn->have_header = false;
  conn->body.clear();
  conn->frame_deadline = 0;
  conn->idle_since = SteadyNowMicros();
  conn->state.store(kReadHeader);

  switch (type) {
    case FrameType::kPing: {
      pings_.fetch_add(1, std::memory_order_relaxed);
      WriteInline(conn, FrameType::kPong, EncodeHealthReply(Health()));
      return;
    }
    case FrameType::kQuery: {
      Result<QueryRequest> request = DecodeQueryRequest(body);
      if (!request.ok()) {
        // The framing is intact; the payload is not. Typed reply, keep
        // the connection.
        WriteInline(conn, FrameType::kError,
                    EncodeErrorStatus(Status::InvalidArgument(
                        "malformed query frame: " +
                        request.status().message())));
        return;
      }
      if (draining_.load(std::memory_order_relaxed)) {
        shed_draining_.fetch_add(1, std::memory_order_relaxed);
        WriteInline(conn, FrameType::kError,
                    EncodeErrorStatus(ShedError(
                        "server is draining; retry against another replica",
                        /*queue_depth=*/-1)));
        return;
      }
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        if (inflight_ >= options_.max_inflight) {
          const int depth = static_cast<int>(queue_.size());
          lock.unlock();
          shed_inflight_.fetch_add(1, std::memory_order_relaxed);
          WriteInline(conn, FrameType::kError,
                      EncodeErrorStatus(ShedError(
                          "in-flight request ceiling reached (" +
                              std::to_string(options_.max_inflight) +
                              " requests queued or executing)",
                          depth)));
          return;
        }
        ++inflight_;
        {
          std::lock_guard<std::mutex> lk(conn->cancel_mu);
          conn->cancel = std::make_shared<CancellationToken>();
        }
        conn->state.store(kQueued);
        queue_.push_back(Job{conn, std::move(*request)});
      }
      queue_cv_.notify_one();
      return;
    }
    default:
      // kResult / kError / kPong have no business arriving at a server.
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      conn->state.store(kClosed);
      return;
  }
}

void XJoinServer::WriteInline(const std::shared_ptr<Conn>& conn,
                              FrameType type, const std::string& payload) {
  const Status st = WriteFrame(conn->fd, type, payload,
                               SteadyNowMicros() + kInlineWriteBudgetMicros);
  if (!st.ok()) {
    if (st.code() == StatusCode::kDeadlineExceeded) {
      evicted_slow_.fetch_add(1, std::memory_order_relaxed);
    }
    conn->state.store(kClosed);
    return;
  }
  if (type == FrameType::kError) {
    served_error_.fetch_add(1, std::memory_order_relaxed);
  }
}

void XJoinServer::WorkerLoop() {
  ResultEncoder encoder;  // this worker's scratch, reused per response
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return workers_stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // workers_stop_ and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    const std::shared_ptr<Conn>& conn = job.conn;
    conn->state.store(kExecuting);
    std::shared_ptr<CancellationToken> token;
    {
      std::lock_guard<std::mutex> lk(conn->cancel_mu);
      token = conn->cancel;
    }

    QueryOptions qopts;
    qopts.xjoin.num_threads = options_.query_num_threads;
    qopts.max_rows = job.request.max_rows;
    qopts.max_bytes = job.request.max_bytes;
    qopts.deadline_micros = job.request.deadline_micros;
    qopts.tenant = job.request.tenant;
    qopts.cancel = token.get();

    // Each request runs over its own snapshot, pinned for exactly the
    // request's lifetime. Execution morsel-parallelizes on the shared
    // Executor pool inside the engine.
    const Session session = db_->OpenSession();
    const Result<Relation> result = session.Query(job.request.text, qopts);

    FrameType type = FrameType::kError;
    std::string payload;
    if (result.ok()) {
      Result<std::string> encoded =
          encoder.Encode(*result, db_->dictionary());
      if (encoded.ok()) {
        type = FrameType::kResult;
        payload = std::move(*encoded);
      } else {
        payload = EncodeErrorStatus(encoded.status());
      }
    } else {
      payload = EncodeErrorStatus(result.status());
    }

    bool keep = false;
    if (!conn->client_gone.load(std::memory_order_relaxed)) {
      if (XJOIN_FAULT("net.drop_response")) {
        // Simulated lost response: the request executed, the client
        // never hears back and must retry on a fresh connection.
        conn->client_gone.store(true, std::memory_order_relaxed);
      } else {
        const Status wrote =
            WriteFrame(conn->fd, type, payload,
                       SteadyNowMicros() + options_.write_timeout_micros);
        if (wrote.ok()) {
          keep = true;
          (type == FrameType::kResult ? served_ok_ : served_error_)
              .fetch_add(1, std::memory_order_relaxed);
        } else {
          if (wrote.code() == StatusCode::kDeadlineExceeded) {
            evicted_slow_.fetch_add(1, std::memory_order_relaxed);
          }
          conn->client_gone.store(true, std::memory_order_relaxed);
        }
      }
    }

    {
      std::lock_guard<std::mutex> lk(conn->cancel_mu);
      conn->cancel.reset();
    }
    conn->pipelined.store(false, std::memory_order_relaxed);
    conn->frame_deadline = 0;
    conn->idle_since = SteadyNowMicros();
    conn->state.store(keep ? kReadHeader : kClosed);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --inflight_;
    }
    drain_cv_.notify_all();
    Poke();
  }
}

void XJoinServer::Shutdown(int64_t drain_deadline_micros) {
  if (!started_.load(std::memory_order_relaxed)) return;
  if (shut_down_.exchange(true)) return;
  draining_.store(true, std::memory_order_relaxed);
  Poke();  // the loop notices and closes the listen fd

  // Phase 1: let in-flight requests finish until the drain deadline.
  const int64_t deadline =
      SteadyNowMicros() + std::max<int64_t>(0, drain_deadline_micros);
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    while (inflight_ > 0 && SteadyNowMicros() < deadline) {
      drain_cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
  }

  // Phase 2: cancel whatever is still running or queued. The engines
  // unwind within one budget-check interval; the clients of those
  // requests see a typed kCancelled response.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& entry : conns_) {
      const std::shared_ptr<Conn>& conn = entry.second;
      std::lock_guard<std::mutex> lk(conn->cancel_mu);
      if (conn->cancel != nullptr) {
        conn->cancel->Cancel("server drain deadline exceeded");
        cancelled_drain_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    while (inflight_ > 0) {
      drain_cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();

  // Phase 3: stop the loop and release every fd.
  loop_stop_.store(true, std::memory_order_relaxed);
  Poke();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& entry : conns_) ::close(entry.second->fd);
    conns_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_rd_ >= 0) {
    ::close(wake_rd_);
    wake_rd_ = -1;
  }
  if (wake_wr_ >= 0) {
    ::close(wake_wr_);
    wake_wr_ = -1;
  }
}

}  // namespace net
}  // namespace xjoin
