#include "mcn/api/server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_set>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mcn/api/socket_io.h"
#include "mcn/api/wire.h"
#include "mcn/common/macros.h"
#include "mcn/obs/trace.h"

namespace mcn::api {

namespace {

/// Sends `response`, degrading a frame-cap overflow (a result row set a
/// remote client sized, e.g. a huge-k top-k) to a small error response
/// instead of aborting the process. Encode + send is traced as one
/// kWireEncode span under the request's context.
Status SendResponse(int fd, const WireResponse& response,
                    obs::TraceContext trace) {
  const auto start = std::chrono::steady_clock::now();
  auto frame = TryEncodeResponseFrame(response);
  Status sent;
  size_t bytes = 0;
  if (!frame.ok()) {
    WireResponse overflow;
    overflow.type = MsgType::kResponse;
    overflow.response.kind = response.response.kind;
    overflow.response.status = frame.status();
    std::string encoded = EncodeResponseFrame(overflow);
    bytes = encoded.size();
    sent = SendFrame(fd, encoded);
  } else {
    bytes = frame.value().size();
    sent = SendFrame(fd, frame.value());
  }
  obs::RecordSpanSince(trace, obs::EventType::kWireEncode, start, bytes);
  return sent;
}

}  // namespace

Result<std::unique_ptr<Server>> Server::Start(exec::QueryService* service,
                                              const Options& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("Server: null service");
  }
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument("Server: port out of range");
  }
  if (options.io_timeout_ms < 0) {
    return Status::InvalidArgument("Server: io_timeout_ms must be >= 0");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status err = ErrnoStatus("bind");
    ::close(fd);
    return err;
  }
  if (::listen(fd, options.backlog) != 0) {
    const Status err = ErrnoStatus("listen");
    ::close(fd);
    return err;
  }
  // Read back the bound port (meaningful when options.port == 0).
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const Status err = ErrnoStatus("getsockname");
    ::close(fd);
    return err;
  }
  return std::unique_ptr<Server>(
      new Server(service, fd, ntohs(bound.sin_port), options));
}

Server::Server(exec::QueryService* service, int listen_fd, int port,
               const Options& options)
    : service_(service), listen_fd_(listen_fd), port_(port), opts_(options) {
  acceptor_ = std::thread([this] { AcceptLoop(); });
  reaper_ = std::thread([this] { ReapLoop(); });
}

Server::~Server() { Stop(); }

void Server::Stop() {
  if (stopping_.exchange(true)) return;
  // Unblock accept(); closing also prevents new connections. Relying on
  // shutdown() of a *listening* socket to wake accept() is
  // Linux-specific (this codebase targets Linux throughout — cf. the
  // io_uring backend); BSDs would need a self-pipe/eventfd wakeup here.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  {
    // Taking mu_ guarantees the reaper is inside its wait (it holds mu_
    // everywhere else), so this notify cannot be lost.
    MutexLock lock(&mu_);
  }
  reap_cv_.NotifyAll();
  if (reaper_.joinable()) reaper_.join();
  std::vector<std::unique_ptr<Connection>> connections;
  {
    MutexLock lock(&mu_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    // Unblock the connection thread's read; it then cleans up and exits.
    ::shutdown(connection->fd, SHUT_RDWR);
  }
  for (auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
    ::close(connection->fd);
  }
  // Every connection thread has exited and each closed its sessions on the
  // way out. A nonzero count here means a session escaped its owning
  // connection's cleanup — a leak into the service's bounded session
  // table, worth a hard stop in any build.
  MCN_CHECK(sessions_open_.load(std::memory_order_acquire) == 0);
}

void Server::ReapFinishedConnections() {
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = connections_.erase(it);
      connections_reaped_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++it;
    }
  }
}

void Server::ReapLoop() {
  MutexLock lock(&mu_);
  while (!stopping_.load(std::memory_order_acquire)) {
    // Condition-signalled by exiting connection threads; the timeout is a
    // backstop (e.g. a notify that raced Stop) — not load-bearing.
    reap_cv_.WaitFor(&mu_, std::chrono::milliseconds(250));
    ReapFinishedConnections();
  }
  // Leave whatever remains to Stop(), which owns the final sweep.
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down (Stop) or broken
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (opts_.io_timeout_ms > 0) {
      // Best-effort: a connection that cannot arm timeouts still works,
      // it just blocks like a pre-timeout build.
      (void)SetRecvTimeout(fd, opts_.io_timeout_ms);
      (void)SetSendTimeout(fd, opts_.io_timeout_ms);
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(&mu_);
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    connection->thread = std::thread([this, raw] { ServeConnection(raw); });
    connections_.push_back(std::move(connection));
  }
}

void Server::ServeConnection(Connection* connection) {
  const int fd = connection->fd;
  // Sessions this connection opened; closed on disconnect so abandoned
  // streams do not squat in the service's bounded session table.
  std::unordered_set<exec::SessionId> sessions;
  for (;;) {
    auto payload = RecvFramePayload(fd);
    if (!payload.ok()) {
      // A recv timeout at the frame boundary is just an idle client — keep
      // the connection, using the wakeup as a stop check. Anything else
      // (clean EOF, Stop(), a broken or mid-frame-stalled stream) ends the
      // connection.
      if (payload.status().code() == StatusCode::kDeadlineExceeded &&
          !stopping_.load(std::memory_order_acquire)) {
        continue;
      }
      break;
    }
    // One trace context per request: the wire decode/encode spans and the
    // query the service runs for it share a query id (QueryService::Submit
    // adopts the caller's installed context instead of minting one).
    const obs::TraceContext trace = obs::StartQueryTrace();
    const obs::TraceContextScope trace_scope(trace);
    const auto decode_start = std::chrono::steady_clock::now();
    auto request = DecodeRequestPayload(payload.value());
    obs::RecordSpanSince(trace, obs::EventType::kWireDecode, decode_start,
                         payload.value().size());
    WireResponse response;
    if (!request.ok()) {
      // Malformed frame: report the decode error, then drop the
      // connection — after a framing error the stream cannot be trusted.
      response.type = MsgType::kResponse;
      response.response.status = request.status();
      (void)SendResponse(fd, response, trace);
      break;
    }
    bool drop = false;
    switch (request.value().type) {
      case MsgType::kExecute: {
        exec::QueryResult result =
            service_->Submit(std::move(request.value().spec)).get();
        response.type = MsgType::kResponse;
        response.response = std::move(result).ToResponse();
        break;
      }
      case MsgType::kOpenSession: {
        auto id = service_->OpenSession(std::move(request.value().spec));
        response.type = MsgType::kSessionOpened;
        if (id.ok()) {
          response.session_id = id.value();
          sessions.insert(id.value());
          sessions_open_.fetch_add(1, std::memory_order_acq_rel);
        } else {
          response.status = id.status();
        }
        break;
      }
      case MsgType::kNext: {
        // Ownership check: session ids are sequential (guessable), so a
        // connection may only pull from streams it opened — otherwise a
        // peer could destructively consume (or close) someone else's
        // session. Unowned ids answer NotFound, indistinguishable from
        // an evicted session.
        const exec::SessionId id = request.value().session_id;
        response.type = MsgType::kResponse;
        if (sessions.count(id) == 0) {
          response.response.kind = QueryKind::kIncrementalTopK;
          response.response.status = Status::NotFound(
              "session " + std::to_string(id) +
              " is not open on this connection");
        } else {
          exec::QueryResult result =
              service_->SessionNext(id, request.value().batch_n).get();
          response.response = std::move(result).ToResponse();
        }
        break;
      }
      case MsgType::kCloseSession: {
        const exec::SessionId id = request.value().session_id;
        response.type = MsgType::kSessionClosed;
        if (sessions.count(id) == 0) {
          response.status = Status::NotFound(
              "session " + std::to_string(id) +
              " is not open on this connection");
        } else {
          response.status = service_->CloseSession(id);
          sessions.erase(id);
          sessions_open_.fetch_sub(1, std::memory_order_acq_rel);
        }
        break;
      }
      case MsgType::kGetMetrics:
        response.type = MsgType::kMetrics;
        response.snapshot = service_->MetricsSnapshot();
        break;
      case MsgType::kGetTrace:
        response.type = MsgType::kTrace;
        response.trace_json = obs::Tracer::Global().ExportChromeJson();
        break;
      default:
        // DecodeRequestPayload only produces the cases above.
        drop = true;
        break;
    }
    if (drop) break;
    if (!SendResponse(fd, response, trace).ok()) break;
  }
  for (const exec::SessionId id : sessions) {
    (void)service_->CloseSession(id);
    sessions_open_.fetch_sub(1, std::memory_order_acq_rel);
  }
  // Shut down our side so the peer sees EOF promptly, then hand the fd
  // (and this thread) to the reaper thread (or Stop). The fd is closed
  // exactly once, always after the join.
  ::shutdown(fd, SHUT_RDWR);
  connection->done.store(true, std::memory_order_release);
  reap_cv_.NotifyOne();
}

}  // namespace mcn::api
