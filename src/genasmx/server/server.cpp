#include "genasmx/server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "genasmx/io/fault.hpp"
#include "genasmx/server/protocol.hpp"

namespace gx::server {
namespace {

using common::Error;
using common::ErrorCode;

constexpr std::size_t kMaxHeaderBytes = 4096;

[[noreturn]] void sysFail(const std::string& what) {
  throw Error(ErrorCode::kIoFatal,
              what + " failed: " + std::string(std::strerror(errno)));
}

void setNonBlocking(int fd) {
  // Listener sockets only: accept() must never block the poll tick.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::chrono::steady_clock::time_point noDeadline() {
  return std::chrono::steady_clock::time_point::max();
}

}  // namespace

/// Per-connection state shared between its reader thread and any worker
/// holding one of its queued requests. The LAST shared_ptr drop closes
/// the fd (after every pending reply was written or shed), which is what
/// makes "zero leaked sessions" a refcount invariant rather than a
/// bookkeeping discipline.
struct MapServer::Connection {
  Connection(MapServer& s, int fd_in, std::uint64_t idx)
      : server(s), fd(fd_in), index(idx) {
    if (const io::FaultPlan* plan = io::activeFaultPlan()) {
      stall = plan->connStall(index);
      close_after_header = plan->connClose(index);
      torn = plan->connTorn(index);
    }
  }
  ~Connection() {
    if (fd >= 0) ::close(fd);
    server.noteConnectionClosed();
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  MapServer& server;
  int fd;
  std::uint64_t index;
  std::mutex write_mu;
  /// Shed or errored: readers stop parsing, workers stop replying.
  std::atomic<bool> dead{false};
  // Injected connection faults, resolved once at accept time.
  bool stall = false;
  bool close_after_header = false;
  bool torn = false;
};

MapServer::MapServer(mapper::IndexView index, ServerConfig cfg)
    : index_(index), cfg_(std::move(cfg)), engine_(cfg_.pipeline.engine) {}

MapServer::~MapServer() {
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (!cfg_.unix_path.empty()) ::unlink(cfg_.unix_path.c_str());
}

void MapServer::start() {
  if (cfg_.unix_path.empty() && cfg_.tcp_port < 0) {
    throw Error(ErrorCode::kMalformedInput,
                "server: no listener configured (need unix_path or tcp_port)");
  }
  if (!cfg_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw Error(ErrorCode::kMalformedInput,
                  "server: unix socket path too long: " + cfg_.unix_path);
    }
    std::memcpy(addr.sun_path, cfg_.unix_path.c_str(),
                cfg_.unix_path.size() + 1);
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_fd_ < 0) sysFail("socket(AF_UNIX)");
    ::unlink(cfg_.unix_path.c_str());  // stale socket from a dead server
    if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      sysFail("bind(" + cfg_.unix_path + ")");
    }
    if (::listen(unix_fd_, 128) != 0) sysFail("listen(" + cfg_.unix_path + ")");
    setNonBlocking(unix_fd_);
  }
  if (cfg_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) sysFail("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.tcp_port));
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      sysFail("bind(127.0.0.1:" + std::to_string(cfg_.tcp_port) + ")");
    }
    if (::listen(tcp_fd_, 128) != 0) sysFail("listen(tcp)");
    setNonBlocking(tcp_fd_);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      sysFail("getsockname");
    }
    tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  started_ = std::chrono::steady_clock::now();
}

void MapServer::acceptOne(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return;  // raced away or transient; the poll tick retries
  const std::uint64_t idx =
      next_conn_index_.fetch_add(1, std::memory_order_relaxed);
  auto conn = std::make_shared<Connection>(*this, fd, idx);
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.connections_accepted;
  }
  {
    std::lock_guard lock(queue_mu_);
    ++readers_active_;
  }
  reader_threads_.emplace_back(
      [this, conn = std::move(conn)]() mutable { readerLoop(std::move(conn)); });
}

void MapServer::serve() {
  if (unix_fd_ < 0 && tcp_fd_ < 0) start();

  worker_threads_.reserve(cfg_.workers ? cfg_.workers : 1);
  for (std::size_t w = 0; w < (cfg_.workers ? cfg_.workers : 1); ++w) {
    worker_threads_.emplace_back([this] { workerLoop(); });
  }

  while (!draining()) {
    pollfd pfds[2];
    nfds_t n = 0;
    if (unix_fd_ >= 0) pfds[n++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) pfds[n++] = {tcp_fd_, POLLIN, 0};
    const int rc = ::poll(pfds, n, cfg_.poll_interval_ms);
    if (rc <= 0) continue;  // tick (or EINTR): re-check the drain flag
    for (nfds_t i = 0; i < n; ++i) {
      if ((pfds[i].revents & POLLIN) != 0) acceptOne(pfds[i].fd);
    }
  }

  // Drain: stop accepting first so no new connection can arrive, then
  // let readers finish their current frame and exit, then let workers
  // empty the queue. Joining in that order IS the drain protocol.
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
    ::unlink(cfg_.unix_path.c_str());
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  for (auto& t : reader_threads_) t.join();
  reader_threads_.clear();
  queue_cv_.notify_all();  // wake workers that were idle before drain
  for (auto& t : worker_threads_) t.join();
  worker_threads_.clear();
}

// ---------------------------------------------------------------- reads

MapServer::ReadStatus MapServer::fill(
    Connection& conn, std::string& inbuf, bool mid_frame,
    std::chrono::steady_clock::time_point& frame_start) {
  for (;;) {
    if (conn.dead.load(std::memory_order_acquire)) return ReadStatus::kClosed;
    pollfd p{conn.fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, cfg_.poll_interval_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kClosed;
    }
    if (rc == 0) {
      if (draining()) {
        if (!mid_frame && inbuf.empty()) return ReadStatus::kDrain;
        // Mid-frame during drain: give the client one write-timeout's
        // worth of grace to finish the frame, then cut it loose — a
        // stalled sender must not hold drain hostage.
        if (frame_start == noDeadline()) {
          frame_start = std::chrono::steady_clock::now();
        } else if (std::chrono::steady_clock::now() - frame_start >
                   std::chrono::milliseconds(cfg_.write_timeout_ms)) {
          return ReadStatus::kTimeout;
        }
      }
      continue;
    }
    char buf[65536];
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n == 0) return ReadStatus::kEof;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return ReadStatus::kClosed;
    }
    inbuf.append(buf, static_cast<std::size_t>(n));
    return ReadStatus::kOk;
  }
}

MapServer::ReadStatus MapServer::readLine(Connection& conn, std::string& inbuf,
                                          std::string& line) {
  auto frame_start = noDeadline();
  for (;;) {
    const std::size_t nl = inbuf.find('\n');
    if (nl != std::string::npos) {
      line.assign(inbuf, 0, nl);
      inbuf.erase(0, nl + 1);
      return ReadStatus::kOk;
    }
    if (inbuf.size() > kMaxHeaderBytes) return ReadStatus::kClosed;
    const ReadStatus rs = fill(conn, inbuf, !inbuf.empty(), frame_start);
    if (rs != ReadStatus::kOk) return rs;
  }
}

MapServer::ReadStatus MapServer::readPayload(Connection& conn,
                                             std::string& inbuf,
                                             std::uint64_t want,
                                             std::string& payload) {
  auto frame_start = noDeadline();
  payload.clear();
  for (;;) {
    if (!inbuf.empty()) {
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(want - payload.size(), inbuf.size()));
      payload.append(inbuf, 0, take);
      inbuf.erase(0, take);
    }
    if (payload.size() >= want) return ReadStatus::kOk;
    const ReadStatus rs = fill(conn, inbuf, true, frame_start);
    if (rs != ReadStatus::kOk) return rs;
  }
}

// ---------------------------------------------------------------- writes

bool MapServer::writeReply(Connection& conn, std::string_view header,
                           std::string_view body) {
  std::lock_guard lock(conn.write_mu);
  if (conn.dead.load(std::memory_order_acquire)) return false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(cfg_.write_timeout_ms);
  const auto shed = [&] {
    conn.dead.store(true, std::memory_order_release);
    ::shutdown(conn.fd, SHUT_RDWR);  // unblock the reader immediately
    std::lock_guard slock(stats_mu_);
    ++stats_.write_timeouts;
    return false;
  };
  for (std::string_view part : {header, body}) {
    while (!part.empty()) {
      if (conn.stall) {
        // Injected slow client: the socket never becomes writable. Burn
        // the timeout deterministically instead of poking the real fd.
        std::this_thread::sleep_until(deadline);
        {
          std::lock_guard slock(stats_mu_);
          ++stats_.faults_injected;
        }
        return shed();
      }
      pollfd p{conn.fd, POLLOUT, 0};
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return shed();
      const int rc = ::poll(&p, 1, static_cast<int>(left.count()));
      if (rc < 0) {
        if (errno == EINTR) continue;
        conn.dead.store(true, std::memory_order_release);
        return false;
      }
      if (rc == 0) return shed();
      const ssize_t n =
          ::send(conn.fd, part.data(), part.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        // EPIPE / ECONNRESET: the client is gone; only it is affected.
        conn.dead.store(true, std::memory_order_release);
        return false;
      }
      part.remove_prefix(static_cast<std::size_t>(n));
    }
  }
  return true;
}

// ---------------------------------------------------------------- reader

void MapServer::readerLoop(ConnPtr conn) {
  std::string inbuf;
  std::string line;
  for (;;) {
    const ReadStatus rs = readLine(*conn, inbuf, line);
    if (rs != ReadStatus::kOk) {
      // EOF between frames is a clean disconnect; anything torn
      // mid-frame was already counted where it happened.
      if ((rs == ReadStatus::kEof || rs == ReadStatus::kTimeout) &&
          !inbuf.empty()) {
        std::lock_guard lock(stats_mu_);
        ++stats_.torn_frames;
      }
      break;
    }

    RequestHeader hdr;
    const common::Status st = parseRequestHeader(line, hdr);
    if (!st.ok()) {
      // A client that cannot frame a header cannot be resynchronized in
      // a byte-counted protocol: answer once, then drop only it.
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.malformed;
      }
      writeReply(*conn, formatErrHeader("-", st.code(), false, "bad-header",
                                        st.message()));
      break;
    }

    if (conn->close_after_header) {
      // close@conn:N — the deterministic stand-in for a client that
      // vanishes right after sending a header.
      std::lock_guard lock(stats_mu_);
      ++stats_.faults_injected;
      break;
    }

    if (hdr.kind == RequestKind::kPing) {
      ResponseHeader ok;
      ok.ok = true;
      ok.id = hdr.id;
      if (!writeReply(*conn, formatOkHeader(ok))) break;
      continue;
    }
    if (hdr.kind == RequestKind::kStats) {
      const std::string json = statsJson();
      ResponseHeader ok;
      ok.ok = true;
      ok.id = hdr.id;
      ok.bytes = json.size();
      if (!writeReply(*conn, formatOkHeader(ok), json)) break;
      continue;
    }

    // MAP: byte-counted payload follows.
    if (hdr.bytes > cfg_.max_request_bytes) {
      // Oversized requests are rejected without buffering the payload;
      // the framing is unrecoverable after that, so the connection ends
      // with the (permanent) error reply.
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.malformed;
      }
      writeReply(*conn,
                 formatErrHeader(hdr.id, ErrorCode::kResourceLimit, false,
                                 "too-large",
                                 "request exceeds max_request_bytes=" +
                                     std::to_string(cfg_.max_request_bytes)));
      break;
    }

    const std::uint64_t want =
        conn->torn ? hdr.bytes / 2 : hdr.bytes;  // torn@conn:N — see below
    std::string payload;
    const ReadStatus prs = readPayload(*conn, inbuf, want, payload);
    if (prs != ReadStatus::kOk) {
      // The client disconnected (or stalled past drain grace) inside its
      // own frame: a torn frame. Nothing can be replied to a gone peer;
      // the request is simply never admitted.
      std::lock_guard lock(stats_mu_);
      ++stats_.torn_frames;
      break;
    }
    if (conn->torn) {
      // torn@conn:N — the payload "ended" mid-frame even though the real
      // client sent it all: deterministic torn-frame handling.
      std::lock_guard lock(stats_mu_);
      ++stats_.torn_frames;
      ++stats_.faults_injected;
      break;
    }

    Request req;
    req.conn = conn;
    req.id = hdr.id;
    req.payload = std::move(payload);
    req.enqueued = std::chrono::steady_clock::now();
    req.has_deadline = hdr.deadline_ms != 0;
    req.deadline = req.has_deadline
                       ? req.enqueued + std::chrono::milliseconds(
                                            hdr.deadline_ms)
                       : noDeadline();
    {
      std::lock_guard lock(stats_mu_);
      ++stats_.requests;
    }
    bool admitted = false;
    {
      std::lock_guard lock(queue_mu_);
      if (queue_.size() < cfg_.max_queue) {
        queue_.push_back(std::move(req));
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
    } else {
      // Explicit backpressure: the queue is the admission boundary, and
      // a full queue is the client's signal to back off and retry — the
      // connection stays usable.
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.shed_queue_full;
      }
      if (!writeReply(*conn,
                      formatErrHeader(hdr.id, ErrorCode::kResourceLimit, true,
                                      "queue-full",
                                      "admission queue full (max_queue=" +
                                          std::to_string(cfg_.max_queue) +
                                          "); retry with backoff"))) {
        break;
      }
    }
  }
  {
    std::lock_guard lock(queue_mu_);
    --readers_active_;
  }
  queue_cv_.notify_all();  // workers may now see "no more producers"
}

// ---------------------------------------------------------------- worker

void MapServer::workerLoop() {
  MapSession session(index_, engine_, cfg_.pipeline);
  pipeline::StageTimes folded{};  // session times already added to stats_
  std::vector<Request> group;
  for (;;) {
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || (draining() && readers_active_ == 0);
      });
      if (queue_.empty()) break;  // drained: no requests, no producers
      group.clear();
      std::size_t bytes = 0;
      while (!queue_.empty() && group.size() < cfg_.coalesce_requests) {
        const std::size_t next_bytes = queue_.front().payload.size();
        if (!group.empty() && bytes + next_bytes > cfg_.coalesce_bytes) break;
        bytes += next_bytes;
        group.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    {
      std::lock_guard lock(stats_mu_);
      stats_.dispatched += group.size();
    }
    processGroup(session, group);
    const pipeline::StageTimes delta = session.stageTimes() - folded;
    folded = session.stageTimes();
    std::lock_guard lock(stats_mu_);
    stats_.stage_times.seed_chain_s += delta.seed_chain_s;
    stats_.stage_times.phase1_distance_s += delta.phase1_distance_s;
    stats_.stage_times.sketch_s += delta.sketch_s;
    stats_.stage_times.traceback_s += delta.traceback_s;
    stats_.stage_times.output_s += delta.output_s;
  }
}

void MapServer::processGroup(MapSession& session, std::vector<Request>& group) {
  // Pre-dispatch shed: a request whose deadline already passed (or whose
  // client is already gone) must not consume mapping work. The reply is
  // the same retryable deadline error the mid-flight path produces.
  const auto deadline_reply = [&](const Request& req) {
    {
      std::lock_guard lock(stats_mu_);
      ++stats_.shed_deadline;
    }
    writeReply(*req.conn,
               formatErrHeader(req.id, ErrorCode::kResourceLimit, true,
                               "deadline",
                               "deadline_ms elapsed before the reply; retry "
                               "with a larger deadline"));
  };

  std::vector<Request*> live;
  live.reserve(group.size());
  auto now = std::chrono::steady_clock::now();
  for (Request& req : group) {
    if (req.conn->dead.load(std::memory_order_acquire)) continue;
    if (req.has_deadline && now >= req.deadline) {
      deadline_reply(req);
      continue;
    }
    live.push_back(&req);
  }
  if (live.empty()) return;

  // Cooperative cancellation at the group's LATEST deadline: when it
  // fires, every member is individually past due, so cancelling the
  // whole batch sheds exactly the requests that are already dead. Any
  // member without a deadline keeps the group uncancellable.
  pipeline::Cancellation cancel;
  cancel.deadline = std::chrono::steady_clock::time_point::min();
  for (const Request* req : live) {
    cancel.deadline = std::max(cancel.deadline, req->deadline);
  }

  std::vector<std::string_view> payloads;
  payloads.reserve(live.size());
  for (const Request* req : live) payloads.emplace_back(req->payload);

  std::vector<RequestResult> results;
  session.mapGroup(payloads, cancel, results);

  now = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < live.size(); ++r) {
    const Request& req = *live[r];
    RequestResult& res = results[r];
    if (!res.status.ok()) {
      if (res.status.code() == ErrorCode::kResourceLimit) {
        deadline_reply(req);  // the group cancellation fired
      } else {
        const bool transient = res.status.code() != ErrorCode::kMalformedInput;
        writeReply(*req.conn,
                   formatErrHeader(req.id, res.status.code(), transient,
                                   transient ? "internal" : "bad-payload",
                                   res.status.message()));
      }
      continue;
    }
    if (req.has_deadline && now >= req.deadline) {
      deadline_reply(req);
      continue;
    }
    ResponseHeader ok;
    ok.ok = true;
    ok.id = req.id;
    ok.reads = res.reads;
    ok.records = res.records;
    ok.bytes = res.paf.size();
    ok.skipped = res.skipped;
    ok.failed = res.failed;
    const auto usec = std::chrono::duration_cast<std::chrono::microseconds>(
        now - req.enqueued);
    ok.usec = static_cast<std::uint64_t>(usec.count());
    const bool written = writeReply(*req.conn, formatOkHeader(ok), res.paf);
    std::lock_guard lock(stats_mu_);
    if (written) {
      ++stats_.ok_replies;
      stats_.latency.record(ok.usec);
    }
    stats_.reads += res.reads;
    stats_.records += res.records;
    stats_.skipped_records += res.skipped;
    stats_.failed_reads += res.failed;
  }
}

// ---------------------------------------------------------------- stats

void MapServer::noteConnectionClosed() {
  std::lock_guard lock(stats_mu_);
  ++stats_.connections_closed;
}

ServerStats MapServer::statsSnapshot() const {
  std::size_t depth = 0;
  {
    std::lock_guard lock(queue_mu_);
    depth = queue_.size();
  }
  std::lock_guard lock(stats_mu_);
  ServerStats snapshot = stats_;
  snapshot.queue_depth = depth;
  return snapshot;
}

std::string MapServer::statsJson() const {
  const ServerStats s = statsSnapshot();
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  std::ostringstream out;
  out << "{\n";
  out << "  \"connections\": {\"accepted\": " << s.connections_accepted
      << ", \"closed\": " << s.connections_closed << "},\n";
  out << "  \"requests\": {\"received\": " << s.requests
      << ", \"ok\": " << s.ok_replies
      << ", \"shed_queue_full\": " << s.shed_queue_full
      << ", \"shed_deadline\": " << s.shed_deadline
      << ", \"malformed\": " << s.malformed
      << ", \"torn_frames\": " << s.torn_frames
      << ", \"write_timeouts\": " << s.write_timeouts
      << ", \"faults_injected\": " << s.faults_injected << "},\n";
  out << "  \"reads\": " << s.reads << ",\n";
  out << "  \"records\": " << s.records << ",\n";
  out << "  \"skipped_records\": " << s.skipped_records << ",\n";
  out << "  \"failed_reads\": " << s.failed_reads << ",\n";
  out << "  \"latency_usec\": ";
  s.latency.writeJson(out);
  out << ",\n";
  out << "  \"stage_seconds\": {\"seed_chain\": " << s.stage_times.seed_chain_s
      << ", \"phase1_distance\": " << s.stage_times.phase1_distance_s
      << ", \"sketch\": " << s.stage_times.sketch_s
      << ", \"phase2_traceback\": " << s.stage_times.traceback_s
      << ", \"output\": " << s.stage_times.output_s << "},\n";
  out << "  \"workers\": " << (cfg_.workers ? cfg_.workers : 1) << ",\n";
  out << "  \"pool_threads\": " << engine_.threads() << ",\n";
  out << "  \"uptime_s\": " << uptime << ",\n";
  out << "  \"reads_per_sec\": "
      << (uptime > 0 ? static_cast<double>(s.reads) / uptime : 0.0) << "\n";
  out << "}\n";
  return out.str();
}

}  // namespace gx::server
