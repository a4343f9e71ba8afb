#pragma once
// MapServer — the resident mapping daemon behind tools/genasmx_mapd: one
// process mmaps the index once and serves many concurrent clients over a
// Unix or TCP socket speaking the protocol in protocol.hpp.
//
// Thread model:
//   - serve() runs the accept loop (poll-ticked so drain is observed).
//   - One reader thread per connection parses frames and enqueues
//     requests into ONE bounded central queue. A full queue answers with
//     an explicit retryable queue-full reply — load shedding is a
//     protocol feature, never a silent hang.
//   - `workers` mapping threads each own a MapSession (per-worker
//     scratch over the SHARED index + engine) and pop request *groups*
//     from the queue: cross-request coalescing keeps the SIMD lanes full
//     under bursty small requests, and per-read batch-boundary
//     independence keeps every request's PAF byte-identical to a solo
//     batch run.
//
// Robustness invariants (tests/test_server.cpp pins each):
//   - Per-request deadlines: checked before dispatch, cooperatively at
//     pipeline stage boundaries (the group's latest deadline), and
//     before the reply is written; expiry is a retryable ERR, never a
//     wedged client.
//   - Per-connection isolation: a malformed header, torn frame, abrupt
//     disconnect, or stalled reader kills at most its own connection.
//   - Slow-client write timeouts: a reply blocked longer than
//     write_timeout_ms sheds that connection instead of wedging a
//     mapping worker.
//   - Graceful drain: requestDrain() (async-signal-safe) stops
//     accepting, finishes every in-flight request, flushes stats, and
//     serve() returns; zero leaked sessions or fds.
//   - Connection fault injection: close@conn:N / stall@conn:N /
//     torn@conn:N (io::FaultPlan) make all of the above deterministic.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "genasmx/engine/engine.hpp"
#include "genasmx/mapper/mapper.hpp"
#include "genasmx/pipeline/pipeline.hpp"
#include "genasmx/server/histogram.hpp"
#include "genasmx/server/session.hpp"

namespace gx::server {

struct ServerConfig {
  /// Unix-domain listener path ("" = none). Stale paths are unlinked.
  std::string unix_path;
  /// TCP listener on 127.0.0.1 (-1 = none, 0 = ephemeral; see tcpPort()).
  int tcp_port = -1;
  /// Mapping worker threads (each owns one MapSession).
  std::size_t workers = 1;
  /// Bounded admission queue: requests queued beyond this are shed with
  /// a retryable queue-full reply.
  std::size_t max_queue = 64;
  /// Coalescing bounds per worker group: at most this many requests ...
  std::size_t coalesce_requests = 8;
  /// ... and at most this much payload per group.
  std::size_t coalesce_bytes = std::size_t{1} << 20;
  /// Requests larger than this are rejected (too-large, permanent).
  std::uint64_t max_request_bytes = std::uint64_t{64} << 20;
  /// A reply write blocked longer than this sheds the connection; also
  /// bounds how long a mid-frame read may linger once drain started.
  int write_timeout_ms = 5000;
  /// Poll tick for the accept loop and connection reads (drain latency).
  int poll_interval_ms = 50;
  /// Mapping configuration; cfg.pipeline.engine selects backend/threads
  /// for the one shared engine.
  pipeline::PipelineConfig pipeline{};
};

/// Aggregate counters, snapshotted under one mutex. Latency covers OK
/// replies only, enqueue to reply, in microseconds.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t requests = 0;        ///< MAP frames fully received
  std::uint64_t dispatched = 0;      ///< requests a worker took off the queue
  std::uint64_t queue_depth = 0;     ///< requests waiting at snapshot time
  std::uint64_t ok_replies = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t malformed = 0;       ///< bad headers / rejected frames
  std::uint64_t torn_frames = 0;     ///< EOF mid-frame (real or injected)
  std::uint64_t write_timeouts = 0;  ///< slow clients shed mid-reply
  std::uint64_t faults_injected = 0; ///< conn-site fault clauses fired
  std::uint64_t reads = 0;
  std::uint64_t records = 0;
  std::uint64_t skipped_records = 0;
  std::uint64_t failed_reads = 0;
  LatencyHistogram latency;
  pipeline::StageTimes stage_times;  ///< summed across worker sessions
};

class MapServer {
 public:
  /// `index`'s owner must outlive the server. Throws common::Error
  /// (kIoFatal) if no listener can be bound; start() does the binding so
  /// a constructed server has its sockets ready before serve().
  MapServer(mapper::IndexView index, ServerConfig cfg);
  ~MapServer();

  MapServer(const MapServer&) = delete;
  MapServer& operator=(const MapServer&) = delete;

  /// Bind + listen on the configured endpoints. Call once, before
  /// serve(). Throws common::Error(kIoFatal) on bind/listen failure.
  void start();

  /// Accept and serve until requestDrain(): spawns workers, runs the
  /// accept loop, then drains — stops accepting, finishes in-flight
  /// requests, joins every thread, closes every fd — and returns.
  void serve();

  /// Async-signal-safe drain trigger (a single atomic store): the
  /// SIGTERM handler's whole job.
  void requestDrain() noexcept {
    drain_.store(true, std::memory_order_release);
  }

  [[nodiscard]] bool draining() const noexcept {
    return drain_.load(std::memory_order_acquire);
  }

  /// Bound TCP port (useful with tcp_port = 0), -1 if no TCP listener.
  [[nodiscard]] int tcpPort() const noexcept { return tcp_port_; }

  [[nodiscard]] ServerStats statsSnapshot() const;
  /// The --stats-json / STATS payload: one JSON object of the counters,
  /// latency quantiles, stage times, and throughput.
  [[nodiscard]] std::string statsJson() const;

 private:
  struct Connection;
  using ConnPtr = std::shared_ptr<Connection>;

  struct Request {
    ConnPtr conn;
    std::string id;
    std::string payload;
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point enqueued;
    bool has_deadline = false;
  };

  enum class ReadStatus { kOk, kEof, kClosed, kDrain, kTimeout };

  void acceptOne(int listen_fd);
  void readerLoop(ConnPtr conn);
  void workerLoop();
  void processGroup(MapSession& session, std::vector<Request>& group);

  ReadStatus fill(Connection& conn, std::string& inbuf, bool mid_frame,
                  std::chrono::steady_clock::time_point& frame_start);
  ReadStatus readLine(Connection& conn, std::string& inbuf, std::string& line);
  ReadStatus readPayload(Connection& conn, std::string& inbuf,
                         std::uint64_t want, std::string& payload);
  /// Write header+body under the connection's write mutex with the
  /// slow-client timeout. Returns false if the connection was shed.
  bool writeReply(Connection& conn, std::string_view header,
                  std::string_view body = {});
  void noteConnectionClosed();

  mapper::IndexView index_;
  ServerConfig cfg_;
  engine::AlignmentEngine engine_;  ///< ONE engine shared by all sessions

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  std::atomic<bool> drain_{false};
  std::atomic<std::uint64_t> next_conn_index_{0};

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;
  std::size_t readers_active_ = 0;  ///< guarded by queue_mu_

  std::vector<std::thread> reader_threads_;  ///< accept loop only, then join
  std::vector<std::thread> worker_threads_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
  std::chrono::steady_clock::time_point started_;
};

}  // namespace gx::server
