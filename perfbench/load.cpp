// perfbench load — seeded load generator for genasmx_mapd, one thread.
//
// Open mode (--steps RATE:COUNT,...): each step sends COUNT requests on a
// seeded Poisson schedule at RATE req/s, round-robin over --connections
// pipelined connections, regardless of replies. Latency is timed from a
// request's *scheduled* send time, so a stall also charges the requests
// queued behind it; how late each send actually ran is recorded as the
// generator's lag, and the requests still in flight when the last one is
// sent are the step's end backlog. A step whose lag p99 exceeds
// --lag-limit-ms is rerun, at most twice.
//
// Closed mode (--requests N): each connection keeps one request in
// flight and sends its next one when the reply arrives; latency is timed
// from the send.
//
// Every reply body must equal, byte for byte, the `genasmx_map` records
// of the request's reads (--expect). STATS is read before and after each
// step so server-side counters can be differenced per step.

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/server/client.hpp"
#include "genasmx/server/protocol.hpp"

namespace perfbench {
namespace {

struct Request {
  std::string frame;     ///< MAP header + FASTQ payload
  std::string expected;  ///< genasmx_map records of the request's reads
  std::uint64_t reads = 0;
  std::int64_t due_ns = 0;   ///< scheduled send (open) or actual send
  std::int64_t done_ns = 0;
  std::uint64_t service_us = 0;
  bool ok = false;
  bool mismatch = false;
  std::string err_reason;
};

struct Conn {
  gx::server::MapClient client;
  std::string inbuf;
  std::vector<std::size_t> inflight;  ///< request indices, send order
};

/// PAF text grouped by read: records of one read are consecutive, primary
/// first, so the map holds each read's lines verbatim (newlines included).
std::map<std::string, std::string, std::less<>> groupPafByRead(
    const std::string& paf) {
  std::map<std::string, std::string, std::less<>> by_read;
  std::size_t start = 0;
  while (start < paf.size()) {
    std::size_t nl = paf.find('\n', start);
    if (nl == std::string::npos) nl = paf.size() - 1;
    const std::string_view line(paf.data() + start, nl - start + 1);
    const std::string_view name = line.substr(0, line.find('\t'));
    by_read[std::string(name)] += line;
    start = nl + 1;
  }
  return by_read;
}

double quantileMs(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Latencies in request order, as a JSON array of milliseconds.
std::string list(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.4f", i ? "," : "", v[i]);
    out += buf;
  }
  return out + "]";
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void sendAll(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

class Generator {
 public:
  Generator(const Args& args, Spans& spans) : args_(args), spans_(spans) {
    for (auto& r : gx::io::readFastxFile(args.str("reads"))) {
      pool_.push_back(std::move(r));
    }
    if (pool_.empty()) throw std::runtime_error("empty read pool");
    expected_ = groupPafByRead(readFile(args.str("expect")));
    const auto n_conns = static_cast<std::size_t>(args.num("connections", 4));
    conns_.resize(std::clamp<std::size_t>(n_conns, 1, 4));
    for (Conn& c : conns_) {
      const gx::common::Status st = c.client.connectUnix(args.str("unix"));
      if (!st.ok()) throw std::runtime_error(st.message());
    }
    rng_.seed(static_cast<std::uint64_t>(args.num("seed")) * 7919 + 17);
    next_read_ = static_cast<std::size_t>(args.num("first-read", 0));
    reads_min_ = static_cast<std::size_t>(args.num("reads-min", 1));
    reads_max_ = static_cast<std::size_t>(args.num("reads-max", 16));
  }

  /// The next request: 1..16 consecutive pool reads (wrapping), starting
  /// at --first-read.
  Request makeRequest(std::size_t index) {
    std::uniform_int_distribution<std::size_t> size(reads_min_, reads_max_);
    const std::size_t k = size(rng_);
    Request req;
    std::vector<gx::io::FastxRecord> records;
    for (std::size_t i = 0; i < k; ++i) {
      records.push_back(pool_[next_read_++ % pool_.size()]);
      const auto it = expected_.find(records.back().name);
      if (it != expected_.end()) req.expected += it->second;
    }
    std::ostringstream payload;
    gx::io::writeFastx(payload, records);
    req.reads = k;
    gx::server::RequestHeader h;
    h.kind = gx::server::RequestKind::kMap;
    h.id = "r" + std::to_string(index);
    h.bytes = payload.str().size();
    req.frame = gx::server::formatRequestHeader(h) + payload.str();
    return req;
  }

  std::string statsJson() {
    std::string json;
    const gx::common::Status st = conns_[0].client.stats(json);
    if (!st.ok()) throw std::runtime_error("STATS: " + st.message());
    while (!json.empty() && (json.back() == '\n' || json.back() == ' ')) {
      json.pop_back();
    }
    return json;
  }

  struct StepResult {
    Json json;
    double lag_p99_ms = 0;
    std::size_t mismatched = 0;
  };

  /// One open-loop step (closed == false) or closed-loop run.
  StepResult runStep(std::size_t step, double rate, std::size_t count,
                     bool closed, int parent) {
    std::vector<Request> reqs;
    reqs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      reqs.push_back(makeRequest(request_base_ + i));
    }
    std::mt19937_64 sched_rng(static_cast<std::uint64_t>(args_.num("seed")) *
                                  1000003 +
                              step);
    std::exponential_distribution<double> gap(rate > 0 ? rate : 1.0);
    double t = 0;
    for (Request& r : reqs) {
      t += gap(sched_rng);
      r.due_ns = static_cast<std::int64_t>(t * 1e9);
    }
    const std::string stats_before = statsJson();
    const int step_span = spans_.begin("server.step", parent,
                                       static_cast<std::int64_t>(step));
    const std::int64_t t0 = nowNs() + 2'000'000;
    if (!closed) {
      for (Request& r : reqs) r.due_ns += t0;
    }
    std::size_t sent = 0, done = 0, backlog_end = 0;
    std::vector<double> lag_ms;
    lag_ms.reserve(count);

    const auto sendOne = [&](std::size_t conn_idx, std::int64_t now) {
      Request& r = reqs[sent];
      if (closed) r.due_ns = now;
      lag_ms.push_back(static_cast<double>(now - r.due_ns) / 1e6);
      sendAll(conns_[conn_idx].client.fd(), r.frame);
      conns_[conn_idx].inflight.push_back(sent);
      ++sent;
      if (sent == count) backlog_end = sent - done;
    };

    if (closed) {
      for (std::size_t c = 0; c < conns_.size() && sent < count; ++c) {
        sendOne(c, nowNs());
      }
    }
    std::vector<pollfd> pfds(conns_.size());
    char buf[1 << 16];
    while (done < count) {
      std::int64_t now = nowNs();
      while (!closed && sent < count && reqs[sent].due_ns <= now) {
        sendOne(sent % conns_.size(), now);
        now = nowNs();
      }
      std::int64_t wait_ns = 50'000'000;
      if (!closed && sent < count) wait_ns = reqs[sent].due_ns - now;
      // Spin the last 100 us before a due send: poll's wakeup slack would
      // otherwise show up as generator lag.
      if (wait_ns < 100'000) wait_ns = 0;
      else wait_ns -= 100'000;
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        pfds[c] = {conns_[c].client.fd(), POLLIN, 0};
      }
      const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                        static_cast<long>(wait_ns % 1'000'000'000)};
      const int rc = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
      if (rc < 0 && errno != EINTR) {
        throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
      }
      for (std::size_t c = 0; c < conns_.size() && rc > 0; ++c) {
        if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t n = ::recv(pfds[c].fd, buf, sizeof buf, MSG_DONTWAIT);
        if (n == 0) throw std::runtime_error("server closed a connection");
        if (n < 0) {
          if (errno == EAGAIN || errno == EINTR) continue;
          throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
        }
        conns_[c].inbuf.append(buf, static_cast<std::size_t>(n));
        while (takeReply(conns_[c], reqs)) {
          ++done;
          if (closed && sent < count) sendOne(c, nowNs());
        }
      }
    }
    spans_.end(step_span);
    const std::string stats_after = statsJson();

    std::vector<double> lat, service;
    std::size_t ok = 0, mismatched = 0, errors = 0, reads = 0;
    std::string first_err;
    std::int64_t last_done = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const Request& r = reqs[i];
      last_done = std::max(last_done, r.done_ns);
      if (!r.ok) {
        ++errors;
        if (first_err.empty()) first_err = r.err_reason;
        continue;
      }
      if (r.mismatch) ++mismatched;
      ++ok;
      reads += r.reads;
      lat.push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e6);
      service.push_back(static_cast<double>(r.service_us) / 1e3);
      const int req_span =
          spans_.add("server.request", r.due_ns, r.done_ns, step_span,
                     static_cast<std::int64_t>(request_base_ + i), false);
      spans_.add("server.service",
                 r.done_ns - static_cast<std::int64_t>(r.service_us) * 1000,
                 r.done_ns, req_span,
                 static_cast<std::int64_t>(request_base_ + i), true);
    }
    request_base_ += count;
    const double duration_s =
        static_cast<double>(last_done - reqs.front().due_ns) / 1e9;
    StepResult res{Json{}, quantileMs(lag_ms, 0.99), mismatched};
    res.json.num("rate", rate)
        .num("requests", static_cast<double>(count))
        .num("ok", static_cast<double>(ok))
        .num("errors", static_cast<double>(errors))
        .str("first_error", first_err)
        .num("mismatched", static_cast<double>(mismatched))
        .num("reads", static_cast<double>(reads))
        .num("duration_s", duration_s)
        .num("achieved_rps", static_cast<double>(ok) / duration_s)
        .num("reads_per_s", static_cast<double>(reads) / duration_s)
        .num("lat_p50_ms", quantileMs(lat, 0.50))
        .num("lat_p99_ms", quantileMs(lat, 0.99))
        .num("service_p50_ms", quantileMs(service, 0.50))
        .num("service_mean_ms", mean(service))
        .num("lag_p50_ms", quantileMs(lag_ms, 0.50))
        .num("lag_p99_ms", res.lag_p99_ms)
        .num("backlog_end", static_cast<double>(backlog_end))
        .raw("lat_ms", list(lat))
        .raw("stats_before", stats_before)
        .raw("stats_after", stats_after);
    return res;
  }

 private:
  /// Parse one complete reply off `c.inbuf` into its request; false if
  /// the buffer does not hold a whole reply yet.
  bool takeReply(Conn& c, std::vector<Request>& reqs) {
    const std::size_t nl = c.inbuf.find('\n');
    if (nl == std::string::npos) return false;
    gx::server::ResponseHeader h;
    const gx::common::Status st = gx::server::parseResponseHeader(
        std::string_view(c.inbuf).substr(0, nl), h);
    if (!st.ok()) throw std::runtime_error("bad reply header: " + st.message());
    const std::size_t body = h.ok ? h.bytes : 0;
    if (c.inbuf.size() < nl + 1 + body) return false;
    const std::size_t idx =
        h.id.size() > 1 ? std::stoull(h.id.substr(1)) - request_base_ : reqs.size();
    const auto pos = std::find(c.inflight.begin(), c.inflight.end(), idx);
    if (pos == c.inflight.end()) {
      throw std::runtime_error("reply for unknown id " + h.id);
    }
    Request& r = reqs[*pos];
    c.inflight.erase(pos);
    r.done_ns = nowNs();
    r.ok = h.ok;
    r.service_us = h.usec;
    if (h.ok) {
      r.mismatch = std::string_view(c.inbuf).substr(nl + 1, body) != r.expected;
    } else {
      r.err_reason = h.reason.empty() ? "error" : h.reason;
    }
    c.inbuf.erase(0, nl + 1 + body);
    return true;
  }

  const Args& args_;
  Spans& spans_;
  std::vector<gx::io::FastxRecord> pool_;
  std::map<std::string, std::string, std::less<>> expected_;
  std::vector<Conn> conns_;
  std::mt19937_64 rng_;
  std::size_t reads_min_ = 1, reads_max_ = 16;
  std::size_t next_read_ = 0;
  std::size_t request_base_ = 0;
};

}  // namespace

int runLoad(const Args& args) {
  const std::string spans_path = args.str("spans", "");
  Spans spans(!spans_path.empty());
  Generator gen(args, spans);
  const int root = spans.begin("server.load", -1, 0);
  std::string steps_json = "[";
  std::size_t mismatched = 0;
  const std::string steps = args.str("steps", "");
  const double lag_limit_ms = args.num("lag-limit-ms", 1e300);
  if (steps.empty()) {
    const auto n = static_cast<std::size_t>(args.num("requests"));
    const auto res = gen.runStep(0, 0.0, n, /*closed=*/true, root);
    steps_json += res.json.text();
    mismatched += res.mismatched;
  } else {
    std::size_t step = 0, start = 0;
    while (start < steps.size()) {
      std::size_t comma = steps.find(',', start);
      if (comma == std::string::npos) comma = steps.size();
      const std::string item = steps.substr(start, comma - start);
      const std::size_t colon = item.find(':');
      if (colon == std::string::npos) throw std::invalid_argument("--steps RATE:COUNT,...");
      // A step on which the generator itself ran late is invalid; it is
      // rerun (at most twice) rather than reported as a latency result.
      for (int attempt = 0;; ++attempt) {
        auto res = gen.runStep(step, std::stod(item.substr(0, colon)),
                               std::stoul(item.substr(colon + 1)),
                               /*closed=*/false, root);
        mismatched += res.mismatched;
        if (res.lag_p99_ms <= lag_limit_ms || attempt == 2) {
          res.json.num("attempt", attempt);
          steps_json += (step == 0 ? "" : ",") + res.json.text();
          break;
        }
      }
      ++step;
      start = comma + 1;
    }
  }
  spans.end(root);
  steps_json += "]";
  Json out;
  out.raw("steps", steps_json);
  if (!writeText(args.str("out"), out.text() + "\n")) {
    throw std::runtime_error("cannot write " + args.str("out"));
  }
  if (!spans_path.empty() && !spans.write(spans_path)) {
    throw std::runtime_error("cannot write " + spans_path);
  }
  return mismatched == 0 ? 0 : 1;
}

}  // namespace perfbench
