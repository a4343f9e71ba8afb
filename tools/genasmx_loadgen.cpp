// genasmx_loadgen — seeded concurrent load generator for genasmx_mapd.
// Splits an input FASTA/FASTQ round-robin across N client connections
// (connection c gets records c, c+N, c+2N, ... in order), chops each
// share into requests of seeded-random size, and drives them
// request/reply with client-side latency histograms. The same seed
// replays the same request stream byte for byte, so benchmark numbers
// and fault reproductions are deterministic.
//
//   genasmx_loadgen (--unix PATH | --port N) --input reads.fq [options]
//
// Options:
//   --connections N     concurrent client connections (default 8)
//   --reads-min N       request size bounds, in reads (default 1..16,
//   --reads-max N       seeded-uniform per request)
//   --deadline-ms D     per-request deadline (0 = none)
//   --seed S            RNG seed (default 42)
//   --retries N         max resends after a retryable shed (default 3,
//                       linear backoff)
//   --abort-prob P      before a request, with probability P send a torn
//                       frame (header promising more bytes than follow)
//                       and reconnect — client-side fault pressure
//   --paf-out PREFIX    write PREFIX.<c>.paf per connection: OK bodies
//                       concatenated in send order (byte-identity checks)
//   --json FILE         write the run summary (latency quantiles,
//                       throughput, shed counters) as one JSON object
//
// Exit codes: 0 all requests eventually succeeded, 1 any request failed
// terminally (non-retryable error, retries exhausted, wire failure), 2
// usage.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/server/client.hpp"
#include "genasmx/server/histogram.hpp"

namespace {

struct Options {
  std::string unix_path;
  int tcp_port = -1;
  std::string input_path;
  std::size_t connections = 8;
  std::size_t reads_min = 1;
  std::size_t reads_max = 16;
  std::size_t deadline_ms = 0;
  std::size_t seed = 42;
  std::size_t retries = 3;
  double abort_prob = 0.0;
  std::string paf_out_prefix;
  std::string json_path;
};

bool parseArgs(int argc, char** argv, Options& opt) {
  gx::cli::Parser cli;
  cli.option("--unix", opt.unix_path);
  cli.option("--port", opt.tcp_port);
  cli.option("--input", opt.input_path);
  cli.option("--connections", opt.connections);
  cli.option("--reads-min", opt.reads_min);
  cli.option("--reads-max", opt.reads_max);
  cli.option("--deadline-ms", opt.deadline_ms);
  cli.option("--seed", opt.seed);
  cli.option("--retries", opt.retries);
  cli.option("--abort-prob", opt.abort_prob);
  cli.option("--paf-out", opt.paf_out_prefix);
  cli.option("--json", opt.json_path);
  if (!cli.parse(argc, argv)) return false;
  if (opt.input_path.empty()) {
    std::fprintf(stderr, "--input is required\n");
    return false;
  }
  if (opt.unix_path.empty() && opt.tcp_port < 0) {
    std::fprintf(stderr, "need a target: --unix PATH or --port N\n");
    return false;
  }
  if (opt.connections == 0) opt.connections = 1;
  if (opt.reads_min == 0) opt.reads_min = 1;
  if (opt.reads_max < opt.reads_min) opt.reads_max = opt.reads_min;
  if (opt.abort_prob < 0.0 || opt.abort_prob > 1.0) {
    std::fprintf(stderr, "--abort-prob must be in [0, 1]\n");
    return false;
  }
  return true;
}

/// Serialize a record back to FASTQ/FASTA text (qual present selects @).
std::string toFastx(const gx::io::FastxRecord& rec) {
  std::string out;
  out += rec.qual.empty() ? '>' : '@';
  out += rec.name;
  if (!rec.comment.empty()) {
    out += ' ';
    out += rec.comment;
  }
  out += '\n';
  out += rec.seq;
  out += '\n';
  if (!rec.qual.empty()) {
    out += "+\n";
    out += rec.qual;
    out += '\n';
  }
  return out;
}

struct ConnStats {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed_queue_full = 0;  ///< retryable sheds absorbed
  std::uint64_t shed_deadline = 0;
  std::uint64_t failed = 0;  ///< terminal failures (exit 1)
  std::uint64_t torn_sent = 0;
  std::uint64_t reads = 0;
  std::uint64_t records = 0;
  gx::server::LatencyHistogram latency;  ///< client-side, usec
  std::string paf;  ///< OK bodies in send order (--paf-out)
};

}  // namespace

int main(int argc, char** argv) {
  using namespace gx;
  cli::ignoreSigpipe();
  Options opt;
  if (!parseArgs(argc, argv, opt)) {
    std::fprintf(
        stderr,
        "usage: genasmx_loadgen (--unix PATH | --port N) --input reads.fq "
        "[--connections N] [--reads-min N] [--reads-max N] [--deadline-ms D] "
        "[--seed S] [--retries N] [--abort-prob P] [--paf-out PREFIX] "
        "[--json FILE]\n");
    return 2;
  }

  std::vector<io::FastxRecord> records;
  try {
    records = io::readFastxFile(opt.input_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (records.empty()) {
    std::fprintf(stderr, "error: no records in %s\n", opt.input_path.c_str());
    return 1;
  }

  // Round-robin split, then pre-render each connection's request stream
  // so the timed loop does nothing but socket I/O.
  const std::size_t conns = std::min(opt.connections, records.size());
  std::vector<std::vector<std::string>> requests(conns);  // FASTQ payloads
  std::vector<std::vector<std::uint64_t>> request_reads(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    std::mt19937_64 rng(opt.seed * 1000003ULL + c);
    std::uniform_int_distribution<std::size_t> size_dist(opt.reads_min,
                                                         opt.reads_max);
    std::string payload;
    std::uint64_t in_payload = 0;
    std::size_t target = size_dist(rng);
    for (std::size_t i = c; i < records.size(); i += conns) {
      payload += toFastx(records[i]);
      if (++in_payload >= target) {
        requests[c].push_back(std::move(payload));
        request_reads[c].push_back(in_payload);
        payload.clear();
        in_payload = 0;
        target = size_dist(rng);
      }
    }
    if (in_payload > 0) {
      requests[c].push_back(std::move(payload));
      request_reads[c].push_back(in_payload);
    }
  }

  std::vector<ConnStats> stats(conns);
  std::atomic<bool> any_failed{false};
  const auto connect = [&](server::MapClient& client) {
    return opt.unix_path.empty() ? client.connectTcp(opt.tcp_port)
                                 : client.connectUnix(opt.unix_path);
  };

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ConnStats& cs = stats[c];
      std::mt19937_64 fault_rng(opt.seed * 7777777ULL + c);
      std::uniform_real_distribution<double> coin(0.0, 1.0);
      server::MapClient client;
      common::Status st = connect(client);
      if (!st.ok()) {
        std::fprintf(stderr, "conn %zu: %s\n", c, st.message().c_str());
        any_failed.store(true);
        return;
      }
      for (std::size_t r = 0; r < requests[c].size(); ++r) {
        if (opt.abort_prob > 0.0 && coin(fault_rng) < opt.abort_prob) {
          // Torn frame: promise the payload, send half, vanish. The
          // server must absorb it; we reconnect and continue.
          const std::string& p = requests[c][r];
          std::string torn_id = "torn-";
          torn_id += std::to_string(c);
          client.abortMidFrame(torn_id, p.size(),
                               std::string_view(p).substr(0, p.size() / 2));
          ++cs.torn_sent;
          st = connect(client);
          if (!st.ok()) {
            std::fprintf(stderr, "conn %zu reconnect: %s\n", c,
                         st.message().c_str());
            any_failed.store(true);
            return;
          }
        }
        std::string id = "c";
        id += std::to_string(c);
        id += "-r";
        id += std::to_string(r);
        bool done = false;
        for (std::size_t attempt = 0; attempt <= opt.retries && !done;
             ++attempt) {
          if (attempt > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10 * attempt));
          }
          server::ResponseHeader reply;
          std::string body;
          ++cs.requests;
          const auto t0 = std::chrono::steady_clock::now();
          st = client.map(id, requests[c][r], opt.deadline_ms, reply, body);
          const auto usec =
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0);
          if (!st.ok()) {
            // Wire-level failure (server shed this connection?):
            // reconnect once per attempt, then retry the request.
            client.close();
            const common::Status rc = connect(client);
            if (!rc.ok()) {
              std::fprintf(stderr, "conn %zu: %s\n", c, st.message().c_str());
              any_failed.store(true);
              return;
            }
            continue;
          }
          if (reply.ok) {
            ++cs.ok;
            cs.reads += reply.reads;
            cs.records += reply.records;
            cs.latency.record(static_cast<std::uint64_t>(usec.count()));
            if (!opt.paf_out_prefix.empty()) cs.paf += body;
            done = true;
          } else if (reply.retry) {
            if (reply.reason == "deadline") {
              ++cs.shed_deadline;
            } else {
              ++cs.shed_queue_full;
            }
          } else {
            std::fprintf(stderr, "conn %zu request %s: %s\n", c, id.c_str(),
                         reply.msg.c_str());
            ++cs.failed;
            any_failed.store(true);
            done = true;
          }
        }
        if (!done && cs.failed == 0) {
          ++cs.failed;  // retries exhausted
          any_failed.store(true);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  ConnStats total;
  for (const ConnStats& cs : stats) {
    total.requests += cs.requests;
    total.ok += cs.ok;
    total.shed_queue_full += cs.shed_queue_full;
    total.shed_deadline += cs.shed_deadline;
    total.failed += cs.failed;
    total.torn_sent += cs.torn_sent;
    total.reads += cs.reads;
    total.records += cs.records;
    total.latency.merge(cs.latency);
  }

  if (!opt.paf_out_prefix.empty()) {
    for (std::size_t c = 0; c < conns; ++c) {
      const std::string path =
          opt.paf_out_prefix + "." + std::to_string(c) + ".paf";
      std::ofstream out(path);
      out << stats[c].paf;
      out.close();
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return 1;
      }
    }
  }

  std::fprintf(stderr,
               "[loadgen] %zu conns, %llu requests (%llu ok, %llu shed, "
               "%llu failed), %llu reads -> %llu records in %.2fs "
               "(%.1f reads/s)\n",
               conns, static_cast<unsigned long long>(total.requests),
               static_cast<unsigned long long>(total.ok),
               static_cast<unsigned long long>(total.shed_queue_full +
                                               total.shed_deadline),
               static_cast<unsigned long long>(total.failed),
               static_cast<unsigned long long>(total.reads),
               static_cast<unsigned long long>(total.records), wall_s,
               wall_s > 0 ? static_cast<double>(total.reads) / wall_s : 0.0);
  std::fprintf(stderr,
               "[loadgen] latency usec: p50=%llu p90=%llu p99=%llu max=%llu\n",
               static_cast<unsigned long long>(total.latency.quantile(0.5)),
               static_cast<unsigned long long>(total.latency.quantile(0.9)),
               static_cast<unsigned long long>(total.latency.quantile(0.99)),
               static_cast<unsigned long long>(total.latency.max()));

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    out << "{\n";
    out << "  \"connections\": " << conns << ",\n";
    out << "  \"seed\": " << opt.seed << ",\n";
    out << "  \"deadline_ms\": " << opt.deadline_ms << ",\n";
    out << "  \"requests\": {\"sent\": " << total.requests
        << ", \"ok\": " << total.ok
        << ", \"shed_queue_full\": " << total.shed_queue_full
        << ", \"shed_deadline\": " << total.shed_deadline
        << ", \"failed\": " << total.failed
        << ", \"torn_sent\": " << total.torn_sent << "},\n";
    out << "  \"reads\": " << total.reads << ",\n";
    out << "  \"records\": " << total.records << ",\n";
    out << "  \"latency_usec\": ";
    total.latency.writeJson(out);
    out << ",\n";
    out << "  \"wall_seconds\": " << wall_s << ",\n";
    out << "  \"reads_per_sec\": "
        << (wall_s > 0 ? static_cast<double>(total.reads) / wall_s : 0.0)
        << ",\n";
    out << "  \"requests_per_sec\": "
        << (wall_s > 0 ? static_cast<double>(total.ok) / wall_s : 0.0)
        << "\n}\n";
    out.close();
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", opt.json_path.c_str());
      return 1;
    }
  }
  return any_failed.load() ? 1 : 0;
}
