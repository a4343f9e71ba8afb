// genasmx_mapd — the resident mapping server: mmap a prebuilt index
// once, then serve many concurrent clients over a Unix-domain or TCP
// (127.0.0.1) socket speaking the protocol in server/protocol.hpp
// (FASTQ in, PAF with cg:Z: CIGARs out). Replies are byte-identical to
// `genasmx_map --index=` for any worker count, client interleaving, or
// request batching — the determinism contract extends to serving.
//
//   genasmx_mapd --index <ref.gxi> --unix <path> [options]
//   genasmx_mapd --index <ref.gxi> --port 0     [options]
//
// Options (--opt VALUE and --opt=VALUE are both accepted):
//   --index FILE           prebuilt index from genasmx_index (required)
//   --unix PATH            Unix-domain listener path
//   --port N               TCP listener on 127.0.0.1:N (0 = ephemeral;
//                          the bound port is printed on stderr)
//   --workers N            mapping worker threads (default 1)
//   --threads N            engine pool threads (0=auto), shared by all
//                          workers
//   --backend NAME         alignment backend (default windowed-improved)
//   --window W --overlap O window geometry (windowed-improved)
//   --max-candidates N     candidate windows aligned per read (default 4)
//   --primary-only         suppress secondary (mapq 0) records
//   --max-queue N          bounded admission queue (default 64); beyond
//                          it requests are shed with a retryable
//                          queue-full reply
//   --coalesce-requests N  cross-request batch coalescing: at most N
//                          requests mapped as one pipeline batch
//   --coalesce-bytes N     ... and at most N payload bytes per group
//   --max-request-bytes N  reject larger MAP requests (too-large reply)
//   --write-timeout-ms N   shed a connection whose reply write blocks
//                          longer than this (slow client)
//   --on-bad-record MODE   abort | skip (default) | warn — the server
//                          default degrades malformed records per
//                          request instead of failing it
//   --stats-json FILE      write the aggregate stats JSON on exit (the
//                          same object the STATS verb returns live)
//   --no-verify            skip the index payload checksum at load
//   --fault SPEC           deterministic fault injection (testing), e.g.
//                          close@conn:2, stall@conn:1, torn@conn:0;
//                          GENASMX_FAULT env is the no-flag equivalent
//
// SIGTERM/SIGINT trigger a graceful drain: stop accepting, finish every
// in-flight request, flush --stats-json, exit 0.
//
// Exit codes: 0 clean drain, 1 runtime failure, 2 usage.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>

#include "cli.hpp"
#include "genasmx/engine/registry.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/io/fault.hpp"
#include "genasmx/mapper/index_io.hpp"
#include "genasmx/server/server.hpp"

namespace {

struct Options {
  std::string index_path;
  std::string unix_path;
  int tcp_port = -1;
  std::size_t workers = 1;
  std::size_t threads = 0;
  std::string backend = "windowed-improved";
  int window = 64;
  int overlap = 24;
  std::size_t max_candidates = 4;
  bool primary_only = false;
  std::size_t max_queue = 64;
  std::size_t coalesce_requests = 8;
  std::size_t coalesce_bytes = std::size_t{1} << 20;
  std::size_t max_request_bytes = std::size_t{64} << 20;
  std::size_t write_timeout_ms = 5000;
  std::string on_bad_record = "skip";
  std::string stats_json_path;
  bool no_verify = false;
  std::string fault;
};

bool parseArgs(int argc, char** argv, Options& opt) {
  gx::cli::Parser cli;
  cli.option("--index", opt.index_path);
  cli.option("--unix", opt.unix_path);
  cli.option("--port", opt.tcp_port);
  cli.option("--workers", opt.workers);
  cli.option("--threads", opt.threads);
  cli.option("--backend", opt.backend);
  cli.option("--window", opt.window);
  cli.option("--overlap", opt.overlap);
  cli.option("--max-candidates", opt.max_candidates);
  cli.flag("--primary-only", opt.primary_only);
  cli.option("--max-queue", opt.max_queue);
  cli.option("--coalesce-requests", opt.coalesce_requests);
  cli.option("--coalesce-bytes", opt.coalesce_bytes);
  cli.option("--max-request-bytes", opt.max_request_bytes);
  cli.option("--write-timeout-ms", opt.write_timeout_ms);
  cli.option("--on-bad-record", opt.on_bad_record);
  cli.option("--stats-json", opt.stats_json_path);
  cli.flag("--no-verify", opt.no_verify);
  cli.option("--fault", opt.fault);
  if (!cli.parse(argc, argv)) return false;
  if (opt.index_path.empty()) {
    std::fprintf(stderr, "--index is required\n");
    return false;
  }
  if (opt.unix_path.empty() && opt.tcp_port < 0) {
    std::fprintf(stderr, "need a listener: --unix PATH and/or --port N\n");
    return false;
  }
  if (opt.on_bad_record != "abort" && opt.on_bad_record != "skip" &&
      opt.on_bad_record != "warn") {
    std::fprintf(stderr,
                 "--on-bad-record must be abort, skip, or warn (got '%s')\n",
                 opt.on_bad_record.c_str());
    return false;
  }
  if (opt.workers == 0) opt.workers = 1;
  return true;
}

gx::server::MapServer* g_server = nullptr;

extern "C" void handleDrainSignal(int) {
  // Async-signal-safe: requestDrain is a single atomic store; the accept
  // loop observes it within one poll tick.
  if (g_server != nullptr) g_server->requestDrain();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gx;
  cli::ignoreSigpipe();
  Options opt;
  if (!parseArgs(argc, argv, opt)) {
    std::fprintf(
        stderr,
        "usage: genasmx_mapd --index <ref.gxi> (--unix PATH | --port N) "
        "[--workers N] [--threads N] [--backend NAME] [--window W] "
        "[--overlap O] [--max-candidates N] [--primary-only] "
        "[--max-queue N] [--coalesce-requests N] "
        "[--coalesce-bytes N] [--max-request-bytes N] "
        "[--write-timeout-ms N] [--on-bad-record abort|skip|warn] "
        "[--stats-json FILE] [--no-verify] [--fault SPEC]\n");
    return 2;
  }
  auto& registry = engine::AlignerRegistry::instance();
  if (!registry.contains(opt.backend)) {
    std::fprintf(stderr, "error: unknown backend '%s'\n", opt.backend.c_str());
    return 2;
  }

  // Fault injection sits above index loading so every subsystem —
  // including the connection-site clauses the server consults at accept
  // time — sees the plan.
  std::string fault_spec = opt.fault;
  if (fault_spec.empty()) {
    if (const char* env = std::getenv("GENASMX_FAULT")) fault_spec = env;
  }
  io::FaultPlan fault_plan;
  if (!fault_spec.empty()) {
    try {
      fault_plan = io::FaultPlan::parse(fault_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  const io::ScopedFaultInjection fault_guard(std::move(fault_plan));

  server::ServerConfig cfg;
  cfg.unix_path = opt.unix_path;
  cfg.tcp_port = opt.tcp_port;
  cfg.workers = opt.workers;
  cfg.max_queue = opt.max_queue;
  cfg.coalesce_requests = opt.coalesce_requests;
  cfg.coalesce_bytes = opt.coalesce_bytes;
  cfg.max_request_bytes = opt.max_request_bytes;
  cfg.write_timeout_ms = static_cast<int>(opt.write_timeout_ms);
  // Pipeline defaults MUST mirror genasmx_map's: they are what make the
  // server's PAF byte-identical to the batch tool's.
  cfg.pipeline.engine.backend = opt.backend;
  cfg.pipeline.engine.threads = opt.threads;
  cfg.pipeline.engine.aligner.window.window = opt.window;
  cfg.pipeline.engine.aligner.window.overlap = opt.overlap;
  cfg.pipeline.engine.aligner.ksw.band = 751;
  cfg.pipeline.max_candidates = opt.max_candidates;
  cfg.pipeline.emit_secondary = !opt.primary_only;
  cfg.pipeline.on_bad_record = opt.on_bad_record == "abort"
                                   ? io::OnBadRecord::kAbort
                               : opt.on_bad_record == "warn"
                                   ? io::OnBadRecord::kWarn
                                   : io::OnBadRecord::kSkip;

  try {
    mapper::MappedIndex::Options mopt;
    mopt.verify_payload = !opt.no_verify;
    const mapper::MappedIndex mapped(opt.index_path, mopt);
    server::MapServer server(mapped.view(), cfg);
    server.start();
    std::fprintf(stderr, "[mapd] index %s mapped (%zu bytes)\n",
                 opt.index_path.c_str(), mapped.fileBytes());
    if (!opt.unix_path.empty()) {
      std::fprintf(stderr, "[mapd] listening unix=%s\n",
                   opt.unix_path.c_str());
    }
    if (server.tcpPort() >= 0) {
      std::fprintf(stderr, "[mapd] listening tcp=127.0.0.1:%d\n",
                   server.tcpPort());
    }
    std::fprintf(stderr,
                 "[mapd] %zu workers, max_queue=%zu, coalesce=%zu req / %zu "
                 "bytes (SIGTERM drains)\n",
                 cfg.workers, cfg.max_queue, cfg.coalesce_requests,
                 cfg.coalesce_bytes);

    g_server = &server;
    std::signal(SIGTERM, handleDrainSignal);
    std::signal(SIGINT, handleDrainSignal);

    server.serve();  // returns after a graceful drain

    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    g_server = nullptr;

    const std::string json = server.statsJson();
    if (!opt.stats_json_path.empty()) {
      std::ofstream out(opt.stats_json_path);
      out << json;
      out.close();
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     opt.stats_json_path.c_str());
        return 1;
      }
    }
    const server::ServerStats stats = server.statsSnapshot();
    std::fprintf(stderr,
                 "[mapd] drained: %llu connections, %llu requests (%llu ok, "
                 "%llu shed), %llu reads -> %llu records\n",
                 static_cast<unsigned long long>(stats.connections_accepted),
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.ok_replies),
                 static_cast<unsigned long long>(stats.shed_queue_full +
                                                 stats.shed_deadline),
                 static_cast<unsigned long long>(stats.reads),
                 static_cast<unsigned long long>(stats.records));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
