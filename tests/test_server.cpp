// Server layer: wire protocol round-trips, the latency histogram, the
// conn-site fault grammar, and the resident mapping server end to end —
// concurrent-client PAF byte-identity against the batch pipeline,
// deadline and queue-full shedding, per-connection isolation under
// malformed headers / torn frames / stalled readers, graceful drain
// with zero leaked sessions, and the close/stall/torn fault matrix.

#include <gtest/gtest.h>

#include <csignal>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "genasmx/common/error.hpp"
#include "genasmx/engine/engine.hpp"
#include "genasmx/engine/registry.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/io/fault.hpp"
#include "genasmx/io/paf.hpp"
#include "genasmx/mapper/index.hpp"
#include "genasmx/pipeline/pipeline.hpp"
#include "genasmx/readsim/genome.hpp"
#include "genasmx/readsim/read_simulator.hpp"
#include "genasmx/refmodel/reference.hpp"
#include "genasmx/server/client.hpp"
#include "genasmx/server/histogram.hpp"
#include "genasmx/server/protocol.hpp"
#include "genasmx/server/server.hpp"
#include "genasmx/server/session.hpp"
#include "genasmx/util/thread_pool.hpp"

#ifdef __GLIBCXX__
#include <ext/stdio_filebuf.h>
#endif

namespace gx::server {
namespace {

using common::ErrorCode;

// ------------------------------------------------------------ fixture

/// One simulated genome + index + read set shared by every server test
/// (index builds are the expensive part; the contract under test is
/// identical for any input).
struct TestWorld {
  std::string genome;
  refmodel::Reference ref;
  mapper::MinimizerIndex index;
  std::vector<io::FastxRecord> reads;
  std::vector<bool> reverse_strand;  ///< simulation truth, per read

  [[nodiscard]] mapper::IndexView view() const { return index.view(ref); }
};

TestWorld& world() {
  static TestWorld* w = [] {
    auto* t = new TestWorld;
    readsim::GenomeConfig g;
    g.length = 120'000;
    g.seed = 17;
    g.repeat_fraction = 0.05;
    t->genome = readsim::generateGenome(g);
    t->ref = refmodel::Reference("ref", std::string(t->genome));
    t->index.build(t->ref, 15, 10, 64);
    auto rcfg = readsim::ReadSimConfig::pacbioClr(96, 700);
    rcfg.seed = 23;
    for (const auto& r : readsim::simulateReads(t->genome, rcfg)) {
      io::FastxRecord rec;
      rec.name = r.name;
      rec.seq = r.seq;
      rec.qual.assign(r.seq.size(), 'I');
      t->reads.push_back(std::move(rec));
      t->reverse_strand.push_back(r.reverse_strand);
    }
    return t;
  }();
  return *w;
}

std::string toFastq(const io::FastxRecord& rec) {
  std::string out = "@" + rec.name + "\n" + rec.seq + "\n+\n" + rec.qual +
                    "\n";
  return out;
}

std::string toFastq(const std::vector<io::FastxRecord>& recs) {
  std::string out;
  for (const auto& r : recs) out += toFastq(r);
  return out;
}

/// The batch-tool ground truth: map `reads` through a run-to-completion
/// pipeline over the same index and serialize exactly as the server does.
std::string expectedPaf(const std::vector<io::FastxRecord>& reads,
                        pipeline::PipelineConfig cfg = {}) {
  pipeline::MappingPipeline pipe(world().view(), std::move(cfg));
  std::string out;
  for (const auto& rec : pipe.mapBatch(reads)) {
    out += io::toPafLine(rec);
    out += '\n';
  }
  return out;
}

std::vector<io::FastxRecord> slice(std::size_t begin, std::size_t end) {
  const auto& all = world().reads;
  end = std::min(end, all.size());
  return {all.begin() + static_cast<std::ptrdiff_t>(begin),
          all.begin() + static_cast<std::ptrdiff_t>(end)};
}

/// Owns a MapServer on a unique unix socket plus its serve() thread.
struct ServerHandle {
  std::string path;
  std::unique_ptr<MapServer> server;
  std::thread thread;

  explicit ServerHandle(ServerConfig cfg) {
    static std::atomic<int> counter{0};
    path = "/tmp/gx_test_srv_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
    cfg.unix_path = path;
    server = std::make_unique<MapServer>(world().view(), cfg);
    server->start();  // listener bound: clients may connect immediately
    thread = std::thread([this] { server->serve(); });
  }

  ~ServerHandle() {
    if (thread.joinable()) stop();
  }

  /// Drain, join, and assert the no-leak invariant every test inherits.
  ServerStats stop() {
    server->requestDrain();
    thread.join();
    const ServerStats stats = server->statsSnapshot();
    EXPECT_EQ(stats.connections_accepted, stats.connections_closed)
        << "leaked sessions";
    return stats;
  }

  [[nodiscard]] MapClient client() const {
    MapClient c;
    const common::Status st = c.connectUnix(path);
    EXPECT_TRUE(st.ok()) << st.message();
    return c;
  }
};

// ----------------------------------------------------------- protocol

TEST(Protocol, MapHeaderRoundTrip) {
  RequestHeader h;
  h.kind = RequestKind::kMap;
  h.id = "req-7";
  h.bytes = 1234;
  h.deadline_ms = 250;
  const std::string line = formatRequestHeader(h);
  EXPECT_EQ(line, "MAP id=req-7 bytes=1234 deadline_ms=250\n");

  RequestHeader back;
  const auto st =
      parseRequestHeader(std::string_view(line).substr(0, line.size() - 1),
                         back);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(back.kind, RequestKind::kMap);
  EXPECT_EQ(back.id, "req-7");
  EXPECT_EQ(back.bytes, 1234u);
  EXPECT_EQ(back.deadline_ms, 250u);
}

TEST(Protocol, StatsAndPingParse) {
  RequestHeader h;
  ASSERT_TRUE(parseRequestHeader("STATS", h).ok());
  EXPECT_EQ(h.kind, RequestKind::kStats);
  ASSERT_TRUE(parseRequestHeader("PING", h).ok());
  EXPECT_EQ(h.kind, RequestKind::kPing);
}

TEST(Protocol, RejectsMalformedRequests) {
  RequestHeader h;
  for (const char* bad :
       {"", "NOP id=x bytes=1", "MAP bytes=1", "MAP id=x", "MAP id=x bytes=-1",
        "MAP id=x bytes=1 deadline_ms=zz", "MAP id=x bytes=1 extra=1",
        "MAP id bytes=1", "STATS now", "MAP id= bytes=1",
        "MAP id=has\ttab bytes=1"}) {
    const auto st = parseRequestHeader(bad, h);
    EXPECT_FALSE(st.ok()) << "accepted: '" << bad << "'";
    EXPECT_EQ(st.code(), ErrorCode::kMalformedInput) << bad;
  }
}

TEST(Protocol, OkHeaderRoundTrip) {
  ResponseHeader h;
  h.ok = true;
  h.id = "r1";
  h.reads = 3;
  h.records = 4;
  h.bytes = 512;
  h.skipped = 1;
  h.failed = 2;
  h.usec = 9876;
  const std::string line = formatOkHeader(h);
  ResponseHeader back;
  const auto st = parseResponseHeader(
      std::string_view(line).substr(0, line.size() - 1), back);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.id, "r1");
  EXPECT_EQ(back.reads, 3u);
  EXPECT_EQ(back.records, 4u);
  EXPECT_EQ(back.bytes, 512u);
  EXPECT_EQ(back.skipped, 1u);
  EXPECT_EQ(back.failed, 2u);
  EXPECT_EQ(back.usec, 9876u);
}

TEST(Protocol, ErrHeaderRoundTripAndNewlineSanitized) {
  const std::string line =
      formatErrHeader("r2", ErrorCode::kResourceLimit, true, "queue-full",
                      "try\nlater");
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "embedded newline survived";
  ResponseHeader back;
  const auto st = parseResponseHeader(
      std::string_view(line).substr(0, line.size() - 1), back);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.id, "r2");
  EXPECT_EQ(back.code, ErrorCode::kResourceLimit);
  EXPECT_TRUE(back.retry);
  EXPECT_EQ(back.reason, "queue-full");
  EXPECT_EQ(back.msg, "try later");
}

// ---------------------------------------------------------- histogram

TEST(LatencyHistogramTest, SmallValuesExactAndQuantilesMonotone) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 16; ++v) h.record(v);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), 15u);
  EXPECT_EQ(h.max(), 15u);

  LatencyHistogram big;
  for (std::uint64_t v = 1; v <= 100'000; v += 97) big.record(v);
  std::uint64_t prev = 0;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const std::uint64_t cur = big.quantile(q);
    EXPECT_GE(cur, prev) << q;
    prev = cur;
  }
  // Log-bucketed: relative error stays within one sub-bucket (~1/16).
  EXPECT_NEAR(static_cast<double>(big.quantile(0.5)), 50'000.0, 50'000.0 / 8);
}

TEST(LatencyHistogramTest, MergeAddsCounts) {
  LatencyHistogram a, b;
  a.record(100);
  b.record(1'000'000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max(), 1'000'000u);
  EXPECT_GE(a.quantile(1.0), 900'000u);
}

TEST(LatencyHistogramTest, WritesTheSummaryObject) {
  LatencyHistogram h;
  std::ostringstream empty;
  h.writeJson(empty);
  EXPECT_EQ(empty.str(),
            R"({"count": 0, "p50": 0, "p90": 0, "p99": 0, "max": 0})");
  for (std::uint64_t v = 1; v <= 10; ++v) h.record(v);
  std::ostringstream out;
  h.writeJson(out);
  EXPECT_EQ(out.str(),
            R"({"count": 10, "p50": 5, "p90": 9, "p99": 9, "max": 10})");
}

// ------------------------------------------------------- fault grammar

TEST(ConnFaults, GrammarAcceptsConnSiteKinds) {
  const auto plan = io::FaultPlan::parse("close@conn:2,stall@conn:0,torn@conn:5");
  EXPECT_TRUE(plan.connClose(2));
  EXPECT_FALSE(plan.connClose(1));
  EXPECT_TRUE(plan.connStall(0));
  EXPECT_FALSE(plan.connStall(2));
  EXPECT_TRUE(plan.connTorn(5));
  EXPECT_FALSE(plan.connTorn(0));
}

TEST(ConnFaults, GrammarRejectsMismatchedSites) {
  for (const char* bad : {"close@rec:1", "stall@out:0", "torn@4096",
                          "eio@conn:1", "truncate@conn:0", "close@conn"}) {
    EXPECT_THROW((void)io::FaultPlan::parse(bad), common::Error) << bad;
  }
}

// ------------------------------------------------- pipeline foundation

TEST(Cancellation, ExpiredDeadlineCancelsAtStageBoundary) {
  pipeline::MappingPipeline pipe(world().view(), pipeline::PipelineConfig{});
  pipeline::Cancellation cancel;
  cancel.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  try {
    (void)pipe.mapBatch(world().reads, cancel, nullptr);
    FAIL() << "expired deadline did not cancel";
  } catch (const common::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceLimit);
  }
}

TEST(BatchOutputMap, CountsPartitionTheRecordVector) {
  pipeline::MappingPipeline pipe(world().view(), pipeline::PipelineConfig{});
  pipeline::BatchOutputMap outmap;
  const auto records =
      pipe.mapBatch(world().reads, pipeline::Cancellation{}, &outmap);
  ASSERT_EQ(outmap.records_per_read.size(), world().reads.size());
  ASSERT_EQ(outmap.read_failed.size(), world().reads.size());
  std::size_t total = 0;
  for (const auto n : outmap.records_per_read) total += n;
  EXPECT_EQ(total, records.size());
}

TEST(ThreadPoolGroups, ConcurrentParallelForCallsAreIsolated) {
  util::ThreadPool pool(4);
  std::atomic<std::uint64_t> sum_a{0}, sum_b{0};
  std::thread ta([&] {
    for (int round = 0; round < 50; ++round) {
      pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          sum_a.fetch_add(i, std::memory_order_relaxed);
        }
      });
    }
  });
  std::thread tb([&] {
    for (int round = 0; round < 50; ++round) {
      pool.parallel_for(2000, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          sum_b.fetch_add(i, std::memory_order_relaxed);
        }
      });
    }
  });
  ta.join();
  tb.join();
  EXPECT_EQ(sum_a.load(), 50ull * (999ull * 1000ull / 2));
  EXPECT_EQ(sum_b.load(), 50ull * (1999ull * 2000ull / 2));
}

TEST(ThreadPoolGroups, ParallelForExceptionStaysInItsGroup) {
  util::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t b, std::size_t) {
                                   if (b == 0) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  // The pool survives and the next caller is unaffected.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t b, std::size_t e) {
    ran.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(ran.load(), 8);
}

// ------------------------------------------------------------ session

TEST(MapSessionTest, GroupSplitsPerRequestAndIsolatesBadPayloads) {
  engine::AlignmentEngine engine{engine::EngineConfig{}};
  pipeline::PipelineConfig cfg;  // on_bad_record = abort
  MapSession session(world().view(), engine, cfg);

  const std::string good1 = toFastq(slice(0, 4));
  const std::string bad = "@broken\nACGT\n+\nI\n";  // qual length mismatch
  const std::string good2 = toFastq(slice(4, 9));
  std::vector<RequestResult> results;
  session.mapGroup({good1, bad, good2}, pipeline::Cancellation{}, results);
  ASSERT_EQ(results.size(), 3u);

  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[0].reads, 4u);
  EXPECT_EQ(results[0].paf, expectedPaf(slice(0, 4)));

  EXPECT_FALSE(results[1].status.ok());
  EXPECT_EQ(results[1].status.code(), ErrorCode::kMalformedInput);

  EXPECT_TRUE(results[2].status.ok());
  EXPECT_EQ(results[2].reads, 5u);
  EXPECT_EQ(results[2].paf, expectedPaf(slice(4, 9)));
}

// ---------------------------------------------------- server: identity

TEST(MapServerTest, ConcurrentClientsGetByteIdenticalPafOneWorker) {
  ServerConfig cfg;
  cfg.workers = 1;
  ServerHandle srv(cfg);

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 16;
  std::vector<std::string> expected(kClients), payload(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    const auto reads = slice(c * kPerClient, (c + 1) * kPerClient);
    payload[c] = toFastq(reads);
    expected[c] = expectedPaf(reads);
  }

  std::vector<std::thread> threads;
  std::vector<std::string> got(kClients);
  // char, not bool: vector<bool> bit-packs, and adjacent flags written
  // from different client threads would share a word (a TSan-visible
  // race in the test itself).
  std::vector<char> ok(kClients, 0);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      MapClient client = srv.client();
      ResponseHeader reply;
      const auto st = client.map("id" + std::to_string(c), payload[c], 0,
                                 reply, got[c]);
      ok[c] = st.ok() && reply.ok && reply.reads == kPerClient;
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(ok[c]) << c;
    EXPECT_EQ(got[c], expected[c]) << "client " << c;
  }
  const ServerStats stats = srv.stop();
  EXPECT_EQ(stats.ok_replies, kClients);
  EXPECT_EQ(stats.latency.count(), kClients);
}

TEST(MapServerTest, ConcurrentClientsGetByteIdenticalPafFourWorkers) {
  ServerConfig cfg;
  cfg.workers = 4;
  cfg.coalesce_requests = 3;  // exercise cross-request coalescing
  ServerHandle srv(cfg);

  constexpr std::size_t kClients = 8;
  std::vector<std::string> expected(kClients), payload(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    const auto reads = slice(c * 12, (c + 1) * 12);
    payload[c] = toFastq(reads);
    expected[c] = expectedPaf(reads);
  }

  std::vector<std::thread> threads;
  std::vector<std::string> got(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      MapClient client = srv.client();
      // Two rounds per client so requests interleave with other clients'.
      for (int round = 0; round < 2; ++round) {
        ResponseHeader reply;
        std::string body;
        const auto st = client.map("x", payload[c], 0, reply, body);
        if (!st.ok() || !reply.ok) return;
        if (round == 0) got[c] = body;
        if (body != got[c]) got[c] = "<nondeterministic>";
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(got[c], expected[c]) << "client " << c;
  }
  srv.stop();
}

// ---------------------------------------------------- server: shedding

TEST(MapServerTest, DeadlineExpiryIsARetryableErrNotAHang) {
  ServerConfig cfg;
  cfg.workers = 1;
  ServerHandle srv(cfg);

  // Big enough that the deadline is long gone by the first stage
  // boundary; the reply must be an explicit retryable deadline ERR.
  std::string big;
  for (int i = 0; i < 4; ++i) big += toFastq(world().reads);
  MapClient client = srv.client();
  ResponseHeader reply;
  std::string body;
  const auto st = client.map("dl", big, 1, reply, body);
  ASSERT_TRUE(st.ok()) << st.message();
  ASSERT_FALSE(reply.ok);
  EXPECT_EQ(reply.reason, "deadline");
  EXPECT_TRUE(reply.retry);
  EXPECT_EQ(reply.code, ErrorCode::kResourceLimit);

  // The same connection keeps working afterwards.
  const auto again = client.map("ok", toFastq(slice(0, 3)), 0, reply, body);
  ASSERT_TRUE(again.ok()) << again.message();
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(body, expectedPaf(slice(0, 3)));

  const ServerStats stats = srv.stop();
  EXPECT_GE(stats.shed_deadline, 1u);
}

TEST(MapServerTest, FullQueueShedsWithExplicitRetryReply) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_queue = 1;
  cfg.coalesce_requests = 1;
  cfg.pipeline.engine.threads = 1;  // slow the worker down deterministically
  ServerHandle srv(cfg);

  // Big enough to keep the single worker busy well past the shed probe
  // (~0.75 s of mapping on a 4-core AVX-512 host; slower hosts and
  // sanitizer builds only widen the margin).
  std::string big;
  for (int i = 0; i < 128; ++i) big += toFastq(world().reads);

  // Poll the server's own accounting instead of sleeping a fixed time, so
  // a slow (e.g. TSan) host cannot reorder the three requests.
  const auto waitFor = [&](const auto& ready) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!ready(srv.server->statsSnapshot())) {
      ASSERT_LT(std::chrono::steady_clock::now(), give_up);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  std::atomic<bool> a_ok{false};
  std::thread ta([&] {
    MapClient client = srv.client();
    ResponseHeader reply;
    std::string body;
    const auto st = client.map("big", big, 0, reply, body);
    a_ok = st.ok() && reply.ok;
  });
  // Wait until the worker has picked up the big request, then park one
  // request in the queue and overflow it with a third.
  waitFor([](const ServerStats& s) { return s.dispatched == 1; });
  std::atomic<bool> b_sent{false};
  std::thread tb([&] {
    MapClient client = srv.client();
    ResponseHeader reply;
    std::string body;
    b_sent = true;
    (void)client.map("queued", toFastq(slice(0, 2)), 0, reply, body);
  });
  waitFor([](const ServerStats& s) { return s.queue_depth == 1; });
  ASSERT_TRUE(b_sent.load());

  MapClient shed_client = srv.client();
  ResponseHeader reply;
  std::string body;
  const auto st = shed_client.map("shed", toFastq(slice(2, 4)), 0, reply,
                                  body);
  ta.join();
  tb.join();
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_TRUE(a_ok.load());
  ASSERT_FALSE(reply.ok) << "queue-full request was admitted";
  EXPECT_EQ(reply.reason, "queue-full");
  EXPECT_TRUE(reply.retry);

  const ServerStats stats = srv.stop();
  EXPECT_GE(stats.shed_queue_full, 1u);
}

// --------------------------------------------------- server: isolation

TEST(MapServerTest, MalformedHeaderKillsOnlyItsConnection) {
  ServerHandle srv(ServerConfig{});
  MapClient bad = srv.client();
  ASSERT_TRUE(bad.sendRaw("BOGUS gibberish\n").ok());
  ResponseHeader reply;
  std::string body;
  ASSERT_TRUE(bad.readReply(reply, body).ok());
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.reason, "bad-header");
  EXPECT_FALSE(reply.retry);
  EXPECT_EQ(reply.code, ErrorCode::kMalformedInput);

  MapClient good = srv.client();
  const auto st = good.map("after", toFastq(slice(0, 2)), 0, reply, body);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(body, expectedPaf(slice(0, 2)));

  const ServerStats stats = srv.stop();
  EXPECT_EQ(stats.malformed, 1u);
}

TEST(MapServerTest, TornFrameDisconnectLeavesServerServing) {
  ServerHandle srv(ServerConfig{});
  {
    MapClient torn = srv.client();
    const std::string payload = toFastq(slice(0, 4));
    torn.abortMidFrame("torn", payload.size(),
                       std::string_view(payload).substr(0, 10));
  }
  // The server must absorb the torn frame and keep serving.
  MapClient good = srv.client();
  ResponseHeader reply;
  std::string body;
  const auto st = good.map("after", toFastq(slice(0, 2)), 0, reply, body);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(body, expectedPaf(slice(0, 2)));

  const ServerStats stats = srv.stop();
  EXPECT_EQ(stats.torn_frames, 1u);
}

TEST(MapServerTest, OversizedRequestRejectedWithoutBuffering) {
  ServerConfig cfg;
  cfg.max_request_bytes = 64;
  ServerHandle srv(cfg);
  MapClient client = srv.client();
  ResponseHeader reply;
  std::string body;
  const auto st = client.map("huge", toFastq(slice(0, 4)), 0, reply, body);
  ASSERT_TRUE(st.ok()) << st.message();
  ASSERT_FALSE(reply.ok);
  EXPECT_EQ(reply.reason, "too-large");
  EXPECT_FALSE(reply.retry);
  srv.stop();
}

TEST(MapServerTest, AbortPolicyFailsBadPayloadOnly) {
  ServerConfig cfg;  // pipeline default on_bad_record = abort
  ServerHandle srv(cfg);

  MapClient bad = srv.client();
  ResponseHeader reply;
  std::string body;
  auto st = bad.map("bad", "@r\nACGT\n+\nI\n", 0, reply, body);
  ASSERT_TRUE(st.ok()) << st.message();
  ASSERT_FALSE(reply.ok);
  EXPECT_EQ(reply.reason, "bad-payload");
  EXPECT_EQ(reply.code, ErrorCode::kMalformedInput);
  EXPECT_FALSE(reply.retry);

  MapClient good = srv.client();
  st = good.map("good", toFastq(slice(0, 2)), 0, reply, body);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(body, expectedPaf(slice(0, 2)));
  srv.stop();
}

TEST(MapServerTest, SkipPolicyDegradesMalformedRecordsPerRequest) {
  ServerConfig cfg;
  cfg.pipeline.on_bad_record = io::OnBadRecord::kSkip;  // the mapd default
  ServerHandle srv(cfg);

  const std::string payload = toFastq(slice(0, 2)) + "@broken\nACGT\n+\nI\n" +
                              toFastq(slice(2, 4));
  MapClient client = srv.client();
  ResponseHeader reply;
  std::string body;
  const auto st = client.map("skip", payload, 0, reply, body);
  ASSERT_TRUE(st.ok()) << st.message();
  ASSERT_TRUE(reply.ok) << reply.msg;
  EXPECT_EQ(reply.reads, 4u);
  EXPECT_EQ(reply.skipped, 1u);
  EXPECT_EQ(body, expectedPaf(slice(0, 4)));
  srv.stop();
}

// ---------------------------------------------- server: fault matrix

TEST(MapServerFaults, CloseFaultDropsConnectionServerKeepsServing) {
  const io::ScopedFaultInjection guard(io::FaultPlan::parse("close@conn:0"));
  ServerHandle srv(ServerConfig{});

  MapClient victim = srv.client();  // accept order 0
  ResponseHeader reply;
  std::string body;
  const auto st = victim.map("v", toFastq(slice(0, 2)), 0, reply, body);
  EXPECT_FALSE(st.ok()) << "injected close still produced a reply";

  MapClient next = srv.client();  // accept order 1: unaffected
  const auto st2 = next.map("n", toFastq(slice(0, 2)), 0, reply, body);
  ASSERT_TRUE(st2.ok()) << st2.message();
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(body, expectedPaf(slice(0, 2)));

  const ServerStats stats = srv.stop();
  EXPECT_EQ(stats.faults_injected, 1u);
}

TEST(MapServerFaults, TornFaultCountsAndIsolates) {
  const io::ScopedFaultInjection guard(io::FaultPlan::parse("torn@conn:0"));
  ServerHandle srv(ServerConfig{});

  MapClient victim = srv.client();
  ResponseHeader reply;
  std::string body;
  const auto st = victim.map("v", toFastq(slice(0, 4)), 0, reply, body);
  EXPECT_FALSE(st.ok());

  MapClient next = srv.client();
  const auto st2 = next.map("n", toFastq(slice(0, 2)), 0, reply, body);
  ASSERT_TRUE(st2.ok()) << st2.message();
  EXPECT_TRUE(reply.ok);

  const ServerStats stats = srv.stop();
  EXPECT_EQ(stats.torn_frames, 1u);
  EXPECT_EQ(stats.faults_injected, 1u);
}

TEST(MapServerFaults, StallFaultShedsSlowClientWithinTimeout) {
  const io::ScopedFaultInjection guard(io::FaultPlan::parse("stall@conn:0"));
  ServerConfig cfg;
  cfg.write_timeout_ms = 100;
  ServerHandle srv(cfg);

  MapClient victim = srv.client();
  ResponseHeader reply;
  std::string body;
  const auto t0 = std::chrono::steady_clock::now();
  const auto st = victim.map("v", toFastq(slice(0, 2)), 0, reply, body);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(st.ok()) << "stalled connection still got a reply";
  // Shed in about one write timeout — a mapping worker was not wedged.
  EXPECT_LT(waited, std::chrono::seconds(5));

  MapClient next = srv.client();
  const auto st2 = next.map("n", toFastq(slice(0, 2)), 0, reply, body);
  ASSERT_TRUE(st2.ok()) << st2.message();
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(body, expectedPaf(slice(0, 2)));

  const ServerStats stats = srv.stop();
  EXPECT_EQ(stats.write_timeouts, 1u);
  EXPECT_EQ(stats.faults_injected, 1u);
}

// -------------------------------------------------------- server: drain

TEST(MapServerTest, DrainFinishesInFlightRequests) {
  ServerConfig cfg;
  cfg.workers = 1;
  ServerHandle srv(cfg);

  std::string big;
  for (int i = 0; i < 3; ++i) big += toFastq(world().reads);
  std::atomic<bool> got_reply{false};
  std::thread client_thread([&] {
    MapClient client = srv.client();
    ResponseHeader reply;
    std::string body;
    const auto st = client.map("inflight", big, 0, reply, body);
    got_reply = st.ok() && reply.ok && reply.reads == world().reads.size() * 3;
  });
  // Give the request time to be admitted, then drain mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  const ServerStats stats = srv.stop();  // requestDrain + join + no-leak check
  client_thread.join();
  EXPECT_TRUE(got_reply.load()) << "drain dropped an in-flight request";
  EXPECT_EQ(stats.ok_replies, 1u);

  // Draining means not accepting: a fresh connection must be refused.
  MapClient late;
  EXPECT_FALSE(late.connectUnix(srv.path).ok());
}

TEST(MapServerTest, StatsVerbReturnsJson) {
  ServerHandle srv(ServerConfig{});
  MapClient client = srv.client();
  ASSERT_TRUE(client.ping().ok());
  ResponseHeader reply;
  std::string body;
  ASSERT_TRUE(client.map("one", toFastq(slice(0, 2)), 0, reply, body).ok());
  std::string json;
  ASSERT_TRUE(client.stats(json).ok());
  for (const char* key :
       {"\"connections\"", "\"requests\"", "\"latency_usec\"",
        "\"stage_seconds\"", "\"reads_per_sec\"", "\"workers\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing";
  }
  srv.stop();
}

// ------------------------------------- server: per-read poison (PR-8)

/// Wraps the real backend but throws on any query containing 'Z' — the
/// same deterministic poison idiom the engine fault matrix uses.
class ThrowingAligner final : public engine::Aligner {
 public:
  explicit ThrowingAligner(const engine::AlignerConfig& cfg)
      : inner_(engine::makeAligner("windowed-improved", cfg)) {}
  common::AlignmentResult align(std::string_view target,
                                std::string_view query) override {
    maybeThrow(query);
    return inner_->align(target, query);
  }
  int distance(std::string_view target, std::string_view query,
               int cap) override {
    maybeThrow(query);
    return inner_->distance(target, query, cap);
  }
  std::string_view name() const noexcept override { return "throwing-test"; }

 private:
  static void maybeThrow(std::string_view query) {
    if (query.find('Z') != std::string_view::npos) {
      throw common::Error(ErrorCode::kInternal, "injected solver failure");
    }
  }
  engine::AlignerPtr inner_;
};

TEST(MapServerFaults, PoisonReadDegradesInPlaceServerStaysUp) {
  auto& registry = engine::AlignerRegistry::instance();
  if (!registry.contains("throwing-test")) {
    registry.add("throwing-test", "fault-matrix test backend",
                 [](const engine::AlignerConfig& cfg) {
                   return std::make_unique<ThrowingAligner>(cfg);
                 });
  }
  ServerConfig cfg;
  cfg.pipeline.engine.backend = "throwing-test";
  ServerHandle srv(cfg);

  // The poison marker must survive into the aligner's query text: a
  // minus-strand read is reverse-complemented first, and complement()
  // folds any non-ACGT byte to 'A' — so poison a plus-strand read.
  std::size_t fwd = 0;
  while (fwd < world().reads.size() && world().reverse_strand[fwd]) ++fwd;
  ASSERT_LT(fwd, world().reads.size()) << "no plus-strand read simulated";
  io::FastxRecord poison;
  poison.name = "poison";
  poison.seq = world().reads[fwd].seq;
  poison.seq[poison.seq.size() / 2] = 'Z';
  poison.qual.assign(poison.seq.size(), 'I');

  const std::string payload = toFastq(slice(0, 2)) + toFastq(poison) +
                              toFastq(slice(2, 4));
  MapClient client = srv.client();
  ResponseHeader reply;
  std::string body;
  const auto st = client.map("poison", payload, 0, reply, body);
  ASSERT_TRUE(st.ok()) << st.message();
  ASSERT_TRUE(reply.ok) << "per-read failure escalated to request failure: "
                        << reply.msg;
  EXPECT_EQ(reply.reads, 5u);
  EXPECT_GE(reply.failed, 1u);

  // A clean follow-up request on the same server is unaffected.
  const auto st2 = client.map("clean", toFastq(slice(0, 2)), 0, reply, body);
  ASSERT_TRUE(st2.ok()) << st2.message();
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(body, expectedPaf(slice(0, 2), [] {
              pipeline::PipelineConfig c;
              c.engine.backend = "throwing-test";
              return c;
            }()));
  const ServerStats stats = srv.stop();
  EXPECT_GE(stats.failed_reads, 1u);
}

// ------------------------------------------------------------ sigpipe

#ifdef __GLIBCXX__
TEST(Sigpipe, ClosedPipeSurfacesAsIoFatalNotSignalDeath) {
  // Every tool main() ignores SIGPIPE (cli::ignoreSigpipe); replicate
  // that disposition, then write PAF into a pipe whose read end is gone.
  // The contract: the process survives (no SIGPIPE kill) and the writer
  // surfaces one kIoFatal error at flush/close.
  std::signal(SIGPIPE, SIG_IGN);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  {
    __gnu_cxx::stdio_filebuf<char> buf(fds[1], std::ios::out);
    std::ostream out(&buf);
    io::PafWriter writer(out, 1);  // flush every record
    io::PafRecord rec;
    rec.query_name = "q";
    rec.query_len = 4;
    rec.query_end = 4;
    rec.target_name = "t";
    rec.target_len = 4;
    rec.target_end = 4;
    bool io_fatal = false;
    try {
      for (int i = 0; i < 4096; ++i) writer.write(rec);
      writer.close();
    } catch (const common::Error& e) {
      io_fatal = e.code() == ErrorCode::kIoFatal;
    }
    EXPECT_TRUE(io_fatal) << "EPIPE did not surface as kIoFatal";
  }
  // fd already closed by the filebuf; reaching this line IS the test —
  // with the default disposition the process would have died on signal.
}
#endif

}  // namespace
}  // namespace gx::server
