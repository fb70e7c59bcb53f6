/// Tests for the serving layer (src/serve/): the content-addressed LRU
/// result cache, `ExtractionService` admission control / deadlines /
/// caching / drain semantics, concurrent clients against one service (the
/// TSan target alongside the batch-engine stress test), the wire-format
/// pinning of `doc::ExtractionsToJson` / `doc::ErrorToJson`, an
/// end-to-end socket round-trip through `serve::Daemon`, and the telemetry
/// plane (admin commands, trace-id echo, request telemetry — DESIGN.md
/// §14).

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "datasets/generator.hpp"
#include "datasets/pretrained.hpp"
#include "doc/serialization.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"
#include "serve/content_address.hpp"
#include "serve/daemon.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace vs2 {
namespace {

/// One shared pipeline for the serving tests (pattern learning per test
/// would dominate the runtime). Immutable after construction — the same
/// contract `BatchEngine` and `ExtractionService` rely on.
const core::Vs2& SharedPipeline() {
  static const core::Vs2 vs2(
      doc::DatasetId::kD2EventPosters, datasets::PretrainedEmbedding(),
      core::DefaultConfigFor(doc::DatasetId::kD2EventPosters));
  return vs2;
}

doc::Corpus SmallD2Corpus(size_t n, uint64_t seed) {
  datasets::GeneratorConfig gc;
  gc.num_documents = n;
  gc.seed = seed;
  return datasets::GenerateD2(gc);
}

/// Byte-level fingerprint of a result via the shared wire format — two
/// results with equal fingerprints produced identical extractions,
/// geometry included.
std::string Fingerprint(const core::Vs2::DocResult& result) {
  return doc::ExtractionsToJson(result);
}

/// A deterministic manual clock: every `Now()` caller sees `now()`;
/// tests advance it explicitly.
struct ManualClock {
  std::atomic<double> seconds{0.0};
  std::function<double()> fn() {
    return [this] { return seconds.load(); };
  }
  void Advance(double by) {
    double cur = seconds.load();
    seconds.store(cur + by);
  }
};

/// A gate the service's dequeue hook blocks on until released; lets tests
/// pin a worker and build queue depth deterministically.
struct WorkerGate {
  sync::Mutex mu{"test.worker_gate"};
  sync::CondVar cv;
  bool released VS2_GUARDED_BY(mu) = false;
  std::atomic<size_t> arrivals{0};

  std::function<void()> hook() {
    return [this] {
      arrivals.fetch_add(1);
      sync::MutexLock lock(&mu);
      while (!released) cv.Wait(&mu);
    };
  }
  void Release() {
    {
      sync::MutexLock lock(&mu);
      released = true;
    }
    cv.NotifyAll();
  }
  void AwaitArrival() {
    while (arrivals.load() == 0) std::this_thread::yield();
  }
};

// ------------------------------------------------------------ ResultCache --

serve::ResultCache::Value MakeValue(uint64_t id) {
  auto result = std::make_shared<core::Vs2::DocResult>();
  result->observed.id = id;
  return result;
}

TEST(ResultCacheTest, HitMissAndLruEviction) {
  serve::ResultCache cache({/*capacity=*/2, /*ttl_seconds=*/0.0});
  EXPECT_EQ(cache.Get(1, "a", 0.0), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  cache.Put(1, "a", MakeValue(1), 0.0);
  cache.Put(2, "b", MakeValue(2), 0.0);
  ASSERT_NE(cache.Get(1, "a", 1.0), nullptr);  // refreshes recency of 1
  EXPECT_EQ(cache.hits(), 1u);

  cache.Put(3, "c", MakeValue(3), 2.0);  // evicts 2, the LRU entry
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Get(2, "b", 3.0), nullptr);
  ASSERT_NE(cache.Get(1, "a", 3.0), nullptr);
  ASSERT_NE(cache.Get(3, "c", 3.0), nullptr);
}

TEST(ResultCacheTest, TtlExpiryCountsAsEviction) {
  serve::ResultCache cache({/*capacity=*/4, /*ttl_seconds=*/10.0});
  cache.Put(1, "a", MakeValue(1), 100.0);
  ASSERT_NE(cache.Get(1, "a", 105.0), nullptr);  // inside TTL
  EXPECT_EQ(cache.Get(1, "a", 111.0), nullptr);  // expired
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, HashCollisionNeverServesWrongDocument) {
  serve::ResultCache cache({/*capacity=*/4, /*ttl_seconds=*/0.0});
  cache.Put(7, "doc-a", MakeValue(1), 0.0);
  // Same hash, different canonical JSON: a 64-bit collision must read as
  // a miss, and the colliding Put replaces the slot.
  EXPECT_EQ(cache.Get(7, "doc-b", 0.0), nullptr);
  cache.Put(7, "doc-b", MakeValue(2), 0.0);
  EXPECT_EQ(cache.Get(7, "doc-a", 0.0), nullptr);
  serve::ResultCache::Value v = cache.Get(7, "doc-b", 0.0);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->observed.id, 2u);
}

TEST(ResultCacheTest, CapacityEvictionPrefersExpiredOverFreshLru) {
  // Regression (stale-recency race): an entry whose recency was refreshed
  // just before its TTL ran out sits at the LRU front even though it is
  // now dead. Capacity eviction used to take the plain back entry, which
  // discarded a live result to keep the expired one cached.
  serve::ResultCache cache({/*capacity=*/2, /*ttl_seconds=*/10.0});
  cache.Put(1, "a", MakeValue(1), 0.0);
  cache.Put(2, "b", MakeValue(2), 7.0);
  ASSERT_NE(cache.Get(1, "a", 7.5), nullptr);  // refresh A to the front

  // t=10.5: A (stored at 0) is expired but most recently touched; B
  // (stored at 7) is live but at the LRU back. The new entry must
  // displace dead A, not live B.
  cache.Put(3, "c", MakeValue(3), 10.5);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get(1, "a", 10.6), nullptr);  // the expired entry is gone
  ASSERT_NE(cache.Get(2, "b", 10.6), nullptr);  // the live entry survived
  ASSERT_NE(cache.Get(3, "c", 10.6), nullptr);

  check::AuditReport audit = serve::AuditResultCache(cache, 10.6);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ResultCacheTest, CapacityEvictionTakesLeastRecentExpiredEntry) {
  // With several expired candidates the victim is the one nearest the
  // back — the least recently touched — matching plain LRU tie-breaking.
  serve::ResultCache cache({/*capacity=*/3, /*ttl_seconds=*/5.0});
  cache.Put(1, "a", MakeValue(1), 0.0);
  cache.Put(2, "b", MakeValue(2), 0.0);
  cache.Put(3, "c", MakeValue(3), 4.0);
  ASSERT_NE(cache.Get(1, "a", 4.5), nullptr);  // order front->back: a c b

  cache.Put(4, "d", MakeValue(4), 6.0);  // a and b expired; b is backmost
  EXPECT_EQ(cache.Get(2, "b", 6.0), nullptr);
  ASSERT_NE(cache.Get(3, "c", 6.0), nullptr);  // live entry untouched
  ASSERT_NE(cache.Get(4, "d", 6.0), nullptr);

  check::AuditReport audit = serve::AuditResultCache(cache, 6.0);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  serve::ResultCache cache({/*capacity=*/0, /*ttl_seconds=*/0.0});
  cache.Put(1, "a", MakeValue(1), 0.0);
  EXPECT_EQ(cache.Get(1, "a", 0.0), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------------------- Service: cache parity --

TEST(ExtractionServiceTest, CachedAndUncachedMatchDirectProcess) {
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(4, 911);

  serve::ServiceOptions options;
  options.jobs = 2;
  options.cache_entries = 16;
  serve::ExtractionService service(vs2, options);

  std::vector<std::string> direct;
  for (const doc::Document& d : corpus.documents) {
    auto r = vs2.Process(d);
    ASSERT_TRUE(r.ok()) << r.status();
    direct.push_back(Fingerprint(*r));
  }

  // First pass: cold cache — every request computes.
  for (size_t i = 0; i < corpus.documents.size(); ++i) {
    auto r = service.Extract(corpus.documents[i]);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(Fingerprint(*r), direct[i]) << "uncached response diverged";
  }
  serve::ExtractionService::Stats cold = service.stats();
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, corpus.documents.size());

  // Second pass: every request hits, responses stay bit-identical.
  for (size_t i = 0; i < corpus.documents.size(); ++i) {
    auto r = service.Extract(corpus.documents[i]);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(Fingerprint(*r), direct[i]) << "cached response diverged";
  }
  serve::ExtractionService::Stats warm = service.stats();
  EXPECT_EQ(warm.cache_hits, corpus.documents.size());
  EXPECT_EQ(warm.cache_misses, corpus.documents.size());
  EXPECT_EQ(warm.cache_size, corpus.documents.size());
  EXPECT_EQ(warm.completed, 2 * corpus.documents.size());

  // bypass_cache recomputes — and still matches.
  serve::RequestOptions bypass;
  bypass.bypass_cache = true;
  auto r = service.Extract(corpus.documents[0], bypass);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Fingerprint(*r), direct[0]);
  EXPECT_EQ(service.stats().cache_hits, warm.cache_hits);  // untouched
}

TEST(ExtractionServiceTest, CacheTtlExpiresUnderManualClock) {
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(1, 912);

  ManualClock clock;
  serve::ServiceOptions options;
  options.jobs = 1;
  options.cache_entries = 4;
  options.cache_ttl_seconds = 10.0;
  options.clock = clock.fn();
  serve::ExtractionService service(vs2, options);

  ASSERT_TRUE(service.Extract(corpus.documents[0]).ok());
  clock.Advance(5.0);
  ASSERT_TRUE(service.Extract(corpus.documents[0]).ok());
  EXPECT_EQ(service.stats().cache_hits, 1u);

  clock.Advance(60.0);  // stored entry is now stale
  ASSERT_TRUE(service.Extract(corpus.documents[0]).ok());
  serve::ExtractionService::Stats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_evictions, 1u);
}

// -------------------------------------------- Service: admission control --

TEST(ExtractionServiceTest, FullQueueRejectsWithUnavailableNotBlocking) {
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(1, 913);
  const doc::Document& doc = corpus.documents[0];

  WorkerGate gate;
  serve::ServiceOptions options;
  options.jobs = 1;
  options.queue_capacity = 2;
  options.cache_entries = 0;  // every request must run the pipeline
  options.dequeue_hook = gate.hook();
  serve::ExtractionService service(vs2, options);

  // Request 1 is dequeued and pinned at the gate; 2 and 3 fill the queue.
  std::future<serve::ExtractionService::Response> pinned =
      service.Submit(doc);
  gate.AwaitArrival();
  std::future<serve::ExtractionService::Response> queued_a =
      service.Submit(doc);
  std::future<serve::ExtractionService::Response> queued_b =
      service.Submit(doc);
  EXPECT_EQ(service.stats().queue_depth, 2u);

  // The queue is full: overload surfaces immediately, without blocking.
  std::future<serve::ExtractionService::Response> rejected =
      service.Submit(doc);
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  serve::ExtractionService::Response response = rejected.get();
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.stats().rejected, 1u);

  gate.Release();
  EXPECT_TRUE(pinned.get().ok());
  EXPECT_TRUE(queued_a.get().ok());
  EXPECT_TRUE(queued_b.get().ok());
}

TEST(ExtractionServiceTest, DrainStopsAdmissionAndFinishesInFlight) {
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(2, 914);

  serve::ServiceOptions options;
  options.jobs = 2;
  serve::ExtractionService service(vs2, options);
  std::future<serve::ExtractionService::Response> in_flight =
      service.Submit(corpus.documents[0]);
  service.Drain();

  // Admitted work completed; new work is refused.
  ASSERT_EQ(in_flight.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_TRUE(in_flight.get().ok());
  auto refused = service.Extract(corpus.documents[1]);
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.stats().queue_depth, 0u);
  EXPECT_EQ(service.stats().in_flight, 0u);
}

// ---------------------------------------------------- Service: deadlines --

TEST(ExtractionServiceTest, ExpiredDeadlineAtDequeueDoesNotPoisonLater) {
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(2, 915);

  ManualClock clock;
  WorkerGate gate;
  serve::ServiceOptions options;
  options.jobs = 1;
  options.queue_capacity = 8;
  options.cache_entries = 0;
  options.clock = clock.fn();
  options.dequeue_hook = gate.hook();
  serve::ExtractionService service(vs2, options);

  // Pin the worker, then queue a request with a 50 ms deadline and let the
  // clock blow past it while it waits.
  std::future<serve::ExtractionService::Response> pinned =
      service.Submit(corpus.documents[0]);
  gate.AwaitArrival();
  serve::RequestOptions with_deadline;
  with_deadline.deadline_ms = 50.0;
  std::future<serve::ExtractionService::Response> doomed =
      service.Submit(corpus.documents[1], with_deadline);
  clock.Advance(1.0);
  gate.Release();

  EXPECT_TRUE(pinned.get().ok());
  serve::ExtractionService::Response late = doomed.get();
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);

  // The expired request must not poison the service: the same document
  // sails through afterwards and matches a direct Process call.
  auto direct = vs2.Process(corpus.documents[1]);
  ASSERT_TRUE(direct.ok());
  auto after = service.Extract(corpus.documents[1]);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(Fingerprint(*after), Fingerprint(*direct));
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);  // no new expiries
}

// The between-stage enforcement point: Vs2::Process consults the
// checkpoint before every stage and aborts with its status.
TEST(StageCheckpointTest, ProcessAbortsBetweenStages) {
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(1, 916);
  const doc::Document& doc = corpus.documents[0];

  // An always-OK checkpoint is bit-identical to the plain run.
  int calls = 0;
  core::ProcessOptions counting;
  counting.checkpoint = [&calls]() {
    ++calls;
    return Status::OK();
  };
  auto plain = vs2.Process(doc);
  auto checked = vs2.Process(doc, counting);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(Fingerprint(*checked), Fingerprint(*plain));
  EXPECT_EQ(calls, 4);  // one checkpoint per pipeline stage

  // Tripping the checkpoint mid-pipeline aborts with its status.
  int remaining = 2;  // survive OCR + segment, die before interest points
  core::ProcessOptions tripping;
  tripping.checkpoint = [&remaining]() {
    if (remaining-- <= 0) {
      return Status::DeadlineExceeded("deadline expired between stages");
    }
    return Status::OK();
  };
  auto aborted = vs2.Process(doc, tripping);
  EXPECT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kDeadlineExceeded);
}

// ------------------------------------------- Service: concurrent clients --

// Many client threads against one service; mixed cached/uncached/bypass
// traffic. Run under -DVS2_SANITIZE=thread: this is the serving analogue
// of BatchEngineStressTest.
TEST(ExtractionServiceStressTest, ConcurrentClientsGetIdenticalResults) {
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(6, 917);

  std::vector<std::string> direct;
  for (const doc::Document& d : corpus.documents) {
    auto r = vs2.Process(d);
    ASSERT_TRUE(r.ok());
    direct.push_back(Fingerprint(*r));
  }

  serve::ServiceOptions options;
  options.jobs = 4;
  options.queue_capacity = 256;
  options.cache_entries = 4;  // smaller than the corpus: forces evictions
  serve::ExtractionService service(vs2, options);

  constexpr size_t kClients = 8;
  constexpr size_t kRequestsPerClient = 6;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t k = 0; k < kRequestsPerClient; ++k) {
          size_t i = (c + k) % corpus.documents.size();
          serve::RequestOptions req;
          req.bypass_cache = (c + k) % 3 == 0;
          auto r = service.Extract(corpus.documents[i], req);
          if (!r.ok()) {
            failures.fetch_add(1);
          } else if (Fingerprint(*r) != direct[i]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  serve::ExtractionService::Stats stats = service.stats();
  EXPECT_EQ(stats.completed, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_LE(stats.cache_size, 4u);
}

// ------------------------------------------------------------ Wire format --

// Pins the exact wire bytes of the shared serializers. vs2_extract,
// vs2_serve and the client all emit through these; a byte change here is a
// protocol change and must be deliberate.
TEST(WireFormatTest, ExtractionsToJsonPinned) {
  std::vector<doc::ExtractionRecord> records;
  records.push_back({"event_title", "Jazz \"Night\"",
                     util::BBox{10.0, 20.5, 200.0, 30.0},
                     util::BBox{12.0, 22.0, 80.25, 14.0}});
  records.push_back({"venue", "Main Hall", util::BBox{5.0, 400.0, 150.0, 20.0},
                     util::BBox{5.0, 400.0, 90.0, 16.0}});
  EXPECT_EQ(
      doc::ExtractionsToJson(records, 9, 4),
      "{\"extractions\":["
      "{\"entity\":\"event_title\",\"text\":\"Jazz \\\"Night\\\"\","
      "\"block\":{\"x\":10.0,\"y\":20.5,\"w\":200.0,\"h\":30.0},"
      "\"span\":{\"x\":12.0,\"y\":22.0,\"w\":80.2,\"h\":14.0}},"
      "{\"entity\":\"venue\",\"text\":\"Main Hall\","
      "\"block\":{\"x\":5.0,\"y\":400.0,\"w\":150.0,\"h\":20.0},"
      "\"span\":{\"x\":5.0,\"y\":400.0,\"w\":90.0,\"h\":16.0}}"
      "],\"blocks\":9,\"interest_points\":4}");
  EXPECT_EQ(doc::ExtractionsToJson({}, 0, 0),
            "{\"extractions\":[],\"blocks\":0,\"interest_points\":0}");
}

TEST(WireFormatTest, ErrorToJsonPinned) {
  EXPECT_EQ(doc::ErrorToJson("<stdin>",
                             Status::InvalidArgument("bad document JSON")),
            "{\"error\":\"InvalidArgument: bad document JSON\","
            "\"source\":\"<stdin>\"}");
  EXPECT_EQ(doc::ErrorToJson("a\"b", Status::Unavailable("queue full")),
            "{\"error\":\"Unavailable: queue full\",\"source\":\"a\\\"b\"}");
}

// The DocResult adapter and the record overload agree byte for byte.
TEST(WireFormatTest, DocResultAdapterMatchesRecords) {
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(1, 918);
  auto r = vs2.Process(corpus.documents[0]);
  ASSERT_TRUE(r.ok());
  std::vector<doc::ExtractionRecord> records;
  for (const core::Extraction& ex : r->extractions) {
    records.push_back({ex.entity, ex.text, ex.block_bbox, ex.match_bbox});
  }
  EXPECT_EQ(doc::ExtractionsToJson(*r),
            doc::ExtractionsToJson(records, r->tree.Leaves().size(),
                                   r->interest_points.size()));
}

// --------------------------------------------------------- Daemon (e2e) --

/// Blocking line-oriented test client on a Unix-domain socket.
class TestClient {
 public:
  explicit TestClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return fd_ >= 0; }

  bool Send(const std::string& line) { return SendRaw(line + "\n"); }

  /// Sends bytes verbatim — no newline appended (for oversized-line tests).
  bool SendRaw(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::write(fd_, data.data() + sent, data.size() - sent);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    while (true) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string TestSocketPath() {
  return testing::TempDir() + "vs2_serve_test_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(DaemonTest, SocketRoundTripMatchesDirectProcess) {
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(2, 919);

  serve::ServiceOptions service_options;
  service_options.jobs = 2;
  serve::ExtractionService service(vs2, service_options);
  serve::DaemonOptions daemon_options;
  daemon_options.unix_socket_path = TestSocketPath();
  serve::Daemon daemon(service, daemon_options);
  Status started = daemon.Start();
  ASSERT_TRUE(started.ok()) << started;

  TestClient client(daemon_options.unix_socket_path);
  ASSERT_TRUE(client.connected());

  // A document round-trips: the response line is byte-identical to
  // serializing a direct Process call.
  for (const doc::Document& d : corpus.documents) {
    auto direct = vs2.Process(d);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(client.Send(doc::ToJson(d)));
    std::string response;
    ASSERT_TRUE(client.ReadLine(&response));
    EXPECT_EQ(response, doc::ExtractionsToJson(*direct));
  }

  // Garbage in: one descriptive error line out, connection stays usable.
  ASSERT_TRUE(client.Send("{not json"));
  std::string error_line;
  ASSERT_TRUE(client.ReadLine(&error_line));
  EXPECT_NE(error_line.find("\"error\":\"InvalidArgument: bad document "
                            "JSON"),
            std::string::npos)
      << error_line;
  ASSERT_TRUE(client.Send(doc::ToJson(corpus.documents[0])));
  std::string again;
  ASSERT_TRUE(client.ReadLine(&again));
  EXPECT_NE(again.find("\"extractions\""), std::string::npos);

  EXPECT_GE(daemon.connections_served(), 1u);
  daemon.Stop();
  // The socket file is gone after Stop; a second Stop is a no-op.
  daemon.Stop();
}

TEST(DaemonTest, EarlyClosingClientDoesNotKillDaemon) {
  // Regression: a client that sends a request and closes its socket
  // before reading the response makes the daemon's answering send() hit a
  // broken pipe. With plain write(2) that raised SIGPIPE and killed the
  // whole process; with MSG_NOSIGNAL (+ SIG_IGN belt-and-braces) it
  // surfaces as EPIPE and only that connection is dropped.
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(1, 921);

  serve::ServiceOptions service_options;
  service_options.jobs = 1;
  serve::ExtractionService service(vs2, service_options);
  serve::DaemonOptions daemon_options;
  daemon_options.unix_socket_path = TestSocketPath();
  serve::Daemon daemon(service, daemon_options);
  Status started = daemon.Start();
  ASSERT_TRUE(started.ok()) << started;

  const std::string request = doc::ToJson(corpus.documents[0]);
  for (int round = 0; round < 4; ++round) {
    TestClient quitter(daemon_options.unix_socket_path);
    ASSERT_TRUE(quitter.connected());
    ASSERT_TRUE(quitter.Send(request));
    // Destructor closes the socket immediately — the pipeline is still
    // processing, so the daemon's response lands on a closed peer.
  }

  // The daemon survived every broken pipe and still serves correctly.
  auto direct = vs2.Process(corpus.documents[0]);
  ASSERT_TRUE(direct.ok());
  TestClient client(daemon_options.unix_socket_path);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(request));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, doc::ExtractionsToJson(*direct));

  daemon.Stop();
}

TEST(DaemonTest, OversizedLineGetsErrorAndDisconnect) {
  const core::Vs2& vs2 = SharedPipeline();
  serve::ServiceOptions service_options;
  service_options.jobs = 1;
  serve::ExtractionService service(vs2, service_options);
  serve::DaemonOptions daemon_options;
  daemon_options.unix_socket_path = TestSocketPath();
  daemon_options.max_line_bytes = 256;
  serve::Daemon daemon(service, daemon_options);
  Status started = daemon.Start();
  ASSERT_TRUE(started.ok()) << started;

  // Stream well past the cap without ever sending a newline: the daemon
  // must answer with one error line and hang up instead of buffering the
  // stream without bound.
  TestClient client(daemon_options.unix_socket_path);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRaw(std::string(1024, 'x')));
  std::string error_line;
  ASSERT_TRUE(client.ReadLine(&error_line));
  EXPECT_NE(error_line.find("exceeds 256 bytes"), std::string::npos)
      << error_line;
  std::string after_close;
  EXPECT_FALSE(client.ReadLine(&after_close));  // connection closed

  daemon.Stop();
}

// ------------------------------------------- Daemon: telemetry plane ----

/// Brace/bracket balance outside strings — a cheap structural sanity
/// check for the admin responses (full JSON validation lives in
/// obs_test.cpp's JsonChecker and the CI bench-smoke python check).
bool BalancedJsonObject(const std::string& s) {
  if (s.empty() || s.front() != '{') return false;
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth == 0 && i + 1 < s.size()) return false;  // trailing bytes
  }
  return depth == 0 && !in_string;
}

/// `doc::ToJson(d)` with a wire `"trace_id"` injected after the opening
/// brace — what `vs2_serve_client --trace-id` sends.
std::string WithTraceId(const std::string& request, const std::string& hex) {
  return "{\"trace_id\":\"" + hex + "\"," + request.substr(1);
}

TEST(DaemonTest, UnknownOrMalformedAdminCmdGetsStructuredError) {
  const core::Vs2& vs2 = SharedPipeline();
  serve::ServiceOptions options;
  options.jobs = 1;
  serve::ExtractionService service(vs2, options);
  serve::Daemon daemon(service, serve::DaemonOptions{});

  std::string unknown = daemon.HandleLine("{\"cmd\":\"bogus\"}");
  EXPECT_TRUE(BalancedJsonObject(unknown)) << unknown;
  EXPECT_NE(unknown.find("\"error\":\"InvalidArgument: unknown cmd "
                         "\\\"bogus\\\": expected stats, health or slow\""),
            std::string::npos)
      << unknown;
  EXPECT_NE(unknown.find("\"source\":\"<admin>\""), std::string::npos);

  // A non-string cmd is an envelope error, not a document parse attempt.
  std::string non_string = daemon.HandleLine("{\"cmd\":42}");
  EXPECT_NE(non_string.find("\\\"cmd\\\" must be a string"), std::string::npos)
      << non_string;

  // A nested "cmd" key does not spoof the envelope: the line is treated as
  // a (malformed) document.
  std::string nested = daemon.HandleLine("{\"a\":{\"cmd\":\"stats\"}}");
  EXPECT_NE(nested.find("bad document JSON"), std::string::npos) << nested;
}

TEST(DaemonTest, AdminCommandsAnswerStructuredState) {
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(1, 922);
  serve::ServiceOptions options;
  options.jobs = 1;
  serve::ExtractionService service(vs2, options);
  serve::Daemon daemon(service, serve::DaemonOptions{});

  // Run one request so stats/slow have serving data to report.
  ASSERT_TRUE(service.Extract(corpus.documents[0]).ok());

  std::string stats = daemon.HandleLine("{\"cmd\":\"stats\"}");
  EXPECT_TRUE(BalancedJsonObject(stats)) << stats;
  EXPECT_NE(stats.find("\"windowed_histograms\""), std::string::npos);
  size_t extract_at = stats.find("\"serve.extract\"");
  ASSERT_NE(extract_at, std::string::npos) << stats;
  EXPECT_NE(stats.find("\"10s\"", extract_at), std::string::npos);
  EXPECT_NE(stats.find("\"1m\"", extract_at), std::string::npos);
  EXPECT_NE(stats.find("\"5m\"", extract_at), std::string::npos);
  EXPECT_NE(stats.find("\"p99\"", extract_at), std::string::npos);

  std::string health = daemon.HandleLine("{\"cmd\":\"health\"}");
  EXPECT_TRUE(BalancedJsonObject(health)) << health;
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"accepting\":true"), std::string::npos);
  EXPECT_NE(health.find("\"queue_capacity\""), std::string::npos);

  std::string slow = daemon.HandleLine("{\"cmd\":\"slow\"}");
  EXPECT_TRUE(BalancedJsonObject(slow)) << slow;
  EXPECT_EQ(slow.rfind("{\"slow\":[", 0), 0u) << slow;
  EXPECT_NE(slow.find("\"trace_id\""), std::string::npos) << slow;
  EXPECT_NE(slow.find("\"stages\":["), std::string::npos) << slow;

  // Draining flips the health verdict.
  service.Drain();
  health = daemon.HandleLine("{\"cmd\":\"health\"}");
  EXPECT_NE(health.find("\"status\":\"draining\""), std::string::npos)
      << health;
  EXPECT_NE(health.find("\"accepting\":false"), std::string::npos);
}

TEST(DaemonTest, TraceIdRoundTripsWithStageBreakdown) {
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(1, 923);
  serve::ServiceOptions options;
  options.jobs = 1;
  // Cache off so the traced request runs the pipeline and its stage
  // breakdown names the pipeline stages, not just the cache lookup.
  options.cache_entries = 0;
  serve::ExtractionService service(vs2, options);
  serve::Daemon daemon(service, serve::DaemonOptions{});

  const std::string request = doc::ToJson(corpus.documents[0]);
  auto direct = vs2.Process(corpus.documents[0]);
  ASSERT_TRUE(direct.ok());
  const std::string payload = doc::ExtractionsToJson(*direct);

  // Without a trace id the response bytes are exactly the pinned payload —
  // the pre-telemetry wire format is preserved.
  EXPECT_EQ(daemon.HandleLine(request), payload);

  const std::string hex = obs::TraceContext::Generate().ToHex();
  std::string response = daemon.HandleLine(WithTraceId(request, hex));
  EXPECT_TRUE(BalancedJsonObject(response)) << response;
  // The echo prefixes trace id, total and stages onto the same payload.
  EXPECT_EQ(response.rfind("{\"trace_id\":\"" + hex + "\",\"total_ms\":", 0),
            0u)
      << response;
  EXPECT_NE(response.find("\"stages\":[{"), std::string::npos) << response;
  EXPECT_NE(response.find("\"name\":\"vs2.process\""), std::string::npos)
      << response;
  // Everything after the echo fields is byte-identical to the pinned
  // payload body.
  ASSERT_GT(response.size(), payload.size());
  EXPECT_EQ(response.substr(response.size() - (payload.size() - 1)),
            payload.substr(1));

  // A malformed trace id is rejected before the document is parsed.
  std::string bad = daemon.HandleLine(WithTraceId(request, "xyz"));
  EXPECT_NE(bad.find("bad trace_id \\\"xyz\\\""), std::string::npos) << bad;
}

TEST(DaemonTest, AdminAndDocumentLinesInterleaveOnOneConnection) {
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(1, 924);
  serve::ServiceOptions service_options;
  service_options.jobs = 1;
  serve::ExtractionService service(vs2, service_options);
  serve::DaemonOptions daemon_options;
  daemon_options.unix_socket_path = TestSocketPath();
  serve::Daemon daemon(service, daemon_options);
  Status started = daemon.Start();
  ASSERT_TRUE(started.ok()) << started;

  auto direct = vs2.Process(corpus.documents[0]);
  ASSERT_TRUE(direct.ok());

  TestClient client(daemon_options.unix_socket_path);
  ASSERT_TRUE(client.connected());
  std::string line;
  ASSERT_TRUE(client.Send("{\"cmd\":\"health\"}"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;
  ASSERT_TRUE(client.Send(doc::ToJson(corpus.documents[0])));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, doc::ExtractionsToJson(*direct));
  ASSERT_TRUE(client.Send("{\"cmd\":\"stats\"}"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_NE(line.find("\"serve.extract\""), std::string::npos);

  daemon.Stop();
}

TEST(ExtractionServiceTest, ExtractFillsRequestTelemetry) {
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(1, 925);
  serve::ServiceOptions options;
  options.jobs = 1;
  serve::ExtractionService service(vs2, options);

  // Without a caller-supplied trace the service generates one.
  serve::RequestTelemetry telemetry;
  ASSERT_TRUE(
      service.Extract(corpus.documents[0], {}, &telemetry).ok());
  EXPECT_TRUE(telemetry.trace.valid());
  EXPECT_GT(telemetry.total_ms, 0.0);
  ASSERT_FALSE(telemetry.stages.empty());
  EXPECT_EQ(telemetry.stages_dropped, 0u);
  bool saw_process = false;
  for (const obs::StageRecorder::Stage& stage : telemetry.stages) {
    if (std::string(stage.name) == "vs2.process") saw_process = true;
  }
  EXPECT_TRUE(saw_process);

  // A caller-supplied trace id is echoed back verbatim.
  serve::RequestOptions request_options;
  request_options.trace = obs::TraceContext{7, 9};
  serve::RequestTelemetry echoed;
  ASSERT_TRUE(
      service.Extract(corpus.documents[0], request_options, &echoed).ok());
  EXPECT_EQ(echoed.trace, request_options.trace);
}

TEST(DaemonTest, HandleLineMapsServiceErrorsToErrorJson) {
  const core::Vs2& vs2 = SharedPipeline();
  serve::ServiceOptions options;
  options.jobs = 1;
  serve::ExtractionService service(vs2, options);
  serve::Daemon daemon(service, serve::DaemonOptions{});

  // Parse failure: InvalidArgument with the parser's message embedded.
  std::string bad = daemon.HandleLine("42");
  EXPECT_NE(bad.find("\"error\":\"InvalidArgument: bad document JSON"),
            std::string::npos)
      << bad;

  // Service refusal (draining): the status flows through ErrorToJson.
  service.Drain();
  doc::Corpus corpus = SmallD2Corpus(1, 920);
  std::string refused = daemon.HandleLine(doc::ToJson(corpus.documents[0]));
  EXPECT_NE(refused.find("\"error\":\"Unavailable"), std::string::npos)
      << refused;
}

// --------------------------------------------------------- ContentAddress --

TEST(ContentAddressTest, MatchesCanonicalJsonHash) {
  doc::Corpus corpus = SmallD2Corpus(2, 921);
  for (const doc::Document& d : corpus.documents) {
    std::string canonical;
    uint64_t hash = serve::ContentAddressInto(d, &canonical);
    EXPECT_EQ(canonical, doc::ToJson(d));
    EXPECT_EQ(hash, util::Fnv1a64(canonical));
    EXPECT_EQ(hash, serve::ContentAddress(d));
  }
}

TEST(ContentAddressTest, AppendsWithoutClearing) {
  doc::Corpus corpus = SmallD2Corpus(1, 922);
  std::string buffer = "prefix";
  uint64_t hash = serve::ContentAddressInto(corpus.documents[0], &buffer);
  EXPECT_EQ(buffer.rfind("prefix", 0), 0u);
  std::string canonical = buffer.substr(6);
  EXPECT_EQ(canonical, doc::ToJson(corpus.documents[0]));
  EXPECT_EQ(hash, util::Fnv1a64(canonical));
}

TEST(ContentAddressTest, PinnedHashesForDatasetFixtures) {
  // The content address is a wire-visible contract: the fleet router's
  // shard assignment and every worker's cache key both derive from it, so
  // an accidental change to canonical serialization or the hash mix would
  // silently invalidate caches fleet-wide. These values pin the D1-D3
  // fixture hashes; update them only on a deliberate format change.
  datasets::GeneratorConfig gc;
  gc.num_documents = 1;
  gc.seed = 4242;
  const uint64_t kExpected[3] = {0xda50f718f25d3333ull,
                                 0x70639fafbc9459faull,
                                 0xbd2f2ed160421cd0ull};
  doc::Corpus fixtures[3] = {datasets::GenerateD1(gc),
                             datasets::GenerateD2(gc),
                             datasets::GenerateD3(gc)};
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(fixtures[i].documents.size(), 1u);
    EXPECT_EQ(serve::ContentAddress(fixtures[i].documents[0]), kExpected[i])
        << "D" << (i + 1) << " fixture content address drifted";
  }
}

// ------------------------------------------------------- Drain semantics --

TEST(ExtractionServiceTest, DrainIsIdempotent) {
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(1, 923);

  serve::ServiceOptions options;
  options.jobs = 2;
  serve::ExtractionService service(vs2, options);
  ASSERT_TRUE(service.Extract(corpus.documents[0]).ok());

  service.Drain();
  serve::ExtractionService::Stats after_first = service.stats();
  // Second and third drains are no-ops, not crashes or double-joins.
  service.Drain();
  service.Drain();
  serve::ExtractionService::Stats after_third = service.stats();
  EXPECT_EQ(after_first.completed, after_third.completed);
  EXPECT_EQ(service.Extract(corpus.documents[0]).status().code(),
            StatusCode::kUnavailable);
}

TEST(ExtractionServiceTest, ConcurrentDrainsJoinExactlyOnce) {
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(2, 924);

  WorkerGate gate;
  serve::ServiceOptions options;
  options.jobs = 2;
  options.dequeue_hook = gate.hook();
  serve::ExtractionService service(vs2, options);

  // One request pinned in a worker, so the racing drains all have real
  // in-flight work to wait out.
  std::future<serve::ExtractionService::Response> pinned =
      service.Submit(corpus.documents[0]);
  gate.AwaitArrival();

  std::vector<std::thread> drains;
  for (int i = 0; i < 4; ++i) {
    drains.emplace_back([&service] { service.Drain(); });
  }
  // The drains are now blocked on the pinned request; release it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Release();
  for (std::thread& t : drains) t.join();

  EXPECT_TRUE(pinned.get().ok());
  EXPECT_EQ(service.stats().queue_depth, 0u);
  EXPECT_EQ(service.stats().in_flight, 0u);
  EXPECT_EQ(service.Extract(corpus.documents[1]).status().code(),
            StatusCode::kUnavailable);
}

// ------------------------------------------------- Daemon rebind / restart --

TEST(DaemonTest, RestartedDaemonRebindsItsTcpPort) {
  // Regression for the fleet's draining restarts: a respawned worker must
  // rebind the port its predecessor just released (connections from the
  // old incarnation sit in TIME_WAIT) — that is what SO_REUSEADDR is for.
  const core::Vs2& vs2 = SharedPipeline();
  doc::Corpus corpus = SmallD2Corpus(1, 925);

  serve::ServiceOptions service_options;
  service_options.jobs = 1;
  serve::ExtractionService service(vs2, service_options);

  serve::DaemonOptions daemon_options;
  daemon_options.tcp_port = 0;  // ephemeral first bind
  int port = 0;
  {
    serve::Daemon first(service, daemon_options);
    ASSERT_TRUE(first.Start().ok());
    port = first.port();
    ASSERT_GT(port, 0);
    // Leave a served connection behind: the daemon closes it during Stop,
    // so the server side of the pair enters TIME_WAIT on this port.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    first.Stop();
    ::close(fd);
  }

  // Same fixed port, immediately after: must bind (reuse_addr default on).
  daemon_options.tcp_port = port;
  serve::Daemon second(service, daemon_options);
  Status rebound = second.Start();
  ASSERT_TRUE(rebound.ok()) << rebound;
  EXPECT_EQ(second.port(), port);
  second.Stop();

  // And with reuse_addr explicitly on, a third bind also succeeds — the
  // option is plumbed through DaemonOptions.
  daemon_options.reuse_addr = true;
  serve::Daemon third(service, daemon_options);
  ASSERT_TRUE(third.Start().ok());
  third.Stop();
}

}  // namespace
}  // namespace vs2
