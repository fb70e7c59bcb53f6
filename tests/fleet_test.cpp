/// Tests for the sharded serving fleet (src/fleet/): hash-ring invariants
/// (balance, minimal disruption on mark-down, sibling liveness), the
/// admin-wire snapshot scrapers, and router integration against in-process
/// worker daemons — consistent cache routing, failover re-routing on a
/// dead shard, reactive load shedding off a draining shard, the merged
/// fleet stats document and the lifecycle restrictions of adopted workers.
/// DESIGN.md §15.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "datasets/generator.hpp"
#include "datasets/pretrained.hpp"
#include "doc/serialization.hpp"
#include "fleet/hash_ring.hpp"
#include "fleet/net.hpp"
#include "fleet/router.hpp"
#include "fleet/snapshot.hpp"
#include "obs/trace.hpp"
#include "serve/content_address.hpp"
#include "serve/daemon.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace vs2 {
namespace {

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

// -------------------------------------------------------------- HashRing --

TEST(HashRingTest, SpreadsKeysAcrossAllShards) {
  fleet::HashRing ring(4, {/*virtual_nodes=*/64});
  std::map<size_t, size_t> counts;
  util::Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    size_t shard = ring.ShardFor(rng.NextU64());
    ASSERT_LT(shard, 4u);
    ++counts[shard];
  }
  ASSERT_EQ(counts.size(), 4u);  // every shard owns keys
  // 64 virtual nodes keep the spread loose but sane: no shard owns more
  // than half or less than a twentieth of the keyspace.
  for (const auto& [shard, n] : counts) {
    EXPECT_GT(n, 4000u / 20) << "shard " << shard;
    EXPECT_LT(n, 4000u / 2) << "shard " << shard;
  }
}

TEST(HashRingTest, RoutingIsDeterministic) {
  fleet::HashRing a(8, {});
  fleet::HashRing b(8, {});
  util::Rng rng(11);
  for (int i = 0; i < 256; ++i) {
    uint64_t key = rng.NextU64();
    EXPECT_EQ(a.ShardFor(key), b.ShardFor(key));
  }
}

TEST(HashRingTest, MarkDownMovesOnlyTheDownShardsKeys) {
  fleet::HashRing ring(4, {});
  util::Rng rng(13);
  std::vector<uint64_t> keys;
  std::vector<size_t> before;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back(rng.NextU64());
    before.push_back(ring.ShardFor(keys.back()));
  }

  ring.SetUp(2, false);
  EXPECT_EQ(ring.live_count(), 3u);
  for (size_t i = 0; i < keys.size(); ++i) {
    size_t after = ring.ShardFor(keys[i]);
    ASSERT_NE(after, 2u);  // down shards take no traffic
    if (before[i] != 2) {
      // The consistent-hashing contract: keys not owned by the down shard
      // keep their owner.
      EXPECT_EQ(after, before[i]) << "key " << i << " moved needlessly";
    }
  }

  // Mark-up restores the original routing exactly.
  ring.SetUp(2, true);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(ring.ShardFor(keys[i]), before[i]);
  }
}

TEST(HashRingTest, SiblingIsLiveAndDistinctWhenPossible) {
  fleet::HashRing ring(3, {});
  util::Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    uint64_t key = rng.NextU64();
    size_t primary = ring.ShardFor(key);
    size_t sibling = ring.SiblingFor(key);
    EXPECT_NE(sibling, primary);
    EXPECT_TRUE(ring.up(sibling));
  }
  // With one live shard the sibling degenerates to the primary.
  ring.SetUp(0, false);
  ring.SetUp(1, false);
  uint64_t key = 42;
  EXPECT_EQ(ring.ShardFor(key), 2u);
  EXPECT_EQ(ring.SiblingFor(key), 2u);
}

TEST(HashRingTest, AllShardsDownRoutesToNone) {
  fleet::HashRing ring(2, {});
  ring.SetUp(0, false);
  ring.SetUp(1, false);
  EXPECT_EQ(ring.ShardFor(123), fleet::HashRing::kNone);
  EXPECT_EQ(ring.live_count(), 0u);
  // HomeFor ignores liveness: the content-address owner is stable.
  EXPECT_LT(ring.HomeFor(123), 2u);
}

// -------------------------------------------------------------- Snapshot --

// The admin scrapers read through the JSON reader's lookups: numbers and
// nested objects by key, with absent fields reading as 0 / absent.
TEST(SnapshotTest, ScrapersExtractNumbersAndNestedObjects) {
  const std::string json =
      "{\"a\":3.5,\"nested\":{\"b\":7,\"deep\":{\"c\":9}},\"d\":-2}";
  util::JsonTape tape;
  ASSERT_TRUE(tape.Parse(json).ok());
  util::JsonValue root = tape.root();
  EXPECT_DOUBLE_EQ(root["a"].NumberOr(0.0), 3.5);
  EXPECT_DOUBLE_EQ(root["d"].NumberOr(0.0), -2.0);
  EXPECT_DOUBLE_EQ(root["missing"].NumberOr(0.0), 0.0);
  util::JsonValue nested = root["nested"];
  EXPECT_DOUBLE_EQ(nested["b"].NumberOr(0.0), 7.0);
  EXPECT_DOUBLE_EQ(nested["deep"]["c"].NumberOr(0.0), 9.0);
  EXPECT_FALSE(root["missing"].present());
}

TEST(SnapshotTest, ParsesWorkerHealthAndStats) {
  const std::string health =
      "{\"status\":\"ok\",\"accepting\":true,\"queue_depth\":3,"
      "\"in_flight\":2,\"queue_capacity\":64,\"jobs\":4,\"completed\":100,"
      "\"rejected\":5,\"cache_hits\":80,\"cache_misses\":20,"
      "\"cache_size\":16,\"uptime_sec\":12.5,\"connections\":9}";
  const std::string stats =
      "{\"counters\":{},\"histograms\":{\"serve.request_latency_ms\":"
      "{\"count\":100,\"p50\":4.2,\"p95\":9.1,\"p99\":14.0}},"
      "\"windowed_histograms\":{\"serve.extract\":{\"10s\":"
      "{\"count\":31,\"rate_per_sec\":3.1}}}}";
  fleet::ShardSnapshot s = fleet::ParseShardSnapshot(health, stats);
  EXPECT_TRUE(s.reachable);
  EXPECT_TRUE(s.accepting);
  EXPECT_DOUBLE_EQ(s.queue_depth, 3.0);
  EXPECT_DOUBLE_EQ(s.queue_capacity, 64.0);
  EXPECT_DOUBLE_EQ(s.completed, 100.0);
  EXPECT_DOUBLE_EQ(s.cache_hits, 80.0);
  EXPECT_DOUBLE_EQ(s.cache_misses, 20.0);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.8);
  EXPECT_NEAR(s.queue_fraction(), 3.0 / 64.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.p50_ms, 4.2);
  EXPECT_DOUBLE_EQ(s.p95_ms, 9.1);
  EXPECT_DOUBLE_EQ(s.p99_ms, 14.0);
  EXPECT_DOUBLE_EQ(s.rate_10s, 3.1);

  fleet::ShardSnapshot unreachable = fleet::ParseShardSnapshot("", "");
  EXPECT_FALSE(unreachable.reachable);
  EXPECT_FALSE(unreachable.accepting);
  EXPECT_DOUBLE_EQ(unreachable.hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(unreachable.queue_fraction(), 0.0);
}

TEST(SnapshotTest, ShardJsonCarriesStateAndDerivedRates) {
  fleet::ShardSnapshot s;
  s.reachable = true;
  s.cache_hits = 3;
  s.cache_misses = 1;
  std::string json = fleet::ShardSnapshotJson(2, "unix:/tmp/w2.sock", "up", s);
  EXPECT_NE(json.find("\"shard\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"endpoint\":\"unix:/tmp/w2.sock\""),
            std::string::npos);
  EXPECT_NE(json.find("\"state\":\"up\""), std::string::npos);
  EXPECT_NE(json.find("\"hit_rate\":0.7500"), std::string::npos) << json;
}

// ------------------------------------------------------ Router (in-proc) --

std::string FleetSocketPath(const std::string& tag) {
  return testing::TempDir() + "vs2_fleet_test_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// One adopted in-process worker shard: shared-nothing service + daemon on
/// a private Unix socket, all over the one shared read-only pipeline.
struct InProcessWorker {
  InProcessWorker(const std::string& socket_path,
                  const serve::ServiceOptions& options,
                  size_t max_line_bytes)
      : service(SharedPipeline(), options) {
    serve::DaemonOptions daemon_options;
    daemon_options.unix_socket_path = socket_path;
    daemon_options.max_line_bytes = max_line_bytes;
    daemon = std::make_unique<serve::Daemon>(service, daemon_options);
  }
  serve::ExtractionService service;
  std::unique_ptr<serve::Daemon> daemon;
};

struct TestFleet {
  std::vector<std::unique_ptr<InProcessWorker>> workers;
  std::unique_ptr<fleet::Router> router;
  std::string router_socket;

  ~TestFleet() {
    if (router) router->Stop();
    for (auto& w : workers) {
      if (w->daemon) w->daemon->Stop();
      w->service.Drain();
    }
  }
};

/// Workers get the router's line cap, as `vs2_fleet` gives its spawned
/// workers the default of both.
std::unique_ptr<TestFleet> StartTestFleet(
    const std::string& tag, size_t shards, fleet::RouterOptions options,
    const serve::ServiceOptions& service_options = {}) {
  auto fleet_ptr = std::make_unique<TestFleet>();
  std::vector<fleet::WorkerSpec> specs;
  for (size_t w = 0; w < shards; ++w) {
    std::string socket = FleetSocketPath(tag + std::to_string(w));
    fleet_ptr->workers.push_back(std::make_unique<InProcessWorker>(
        socket, service_options, options.max_line_bytes));
    if (!fleet_ptr->workers.back()->daemon->Start().ok()) return nullptr;
    fleet::WorkerSpec spec;
    spec.endpoint.unix_socket_path = socket;  // adopted
    specs.push_back(std::move(spec));
  }
  options.unix_socket_path = FleetSocketPath(tag + "_router");
  fleet_ptr->router_socket = options.unix_socket_path;
  fleet_ptr->router =
      std::make_unique<fleet::Router>(std::move(specs), options);
  if (!fleet_ptr->router->Start().ok()) return nullptr;
  return fleet_ptr;
}

/// The shard the router will route `document` to — recomputed from the
/// same primitives (`serve::ContentAddress` + `fleet::HashRing`), which is
/// itself a pinned contract: tests notice if router and ring diverge.
size_t HomeShard(const doc::Document& document, size_t shards) {
  fleet::HashRing ring(shards, {});
  return ring.HomeFor(serve::ContentAddress(document));
}

TEST(FleetRouterTest, WarmHitRoutesToTheSameShardTwice) {
  fleet::RouterOptions options;
  options.health_interval_sec = 0.05;
  auto fleet_ptr = StartTestFleet("warm", 3, options);
  ASSERT_NE(fleet_ptr, nullptr);

  doc::Corpus corpus = SmallD2Corpus(4, 2101);
  for (const doc::Document& d : corpus.documents) {
    size_t home = HomeShard(d, 3);
    std::vector<uint64_t> hits_before(3), misses_before(3);
    for (size_t w = 0; w < 3; ++w) {
      hits_before[w] = fleet_ptr->workers[w]->service.stats().cache_hits;
      misses_before[w] = fleet_ptr->workers[w]->service.stats().cache_misses;
    }

    std::string line = doc::ToJson(d);
    std::string first = fleet_ptr->router->HandleLine(line);
    std::string second = fleet_ptr->router->HandleLine(line);

    // Same response bytes; the first request missed and the second hit on
    // the document's home shard — the whole point of content-address
    // routing — and no other shard saw the document at all.
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("\"extractions\""), std::string::npos) << first;
    for (size_t w = 0; w < 3; ++w) {
      serve::ExtractionService::Stats stats =
          fleet_ptr->workers[w]->service.stats();
      if (w == home) {
        EXPECT_EQ(stats.cache_misses, misses_before[w] + 1);
        EXPECT_EQ(stats.cache_hits, hits_before[w] + 1);
      } else {
        EXPECT_EQ(stats.cache_misses, misses_before[w])
            << "document leaked to shard " << w;
        EXPECT_EQ(stats.cache_hits, hits_before[w]);
      }
    }
  }
  EXPECT_GE(fleet_ptr->router->stats().forwarded, 8u);
}

TEST(FleetRouterTest, SocketClientsRouteThroughTheFleet) {
  fleet::RouterOptions options;
  auto fleet_ptr = StartTestFleet("sock", 2, options);
  ASSERT_NE(fleet_ptr, nullptr);

  doc::Corpus corpus = SmallD2Corpus(2, 2102);
  fleet::Endpoint front;
  front.unix_socket_path = fleet_ptr->router_socket;
  fleet::LineConn conn(fleet::Dial(front, 10.0));
  ASSERT_TRUE(conn.ok());
  for (const doc::Document& d : corpus.documents) {
    // Process what the worker will see: the wire round-trip quantizes
    // coordinates to the serialization precision.
    std::string line = doc::ToJson(d);
    auto parsed = doc::FromJson(line);
    ASSERT_TRUE(parsed.ok());
    auto direct = SharedPipeline().Process(*parsed);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(conn.SendLine(line));
    std::string response;
    ASSERT_TRUE(conn.RecvLine(&response));
    // Byte-identical to a direct pipeline call: the router is transparent.
    EXPECT_EQ(response, doc::ExtractionsToJson(*direct));
  }
}

// ----------------------------------------------- Canonical lines (§15.1) --

/// Appends `s` as a JSON string literal.
void AppendQuoted(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out->append(esc);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

/// Another spelling of the same JSON value: members in reverse order,
/// whitespace around every token, and a trailing zero on every fraction
/// ("1.50" for "1.5").
void Respell(const util::JsonValue& v, std::string* out) {
  if (v.is_object()) {
    std::vector<std::pair<std::string_view, util::JsonValue>> members;
    for (auto it = v.begin(); it != v.end(); ++it) {
      members.emplace_back(it.key(), *it);
    }
    out->append("{ ");
    for (size_t i = members.size(); i-- > 0;) {
      AppendQuoted(members[i].first, out);
      out->append(" : ");
      Respell(members[i].second, out);
      if (i > 0) out->append(" ,\n ");
    }
    out->append(" }");
  } else if (v.is_array()) {
    out->append("[ ");
    bool first = true;
    for (util::JsonValue item : v) {
      if (!first) out->append(" , ");
      first = false;
      Respell(item, out);
    }
    out->append(" ]");
  } else if (v.is_number()) {
    std::string number;
    doc::AppendCanonicalNumber(v.number(), &number);
    if (number.find('.') != std::string::npos &&
        number.find('e') == std::string::npos) {
      number.push_back('0');
    }
    out->append(number);
  } else if (v.is_string()) {
    AppendQuoted(v.string(), out);
  } else {
    out->append(v.is_bool() ? (v.boolean() ? "true" : "false") : "null");
  }
}

std::string Respelled(const std::string& json) {
  util::JsonTape tape;
  EXPECT_TRUE(tape.Parse(json).ok());
  std::string out;
  Respell(tape.root(), &out);
  return out;
}

std::string TraceHex() { return obs::TraceContext::Generate().ToHex(); }

/// `line` with a wire `"trace_id"` after its opening brace.
std::string Traced(const std::string& line, const std::string& hex) {
  return "{\"trace_id\":\"" + hex + "\"," + line.substr(1);
}

/// The payload of a traced response: the echo fields removed.
std::string Untraced(const std::string& response) {
  size_t end = response.find("],");
  return end == std::string::npos ? response : "{" + response.substr(end + 2);
}

TEST(FleetRouterTest, RespelledDocumentHitsWithoutAParse) {
  fleet::RouterOptions options;
  options.health_interval_sec = 3600.0;
  auto fleet_ptr = StartTestFleet("respell", 2, options);
  ASSERT_NE(fleet_ptr, nullptr);

  doc::Corpus corpus = SmallD2Corpus(1, 2107);
  const std::string canonical = doc::ToJson(corpus.documents[0]);
  const std::string respelled = Respelled(canonical);
  ASSERT_NE(respelled, canonical);
  ASSERT_NE(respelled.find("0 ,"), std::string::npos) << respelled;
  const size_t home = HomeShard(corpus.documents[0], 2);
  serve::ExtractionService& service = fleet_ptr->workers[home]->service;

  // The first spelling misses on the home shard: the worker decodes the
  // router's canonical bytes and runs the pipeline.
  std::string miss = fleet_ptr->router->HandleLine(Traced(respelled, TraceHex()));
  EXPECT_NE(miss.find("{\"name\":\"serve.decode\""), std::string::npos)
      << miss;
  EXPECT_NE(miss.find("{\"name\":\"vs2.process\""), std::string::npos);
  EXPECT_EQ(service.stats().cache_misses, 1u);

  // The other spelling hits the same entry, and nothing on that worker
  // parsed the document: no decode stage, no pipeline.
  std::string hit = fleet_ptr->router->HandleLine(Traced(canonical, TraceHex()));
  EXPECT_NE(hit.find("{\"name\":\"serve.cache_lookup\""), std::string::npos)
      << hit;
  EXPECT_EQ(hit.find("serve.decode"), std::string::npos) << hit;
  EXPECT_EQ(hit.find("vs2.process"), std::string::npos) << hit;
  EXPECT_EQ(service.stats().cache_hits, 1u);
  EXPECT_EQ(service.stats().cache_misses, 1u);
  EXPECT_EQ(Untraced(hit), Untraced(miss));
  EXPECT_EQ(fleet_ptr->workers[1 - home]->service.stats().cache_misses, 0u);
}

TEST(FleetRouterTest, ClientSuppliedMarkIsNeverTrusted) {
  fleet::RouterOptions options;
  options.health_interval_sec = 3600.0;
  auto fleet_ptr = StartTestFleet("mark", 2, options);
  ASSERT_NE(fleet_ptr, nullptr);

  doc::Corpus corpus = SmallD2Corpus(1, 2108);
  const std::string canonical = doc::ToJson(corpus.documents[0]);
  // Exactly the layout the router itself forwards, and a variant: the
  // router answers both itself and forwards nothing.
  for (const std::string& line :
       {"{\"canonical\":" + canonical + "}",
        "{\"trace_id\":\"" + TraceHex() + "\",\"canonical\":" + canonical +
            "}",
        "{ \"canonical\" : " + Respelled(canonical) + " }"}) {
    std::string response = fleet_ptr->router->HandleLine(line);
    EXPECT_EQ(response.rfind("{\"error\":\"InvalidArgument", 0), 0u)
        << response;
    EXPECT_NE(response.find("canonical"), std::string::npos) << response;
  }
  EXPECT_EQ(fleet_ptr->router->stats().forwarded, 0u);
  EXPECT_EQ(fleet_ptr->router->stats().bad_document, 3u);
  for (const auto& worker : fleet_ptr->workers) {
    EXPECT_EQ(worker->service.stats().accepted, 0u);
  }
}

TEST(FleetRouterTest, TraceIdEchoSurvivesTheRouterHop) {
  fleet::RouterOptions options;
  options.health_interval_sec = 3600.0;
  auto fleet_ptr = StartTestFleet("trace", 2, options);
  ASSERT_NE(fleet_ptr, nullptr);

  doc::Corpus corpus = SmallD2Corpus(1, 2109);
  const std::string line = doc::ToJson(corpus.documents[0]);
  const std::string plain = fleet_ptr->router->HandleLine(line);
  ASSERT_NE(plain.find("\"extractions\""), std::string::npos) << plain;

  const std::string hex = TraceHex();
  std::string traced = fleet_ptr->router->HandleLine(Traced(line, hex));
  EXPECT_EQ(traced.rfind("{\"trace_id\":\"" + hex + "\",\"total_ms\":", 0),
            0u)
      << traced;
  EXPECT_NE(traced.find("\"stages\":[{"), std::string::npos) << traced;
  EXPECT_EQ(Untraced(traced), plain);

  // A bad trace id is refused at the router, as the worker would refuse it.
  std::string bad = fleet_ptr->router->HandleLine(Traced(line, "xyz"));
  EXPECT_NE(bad.find("bad trace_id \\\"xyz\\\""), std::string::npos) << bad;
  EXPECT_EQ(fleet_ptr->router->stats().forwarded, 2u);
}

TEST(FleetRouterTest, CanonicalSpellingLongerThanTheLineCapIsServed) {
  // A bare `{}` element spells out every default, ~47x its client bytes.
  // The cap is scaled down from the 8 MiB default so the pipeline stays
  // quick; the rule is relative to the cap.
  fleet::RouterOptions options;
  options.health_interval_sec = 3600.0;
  options.max_line_bytes = 64 << 10;
  auto fleet_ptr = StartTestFleet("long", 2, options);
  ASSERT_NE(fleet_ptr, nullptr);

  std::string line = "{\"width\":612,\"height\":792,\"elements\":[";
  for (int i = 0; i < 600; ++i) line += i == 0 ? "{}" : ",{}";
  line += "]}";
  Result<doc::Document> document = doc::FromJson(line);
  ASSERT_TRUE(document.ok());
  ASSERT_LT(line.size(), options.max_line_bytes);
  ASSERT_GT(doc::ToJson(*document).size(), options.max_line_bytes);
  auto direct = SharedPipeline().Process(*document);
  ASSERT_TRUE(direct.ok());

  const std::string expected = doc::ExtractionsToJson(*direct);
  EXPECT_EQ(fleet_ptr->router->HandleLine(line), expected);
  // Served from the home shard's cache the second time.
  EXPECT_EQ(fleet_ptr->router->HandleLine(line), expected);
  size_t home = HomeShard(*document, 2);
  EXPECT_EQ(fleet_ptr->workers[home]->service.stats().cache_hits, 1u);
}

TEST(FleetRouterTest, DeadShardFailsOverToSibling) {
  fleet::RouterOptions options;
  // Keep the prober out of the way: this test pins the *data-path*
  // failover (forward fails -> immediate mark-down + sibling re-route),
  // not the probe-driven mark-down.
  options.health_interval_sec = 3600.0;
  options.upstream_timeout_sec = 5.0;
  auto fleet_ptr = StartTestFleet("dead", 2, options);
  ASSERT_NE(fleet_ptr, nullptr);

  // Find a document homed on shard 0, then kill shard 0's daemon.
  doc::Corpus corpus = SmallD2Corpus(8, 2103);
  const doc::Document* victim = nullptr;
  for (const doc::Document& d : corpus.documents) {
    if (HomeShard(d, 2) == 0) {
      victim = &d;
      break;
    }
  }
  ASSERT_NE(victim, nullptr) << "no document hashed to shard 0";

  fleet_ptr->workers[0]->daemon->Stop();

  // The request still gets a served response: transport failure on the
  // primary re-routes to the sibling (the pipeline is deterministic, so
  // replay is safe).
  std::string response = fleet_ptr->router->HandleLine(doc::ToJson(*victim));
  EXPECT_NE(response.find("\"extractions\""), std::string::npos) << response;
  fleet::Router::Stats stats = fleet_ptr->router->stats();
  EXPECT_GE(stats.rerouted, 1u);
  EXPECT_GE(stats.markdowns, 1u);
  EXPECT_FALSE(fleet_ptr->router->shard_up(0));
  EXPECT_TRUE(fleet_ptr->router->shard_up(1));

  // Subsequent requests route straight to the live shard (no more
  // re-route churn for this key).
  std::string again = fleet_ptr->router->HandleLine(doc::ToJson(*victim));
  EXPECT_EQ(again, response);
}

TEST(FleetRouterTest, DrainingShardShedsToSibling) {
  fleet::RouterOptions options;
  options.health_interval_sec = 3600.0;  // prober stays out of the way
  auto fleet_ptr = StartTestFleet("drain", 2, options);
  ASSERT_NE(fleet_ptr, nullptr);

  doc::Corpus corpus = SmallD2Corpus(8, 2104);
  const doc::Document* victim = nullptr;
  for (const doc::Document& d : corpus.documents) {
    if (HomeShard(d, 2) == 0) {
      victim = &d;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);

  // Drain shard 0's service but keep its daemon reachable: the worker
  // answers kUnavailable, the router's reactive tier sheds to the sibling.
  fleet_ptr->workers[0]->service.Drain();
  std::string response = fleet_ptr->router->HandleLine(doc::ToJson(*victim));
  EXPECT_NE(response.find("\"extractions\""), std::string::npos) << response;
  fleet::Router::Stats stats = fleet_ptr->router->stats();
  EXPECT_GE(stats.shed_to_sibling, 1u);
  EXPECT_EQ(stats.rerouted, 0u);  // transport never failed
}

TEST(FleetRouterTest, AllShardsDownAnswersCleanUnavailable) {
  fleet::RouterOptions options;
  options.health_interval_sec = 0.02;
  options.mark_down_after = 1;
  options.probe_timeout_sec = 0.5;
  options.upstream_timeout_sec = 2.0;
  auto fleet_ptr = StartTestFleet("alldown", 2, options);
  ASSERT_NE(fleet_ptr, nullptr);

  fleet_ptr->workers[0]->daemon->Stop();
  fleet_ptr->workers[1]->daemon->Stop();
  // Let the prober take both shards out of the ring.
  for (int i = 0; i < 200; ++i) {
    if (!fleet_ptr->router->shard_up(0) && !fleet_ptr->router->shard_up(1)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(fleet_ptr->router->shard_up(0));
  EXPECT_FALSE(fleet_ptr->router->shard_up(1));

  doc::Corpus corpus = SmallD2Corpus(1, 2105);
  std::string response =
      fleet_ptr->router->HandleLine(doc::ToJson(corpus.documents[0]));
  EXPECT_EQ(response.rfind("{\"error\":\"Unavailable", 0), 0u) << response;
  EXPECT_GE(fleet_ptr->router->stats().unavailable, 1u);
}

TEST(FleetRouterTest, MergedStatsAggregateShardsAndRouterCounters) {
  fleet::RouterOptions options;
  auto fleet_ptr = StartTestFleet("stats", 2, options);
  ASSERT_NE(fleet_ptr, nullptr);

  doc::Corpus corpus = SmallD2Corpus(2, 2106);
  for (const doc::Document& d : corpus.documents) {
    fleet_ptr->router->HandleLine(doc::ToJson(d));
    fleet_ptr->router->HandleLine(doc::ToJson(d));  // warm hit
  }

  std::string merged = fleet_ptr->router->HandleLine("{\"cmd\":\"stats\"}");
  // The envelope vs2_top keys on.
  EXPECT_NE(merged.find("\"fleet\":{"), std::string::npos) << merged;
  EXPECT_NE(merged.find("\"shards\":["), std::string::npos);
  EXPECT_NE(merged.find("\"shard\":0"), std::string::npos);
  EXPECT_NE(merged.find("\"shard\":1"), std::string::npos);
  EXPECT_NE(merged.find("\"state\":\"up\""), std::string::npos);
  EXPECT_NE(merged.find("\"live\":2"), std::string::npos);
  // Fleet totals fold the shard-local cache counters: 2 misses + 2 hits.
  EXPECT_NE(merged.find("\"cache_hits\":2"), std::string::npos) << merged;
  EXPECT_NE(merged.find("\"cache_misses\":2"), std::string::npos);
  EXPECT_NE(merged.find("\"hit_rate\":0.5"), std::string::npos);
  // Router-side triage accounting: every routed document line is classified
  // (cache hits included — caching is worker-side). D2 posters route FULL.
  EXPECT_NE(merged.find("\"triage\":{\"skip\":0,\"fast\":0,\"full\":4}"),
            std::string::npos)
      << merged;

  std::string health = fleet_ptr->router->HandleLine("{\"cmd\":\"health\"}");
  EXPECT_NE(health.find("\"role\":\"router\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);

  std::string slow = fleet_ptr->router->HandleLine("{\"cmd\":\"slow\"}");
  EXPECT_EQ(slow.rfind("{\"slow\":[", 0), 0u) << slow;
}

TEST(FleetRouterTest, AdminErrorsAreStructured) {
  fleet::RouterOptions options;
  auto fleet_ptr = StartTestFleet("admin", 1, options);
  ASSERT_NE(fleet_ptr, nullptr);

  std::string unknown = fleet_ptr->router->HandleLine("{\"cmd\":\"nope\"}");
  EXPECT_NE(unknown.find("\"error\":\"InvalidArgument"), std::string::npos)
      << unknown;
  std::string non_string = fleet_ptr->router->HandleLine("{\"cmd\":7}");
  EXPECT_NE(non_string.find("must be a string"), std::string::npos);
  std::string no_shard = fleet_ptr->router->HandleLine(
      "{\"cmd\":\"restart\"}");
  EXPECT_NE(no_shard.find("restart needs a shard"), std::string::npos);
  std::string bad_shard = fleet_ptr->router->HandleLine(
      "{\"cmd\":\"restart\",\"shard\":\"9\"}");
  EXPECT_NE(bad_shard.find("bad shard"), std::string::npos) << bad_shard;

  // Adopted workers have no spawn recipe: restart is a structured error,
  // not a crash.
  std::string adopted = fleet_ptr->router->HandleLine(
      "{\"cmd\":\"restart\",\"shard\":\"0\"}");
  EXPECT_NE(adopted.find("adopted"), std::string::npos) << adopted;
}

TEST(FleetRouterTest, BadDocumentRejectedBeforeRouting) {
  fleet::RouterOptions options;
  auto fleet_ptr = StartTestFleet("bad", 1, options);
  ASSERT_NE(fleet_ptr, nullptr);

  std::string response = fleet_ptr->router->HandleLine("{not json");
  EXPECT_NE(response.find("\"error\":\"InvalidArgument"), std::string::npos)
      << response;
  EXPECT_EQ(fleet_ptr->router->stats().bad_document, 1u);
  EXPECT_EQ(fleet_ptr->router->stats().forwarded, 0u);
}

}  // namespace
}  // namespace vs2
