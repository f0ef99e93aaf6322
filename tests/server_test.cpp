// Tests for the analytics server: query classification, the JSON protocol
// for every op, error handling, renderers, and long-poll sessions.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "buslite/broker.hpp"
#include "common/block_cache.hpp"
#include "common/telemetry.hpp"
#include "model/ingest.hpp"
#include "model/streaming_ingest.hpp"
#include "model/views/views.hpp"
#include "server/render.hpp"
#include "server/server.hpp"
#include "sparklite/dataset.hpp"
#include "titanlog/generator.hpp"

namespace hpcla::server {
namespace {

using analytics::Context;
using cassalite::Cluster;
using cassalite::ClusterOptions;
using titanlog::EventType;

constexpr UnixSeconds kT0 = 1489449600;

struct ServerFixture {
  Cluster cluster;
  sparklite::Engine engine;
  AnalyticsServer server;
  titanlog::GeneratedLogs logs;

  ServerFixture()
      : cluster(opts()),
        engine(sparklite::EngineOptions{.workers = 4}),
        server(cluster, engine) {
    HPCLA_CHECK(model::create_data_model(cluster).is_ok());
    HPCLA_CHECK(model::load_eventtypes(cluster).is_ok());

    titanlog::ScenarioConfig cfg;
    cfg.seed = 55;
    cfg.window = TimeRange{kT0, kT0 + 2 * 3600};
    cfg.background_scale = 0.3;
    titanlog::HotspotSpec hs;
    hs.type = EventType::kMachineCheck;
    hs.location = topo::Coord{7, 1, -1, -1, -1};
    hs.window = TimeRange{kT0, kT0 + 3600};
    hs.rate_per_node_hour = 6.0;
    cfg.hotspots.push_back(hs);
    titanlog::LustreStormSpec storm;
    storm.start = kT0 + 5400;
    storm.duration_seconds = 120;
    storm.ost_index = 0x17;
    storm.messages_per_second = 40;
    cfg.storms.push_back(storm);
    cfg.jobs = titanlog::JobMixSpec{.users = 6, .apps = 4, .jobs_per_hour = 30,
                                    .max_size_log2 = 5};
    logs = titanlog::Generator(cfg).generate();
    model::BatchIngestor ingestor(cluster, engine);
    auto report = ingestor.ingest_records(logs.events, logs.jobs);
    HPCLA_CHECK(report.write_failures == 0);

    // nodeinfos: load only the rows the tests touch would be cheating —
    // load the full machine once for the whole suite.
    HPCLA_CHECK(model::load_nodeinfos(cluster).is_ok());
  }

  static ClusterOptions opts() {
    ClusterOptions o;
    o.node_count = 4;
    o.replication_factor = 2;
    return o;
  }

  Json ok(const std::string& request_text) {
    auto request = Json::parse(request_text);
    HPCLA_CHECK(request.is_ok());
    Json response = server.handle(request.value());
    EXPECT_EQ(response["status"].as_string(), "ok")
        << (response["error"].is_string() ? response["error"].as_string()
                                          : std::string());
    return response;
  }

  Json err(const std::string& request_text) {
    auto request = Json::parse(request_text);
    HPCLA_CHECK(request.is_ok());
    Json response = server.handle(request.value());
    EXPECT_EQ(response["status"].as_string(), "error");
    return response;
  }
};

ServerFixture& fixture() {
  static ServerFixture f;
  return f;
}

std::string ctx_json(const char* extra = "") {
  return std::string(R"("context":{"window":{"begin":1489449600,"end":1489456800})") +
         extra + "}";
}

// ----------------------------------------------------------- classification

TEST(ClassifyTest, KnownOps) {
  EXPECT_EQ(classify_query("nodeinfo").value(), QueryPath::kSimple);
  EXPECT_EQ(classify_query("events").value(), QueryPath::kSimple);
  EXPECT_EQ(classify_query("heatmap").value(), QueryPath::kComplex);
  EXPECT_EQ(classify_query("transfer_entropy").value(), QueryPath::kComplex);
  EXPECT_FALSE(classify_query("drop_tables").is_ok());
}

// -------------------------------------------------------------- simple ops

TEST(ServerTest, NodeInfoByNidAndCname) {
  auto& f = fixture();
  auto by_nid = f.ok(R"({"op":"nodeinfo","node":5000})");
  EXPECT_EQ(by_nid["path"].as_string(), "simple");
  EXPECT_EQ(by_nid["result"]["cname"].as_string(), topo::cname_of(5000));
  auto by_cname = f.ok(R"({"op":"nodeinfo","cname":"c3-17c1s5n2"})");
  EXPECT_EQ(by_cname["result"]["nid"].as_int(),
            topo::node_id(topo::parse_cname("c3-17c1s5n2").value()));
  f.err(R"({"op":"nodeinfo","node":99999})");
  f.err(R"({"op":"nodeinfo","cname":"c3-17"})");  // not node-level
  f.err(R"({"op":"nodeinfo"})");
}

TEST(ServerTest, EventTypesCatalog) {
  auto& f = fixture();
  auto response = f.ok(R"({"op":"eventtypes"})");
  EXPECT_EQ(response["result"].as_array().size(), titanlog::kEventTypeCount);
}

TEST(ServerTest, SynopsisWindow) {
  auto& f = fixture();
  auto response = f.ok(
      R"({"op":"synopsis","window":{"begin":1489449600,"end":1489456800}})");
  const auto& rows = response["result"].as_array();
  ASSERT_FALSE(rows.empty());
  std::int64_t total = 0;
  for (const auto& row : rows) total += row["count"].as_int();
  std::int64_t expected = 0;
  for (const auto& e : f.logs.events) expected += e.count;
  EXPECT_EQ(total, expected);
}

TEST(ServerTest, EventsTabularMap) {
  auto& f = fixture();
  auto response =
      f.ok(R"({"op":"events","limit":25,)" + ctx_json() + "}");
  const auto& rows = response["result"].as_array();
  EXPECT_EQ(rows.size(), 25u);
  // Newest first.
  EXPECT_GE(rows.front()["ts"].as_int(), rows.back()["ts"].as_int());
  f.err(R"({"op":"events","limit":0,)" + ctx_json() + "}");
  f.err(R"({"op":"events"})");  // missing context
  // The largest limit a request can carry returns the whole window: no
  // arithmetic on the per-partition read limit may wrap.
  const auto all = f.ok(R"({"op":"events","limit":9223372036854775807,)" +
                        ctx_json() + "}");
  std::size_t in_window = 0;
  for (const auto& e : f.logs.events) {
    if (e.ts >= 1489449600 && e.ts < 1489456800) ++in_window;
  }
  EXPECT_EQ(all["result"].as_array().size(), in_window);
}

TEST(ServerTest, JobsQuery) {
  auto& f = fixture();
  auto response = f.ok(R"({"op":"jobs",)" + ctx_json() + "}");
  EXPECT_EQ(response["result"].as_array().size(), f.logs.jobs.size());
}

// ------------------------------------------------------------- complex ops

TEST(ServerTest, HeatmapFindsHotCabinet) {
  auto& f = fixture();
  auto response = f.ok(R"({"op":"heatmap",)" + ctx_json(R"(,"types":["MCE"])") + "}");
  EXPECT_EQ(response["path"].as_string(), "complex");
  const Json& result = response["result"];
  EXPECT_GT(result["total"].as_int(), 0);
  const auto& cabinets = result["cabinets"].as_array();
  ASSERT_EQ(cabinets.size(), 200u);
  // Hot cabinet c1-7 (row 7, col 1): index 7*8+1 = 57.
  std::int64_t best = -1;
  std::size_t best_idx = 0;
  for (std::size_t i = 0; i < cabinets.size(); ++i) {
    if (cabinets[i].as_int() > best) {
      best = cabinets[i].as_int();
      best_idx = i;
    }
  }
  EXPECT_EQ(best_idx, 57u);
  EXPECT_FALSE(result["anomalous_nodes"].as_array().empty());
}

TEST(ServerTest, DistributionByType) {
  auto& f = fixture();
  auto response =
      f.ok(R"({"op":"distribution","group_by":"type",)" + ctx_json() + "}");
  const auto& rows = response["result"].as_array();
  ASSERT_FALSE(rows.empty());
  std::int64_t total = 0;
  for (const auto& row : rows) total += row["count"].as_int();
  std::int64_t expected = 0;
  for (const auto& e : f.logs.events) expected += e.count;
  EXPECT_EQ(total, expected);
  f.err(R"({"op":"distribution","group_by":"bogus",)" + ctx_json() + "}");
}

TEST(ServerTest, TimeseriesAndHourly) {
  auto& f = fixture();
  auto ts = f.ok(R"({"op":"timeseries","type":"MCE","bin_seconds":600,)" +
                 ctx_json() + "}");
  EXPECT_EQ(ts["result"]["series"].as_array().size(), 12u);  // 2h / 10min
  auto hourly = f.ok(R"({"op":"hourly",)" + ctx_json() + "}");
  EXPECT_EQ(hourly["result"].as_array().size(), 2u);
}

TEST(ServerTest, WordCountSurfacesStormOst) {
  auto& f = fixture();
  auto response = f.ok(
      R"({"op":"word_count","top_k":5,)" +
      ctx_json(R"(,"types":["LustreError"])") + "}");
  const auto& rows = response["result"].as_array();
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0]["term"].as_string(), "ost0017");
}

TEST(ServerTest, StormSignature) {
  auto& f = fixture();
  auto response = f.ok(
      R"({"op":"storm_signature","bucket_seconds":60,"top_k":5,)" +
      ctx_json(R"(,"types":["LustreError"])") + "}");
  const auto& rows = response["result"].as_array();
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0]["term"].as_string(), "ost0017");
}

TEST(ServerTest, TransferEntropyOp) {
  auto& f = fixture();
  auto response = f.ok(
      R"({"op":"transfer_entropy","type_a":"HWERR","type_b":"LustreError",)"
      R"("bin_seconds":60,"max_shift":4,)" + ctx_json() + "}");
  const Json& result = response["result"];
  EXPECT_TRUE(result["te_xy"].is_number());
  EXPECT_TRUE(result["te_yx"].is_number());
  EXPECT_EQ(result["profile_xy"].as_array().size(), 5u);
  f.err(R"({"op":"transfer_entropy","type_a":"Nope","type_b":"MCE",)" +
        ctx_json() + "}");
}

TEST(ServerTest, CrossCorrelationOp) {
  auto& f = fixture();
  auto response = f.ok(
      R"({"op":"cross_correlation","type_a":"MCE","type_b":"MemEcc",)"
      R"("bin_seconds":300,"max_lag":5,)" + ctx_json() + "}");
  EXPECT_EQ(response["result"]["correlation"].as_array().size(), 11u);
  EXPECT_TRUE(response["result"]["peak_lag"].is_int());
}

TEST(ServerTest, AppsRunningAndPlacement) {
  auto& f = fixture();
  auto running = f.ok(R"({"op":"apps_running","t":1489453200})");
  std::size_t expected = 0;
  for (const auto& j : f.logs.jobs) {
    if (j.start <= 1489453200 && 1489453200 < j.end) ++expected;
  }
  EXPECT_EQ(running["result"].as_array().size(), expected);

  auto placement = f.ok(R"({"op":"render_placement","t":1489453200})");
  EXPECT_EQ(placement["result"]["jobs"].as_int(),
            static_cast<std::int64_t>(expected));
  EXPECT_NE(placement["result"]["map"].as_string().find("r00 |"),
            std::string::npos);
}

TEST(ServerTest, ReliabilityAndImpact) {
  auto& f = fixture();
  auto rel = f.ok(R"({"op":"reliability",)" + ctx_json() + "}");
  EXPECT_GT(rel["result"]["events_per_node_hour"].as_double(), 0.0);
  auto impact = f.ok(R"({"op":"app_impact",)" + ctx_json() + "}");
  EXPECT_EQ(impact["result"]["jobs"].as_int(),
            static_cast<std::int64_t>(f.logs.jobs.size()));
}

TEST(ServerTest, RenderHeatmapWithPpm) {
  auto& f = fixture();
  const std::string ppm = "/tmp/hpcla_test_heatmap.ppm";
  auto response = f.ok(R"({"op":"render_heatmap","cabinet":57,"ppm_path":")" +
                       ppm + R"(",)" + ctx_json(R"(,"types":["MCE"])") + "}");
  const std::string& map = response["result"]["map"].as_string();
  EXPECT_NE(map.find("r24 |"), std::string::npos);
  EXPECT_NE(response["result"]["cabinet_detail"].as_string().find("c2n3"),
            std::string::npos);
  // PPM was written with the right header.
  std::ifstream in(ppm, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P6");
}

TEST(ServerTest, CqlOpRoundTrip) {
  auto& f = fixture();
  auto response = f.ok(
      R"({"op":"cql","query":"SELECT COUNT(*) FROM event_by_time )"
      R"(WHERE hour = 413736 AND type = 'MCE'"})");
  EXPECT_EQ(response["path"].as_string(), "simple");
  EXPECT_GT(response["result"]["count"].as_int(), 0);
  auto rows = f.ok(
      R"({"op":"cql","query":"SELECT node FROM event_by_time )"
      R"(WHERE hour = 413736 AND type = 'MCE' LIMIT 3"})");
  EXPECT_EQ(rows["result"]["rows"].as_array().size(), 3u);
  f.err(R"({"op":"cql","query":"DROP TABLE event_by_time"})");
  f.err(R"({"op":"cql"})");
}

TEST(ServerTest, CompositeEventsOp) {
  auto& f = fixture();
  // Default rule book runs clean.
  auto defaults = f.ok(R"({"op":"composite_events",)" + ctx_json() + "}");
  EXPECT_TRUE(defaults["result"].is_array());
  // Inline rule definition.
  auto inline_rule = f.ok(
      R"({"op":"composite_events","rules":[
            {"name":"ecc_then_mce","scope":"node",
             "steps":[{"type":"MemEcc"},
                      {"type":"MCE","max_gap_seconds":3600}]}],)" +
      ctx_json() + "}");
  EXPECT_TRUE(inline_rule["result"].is_array());
  // Validation errors.
  f.err(R"({"op":"composite_events","rules":[{"name":"x","steps":[]}],)" +
        ctx_json() + "}");
  f.err(R"({"op":"composite_events","rules":[
             {"name":"x","steps":[{"type":"Bogus"},{"type":"MCE"}]}],)" +
        ctx_json() + "}");
}

TEST(ServerTest, AssociationRulesOp) {
  auto& f = fixture();
  auto response = f.ok(
      R"({"op":"association_rules","bucket_seconds":600,
          "min_support":0.0,"min_confidence":0.0,)" + ctx_json() + "}");
  EXPECT_TRUE(response["result"].is_array());
  for (const auto& row : response["result"].as_array()) {
    EXPECT_TRUE(row["lift"].is_number());
    EXPECT_GT(row["pair_count"].as_int(), 0);
  }
  f.err(R"({"op":"association_rules","bucket_seconds":0,)" + ctx_json() + "}");
}

TEST(ServerTest, AppProfilesOp) {
  auto& f = fixture();
  auto response = f.ok(R"({"op":"app_profiles",)" + ctx_json() + "}");
  const auto& rows = response["result"].as_array();
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    EXPECT_TRUE(row["app"].is_string());
    EXPECT_GT(row["runs"].as_int(), 0);
    EXPECT_TRUE(row["events_per_node_hour"].is_number());
  }
}

TEST(ServerTest, PredictFailuresOp) {
  auto& f = fixture();
  auto response = f.ok(
      R"({"op":"predict_failures","threshold":3,"window_seconds":1800,
          "precursors":["MemEcc"],"targets":["KernelPanic"],)" +
      ctx_json() + "}");
  const Json& result = response["result"];
  EXPECT_TRUE(result["precision"].is_number());
  EXPECT_TRUE(result["recall"].is_number());
  EXPECT_GE(result["failures"].as_int(), 0);
  f.err(R"({"op":"predict_failures","threshold":0,)" + ctx_json() + "}");
  f.err(R"({"op":"predict_failures","precursors":["Nope"],)" + ctx_json() +
        "}");
}

// ------------------------------------------------------------------ errors

TEST(ServerTest, ErrorEnvelopes) {
  auto& f = fixture();
  auto no_op = f.err(R"({"hello":1})");
  EXPECT_NE(no_op["error"].as_string().find("op"), std::string::npos);
  f.err(R"({"op":"launch_missiles"})");
  const auto& errors = telemetry::registry().counter("server.queries.errors");
  const std::uint64_t before = errors.value();
  (void)f.server.handle_text("this is not json");
  EXPECT_EQ(errors.value(), before + 1);
  // Windows longer than kMaxWindowHours are refused before any scan: the
  // key list of this one would not fit in memory, and a synopsis over it
  // would read one partition per hour for ages.
  for (const char* request :
       {R"({"op":"events","context":{"window":{"begin":0,"end":4611686018427387904}}})",
        R"({"op":"heatmap","context":{"window":{"begin":0,"end":4611686018427387904}}})",
        R"({"op":"synopsis","window":{"begin":0,"end":4611686018427387904}})"}) {
    const auto response = f.err(request);
    EXPECT_NE(response["error"].as_string().find("INVALID_ARGUMENT"),
              std::string::npos)
        << request << " -> " << response["error"].as_string();
  }
}

TEST(ServerTest, HandleTextRoundTrip) {
  auto& f = fixture();
  auto text = f.server.handle_text(R"({"op":"eventtypes"})");
  auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value()["status"].as_string(), "ok");
}

TEST(ServerTest, MetricsSplitByPath) {
  auto& f = fixture();
  const auto& simple = telemetry::registry().counter("server.queries.simple");
  const auto& complex =
      telemetry::registry().counter("server.queries.complex");
  const std::uint64_t simple_before = simple.value();
  const std::uint64_t complex_before = complex.value();
  f.ok(R"({"op":"eventtypes"})");
  f.ok(R"({"op":"hourly",)" + ctx_json() + "}");
  EXPECT_EQ(simple.value(), simple_before + 1);
  EXPECT_EQ(complex.value(), complex_before + 1);
}

TEST(ServerTest, MetricsOpReturnsOnlyTheRegistry) {
  auto& f = fixture();
  EXPECT_EQ(classify_query("metrics").value(), QueryPath::kSimple);
  auto response = f.ok(R"({"op":"metrics"})");
  const auto& result = response["result"].as_object();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_TRUE(result.contains("registry"));
  EXPECT_TRUE(result.contains("prometheus"));
  // The coordinator counters live in the registry under stable names; the
  // fixture's setup ingested data, so writes are non-zero.
  const Json& counters = response["result"]["registry"]["counters"];
  EXPECT_GT(counters["cassalite.write.ok"].as_int(), 0);
  for (const char* name :
       {"cassalite.read.speculative", "cassalite.replica.timeouts",
        "cassalite.read.digest_mismatches", "cassalite.hints.expired",
        "cassalite.hints.overflowed"}) {
    EXPECT_TRUE(counters[name].is_int()) << name;
  }
}

// ------------------------------------------------------- topology + repair

// Admin ops run against a dedicated cluster: mutating the shared fixture's
// ring would reshuffle replica placement under every later test.
struct AdminFixture {
  Cluster cluster;
  sparklite::Engine engine;
  AnalyticsServer server;

  AdminFixture()
      : cluster([] {
          ClusterOptions o;
          o.node_count = 4;
          o.replication_factor = 2;
          return o;
        }()),
        engine(sparklite::EngineOptions{.workers = 2}),
        server(cluster, engine) {}

  Json ok(const std::string& request_text) {
    auto request = Json::parse(request_text);
    HPCLA_CHECK(request.is_ok());
    Json response = server.handle(request.value());
    EXPECT_EQ(response["status"].as_string(), "ok")
        << (response["error"].is_string() ? response["error"].as_string()
                                          : std::string());
    return response;
  }

  Json err(const std::string& request_text) {
    auto request = Json::parse(request_text);
    HPCLA_CHECK(request.is_ok());
    Json response = server.handle(request.value());
    EXPECT_EQ(response["status"].as_string(), "error");
    return response;
  }
};

TEST(ServerTest, TopologyOpViewsAndMutatesTheRing) {
  EXPECT_EQ(classify_query("topology").value(), QueryPath::kSimple);
  AdminFixture f;

  auto view = f.ok(R"({"op":"topology"})");
  EXPECT_EQ(view["result"]["members"].as_int(), 4);
  EXPECT_EQ(view["result"]["node_slots"].as_int(), 4);
  EXPECT_EQ(view["result"]["replication_factor"].as_int(), 2);
  EXPECT_FALSE(view["result"]["movement_in_progress"].as_bool());
  const std::int64_t epoch0 = view["result"]["epoch"].as_int();

  auto added = f.ok(R"({"op":"topology","action":"add_node"})");
  EXPECT_EQ(added["result"]["members"].as_int(), 5);
  EXPECT_GT(added["result"]["epoch"].as_int(), epoch0);
  const auto& ring = added["result"]["ring"].as_array();
  ASSERT_EQ(ring.size(), 5u);
  EXPECT_TRUE(ring[0]["alive"].as_bool());
  EXPECT_GT(ring[4]["vnodes"].as_int(), 0);

  auto rebalanced =
      f.ok(R"({"op":"topology","action":"rebalance","token_seed":77})");
  EXPECT_EQ(rebalanced["result"]["members"].as_int(), 5);
  EXPECT_GT(rebalanced["result"]["epoch"].as_int(),
            added["result"]["epoch"].as_int());

  auto removed = f.ok(R"({"op":"topology","action":"remove_node","node":1})");
  EXPECT_EQ(removed["result"]["members"].as_int(), 4);

  // Error envelopes: unknown verb, missing required seed, bad node.
  f.err(R"({"op":"topology","action":"explode"})");
  f.err(R"({"op":"topology","action":"rebalance"})");
  f.err(R"({"op":"topology","action":"remove_node","node":-1})");
}

TEST(ServerTest, RepairOpReportsConvergence) {
  EXPECT_EQ(classify_query("repair").value(), QueryPath::kSimple);
  AdminFixture f;

  for (int k = 0; k < 12; ++k) {
    cassalite::Row r;
    r.key = cassalite::ClusteringKey::of({cassalite::Value(k)});
    r.set("v", cassalite::Value("x" + std::to_string(k)));
    HPCLA_CHECK(f.cluster
                    .insert("t", "pk" + std::to_string(k), r,
                            cassalite::Consistency::kAll)
                    .is_ok());
  }

  // A healthy cluster repairs to "nothing to do".
  auto all = f.ok(R"({"op":"repair"})");
  EXPECT_GE(all["result"]["tables"].as_int(), 1);
  EXPECT_GT(all["result"]["ranges_checked"].as_int(), 0);
  EXPECT_EQ(all["result"]["ranges_diverged"].as_int(), 0);
  EXPECT_EQ(all["result"]["rows_streamed"].as_int(), 0);

  auto one = f.ok(R"({"op":"repair","table":"t"})");
  EXPECT_EQ(one["result"]["tables"].as_int(), 1);

  // Unknown table surfaces as an error envelope, not a silent no-op.
  f.err(R"({"op":"repair","table":"no_such_table"})");
}

// --------------------------------------------------------------- telemetry

// Registry names other code reads by string: stackbench's per-layer metrics
// (stackbench/main.cpp, through delta and histogram_delta_p99) and the
// default alert rules (model/alerts/alerts.cpp). Renaming one silently
// zeroes a benchmark metric or disarms an alert, so the tests below pin
// them. The first lists are live whenever a cluster, an engine and a server
// are; the last needs a broker, streaming ingest, a view catalog, the block
// cache and a spilled shuffle.
constexpr const char* kPinnedCounters[] = {
    "server.cache.hits",
    "server.cache.misses",
    "server.cache.invalidations",
    "server.queries.errors",
    "server.queries.view_served",
    "sparklite.tasks",
    "sparklite.tasks.local",
    "sparklite.shuffle.records",
    "sparklite.shuffle.map_us",
    "sparklite.shuffle.reduce_us",
    "cassalite.read.ok",
    "cassalite.read.retries",
    "cassalite.read.repairs",
    "cassalite.read.speculative",
    "cassalite.replica.timeouts",
    "cassalite.write.ok",
    "cassalite.write.unavailable",
    "cassalite.storage.sstables_read",
    "cassalite.storage.bloom_rejections",
    "cassalite.storage.snapshot_reads",
    "cassalite.storage.memtable_flushes",
    "cassalite.storage.compactions",
    "cassalite.storage.compaction_stall_us",
};
constexpr const char* kPinnedHistograms[] = {
    "sparklite.stage.us",
    "server.query.complex.us",
};
constexpr const char* kPinnedIngestCounters[] = {
    "ingest.messages",
    "ingest.events_written",
    "buslite.fetches",
    "buslite.messages_fetched",
    "buslite.produce_contention",
    "model.views.applied",
    "blockcache.hits",
    "blockcache.misses",
    "sparklite.spill.bytes",
};

TEST(ServerTest, MetricsOpExposesRegistryAndPrometheus) {
  auto& f = fixture();
  // At least one query on each path so the latency histograms are fed.
  f.ok(R"({"op":"eventtypes"})");
  f.ok(R"({"op":"hourly",)" + ctx_json() + "}");
  auto response = f.ok(R"({"op":"metrics"})");
  const Json& reg = response["result"]["registry"];
  for (const char* name : kPinnedCounters) {
    EXPECT_TRUE(reg["counters"][name].is_int()) << name;
  }
  for (const char* name : kPinnedHistograms) {
    EXPECT_TRUE(reg["histograms"][name]["count"].is_int()) << name;
  }
  // Values aggregated from live collectors and registry-owned instruments.
  EXPECT_GT(reg["counters"]["cassalite.write.ok"].as_int(), 0);
  EXPECT_GT(reg["counters"]["cassalite.storage.writes"].as_int(), 0);
  EXPECT_GT(reg["counters"]["sparklite.stages"].as_int(), 0);
  EXPECT_GT(reg["counters"]["sparklite.tasks"].as_int(), 0);
  EXPECT_GE(reg["counters"]["server.queries.simple"].as_int(), 1);
  EXPECT_GE(reg["counters"]["server.queries.complex"].as_int(), 1);
  // Histograms expose count + percentile fields.
  const Json& hist = reg["histograms"]["server.query.complex.us"];
  EXPECT_GT(hist["count"].as_int(), 0);
  EXPECT_GT(hist["p50_us"].as_double(), 0.0);
  EXPECT_GE(hist["p99_us"].as_double(), hist["p50_us"].as_double());
  EXPECT_GE(hist["max_us"].as_int(), hist["min_us"].as_int());
  // Prometheus text exposition covers the same instruments.
  const std::string prom = response["result"]["prometheus"].as_string();
  EXPECT_NE(prom.find("cassalite_write_ok"), std::string::npos);
  // Native cumulative histogram series (no synthetic quantile rows).
  EXPECT_NE(prom.find("# TYPE server_query_complex_us histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("server_query_complex_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("server_query_complex_us_sum"), std::string::npos);
  EXPECT_NE(prom.find("server_query_complex_us_count"), std::string::npos);
  EXPECT_EQ(prom.find("{quantile"), std::string::npos);
}

TEST(ServerTest, MetricsOpExposesTheIngestPathNames) {
  // A stack of its own: the streamed event must not shift the shared
  // fixture's answers. Its engine spills shuffles over 4 KiB.
  Cluster cluster(ServerFixture::opts());
  sparklite::EngineOptions engine_opts;
  engine_opts.workers = 2;
  engine_opts.shuffle_spill_bytes = 4096;
  sparklite::Engine engine(engine_opts);
  AnalyticsServer server(cluster, engine);
  ASSERT_TRUE(model::create_data_model(cluster).is_ok());
  buslite::Broker broker;
  ASSERT_TRUE(broker.create_topic("events", {.partitions = 2}).is_ok());
  model::views::ViewCatalog views;
  model::StreamingIngestor ingestor(cluster, engine, broker, "events");
  ingestor.set_view_catalog(&views);
  titanlog::EventRecord event;
  event.ts = kT0;
  event.type = EventType::kMachineCheck;
  event.node = 3;
  ASSERT_TRUE(model::EventPublisher(broker, "events").publish(event).is_ok());
  EXPECT_EQ(ingestor.process_available().events_written, 1u);
  (void)BlockCache::instance();  // registers its collector on first use
  std::vector<std::pair<std::string, std::int64_t>> data;
  for (std::int64_t i = 0; i < 6000; ++i) {
    data.emplace_back("key-" + std::to_string(i % 97), i);
  }
  auto ds = sparklite::Dataset<std::pair<std::string, std::int64_t>>::
      parallelize(engine, data, 4);
  const auto sums = sparklite::reduce_by_key(
                        ds, [](std::int64_t a, std::int64_t b) { return a + b; })
                        .collect();
  EXPECT_EQ(sums.size(), 97u);
  ASSERT_GT(engine.metrics().bytes_spilled, 0u);

  auto request = Json::parse(R"({"op":"metrics"})");
  ASSERT_TRUE(request.is_ok());
  auto response = server.handle(request.value());
  const Json& counters = response["result"]["registry"]["counters"];
  for (const char* name : kPinnedIngestCounters) {
    EXPECT_TRUE(counters[name].is_int()) << name;
  }
  EXPECT_GE(counters["ingest.events_written"].as_int(), 1);
  EXPECT_GE(counters["model.views.applied"].as_int(), 1);
}

TEST(ServerTest, HeatmapQueryProducesCrossLayerTrace) {
  auto& f = fixture();
  telemetry::tracer().clear();
  auto response =
      f.ok(R"({"op":"heatmap",)" + ctx_json(R"(,"types":["MCE"])") + "}");
  ASSERT_TRUE(response["trace_id"].is_int());
  const std::int64_t tid = response["trace_id"].as_int();
  ASSERT_GT(tid, 0);

  auto trace =
      f.ok(R"({"op":"trace","trace_id":)" + std::to_string(tid) + "}");
  const auto& spans = trace["result"]["spans"].as_array();
  ASSERT_FALSE(spans.empty());

  // The trace must span all three layers, each with measured time.
  std::map<std::string, std::int64_t> layer_max;
  std::set<std::int64_t> ids;
  std::int64_t root_spans = 0;
  for (const auto& s : spans) {
    const std::string& name = s["name"].as_string();
    const std::string layer = name.substr(0, name.find('.'));
    layer_max[layer] =
        std::max(layer_max[layer], s["duration_us"].as_int());
    ids.insert(s["span_id"].as_int());
    if (s["parent_id"].as_int() == 0) ++root_spans;
  }
  EXPECT_GT(layer_max["server"], 0);
  EXPECT_GT(layer_max["sparklite"], 0);
  EXPECT_GT(layer_max["cassalite"], 0);
  // Spans form a single tree: one root, every parent link resolves.
  EXPECT_EQ(root_spans, 1);
  for (const auto& s : spans) {
    const std::int64_t parent = s["parent_id"].as_int();
    if (parent != 0) {
      EXPECT_EQ(ids.count(parent), 1u)
          << "dangling parent for " << s["name"].as_string();
    }
  }
  // Flame-style rendering names the root op.
  const std::string rendered = trace["result"]["rendered"].as_string();
  EXPECT_NE(rendered.find("server.heatmap"), std::string::npos);
  EXPECT_NE(rendered.find("sparklite.stage"), std::string::npos);

  // Unknown trace ids are honest errors.
  f.err(R"({"op":"trace","trace_id":9999999999})");
  f.err(R"({"op":"trace"})");
}

TEST(ServerTest, SlowlogOpSurfacesSlowSpans) {
  auto& f = fixture();
  auto& tr = telemetry::tracer();
  const std::int64_t saved = tr.slow_threshold_us();
  tr.clear();
  tr.set_slow_threshold_us(1);  // everything qualifies
  f.ok(R"({"op":"eventtypes"})");
  auto response = f.ok(R"({"op":"slowlog"})");
  tr.set_slow_threshold_us(saved);
  EXPECT_EQ(response["result"]["threshold_us"].as_int(), 1);
  const auto& spans = response["result"]["spans"].as_array();
  ASSERT_FALSE(spans.empty());
  // Slowest first, and every entry carries its trace id.
  std::int64_t prev = spans.front()["duration_us"].as_int();
  bool found_root = false;
  for (const auto& s : spans) {
    EXPECT_LE(s["duration_us"].as_int(), prev);
    prev = s["duration_us"].as_int();
    EXPECT_GT(s["trace_id"].as_int(), 0);
    if (s["name"].as_string() == "server.eventtypes") found_root = true;
  }
  EXPECT_TRUE(found_root);
  tr.clear();
}

// -------------------------------------------------- trace renderer hardening

telemetry::SpanRecord span_rec(std::uint64_t span_id, std::uint64_t parent_id,
                               const std::string& name, std::int64_t start_us,
                               std::int64_t duration_us) {
  telemetry::SpanRecord s;
  s.trace_id = 1;
  s.span_id = span_id;
  s.parent_id = parent_id;
  s.name = name;
  s.start_us = start_us;
  s.duration_us = duration_us;
  return s;
}

TEST(RenderTraceTest, OrphanedChildrenRenderAsRoots) {
  // Parent 99 was evicted/capped out of the sink: its children must still
  // render (as extra roots), not vanish.
  const std::vector<telemetry::SpanRecord> spans = {
      span_rec(1, 0, "root.op", 0, 100),
      span_rec(2, 99, "orphan.a", 10, 50),
      span_rec(3, 99, "orphan.b", 20, 30),
  };
  const std::string out = render_trace(spans);
  EXPECT_NE(out.find("root.op"), std::string::npos);
  EXPECT_NE(out.find("orphan.a"), std::string::npos);
  EXPECT_NE(out.find("orphan.b"), std::string::npos);
  // Orphans are top-level rows: no leading indent before their names.
  EXPECT_NE(out.find("\norphan.a"), std::string::npos);
}

TEST(RenderTraceTest, OutOfOrderCompletionNestsBySpanStart) {
  // Completion order (vector order) is children-first and scrambled; the
  // tree must still nest by parent links and order siblings by start.
  const std::vector<telemetry::SpanRecord> spans = {
      span_rec(3, 1, "child.late", 50, 20),
      span_rec(2, 1, "child.early", 10, 20),
      span_rec(1, 0, "root.op", 0, 100),
  };
  const std::string out = render_trace(spans);
  const auto root_pos = out.find("root.op");
  const auto early_pos = out.find("  child.early");
  const auto late_pos = out.find("  child.late");
  ASSERT_NE(root_pos, std::string::npos);
  ASSERT_NE(early_pos, std::string::npos);
  ASSERT_NE(late_pos, std::string::npos);
  EXPECT_LT(root_pos, early_pos);
  EXPECT_LT(early_pos, late_pos);
}

TEST(RenderTraceTest, NestingBeyondDepthLimitIsElided) {
  // A 40-deep parent chain: rows past depth 32 are replaced by one
  // elision marker per branch instead of unbounded indentation.
  std::vector<telemetry::SpanRecord> spans;
  for (std::uint64_t i = 1; i <= 40; ++i) {
    spans.push_back(span_rec(i, i - 1, "s" + std::to_string(i),
                             static_cast<std::int64_t>(i), 10));
  }
  const std::string out = render_trace(spans);
  EXPECT_NE(out.find("s33"), std::string::npos);  // depth 32: last rendered
  EXPECT_EQ(out.find("s34"), std::string::npos);  // depth 33: elided
  EXPECT_NE(out.find("... (deeper spans elided)"), std::string::npos);
}

TEST(RenderTraceTest, CyclicParentChainTerminates) {
  // Corrupted records: 10 <-> 11 reference each other, reachable from no
  // root. The renderer must terminate and still show both spans.
  const std::vector<telemetry::SpanRecord> spans = {
      span_rec(1, 0, "root.op", 0, 100),
      span_rec(10, 11, "cycle.a", 10, 20),
      span_rec(11, 10, "cycle.b", 15, 10),
  };
  const std::string out = render_trace(spans);
  EXPECT_NE(out.find("root.op"), std::string::npos);
  EXPECT_NE(out.find("cycle.a"), std::string::npos);
  EXPECT_NE(out.find("cycle.b"), std::string::npos);
}

TEST(RenderTraceTest, EmptyTraceRendersPlaceholder) {
  EXPECT_EQ(render_trace({}), "(empty trace)\n");
}

TEST(ServerTest, TraceOpAfterEvictionIsNotFound) {
  auto& f = fixture();
  telemetry::tracer().clear();
  auto response = f.ok(R"({"op":"heatmap",)" + ctx_json() + "}");
  ASSERT_TRUE(response["trace_id"].is_int());
  const std::int64_t tid = response["trace_id"].as_int();
  // The trace evaporates between the response and the trace lookup
  // (eviction under sink pressure); the op answers honestly.
  telemetry::tracer().clear();
  f.err(R"({"op":"trace","trace_id":)" + std::to_string(tid) + "}");
}

// ------------------------------------------------------ self-telemetry ops

TEST(ServerTest, AlertsAndSelfqueryRequireAttachedLoop) {
  auto& f = fixture();
  // The fixture server has no SelfTelemetryLoop attached.
  auto alerts = f.err(R"({"op":"alerts"})");
  EXPECT_NE(alerts["error"].as_string().find("not attached"),
            std::string::npos);
  f.err(R"({"op":"selfquery","what":"ops","begin":0,"end":10})");
}

TEST(ServerTest, SelfqueryValidatesItsArguments) {
  auto& f = fixture();
  buslite::Broker broker;
  model::selftel::SelfTelemetryLoop loop(f.cluster, broker);
  f.server.set_self_telemetry(&loop);
  // Both ops classify as simple-path queries.
  EXPECT_EQ(classify_query("alerts").value(), QueryPath::kSimple);
  EXPECT_EQ(classify_query("selfquery").value(), QueryPath::kSimple);

  f.err(R"({"op":"selfquery","what":"ops"})");  // begin/end required
  f.err(R"({"op":"selfquery","what":"ops","begin":100,"end":50})");
  f.err(R"({"op":"selfquery","what":"nonsense","begin":0,"end":10})");
  // > 1024 hours of partition keys is refused, not fanned out.
  f.err(R"({"op":"selfquery","what":"ops","begin":0,"end":40000000})");
  // latency_p99 needs a metric, and an unpopulated window is not_found.
  f.err(R"({"op":"selfquery","what":"latency_p99","begin":0,"end":10})");
  f.err(
      R"({"op":"selfquery","what":"latency_p99","metric":"no.such.metric","begin":0,"end":10})");
  // slow_spans needs a spanop; an empty window returns an empty list.
  f.err(R"({"op":"selfquery","what":"slow_spans","begin":0,"end":10})");
  auto empty = f.ok(
      R"({"op":"selfquery","what":"slow_spans","spanop":"nothing","begin":0,"end":10})");
  EXPECT_TRUE(empty["result"]["spans"].as_array().empty());
  // An attached loop makes the alerts op answer.
  auto alerts = f.ok(R"({"op":"alerts"})");
  EXPECT_TRUE(alerts["result"]["fired"].is_int());
  f.server.set_self_telemetry(nullptr);
}

// ----------------------------------------------------------- async session

TEST(AsyncSessionTest, SubmitPollWait) {
  auto& f = fixture();
  AsyncSession session(f.server);
  auto heavy = Json::parse(R"({"op":"hourly",)" + ctx_json() + "}");
  ASSERT_TRUE(heavy.is_ok());
  const auto t1 = session.submit(heavy.value());
  const auto t2 = session.submit(Json::parse(R"({"op":"eventtypes"})").value());
  auto r1 = session.wait(t1);
  ASSERT_TRUE(r1.is_ok());
  EXPECT_EQ(r1.value()["status"].as_string(), "ok");
  auto r2 = session.wait(t2);
  ASSERT_TRUE(r2.is_ok());
  // Delivered tickets are forgotten.
  EXPECT_EQ(session.poll(t1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session.poll(999).status().code(), StatusCode::kNotFound);
}

TEST(AsyncSessionTest, PollEventuallyReady) {
  auto& f = fixture();
  AsyncSession session(f.server);
  const auto ticket =
      session.submit(Json::parse(R"({"op":"eventtypes"})").value());
  // Poll until ready (bounded), yielding so the worker can run.
  Result<Json> r = unavailable("pending");
  for (int i = 0; i < 10000 && !r.is_ok(); ++i) {
    r = session.poll(ticket);
    if (!r.is_ok()) {
      ASSERT_EQ(r.status().code(), StatusCode::kUnavailable);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value()["status"].as_string(), "ok");
}

// -------------------------------------------------------------- renderers

TEST(RenderTest, PpmPixelsEncodeHeat) {
  // One maximally hot node (nid 0 -> pixel (0,0)) on a cold machine.
  analytics::HeatMap hm;
  hm.node_counts.assign(static_cast<std::size_t>(topo::TitanGeometry::kTotalNodes), 0);
  hm.node_counts[0] = 100;
  hm.total = 100;
  hm.peak = 100;
  hm.peak_node = 0;
  const std::string path = "/tmp/hpcla_pixel_test.ppm";
  ASSERT_TRUE(write_heatmap_ppm(hm, path).is_ok());

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string magic;
  int w = 0;
  int h = 0;
  int maxval = 0;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, 71);   // 8 cabinets * 8 slots + 7 gutters
  EXPECT_EQ(h, 324);  // 25 rows * 12 node-rows + 24 gutters
  EXPECT_EQ(maxval, 255);
  in.get();  // single whitespace after the header
  std::vector<unsigned char> pixels(static_cast<std::size_t>(w * h * 3));
  in.read(reinterpret_cast<char*>(pixels.data()),
          static_cast<std::streamsize>(pixels.size()));
  ASSERT_TRUE(in.good());
  // Hot node at (0,0): full white-hot ramp (r=g=b=255).
  EXPECT_EQ(pixels[0], 255);
  EXPECT_EQ(pixels[1], 255);
  EXPECT_EQ(pixels[2], 255);
  // A neighboring cold node pixel (x=1, y=0 -> slot 1): dark base.
  EXPECT_EQ(pixels[3], 40);
  EXPECT_EQ(pixels[4], 40);
  // A gutter pixel (x=8, y=0) keeps the background color (20).
  EXPECT_EQ(pixels[8 * 3], 20);
}

TEST(RenderTest, TemporalMap) {
  std::vector<double> series{0, 1, 5, 2, 0};
  auto art = render_temporal_map(series, kT0, 60);
  EXPECT_NE(art.find("bin=60s"), std::string::npos);
  EXPECT_NE(art.find("2017-03-14"), std::string::npos);
  EXPECT_NE(art.find("peak_bin_count=5"), std::string::npos);
}

TEST(RenderTest, WordBubbles) {
  std::vector<analytics::TermCount> terms{{"ost0042", 100}, {"mds", 10}};
  auto art = render_word_bubbles(terms);
  EXPECT_NE(art.find("ost0042"), std::string::npos);
  // Dominant term gets the longest bubble.
  EXPECT_NE(art.find(std::string(40, 'o')), std::string::npos);
}

TEST(RenderTest, PlacementMapLegend) {
  titanlog::JobRecord big;
  big.apid = 1;
  big.app_name = "HACC";
  big.user = "usr9";
  big.start = 0;
  big.end = 100;
  for (topo::NodeId n = 0; n < 192; ++n) big.nodes.push_back(n);  // 2 cabinets
  titanlog::JobRecord small;
  small.apid = 2;
  small.app_name = "VASP";
  small.user = "usr3";
  small.start = 0;
  small.end = 100;
  small.nodes = {500};
  auto art = render_placement_map({small, big});
  // Big job is 'A' (sorted by size), occupies cabinets 0 and 1.
  EXPECT_NE(art.find("A: apid=1"), std::string::npos);
  EXPECT_NE(art.find("B: apid=2"), std::string::npos);
  EXPECT_NE(art.find("r00 | A  A"), std::string::npos);
}

}  // namespace
}  // namespace hpcla::server
