// Closed-loop self-telemetry tests (DESIGN.md §16): sys_* row codecs,
// span view tiles, the full workload -> export -> ingest -> selfquery
// loop, idle-loop suppression (an idle pump publishes zero events), DLQ
// quarantine of corrupt telemetry payloads, and the seeded chaos probe —
// a FaultInjector latency fault raises exactly the replica-timeout-burn
// alert, bit-identically across two replays.
#include "model/selftel/selftel.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "common/faultsim.hpp"
#include "common/telemetry.hpp"
#include "model/streaming_ingest.hpp"
#include "model/tables.hpp"
#include "server/server.hpp"

namespace hpcla::model::selftel {
namespace {

using cassalite::Cluster;
using cassalite::ClusterOptions;
using cassalite::ClusteringKey;
using cassalite::Consistency;
using cassalite::ReadQuery;
using cassalite::Row;
using cassalite::TableSchema;
using cassalite::Value;
using titanlog::MetricSample;
using titanlog::SpanSample;

constexpr UnixSeconds kT0 = 1489449600;  // 2017-03-14 00:00:00 UTC

// -------------------------------------------------------------- row codecs

TEST(SysCodecTest, MetricRowRoundTripsCounterKind) {
  MetricSample s;
  s.ts = kT0 + 17;
  s.name = "cassalite.read.ok";
  s.kind = "counter";
  s.value = 42.0;
  s.seq = 3;
  const std::string key = sys_metric_key(hour_bucket(s.ts), s.name);
  EXPECT_EQ(key, std::to_string(hour_bucket(kT0)) + "|cassalite.read.ok");
  auto back = decode_sys_metric_row(key, sys_metric_row(s));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value(), s);
}

TEST(SysCodecTest, MetricRowRoundTripsHistKind) {
  MetricSample s;
  s.ts = kT0 + 90;
  s.name = "server.query.complex.us";
  s.kind = "hist";
  s.value = 12.0;
  s.sum_us = 90'000.0;
  s.p50_us = 4'000.0;
  s.p95_us = 9'000.0;
  s.p99_us = 11'000.0;
  s.max_us = 12'000.0;
  s.seq = 7;
  const std::string key = sys_metric_key(hour_bucket(s.ts), s.name);
  auto back = decode_sys_metric_row(key, sys_metric_row(s));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value(), s);
}

TEST(SysCodecTest, SpanRowRoundTrips) {
  SpanSample s;
  s.ts = kT0 + 300;
  s.op = "server.heatmap";
  s.name = "cassalite.read";
  s.trace_id = 99;
  s.span_id = 1234;
  s.parent_id = 1230;
  s.start_us = 5'000;
  s.duration_us = 62'000;
  s.slow = true;
  s.errored = false;
  const std::string key = sys_span_key(hour_bucket(s.ts), s.op);
  auto back = decode_sys_span_row(key, sys_span_row(s));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value(), s);
}

TEST(SysCodecTest, BadPartitionKeysAreRejected) {
  MetricSample s;
  s.ts = kT0;
  s.name = "m";
  s.kind = "counter";
  const Row row = sys_metric_row(s);
  EXPECT_FALSE(decode_sys_metric_row("no-separator", row).is_ok());
  EXPECT_FALSE(decode_sys_metric_row("|name", row).is_ok());
  EXPECT_FALSE(decode_sys_metric_row("12a|name", row).is_ok());
  // Out-of-range and negative hours are rejected, not wrapped.
  EXPECT_FALSE(
      decode_sys_metric_row("99999999999999999999|name", row).is_ok());
  EXPECT_FALSE(decode_sys_metric_row("-5|name", row).is_ok());
  // A corrupt clustering key is a decode error, not a crash.
  Row bad = row;
  bad.key = ClusteringKey::of({Value(std::string("not-ts"))});
  const std::string key = sys_metric_key(hour_bucket(kT0), "m");
  EXPECT_FALSE(decode_sys_metric_row(key, bad).is_ok());
}

// ---------------------------------------------------------------- SysViews

SpanSample view_span(UnixSeconds ts, const std::string& op,
                     std::uint64_t parent, std::int64_t duration_us,
                     bool slow = false, bool errored = false) {
  static std::uint64_t next_id = 1;
  SpanSample s;
  s.ts = ts;
  s.op = op;
  s.name = parent == 0 ? op : op + ".child";
  s.trace_id = next_id;
  s.span_id = next_id++;
  s.parent_id = parent;
  s.duration_us = duration_us;
  s.slow = slow;
  s.errored = errored;
  return s;
}

TEST(SysViewsTest, OnlyRootSpansFeedTheTiles) {
  SysViews views;
  views.apply(view_span(kT0, "server.hourly", 0, 1000));
  views.apply(view_span(kT0, "server.hourly", 42, 900));  // child: ignored
  views.apply(view_span(kT0, "server.hourly", 42, 800));  // child: ignored
  EXPECT_EQ(views.applied(), 1u);
  const auto sums = views.summaries(hour_bucket(kT0), hour_bucket(kT0));
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_EQ(sums[0].op, "server.hourly");
  EXPECT_EQ(sums[0].spans, 1u);
}

TEST(SysViewsTest, SummariesMergeHoursAndSort) {
  SysViews views;
  const UnixSeconds h0 = kT0;
  const UnixSeconds h1 = kT0 + kSecondsPerHour;
  // "busy" gets 3 root spans across two hours (one slow, one errored);
  // "quiet" gets 1.
  views.apply(view_span(h0, "busy", 0, 10'000));
  views.apply(view_span(h0 + 10, "busy", 0, 80'000, /*slow=*/true));
  views.apply(
      view_span(h1 + 5, "busy", 0, 20'000, /*slow=*/false, /*errored=*/true));
  views.apply(view_span(h1 + 6, "quiet", 0, 5'000));
  const auto sums = views.summaries(hour_bucket(h0), hour_bucket(h1));
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0].op, "busy");  // more spans sorts first
  EXPECT_EQ(sums[0].spans, 3u);
  EXPECT_EQ(sums[0].slow, 1u);
  EXPECT_EQ(sums[0].errored, 1u);
  EXPECT_GT(sums[0].p99_us, 0.0);
  EXPECT_GE(sums[0].p99_us, sums[0].p50_us);
  EXPECT_EQ(sums[1].op, "quiet");
  // Hour filtering: the second hour alone only sees two ops' later spans.
  const auto late = views.summaries(hour_bucket(h1), hour_bucket(h1));
  ASSERT_EQ(late.size(), 2u);
  EXPECT_EQ(late[0].spans, 1u);
  EXPECT_EQ(late[1].spans, 1u);
  // An empty window yields nothing.
  EXPECT_TRUE(views.summaries(hour_bucket(h0) - 10, hour_bucket(h0) - 5)
                  .empty());
}

// ---------------------------------------------------------- closed loop

struct LoopFixture {
  Cluster cluster;
  sparklite::Engine engine;
  buslite::Broker broker;
  server::AnalyticsServer server;
  SelfTelemetryLoop loop;

  LoopFixture()
      : cluster(opts()),
        engine(sparklite::EngineOptions{.workers = 2}),
        server(cluster, engine),
        loop(cluster, broker) {
    HPCLA_CHECK(model::create_data_model(cluster).is_ok());
    server.set_self_telemetry(&loop);
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
};

std::string window_json(UnixSeconds begin, UnixSeconds end) {
  return R"("begin":)" + std::to_string(begin) + R"(,"end":)" +
         std::to_string(end);
}

TEST(ClosedLoopTest, WorkloadRoundTripsIntoSysTablesAndSelfquery) {
  telemetry::tracer().clear();
  LoopFixture f;
  const UnixSeconds before = std::time(nullptr);

  // Foreground workload: complex queries (feed server.query.complex.us)
  // plus one artificially slow root trace for the slow_spans path.
  const std::string ctx =
      R"("context":{"window":{"begin":1489449600,"end":1489453200}})";
  for (int i = 0; i < 3; ++i) {
    f.ok(R"({"op":"hourly",)" + ctx + "}");
  }
  {
    auto span = telemetry::Span::root("selftest.slowop");
    span.set_duration_us(500'000);  // over the 50 ms slow threshold
  }

  const auto pump = f.loop.pump();
  const UnixSeconds after = std::time(nullptr);
  EXPECT_GT(pump.published, 0u);
  EXPECT_GT(pump.drained.metrics_in, 0u);
  EXPECT_GT(pump.drained.spans_in, 0u);
  EXPECT_GT(pump.drained.rows_written, 0u);
  EXPECT_EQ(pump.drained.decode_failures, 0u);
  EXPECT_EQ(pump.drained.write_failures, 0u);

  // The system's own latency histogram landed in cassalite, shaped like
  // any other event table: partition per metric-hour.
  std::size_t sys_rows = 0;
  for (std::int64_t h = hour_bucket(before); h <= hour_bucket(after); ++h) {
    ReadQuery q;
    q.table = std::string(kSysMetrics);
    q.partition_key = sys_metric_key(h, "server.query.complex.us");
    auto read = f.cluster.select(q, Consistency::kOne);
    if (read.is_ok()) sys_rows += read->rows.size();
  }
  EXPECT_GE(sys_rows, 1u);

  // selfquery answers the workload's own p99 out of cassalite.
  auto p99 = f.ok(
      R"({"op":"selfquery","what":"latency_p99","metric":"server.query.complex.us",)" +
      window_json(before - 1, after + 1) + "}");
  EXPECT_EQ(p99["path"].as_string(), "simple");
  const Json& latest = p99["result"]["latest"];
  EXPECT_GE(p99["result"]["rows"].as_int(), 1);
  EXPECT_EQ(latest["kind"].as_string(), "hist");
  EXPECT_GT(latest["p99_us"].as_double(), 0.0);
  EXPECT_GE(latest["value"].as_double(), 3.0);  // the 3 complex queries

  // metric_series returns the same rows, ascending, with a limit.
  auto series = f.ok(
      R"({"op":"selfquery","what":"metric_series","metric":"server.query.complex.us","limit":1,)" +
      window_json(before - 1, after + 1) + "}");
  EXPECT_EQ(series["result"]["series"].as_array().size(), 1u);

  // The span views summarize the workload's ops without a table scan.
  auto ops = f.ok(R"({"op":"selfquery","what":"ops",)" +
                  window_json(before - 1, after + 1) + "}");
  bool saw_hourly = false;
  for (const auto& s : ops["result"]["ops"].as_array()) {
    if (s["op"].as_string() == "server.hourly") {
      saw_hourly = true;
      EXPECT_GE(s["spans"].as_int(), 3);
    }
  }
  EXPECT_TRUE(saw_hourly);

  // slow_spans surfaces the tail-sampled slow trace from sys_spans.
  auto slow = f.ok(
      R"({"op":"selfquery","what":"slow_spans","spanop":"selftest.slowop",)" +
      window_json(before - 1, after + 1) + "}");
  const auto& slow_arr = slow["result"]["spans"].as_array();
  ASSERT_GE(slow_arr.size(), 1u);
  EXPECT_TRUE(slow_arr[0]["slow"].as_bool());
  EXPECT_EQ(slow_arr[0]["duration_us"].as_int(), 500'000);

  // alerts op responds through the attached loop (nothing fired here).
  auto alerts = f.ok(R"({"op":"alerts"})");
  EXPECT_TRUE(alerts["result"]["fired"].is_int());
  EXPECT_EQ(alerts["result"]["fingerprint"].as_string().size(), 16u);

  // Unattached server: both ops are failed preconditions.
  server::AnalyticsServer bare(f.cluster, f.engine);
  auto parsed = Json::parse(R"({"op":"alerts"})");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(bare.handle(parsed.value())["status"].as_string(), "error");
}

TEST(ClosedLoopTest, IdleLoopPublishesZeroEvents) {
  telemetry::tracer().clear();
  LoopFixture f;
  // First pump absorbs whatever the fixture setup moved.
  (void)f.loop.pump();
  // With no foreground work between cycles, the loop's own drain traffic
  // is fully suppressed: no spans (SuppressScope), no exported metrics
  // (selftel. exclusion + rebaseline), no internal-topic bus feedback.
  for (int cycle = 0; cycle < 3; ++cycle) {
    const auto idle = f.loop.pump();
    EXPECT_EQ(idle.published, 0u) << "cycle " << cycle;
    EXPECT_EQ(idle.drained.metrics_in, 0u) << "cycle " << cycle;
    EXPECT_EQ(idle.drained.spans_in, 0u) << "cycle " << cycle;
    EXPECT_EQ(idle.drained.rows_written, 0u) << "cycle " << cycle;
  }
}

TEST(ClosedLoopTest, CorruptTelemetryPayloadsQuarantineToDlq) {
  telemetry::tracer().clear();
  Cluster cluster(LoopFixture::opts());
  buslite::Broker broker;
  SelfTelemetryLoop loop(cluster, broker);
  (void)loop.pump();  // absorb construction movement
  ASSERT_TRUE(broker
                  .produce(titanlog::kTelemetryMetricsTopic, "k",
                           "not json at all", 1000)
                  .is_ok());
  ASSERT_TRUE(broker
                  .produce(titanlog::kTelemetrySpansTopic, "k",
                           R"({"ts":"wrong-type"})", 2000)
                  .is_ok());
  const auto report = loop.ingestor().drain();
  EXPECT_EQ(report.decode_failures, 2u);
  EXPECT_EQ(report.quarantined, 2u);
  EXPECT_EQ(report.rows_written, 0u);
  // The rejects land byte-for-byte on the per-topic DLQs.
  const std::string metrics_dlq =
      dead_letter_topic(titanlog::kTelemetryMetricsTopic);
  std::vector<buslite::Message> rejects;
  const auto parts = broker.partition_count(metrics_dlq);
  ASSERT_TRUE(parts.is_ok());
  for (int p = 0; p < parts.value(); ++p) {
    auto fetched = broker.fetch(metrics_dlq, p, 0, 100);
    if (!fetched.is_ok()) continue;
    for (auto& m : fetched.value()) rejects.push_back(std::move(m));
  }
  ASSERT_EQ(rejects.size(), 1u);
  EXPECT_EQ(rejects[0].value, "not json at all");
  EXPECT_EQ(rejects[0].timestamp, 1000);
}

// ------------------------------------------------- seeded alert determinism

struct AlertRunResult {
  std::uint64_t fired = 0;
  std::uint64_t fingerprint = 0;
  std::string rule;
  UnixSeconds alert_ts = 0;
  std::uint64_t rows_written = 0;
  std::size_t idle_events = 0;
};

/// One seeded chaos run: a slow replica pushes reads over the timeout so
/// cassalite.replica.timeouts burns the read-error budget; the loop's
/// next pump must fire exactly the replica-timeout-burn alert.
AlertRunResult run_seeded_alert_scenario(std::uint64_t seed) {
  telemetry::tracer().clear();
  SimClock clock;
  clock.reset(kT0 * 1000);

  FaultOptions fopts;
  fopts.seed = seed;
  fopts.base_latency_ms = 2;
  fopts.slow_latency_ms = 40;
  ClusterOptions copts;
  copts.node_count = 4;
  copts.replication_factor = 3;
  copts.read_timeout_ms = 30;  // the slow replica (40 ms) overshoots this
  copts.speculative_delay_ms = 5;
  FaultInjector injector(copts.node_count, fopts, &clock);
  Cluster cluster(copts);
  cluster.set_fault_injector(&injector);

  buslite::Broker broker;
  telemetry::ExporterOptions eopts;
  eopts.sim_clock = &clock;
  SelfTelemetryLoop loop(cluster, broker, eopts);

  TableSchema schema;
  schema.name = "t";
  schema.partition_key_columns = {"pk"};
  schema.clustering_key_columns = {"seq"};
  HPCLA_CHECK(cluster.create_table(schema).is_ok());
  std::vector<std::string> pks;
  for (int p = 0; p < 8; ++p) pks.push_back("pk" + std::to_string(p));
  for (std::int64_t i = 0; i < 32; ++i) {
    Row row;
    row.key = ClusteringKey::of({Value(i)});
    row.set("v", Value(std::string("v") + std::to_string(i)));
    HPCLA_CHECK(cluster
                    .insert("t", pks[static_cast<std::size_t>(i) % pks.size()],
                            row, Consistency::kQuorum)
                    .is_ok());
  }
  // Absorb the healthy setup so the fault window's deltas stand alone.
  (void)loop.pump();

  // Latency fault: node 0 answers at 40 ms for the rest of the run.
  injector.slow_window(0, clock.now_ms(), clock.now_ms() + 1'000'000);
  for (int i = 0; i < 40; ++i) {
    ReadQuery q;
    q.table = "t";
    q.partition_key = pks[static_cast<std::size_t>(i) % pks.size()];
    (void)cluster.select(q, Consistency::kQuorum);
    clock.advance_ms(100);
  }

  const auto pump = loop.pump();
  AlertRunResult result;
  result.fired = loop.alerts().fired_count();
  result.fingerprint = loop.alerts().fingerprint();
  result.rows_written = pump.drained.rows_written;
  const auto history = loop.alerts().history();
  if (!history.empty()) {
    result.rule = history.back().rule;
    result.alert_ts = history.back().ts;
  }
  // A follow-up idle pump publishes nothing even mid-chaos-aftermath.
  result.idle_events = loop.pump().published;
  return result;
}

TEST(ClosedLoopTest, SeededLatencyFaultFiresExactlyOneAlertBitIdentically) {
  constexpr std::uint64_t kSeed = 0x5E1F7E1ull;
  const AlertRunResult first = run_seeded_alert_scenario(kSeed);
  const AlertRunResult second = run_seeded_alert_scenario(kSeed);

  EXPECT_EQ(first.fired, 1u);
  EXPECT_EQ(first.rule, "replica-timeout-burn");
  EXPECT_GE(first.alert_ts, kT0);
  EXPECT_GT(first.rows_written, 0u);
  EXPECT_EQ(first.idle_events, 0u);
  EXPECT_EQ(second.fired, first.fired);
  EXPECT_EQ(second.fingerprint, first.fingerprint)
      << "same seed did not replay bit-identically";

  const char* json_path = std::getenv("SELFTEL_JSON");
  if (json_path != nullptr && *json_path != '\0') {
    // Probe summary for tools/check_trend.py --report selftelemetry.
    std::FILE* out = std::fopen(json_path, "w");
    ASSERT_NE(out, nullptr);
    std::fprintf(
        out,
        "{\n  \"bench\": \"selftelemetry\",\n  \"results\": [],\n"
        "  \"selftelemetry\": {\"seed\": %llu, \"alerts_fired\": %llu, "
        "\"rule\": \"%s\", \"fingerprint\": \"%016llx\", "
        "\"replay_identical\": %s, \"rows_written\": %llu, "
        "\"idle_events\": %zu}\n}\n",
        static_cast<unsigned long long>(kSeed),
        static_cast<unsigned long long>(first.fired), first.rule.c_str(),
        static_cast<unsigned long long>(first.fingerprint),
        first.fingerprint == second.fingerprint && first.fired == second.fired
            ? "true"
            : "false",
        static_cast<unsigned long long>(first.rows_written),
        first.idle_events);
    std::fclose(out);
  }
}

}  // namespace
}  // namespace hpcla::model::selftel
