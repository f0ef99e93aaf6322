// Tests for the data model: keys, DDL, codecs, batch ETL, and streaming
// ingestion with same-second coalescing.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>

#include "model/ingest.hpp"
#include "model/keys.hpp"
#include "model/streaming_ingest.hpp"
#include "model/tables.hpp"
#include "titanlog/generator.hpp"

namespace hpcla::model {
namespace {

using cassalite::Cluster;
using cassalite::ClusterOptions;
using cassalite::ReadQuery;
using titanlog::EventRecord;
using titanlog::EventType;
using titanlog::JobRecord;

constexpr UnixSeconds kT0 = 1489449600;  // 2017-03-14 00:00:00 UTC
const std::int64_t kHour0 = hour_bucket(kT0);

ClusterOptions small_cluster() {
  ClusterOptions o;
  o.node_count = 4;
  o.replication_factor = 2;
  return o;
}

EventRecord event(UnixSeconds ts, EventType type, topo::NodeId node,
                  std::int64_t seq, std::string msg = "m") {
  EventRecord e;
  e.ts = ts;
  e.type = type;
  e.node = node;
  e.seq = seq;
  e.message = std::move(msg);
  return e;
}

JobRecord job(std::int64_t apid, UnixSeconds start, UnixSeconds end,
              std::vector<topo::NodeId> nodes, int exit_code = 0) {
  JobRecord j;
  j.apid = apid;
  j.app_name = "LAMMPS";
  j.user = "usr1";
  j.start = start;
  j.end = end;
  j.nodes = std::move(nodes);
  j.exit_code = exit_code;
  return j;
}

// -------------------------------------------------------------------- keys

TEST(KeysTest, EventTimeKeyRoundTrip) {
  const std::string key = event_time_key(413185, EventType::kLustreError);
  EXPECT_EQ(key, "413185|LustreError");
  auto parsed = parse_event_time_key(key);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->hour, 413185);
  EXPECT_EQ(parsed->type, EventType::kLustreError);
  EXPECT_FALSE(parse_event_time_key("413185").is_ok());
  EXPECT_FALSE(parse_event_time_key("x|MCE").is_ok());
  EXPECT_FALSE(parse_event_time_key("413185|Nope").is_ok());
}

TEST(KeysTest, EventLocationKeyRoundTrip) {
  const std::string key = event_location_key(413185, 1234);
  EXPECT_EQ(key, "413185|1234");
  auto parsed = parse_event_location_key(key);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->hour, 413185);
  EXPECT_EQ(parsed->node, 1234);
  EXPECT_FALSE(parse_event_location_key("413185|99999").is_ok());
  EXPECT_FALSE(parse_event_location_key("413185").is_ok());
}

// --------------------------------------------------------------------- DDL

TEST(TablesTest, CreateDataModelRegistersAllTables) {
  Cluster cluster(small_cluster());
  ASSERT_TRUE(create_data_model(cluster).is_ok());
  const std::set<std::string> expected{
      "nodeinfos",        "eventtypes",          "eventsynopsis",
      "event_by_time",    "event_by_location",   "application_by_time",
      "application_by_user", "application_by_app",
      "application_by_location"};
  std::set<std::string> actual;
  for (const auto& s : cluster.schemas()) actual.insert(s.name);
  EXPECT_EQ(actual, expected);
  // Re-creating fails cleanly.
  EXPECT_FALSE(create_data_model(cluster).is_ok());
}

TEST(TablesTest, LoadEventTypes) {
  Cluster cluster(small_cluster());
  ASSERT_TRUE(create_data_model(cluster).is_ok());
  ASSERT_TRUE(load_eventtypes(cluster).is_ok());
  ReadQuery q;
  q.table = std::string(kEventTypes);
  q.partition_key = eventtype_key(EventType::kMachineCheck);
  auto r = cluster.select(q);
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].find("severity")->as_text(), "error");
}

TEST(TablesTest, LoadNodeInfosFullMachine) {
  Cluster cluster(small_cluster());
  ASSERT_TRUE(create_data_model(cluster).is_ok());
  ASSERT_TRUE(load_nodeinfos(cluster).is_ok());
  EXPECT_EQ(cluster.all_partition_keys(std::string(kNodeInfos)).size(),
            19200u);
  ReadQuery q;
  q.table = std::string(kNodeInfos);
  q.partition_key = nodeinfo_key(5000);
  auto r = cluster.select(q);
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].find("cname")->as_text(), topo::cname_of(5000));
  EXPECT_EQ(r->rows[0].find("gpu_memory_gb")->as_int(), 6);
}

// ------------------------------------------------------------------ codecs

TEST(CodecTest, EventRowRoundTripBothTables) {
  EventRecord e = event(kT0 + 42, EventType::kGpuMemoryError, 777, 5, "dbe");
  e.count = 3;
  auto from_time = decode_event_time_row(
      event_time_key(kHour0, e.type), event_time_row(e));
  ASSERT_TRUE(from_time.is_ok());
  EXPECT_EQ(from_time.value(), e);
  auto from_loc = decode_event_location_row(
      event_location_key(kHour0, e.node), event_location_row(e));
  ASSERT_TRUE(from_loc.is_ok());
  EXPECT_EQ(from_loc.value(), e);
}

TEST(CodecTest, AppRowRoundTrip) {
  JobRecord j = job(5000123, kT0, kT0 + 5000, {10, 11, 12, 13}, 137);
  auto back = decode_app_row(app_row(j));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), j);
}

TEST(CodecTest, DecodeRejectsCorruptRows) {
  cassalite::Row bad;  // empty clustering key
  EXPECT_FALSE(decode_app_row(bad).is_ok());
  EXPECT_FALSE(
      decode_event_time_row(event_time_key(0, EventType::kMachineCheck), bad)
          .is_ok());
}

// --------------------------------------------------------------- batch ETL

struct Fixture {
  Cluster cluster{small_cluster()};
  sparklite::Engine engine{sparklite::EngineOptions{.workers = 4}};

  Fixture() { HPCLA_CHECK(create_data_model(cluster).is_ok()); }
};

TEST(BatchIngestTest, RecordsLandInBothEventTables) {
  Fixture f;
  BatchIngestor ingestor(f.cluster, f.engine);
  std::vector<EventRecord> events{
      event(kT0 + 10, EventType::kMachineCheck, 100, 0),
      event(kT0 + 20, EventType::kMachineCheck, 101, 1),
      event(kT0 + 30, EventType::kLustreError, 100, 2),
      event(kT0 + 3700, EventType::kMachineCheck, 100, 3),  // next hour
  };
  auto report = ingestor.ingest_records(events, {});
  EXPECT_EQ(report.event_rows, 4u);
  EXPECT_EQ(report.write_failures, 0u);
  EXPECT_EQ(report.synopsis_rows, 3u);  // (h0,MCE), (h0,Lustre), (h1,MCE)

  // event_by_time: hour0 MCE partition has both MCEs, time ordered.
  ReadQuery q;
  q.table = std::string(kEventByTime);
  q.partition_key = event_time_key(kHour0, EventType::kMachineCheck);
  auto r = f.cluster.select(q);
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0].key.parts[0].as_int(), kT0 + 10);
  EXPECT_EQ(r->rows[1].key.parts[0].as_int(), kT0 + 20);

  // event_by_location: node 100 hour0 has MCE + LustreError.
  q.table = std::string(kEventByLocation);
  q.partition_key = event_location_key(kHour0, 100);
  r = f.cluster.select(q);
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0].find(kColType)->as_text(), "MCE");
  EXPECT_EQ(r->rows[1].find(kColType)->as_text(), "LustreError");
}

TEST(BatchIngestTest, SynopsisAggregatesAcrossBatches) {
  Fixture f;
  BatchIngestor ingestor(f.cluster, f.engine);
  (void)ingestor.ingest_records(
      {event(kT0 + 5, EventType::kMachineCheck, 1, 0)}, {});
  (void)ingestor.ingest_records(
      {event(kT0 + 500, EventType::kMachineCheck, 2, 1)}, {});

  ReadQuery q;
  q.table = std::string(kEventSynopsis);
  q.partition_key = synopsis_key(kHour0);
  auto r = f.cluster.select(q);
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].find(kColCount)->as_int(), 2);
  EXPECT_EQ(r->rows[0].find(kColFirstTs)->as_int(), kT0 + 5);
  EXPECT_EQ(r->rows[0].find(kColLastTs)->as_int(), kT0 + 500);
}

TEST(BatchIngestTest, JobsLandInAllFourAppTables) {
  Fixture f;
  BatchIngestor ingestor(f.cluster, f.engine);
  // Two-hour job on 3 nodes -> 6 location rows.
  JobRecord j = job(5000001, kT0 + 100, kT0 + 3700, {50, 51, 52});
  auto report = ingestor.ingest_records({}, {j});
  EXPECT_EQ(report.app_rows, 1u);
  EXPECT_EQ(report.app_location_rows, 6u);

  const auto check = [&](std::string_view table, const std::string& key) {
    ReadQuery q;
    q.table = std::string(table);
    q.partition_key = key;
    auto r = f.cluster.select(q);
    ASSERT_TRUE(r.is_ok()) << table;
    ASSERT_EQ(r->rows.size(), 1u) << table;
    auto decoded = decode_app_row(r->rows[0]);
    ASSERT_TRUE(decoded.is_ok()) << table;
    EXPECT_EQ(decoded->apid, 5000001) << table;
  };
  // application_by_time holds the job in both hours it runs.
  check(kAppByTime, app_time_key(kHour0));
  check(kAppByTime, app_time_key(kHour0 + 1));
  check(kAppByUser, app_user_key("usr1"));
  check(kAppByApp, app_app_key("LAMMPS"));

  // Location rows in both overlapped hours.
  for (std::int64_t h : {kHour0, kHour0 + 1}) {
    ReadQuery q;
    q.table = std::string(kAppByLocation);
    q.partition_key = app_location_key(h, 51);
    auto r = f.cluster.select(q);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r->rows.size(), 1u) << "hour " << h;
  }
}

TEST(BatchIngestTest, JobLongerThanTheSpanBoundWritesNothing) {
  Fixture f;
  BatchIngestor ingestor(f.cluster, f.engine);
  const auto started = std::chrono::steady_clock::now();
  // A whole-machine job claiming to run until the end of time would fan
  // out over ~2.6e15 hours x 19,200 nodes; one just past a week, over 169.
  std::vector<topo::NodeId> machine(topo::TitanGeometry::kTotalNodes);
  for (std::size_t n = 0; n < machine.size(); ++n) {
    machine[n] = static_cast<topo::NodeId>(n);
  }
  const std::vector<std::pair<UnixSeconds, UnixSeconds>> spans = {
      {0, INT64_MAX},
      {INT64_MIN, INT64_MAX},
      {kT0, kT0 + titanlog::kMaxJobSpanSeconds + 1},
      {kT0, kT0 - 1}};
  for (const auto& [start, end] : spans) {
    auto report = ingestor.ingest_records({}, {job(7, start, end, machine)});
    EXPECT_EQ(report.write_failures, 1u) << start << " " << end;
    EXPECT_EQ(report.app_rows, 0u);
    EXPECT_EQ(report.app_location_rows, 0u);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - started, std::chrono::seconds(5));
  const std::vector<std::pair<std::string_view, std::string>> partitions = {
      {kAppByTime, app_time_key(0)},
      {kAppByTime, app_time_key(kHour0)},
      {kAppByUser, app_user_key("usr1")},
      {kAppByApp, app_app_key("LAMMPS")},
      {kAppByLocation, app_location_key(kHour0, 0)}};
  for (const auto& [table, key] : partitions) {
    ReadQuery q;
    q.table = std::string(table);
    q.partition_key = key;
    auto r = f.cluster.select(q);
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(r->rows.empty()) << table << " " << key;
  }

  // A job of exactly the bound is written whole: 168 hours.
  auto report = ingestor.ingest_records(
      {}, {job(8, kT0, kT0 + titanlog::kMaxJobSpanSeconds, {50})});
  EXPECT_EQ(report.write_failures, 0u);
  EXPECT_EQ(report.app_rows, 1u);
  EXPECT_EQ(report.app_location_rows,
            static_cast<std::uint64_t>(titanlog::kMaxJobSpanSeconds / 3600));
}

TEST(BatchIngestTest, FullPipelineFromRawLines) {
  Fixture f;
  titanlog::ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.window = TimeRange{kT0, kT0 + 2 * 3600};
  cfg.background_scale = 0.5;
  cfg.jobs = titanlog::JobMixSpec{.users = 5, .apps = 4, .jobs_per_hour = 20,
                                  .max_size_log2 = 4};
  auto logs = titanlog::Generator(cfg).generate();
  auto lines = titanlog::render_all(logs);

  BatchIngestor ingestor(f.cluster, f.engine);
  auto report = ingestor.ingest_lines(lines);
  EXPECT_EQ(report.parse.lines, lines.size());
  EXPECT_EQ(report.parse.malformed, 0u);
  EXPECT_EQ(report.parse.unmatched, 0u);
  EXPECT_EQ(report.parse.events, logs.events.size());
  EXPECT_EQ(report.parse.jobs, logs.jobs.size());
  EXPECT_EQ(report.event_rows, logs.events.size());
  EXPECT_EQ(report.app_rows, logs.jobs.size());
  EXPECT_EQ(report.write_failures, 0u);

  // Spot check: every generated MCE in hour 0 is retrievable.
  std::size_t expected = 0;
  for (const auto& e : logs.events) {
    if (e.type == EventType::kMachineCheck && hour_bucket(e.ts) == kHour0) {
      ++expected;
    }
  }
  ReadQuery q;
  q.table = std::string(kEventByTime);
  q.partition_key = event_time_key(kHour0, EventType::kMachineCheck);
  auto r = f.cluster.select(q);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->rows.size(), expected);
}

TEST(BatchIngestTest, SameSecondRawLinesAllStored) {
  // Regression: parsed lines carry no seq; the ingestor must assign unique
  // clustering keys or same-second events overwrite one another.
  Fixture f;
  BatchIngestor ingestor(f.cluster, f.engine);
  std::vector<titanlog::LogLine> lines;
  for (int i = 0; i < 5; ++i) {
    titanlog::EventRecord e =
        event(kT0 + 7, EventType::kLustreError, 100 + i, 0,
              "LustreError: atlas-OST0001: slow reply to ping, 10s late");
    lines.push_back(titanlog::render_event(e));
  }
  auto report = ingestor.ingest_lines(lines);
  EXPECT_EQ(report.parse.events, 5u);
  ReadQuery q;
  q.table = std::string(kEventByTime);
  q.partition_key = event_time_key(kHour0, EventType::kLustreError);
  auto r = f.cluster.select(q);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->rows.size(), 5u);
}

TEST(BatchIngestTest, WriteFailuresCountedWhenClusterDegraded) {
  ClusterOptions opts;
  opts.node_count = 3;
  opts.replication_factor = 3;
  Cluster cluster(opts);
  ASSERT_TRUE(create_data_model(cluster).is_ok());
  sparklite::Engine engine(sparklite::EngineOptions{.workers = 2});
  cluster.kill_node(0);
  cluster.kill_node(1);  // quorum of 3 impossible
  IngestOptions io;
  io.consistency = cassalite::Consistency::kQuorum;
  BatchIngestor ingestor(cluster, engine, io);
  auto report = ingestor.ingest_records(
      {event(kT0, EventType::kMachineCheck, 1, 0)}, {});
  EXPECT_GT(report.write_failures, 0u);
  EXPECT_EQ(report.event_rows, 0u);
}

// --------------------------------------------------------------- streaming

TEST(StreamingIngestTest, EndToEndWithCoalescing) {
  Fixture f;
  buslite::Broker broker;
  ASSERT_TRUE(broker.create_topic("events", {.partitions = 4}).is_ok());
  EventPublisher pub(broker, "events");

  // 5 duplicate messages: same type/node/second -> must coalesce into one
  // row with count 5; plus one distinct event in the same window.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pub.publish(event(kT0 + 1, EventType::kLustreError, 42, i))
                    .is_ok());
  }
  ASSERT_TRUE(pub.publish(event(kT0 + 1, EventType::kLustreError, 43, 5))
                  .is_ok());

  StreamingIngestor ingestor(f.cluster, f.engine, broker, "events");
  auto report = ingestor.process_available();
  EXPECT_EQ(report.batches, 1u);
  EXPECT_EQ(report.messages_in, 6u);
  EXPECT_EQ(report.events_written, 2u);
  EXPECT_NEAR(report.coalesce_ratio(), 3.0, 1e-9);

  ReadQuery q;
  q.table = std::string(kEventByLocation);
  q.partition_key = event_location_key(kHour0, 42);
  auto r = f.cluster.select(q);
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].find(kColCount)->as_int(), 5);
}

TEST(StreamingIngestTest, DistinctSecondsAreSeparateBatches) {
  Fixture f;
  buslite::Broker broker;
  ASSERT_TRUE(broker.create_topic("events", {.partitions = 2}).is_ok());
  EventPublisher pub(broker, "events");
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE(pub.publish(event(kT0 + s, EventType::kMachineCheck, 7, s))
                    .is_ok());
  }
  StreamingIngestor ingestor(f.cluster, f.engine, broker, "events");
  auto report = ingestor.process_available();
  EXPECT_EQ(report.batches, 3u);  // one 1 s window per second
  EXPECT_EQ(report.events_written, 3u);
}

TEST(StreamingIngestTest, MalformedMessagesCountedNotFatal) {
  Fixture f;
  buslite::Broker broker;
  ASSERT_TRUE(broker.create_topic("events", {.partitions = 1}).is_ok());
  ASSERT_TRUE(broker.produce("events", "k", "not json", 1000).is_ok());
  ASSERT_TRUE(broker.produce("events", "k", R"({"ts": 1})", 1000).is_ok());
  EventPublisher pub(broker, "events");
  ASSERT_TRUE(pub.publish(event(kT0, EventType::kDvsError, 9, 0)).is_ok());

  StreamingIngestor ingestor(f.cluster, f.engine, broker, "events");
  auto report = ingestor.process_available();
  EXPECT_EQ(report.decode_failures, 2u);
  EXPECT_EQ(report.events_written, 1u);
}

TEST(StreamingIngestTest, RepeatedCallsResumeFromOffsets) {
  Fixture f;
  buslite::Broker broker;
  ASSERT_TRUE(broker.create_topic("events", {.partitions = 2}).is_ok());
  EventPublisher pub(broker, "events");
  ASSERT_TRUE(pub.publish(event(kT0, EventType::kMachineCheck, 1, 0)).is_ok());
  StreamingIngestor ingestor(f.cluster, f.engine, broker, "events");
  EXPECT_EQ(ingestor.process_available().events_written, 1u);
  EXPECT_EQ(ingestor.process_available().events_written, 0u);
  ASSERT_TRUE(pub.publish(event(kT0 + 9, EventType::kMachineCheck, 1, 1)).is_ok());
  EXPECT_EQ(ingestor.process_available().events_written, 1u);
  EXPECT_EQ(ingestor.totals().events_written, 2u);
  EXPECT_EQ(ingestor.totals().messages_in, 2u);
}

TEST(StreamingIngestTest, ParallelGroupMembersIngestDisjointly) {
  // Three group members drain one topic: every message ingested exactly
  // once, coalescing still exact (bus partitions by cname).
  Fixture f;
  buslite::Broker broker;
  ASSERT_TRUE(broker.create_topic("events", {.partitions = 6}).is_ok());
  EventPublisher pub(broker, "events");
  std::size_t expected_groups = 0;
  {
    std::set<std::tuple<int, topo::NodeId, UnixSeconds>> groups;
    for (int i = 0; i < 300; ++i) {
      auto e = event(kT0 + i % 20, EventType::kLustreError,
                     static_cast<topo::NodeId>(i % 7), i);
      ASSERT_TRUE(pub.publish(e).is_ok());
      groups.insert({0, e.node, e.ts});
    }
    expected_groups = groups.size();
  }
  StreamingIngestor m0(f.cluster, f.engine, broker, "events", 0, 3);
  StreamingIngestor m1(f.cluster, f.engine, broker, "events", 1, 3);
  StreamingIngestor m2(f.cluster, f.engine, broker, "events", 2, 3);
  auto r0 = m0.process_available();
  auto r1 = m1.process_available();
  auto r2 = m2.process_available();
  EXPECT_EQ(r0.messages_in + r1.messages_in + r2.messages_in, 300u);
  EXPECT_GT(r0.messages_in, 0u);
  EXPECT_GT(r1.messages_in, 0u);
  EXPECT_GT(r2.messages_in, 0u);
  EXPECT_EQ(r0.events_written + r1.events_written + r2.events_written,
            expected_groups);

  // Total stored counts equal the published message count.
  std::int64_t stored = 0;
  ReadQuery q;
  q.table = std::string(kEventByTime);
  q.partition_key = event_time_key(kHour0, EventType::kLustreError);
  auto rows = f.cluster.select(q);
  ASSERT_TRUE(rows.is_ok());
  for (const auto& row : rows->rows) {
    stored += row.find(kColCount)->as_int();
  }
  EXPECT_EQ(stored, 300);
}

TEST(StreamingIngestTest, StreamAndBatchProduceSameTableContents) {
  // Property: loading N distinct events via batch or via stream yields the
  // same event_by_time rows (modulo write timestamps).
  titanlog::ScenarioConfig cfg;
  cfg.seed = 13;
  cfg.window = TimeRange{kT0, kT0 + 600};
  cfg.background_scale = 0.0;
  titanlog::HotspotSpec hs;
  hs.type = EventType::kGpuFailure;
  hs.location = topo::Coord{1, 1, -1, -1, -1};
  hs.window = cfg.window;
  hs.rate_per_node_hour = 20.0;
  cfg.hotspots.push_back(hs);
  auto logs = titanlog::Generator(cfg).generate();
  ASSERT_GT(logs.events.size(), 50u);

  Fixture batch_f;
  BatchIngestor batch(batch_f.cluster, batch_f.engine);
  (void)batch.ingest_records(logs.events, {});

  Fixture stream_f;
  buslite::Broker broker;
  ASSERT_TRUE(broker.create_topic("events", {.partitions = 4}).is_ok());
  EventPublisher pub(broker, "events");
  for (const auto& e : logs.events) ASSERT_TRUE(pub.publish(e).is_ok());
  StreamingIngestor stream(stream_f.cluster, stream_f.engine, broker,
                           "events");
  (void)stream.process_available();

  // Ground truth: batch stores one row per event; the stream coalesces
  // same (type, node, second) groups into one row whose count is the
  // group size. Totals must agree.
  std::map<std::pair<UnixSeconds, topo::NodeId>, std::int64_t> groups;
  std::size_t hour0_events = 0;
  for (const auto& e : logs.events) {
    if (hour_bucket(e.ts) != kHour0) continue;
    ++hour0_events;
    groups[{e.ts, e.node}] += 1;
  }

  ReadQuery q;
  q.table = std::string(kEventByTime);
  q.partition_key = event_time_key(kHour0, EventType::kGpuFailure);
  auto from_batch = batch_f.cluster.select(q);
  auto from_stream = stream_f.cluster.select(q);
  ASSERT_TRUE(from_batch.is_ok());
  ASSERT_TRUE(from_stream.is_ok());
  EXPECT_EQ(from_batch->rows.size(), hour0_events);
  EXPECT_EQ(from_stream->rows.size(), groups.size());
  std::int64_t batch_total = 0;
  std::int64_t stream_total = 0;
  for (const auto& row : from_batch->rows) {
    batch_total += row.find(kColCount)->as_int();
  }
  for (const auto& row : from_stream->rows) {
    stream_total += row.find(kColCount)->as_int();
  }
  EXPECT_EQ(batch_total, stream_total);
  EXPECT_EQ(batch_total, static_cast<std::int64_t>(hour0_events));
}

}  // namespace
}  // namespace hpcla::model
