// Tests for contexts, the scan planner, spatio-temporal queries, heat maps,
// distributions, time series, transfer entropy, text analytics, and
// reliability reports — each exercised against generated scenarios with
// known ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "analytics/context.hpp"
#include "analytics/distribution.hpp"
#include "analytics/heatmap.hpp"
#include "analytics/queries.hpp"
#include "analytics/reliability.hpp"
#include "analytics/text.hpp"
#include "analytics/timeseries.hpp"
#include "analytics/transfer_entropy.hpp"
#include "model/ingest.hpp"
#include "titanlog/generator.hpp"

namespace hpcla::analytics {
namespace {

using cassalite::Cluster;
using cassalite::ClusterOptions;
using model::BatchIngestor;
using titanlog::EventRecord;
using titanlog::EventType;
using titanlog::Generator;
using titanlog::ScenarioConfig;

constexpr UnixSeconds kT0 = 1489449600;  // 2017-03-14 00:00:00 UTC
const std::int64_t kHour0 = hour_bucket(kT0);

// Shared fixture: one 4-node cluster loaded with a rich 4-hour scenario.
struct LoadedCluster {
  Cluster cluster;
  sparklite::Engine engine;
  titanlog::GeneratedLogs logs;

  explicit LoadedCluster(ScenarioConfig cfg)
      : cluster(make_opts()),
        engine(sparklite::EngineOptions{.workers = 4}) {
    HPCLA_CHECK(model::create_data_model(cluster).is_ok());
    logs = Generator(std::move(cfg)).generate();
    BatchIngestor ingestor(cluster, engine);
    auto report = ingestor.ingest_records(logs.events, logs.jobs);
    HPCLA_CHECK(report.write_failures == 0);
  }

  static ClusterOptions make_opts() {
    ClusterOptions o;
    o.node_count = 4;
    o.replication_factor = 2;
    return o;
  }
};

ScenarioConfig rich_scenario() {
  ScenarioConfig cfg;
  cfg.seed = 101;
  cfg.window = TimeRange{kT0, kT0 + 4 * 3600};
  cfg.background_scale = 0.5;
  titanlog::HotspotSpec hs;
  hs.type = EventType::kMachineCheck;
  hs.location = topo::Coord{4, 2, -1, -1, -1};  // cabinet c2-4
  hs.window = TimeRange{kT0 + 3600, kT0 + 2 * 3600};
  hs.rate_per_node_hour = 8.0;
  cfg.hotspots.push_back(hs);
  cfg.jobs = titanlog::JobMixSpec{.users = 8, .apps = 5, .jobs_per_hour = 40,
                                  .max_size_log2 = 6};
  return cfg;
}

LoadedCluster& shared_fixture() {
  static LoadedCluster fixture(rich_scenario());
  return fixture;
}

// ----------------------------------------------------------------- context

TEST(ContextTest, JsonRoundTrip) {
  Context ctx;
  ctx.window = TimeRange{kT0, kT0 + 3600};
  ctx.types = {EventType::kMachineCheck, EventType::kLustreError};
  ctx.location = topo::Coord{17, 3, 1, -1, -1};
  ctx.users = {"usr1"};
  ctx.apps = {"LAMMPS", "VASP"};
  auto back = Context::from_json(ctx.to_json());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back->window, ctx.window);
  EXPECT_EQ(back->types, ctx.types);
  EXPECT_EQ(topo::format_cname(*back->location), "c3-17c1");
  EXPECT_EQ(back->users, ctx.users);
  EXPECT_EQ(back->apps, ctx.apps);
}

TEST(ContextTest, FromJsonValidation) {
  auto bad = [](const char* text) {
    auto j = Json::parse(text);
    HPCLA_CHECK(j.is_ok());
    return Context::from_json(j.value());
  };
  EXPECT_FALSE(bad(R"({})").is_ok());  // missing window
  EXPECT_FALSE(bad(R"({"window":{"begin":10,"end":10}})").is_ok());  // empty
  EXPECT_FALSE(bad(R"({"window":{"begin":0,"end":1},"types":["Nope"]})").is_ok());
  EXPECT_FALSE(bad(R"({"window":{"begin":0,"end":1},"location":"c99-0"})").is_ok());
  EXPECT_FALSE(bad(R"({"window":{"begin":0,"end":1},"users":"usr1"})").is_ok());
  // A window may overlap at most kMaxWindowHours hour partitions.
  EXPECT_TRUE(bad(R"({"window":{"begin":0,"end":31622400}})").is_ok());
  const auto too_long = bad(R"({"window":{"begin":0,"end":31622401}})");
  ASSERT_FALSE(too_long.is_ok());
  EXPECT_EQ(too_long.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      bad(R"({"window":{"begin":0,"end":4611686018427387904}})").is_ok());
  auto system_loc =
      bad(R"({"window":{"begin":0,"end":1},"location":"system"})");
  ASSERT_TRUE(system_loc.is_ok());
  EXPECT_FALSE(system_loc->location.has_value());
}

TEST(ContextTest, Predicates) {
  Context ctx;
  ctx.window = TimeRange{0, 10};
  EXPECT_TRUE(ctx.wants_type(EventType::kDvsError));  // empty = all
  ctx.types = {EventType::kMachineCheck};
  EXPECT_TRUE(ctx.wants_type(EventType::kMachineCheck));
  EXPECT_FALSE(ctx.wants_type(EventType::kDvsError));
  EXPECT_TRUE(ctx.wants_node(0));
  ctx.location = topo::Coord{0, 0, -1, -1, -1};
  EXPECT_TRUE(ctx.wants_node(0));
  EXPECT_FALSE(ctx.wants_node(96));  // second cabinet
  EXPECT_TRUE(ctx.wants_user("anyone"));
  ctx.users = {"usr1"};
  EXPECT_FALSE(ctx.wants_user("usr2"));
}

// ----------------------------------------------------------------- planner

TEST(PlannerTest, TypeRestrictedContextsScanByTime) {
  Context ctx;
  ctx.window = TimeRange{kT0, kT0 + 3600};
  ctx.types = {EventType::kMachineCheck};
  EXPECT_EQ(plan_event_scan(ctx), ScanPlan::kByTime);
  EXPECT_EQ(event_partition_keys(ctx, ScanPlan::kByTime).size(), 1u);
}

TEST(PlannerTest, NarrowLocationScansByLocation) {
  Context ctx;
  ctx.window = TimeRange{kT0, kT0 + 3600};
  ctx.location = topo::Coord{0, 0, 0, 0, -1};  // one blade = 4 nodes
  EXPECT_EQ(plan_event_scan(ctx), ScanPlan::kByLocation);
  EXPECT_EQ(event_partition_keys(ctx, ScanPlan::kByLocation).size(), 4u);
}

TEST(PlannerTest, WholeCabinetWithTypesPrefersByTime) {
  Context ctx;
  ctx.window = TimeRange{kT0, kT0 + 3600};
  ctx.location = topo::Coord{4, 2, -1, -1, -1};  // 96 nodes
  ctx.types = {EventType::kMachineCheck};        // 1 key vs 96 keys
  EXPECT_EQ(plan_event_scan(ctx), ScanPlan::kByTime);
}

TEST(PlannerTest, KeysCoverHourRange) {
  Context ctx;
  ctx.window = TimeRange{kT0 + 1800, kT0 + 3 * 3600 + 1};  // hours 0,1,2,3
  ctx.types = {EventType::kLustreError};
  auto keys = event_partition_keys(ctx, ScanPlan::kByTime);
  ASSERT_EQ(keys.size(), 4u);
  EXPECT_EQ(keys.front(), model::event_time_key(kHour0, EventType::kLustreError));
  EXPECT_EQ(keys.back(),
            model::event_time_key(kHour0 + 3, EventType::kLustreError));
}

// ------------------------------------------------------------------ events

TEST(FetchEventsTest, MatchesGroundTruthExactly) {
  auto& f = shared_fixture();
  Context ctx;
  ctx.window = TimeRange{kT0, kT0 + 4 * 3600};
  auto fetched = fetch_events(f.engine, f.cluster, ctx);
  ASSERT_EQ(fetched.size(), f.logs.events.size());
  for (std::size_t i = 0; i < fetched.size(); ++i) {
    EXPECT_EQ(fetched[i], f.logs.events[i]) << "at " << i;
  }
}

TEST(FetchEventsTest, WindowSubsetsAreExact) {
  auto& f = shared_fixture();
  Context ctx;
  ctx.window = TimeRange{kT0 + 1234, kT0 + 7777};
  auto fetched = fetch_events(f.engine, f.cluster, ctx);
  std::size_t expected = 0;
  for (const auto& e : f.logs.events) {
    if (ctx.window.contains(e.ts)) ++expected;
  }
  EXPECT_EQ(fetched.size(), expected);
}

TEST(FetchEventsTest, TypeAndLocationFiltersAgree) {
  auto& f = shared_fixture();
  Context ctx;
  ctx.window = TimeRange{kT0, kT0 + 4 * 3600};
  ctx.types = {EventType::kMachineCheck};
  ctx.location = topo::Coord{4, 2, -1, -1, -1};
  auto fetched = fetch_events(f.engine, f.cluster, ctx);
  std::size_t expected = 0;
  for (const auto& e : f.logs.events) {
    if (e.type == EventType::kMachineCheck && ctx.wants_node(e.node)) {
      ++expected;
    }
  }
  EXPECT_EQ(fetched.size(), expected);
  EXPECT_GT(fetched.size(), 100u);  // the hotspot is here
}

TEST(FetchEventsTest, BothPlansReturnIdenticalResults) {
  auto& f = shared_fixture();
  Context ctx;
  ctx.window = TimeRange{kT0, kT0 + 2 * 3600};
  ctx.location = topo::Coord{4, 2, 0, -1, -1};  // one cage: 32 nodes
  // Force each plan via the key enumerator + manual filtering comparison.
  auto via_planner = fetch_events(f.engine, f.cluster, ctx);
  std::set<std::pair<UnixSeconds, std::int64_t>> seen;
  for (const auto& e : via_planner) seen.insert({e.ts, e.seq});
  std::size_t expected = 0;
  for (const auto& e : f.logs.events) {
    if (ctx.window.contains(e.ts) && ctx.wants_node(e.node)) {
      ++expected;
      EXPECT_TRUE(seen.contains({e.ts, e.seq}));
    }
  }
  EXPECT_EQ(via_planner.size(), expected);
}

// Event data spread over every kind of storage run: 8 KiB memtables flush
// into many SSTables (compacted every 8 runs), the newest writes stay in
// the memtables, and one corrupt row sits among the newest of a by-time
// and of a by-location partition. The storage format follows the
// environment (row, columnar or extent-file runs).
struct SpreadCluster {
  static constexpr topo::Coord kNode{4, 2, 0, 0, 0};  // in the hot cabinet
  Cluster cluster;
  sparklite::Engine engine;

  SpreadCluster()
      : cluster(make_opts()), engine(sparklite::EngineOptions{.workers = 4}) {
    HPCLA_CHECK(model::create_data_model(cluster).is_ok());
    ScenarioConfig cfg = rich_scenario();
    cfg.window = TimeRange{kT0, kT0 + 3 * 3600};
    // A LustreError storm over the MCE hotspot's second half: the hot
    // node's partitions mix types, so a type filter drops rows among them.
    titanlog::HotspotSpec lustre = cfg.hotspots.front();
    lustre.type = EventType::kLustreError;
    lustre.window = TimeRange{kT0 + 3600 + 1800, kT0 + 3 * 3600};
    lustre.rate_per_node_hour = 4.0;
    cfg.hotspots.push_back(lustre);
    const auto logs = Generator(std::move(cfg)).generate();
    BatchIngestor ingestor(cluster, engine);
    HPCLA_CHECK(ingestor.ingest_records(logs.events, logs.jobs)
                    .write_failures == 0);
    // Newest rows of their partitions, each missing a cell decode needs.
    cassalite::Row no_message;
    no_message.key = cassalite::ClusteringKey::of(
        {cassalite::Value(kT0 + 3 * 3600 - 1), cassalite::Value(1 << 30)});
    no_message.set(std::string(model::kColNode),
                   cassalite::Value(std::int64_t{0}));
    HPCLA_CHECK(cluster
                    .insert(std::string(model::kEventByTime),
                            model::event_time_key(kHour0 + 2,
                                                  EventType::kMachineCheck),
                            no_message)
                    .is_ok());
    cassalite::Row no_type;
    no_type.key = no_message.key;
    no_type.set(std::string(model::kColMessage), cassalite::Value("x"));
    HPCLA_CHECK(cluster
                    .insert(std::string(model::kEventByLocation),
                            model::event_location_key(
                                kHour0 + 2, topo::titan().nodes_in(kNode)[0]),
                            no_type)
                    .is_ok());
  }

  static ClusterOptions make_opts() {
    ClusterOptions o = LoadedCluster::make_opts();
    o.storage.memtable_flush_bytes = 8 << 10;
    return o;
  }
};

TEST(RawLogViewTest, EqualsFetchEventsReversedAndCut) {
  static SpreadCluster f;
  for (std::size_t n = 0; n < f.cluster.node_count(); ++n) {
    const auto m = f.cluster.engine(static_cast<cassalite::NodeIndex>(n))
                       .metrics();
    EXPECT_GE(m.memtable_flushes, 3u) << "node " << n;
    EXPECT_GE(m.compactions, 1u) << "node " << n;
  }
  const std::vector<TimeRange> windows = {
      {kT0, kT0 + 3 * 3600},                // whole hours
      {kT0 + 1234, kT0 + 2 * 3600 + 777},   // cuts its first and last hour
      {kT0 + 3600 + 600, kT0 + 3600 + 1800},  // inside one hour
      {kT0 + 5 * 3600, kT0 + 6 * 3600},     // no data
  };
  struct Selection {
    std::vector<EventType> types;
    std::optional<topo::Coord> location;
  };
  const topo::Coord hot_cabinet{4, 2, -1, -1, -1};
  const std::vector<Selection> selections = {
      {{}, std::nullopt},
      {{EventType::kMachineCheck}, std::nullopt},
      {{EventType::kMachineCheck, EventType::kLustreError}, std::nullopt},
      {{}, hot_cabinet},                               // by time + location
      {{EventType::kMachineCheck}, hot_cabinet},       // by time + location
      {{}, SpreadCluster::kNode},                      // by location
      {{EventType::kMachineCheck, EventType::kLustreError},
       SpreadCluster::kNode},                          // by location + types
      // Drops the hot node's MCE storm after the read.
      {{EventType::kMemoryEcc, EventType::kLustreError}, SpreadCluster::kNode},
  };
  // Each plan, with and without a filter that drops rows after the read.
  std::set<std::pair<ScanPlan, bool>> covered;
  for (const auto& window : windows) {
    for (const auto& sel : selections) {
      Context ctx;
      ctx.window = window;
      ctx.types = sel.types;
      ctx.location = sel.location;
      const ScanPlan plan = plan_event_scan(ctx);
      covered.insert({plan, plan == ScanPlan::kByTime
                                ? ctx.location.has_value()
                                : !ctx.types.empty()});
      auto expected = fetch_events(f.engine, f.cluster, ctx);
      std::reverse(expected.begin(), expected.end());
      for (const std::size_t limit :
           {std::size_t{1}, std::size_t{7}, std::size_t{100},
            expected.size() + 1, std::numeric_limits<std::size_t>::max()}) {
        const auto view = raw_log_view(f.engine, f.cluster, ctx, limit);
        const std::size_t want = std::min(limit, expected.size());
        ASSERT_EQ(view.size(), want)
            << ctx.to_json().dump() << " limit " << limit;
        for (std::size_t i = 0; i < want; ++i) {
          ASSERT_EQ(view[i], expected[i])
              << ctx.to_json().dump() << " limit " << limit << " at " << i;
        }
      }
    }
  }
  EXPECT_EQ(covered.size(), 4u);
}

// -------------------------------------------------------------------- jobs

// application_by_time holds each job in every hour it runs, so a window
// reads only its own hours: the answer is the ground-truth overlap set, in
// (start, apid) order, each job once.
TEST(FetchJobsTest, OverlapSemantics) {
  auto& f = shared_fixture();
  // A location that a job running through several hours touches.
  const titanlog::JobRecord* long_job = nullptr;
  for (const auto& j : f.logs.jobs) {
    if (hour_bucket(j.end - 1) - hour_bucket(j.start) >= 2) {
      long_job = &j;
      break;
    }
  }
  ASSERT_NE(long_job, nullptr);
  topo::Coord cabinet = topo::coord_of(long_job->nodes.front());
  cabinet.cage = cabinet.slot = cabinet.node = -1;
  const auto cabinet_nodes = topo::titan().nodes_in(cabinet);
  const std::set<topo::NodeId> in_cabinet(cabinet_nodes.begin(),
                                          cabinet_nodes.end());

  const std::vector<TimeRange> windows = {
      {kT0 + 3600, kT0 + 7200},                // a whole hour
      {kT0 + 5400 + 17, kT0 + 6000},           // inside one hour
      {kT0 - 3600, kT0 + 5 * 3600},            // 6 h, past both ends
      {kT0 - 10 * 3600, kT0},                  // before every job
      {kT0 + 4 * 3600, kT0 + 6 * 3600 + 5}};   // after every job
  std::size_t non_empty = 0;
  for (const auto& window : windows) {
    for (const bool located : {false, true}) {
      Context ctx;
      ctx.window = window;
      if (located) ctx.location = cabinet;
      std::vector<titanlog::JobRecord> want;
      for (const auto& j : f.logs.jobs) {
        if (j.end <= window.begin || j.start >= window.end) continue;
        if (located && std::none_of(j.nodes.begin(), j.nodes.end(),
                                    [&](topo::NodeId n) {
                                      return in_cabinet.contains(n);
                                    })) {
          continue;
        }
        want.push_back(j);
      }
      std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
        return std::pair(a.start, a.apid) < std::pair(b.start, b.apid);
      });
      const auto got = fetch_jobs(f.engine, f.cluster, ctx);
      EXPECT_EQ(got, want) << ctx.to_json().dump();
      if (!want.empty()) ++non_empty;
    }
  }
  EXPECT_GE(non_empty, 6u);  // every window that holds jobs, both ways

  // The multi-hour job comes back once from a window over all its hours.
  Context all;
  all.window = TimeRange{kT0 - 3600, kT0 + 5 * 3600};
  const auto jobs = fetch_jobs(f.engine, f.cluster, all);
  EXPECT_EQ(std::count_if(jobs.begin(), jobs.end(),
                          [&](const titanlog::JobRecord& j) {
                            return j.apid == long_job->apid;
                          }),
            1);
}

TEST(FetchJobsTest, UserRestrictionUsesUserTable) {
  auto& f = shared_fixture();
  Context ctx;
  ctx.window = TimeRange{kT0, kT0 + 4 * 3600};
  ctx.users = {"usr1"};
  auto jobs = fetch_jobs(f.engine, f.cluster, ctx);
  ASSERT_FALSE(jobs.empty());
  std::size_t expected = 0;
  for (const auto& j : f.logs.jobs) {
    if (j.user == "usr1") ++expected;
  }
  EXPECT_EQ(jobs.size(), expected);
  for (const auto& j : jobs) EXPECT_EQ(j.user, "usr1");
}

TEST(FetchJobsTest, AppRestriction) {
  auto& f = shared_fixture();
  Context ctx;
  ctx.window = TimeRange{kT0, kT0 + 4 * 3600};
  ctx.apps = {"LAMMPS"};
  auto jobs = fetch_jobs(f.engine, f.cluster, ctx);
  ASSERT_FALSE(jobs.empty());
  for (const auto& j : jobs) EXPECT_EQ(j.app_name, "LAMMPS");
}

TEST(AppsRunningAtTest, SnapshotMatchesGroundTruth) {
  auto& f = shared_fixture();
  const UnixSeconds t = kT0 + 2 * 3600;
  auto running = apps_running_at(f.engine, f.cluster, t);
  std::set<std::int64_t> expected;
  for (const auto& j : f.logs.jobs) {
    if (j.start <= t && t < j.end) expected.insert(j.apid);
  }
  std::set<std::int64_t> got;
  for (const auto& j : running) got.insert(j.apid);
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(got.empty());
}

TEST(AppsRunningAtTest, FindsAJobThatStartedMoreThanTwoDaysBefore) {
  Cluster cluster(LoadedCluster::make_opts());
  sparklite::Engine engine(sparklite::EngineOptions{.workers = 2});
  ASSERT_TRUE(model::create_data_model(cluster).is_ok());
  titanlog::JobRecord marathon;
  marathon.apid = 9000001;
  marathon.app_name = "CESM";
  marathon.user = "usr7";
  marathon.start = kT0 + 1234;
  marathon.end = marathon.start + 60 * 3600;
  marathon.nodes = {300, 301, 302, 303};
  titanlog::JobRecord brief = marathon;
  brief.apid = 9000002;
  brief.end = brief.start + 600;
  BatchIngestor ingestor(cluster, engine);
  const auto report = ingestor.ingest_records({}, {marathon, brief});
  ASSERT_EQ(report.write_failures, 0u);
  ASSERT_EQ(report.app_rows, 2u);

  const auto running =
      apps_running_at(engine, cluster, marathon.start + 55 * 3600);
  ASSERT_EQ(running.size(), 1u);
  EXPECT_EQ(running.front(), marathon);
  EXPECT_TRUE(apps_running_at(engine, cluster, marathon.end).empty());
}

// ---------------------------------------------------------------- synopsis

TEST(SynopsisTest, CountsMatchGroundTruth) {
  auto& f = shared_fixture();
  auto entries = fetch_synopsis(f.cluster, TimeRange{kT0, kT0 + 4 * 3600});
  std::map<std::pair<std::int64_t, EventType>, std::int64_t> expected;
  for (const auto& e : f.logs.events) {
    expected[{hour_bucket(e.ts), e.type}] += e.count;
  }
  ASSERT_EQ(entries.size(), expected.size());
  for (const auto& entry : entries) {
    EXPECT_EQ(entry.count, (expected[{entry.hour, entry.type}]))
        << "hour " << entry.hour << " type "
        << titanlog::event_id(entry.type);
  }
}

// ----------------------------------------------------------------- heatmap

TEST(HeatMapTest, MatchesGroundTruthAndFindsHotCabinet) {
  auto& f = shared_fixture();
  Context ctx;
  ctx.window = TimeRange{kT0 + 3600, kT0 + 2 * 3600};  // the hotspot hour
  ctx.types = {EventType::kMachineCheck};
  auto hm = build_heatmap(f.engine, f.cluster, ctx);

  std::vector<EventRecord> truth;
  for (const auto& e : f.logs.events) {
    if (e.type == EventType::kMachineCheck && ctx.window.contains(e.ts)) {
      truth.push_back(e);
    }
  }
  auto expected = heatmap_from_events(truth);
  EXPECT_EQ(hm.node_counts, expected.node_counts);
  EXPECT_EQ(hm.total, expected.total);

  // The hotspot cabinet dominates the cabinet roll-up.
  auto cabinets = hm.cabinet_counts();
  const int hot = (topo::Coord{4, 2, -1, -1, -1}).cabinet_index();
  const auto hottest = static_cast<int>(
      std::max_element(cabinets.begin(), cabinets.end()) - cabinets.begin());
  EXPECT_EQ(hottest, hot);
  // And the detector flags nodes inside it.
  auto anomalous = hm.anomalous_nodes(3.0);
  ASSERT_FALSE(anomalous.empty());
  EXPECT_EQ(topo::cabinet_of(anomalous.front().first), hot);
  EXPECT_EQ(hm.peak, anomalous.front().second);
}

TEST(HeatMapTest, EmptyContextIsAllZero) {
  auto& f = shared_fixture();
  Context ctx;
  ctx.window = TimeRange{kT0 + 100000 * 3600, kT0 + 100001 * 3600};
  auto hm = build_heatmap(f.engine, f.cluster, ctx);
  EXPECT_EQ(hm.total, 0);
  EXPECT_EQ(hm.peak, 0);
  EXPECT_TRUE(hm.anomalous_nodes().empty());
}

// ------------------------------------------------------------ distribution

TEST(DistributionTest, GroupByNamesRoundTrip) {
  for (auto g : {GroupBy::kCabinet, GroupBy::kCage, GroupBy::kBlade,
                 GroupBy::kNode, GroupBy::kEventType, GroupBy::kApplication,
                 GroupBy::kUser}) {
    auto back = group_by_from_string(group_by_name(g));
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value(), g);
  }
  EXPECT_FALSE(group_by_from_string("bogus").is_ok());
}

TEST(DistributionTest, ByTypeMatchesGroundTruth) {
  auto& f = shared_fixture();
  Context ctx;
  ctx.window = TimeRange{kT0, kT0 + 4 * 3600};
  auto dist = distribution(f.engine, f.cluster, ctx, GroupBy::kEventType);
  std::map<std::string, std::int64_t> expected;
  for (const auto& e : f.logs.events) {
    expected[std::string(titanlog::event_id(e.type))] += e.count;
  }
  ASSERT_EQ(dist.size(), expected.size());
  std::int64_t prev = std::numeric_limits<std::int64_t>::max();
  for (const auto& entry : dist) {
    EXPECT_EQ(entry.count, expected[entry.label]) << entry.label;
    EXPECT_LE(entry.count, prev);  // descending
    prev = entry.count;
  }
}

TEST(DistributionTest, ByCabinetTopIsHotspot) {
  auto& f = shared_fixture();
  Context ctx;
  ctx.window = TimeRange{kT0 + 3600, kT0 + 2 * 3600};
  ctx.types = {EventType::kMachineCheck};
  auto dist = distribution(f.engine, f.cluster, ctx, GroupBy::kCabinet);
  ASSERT_FALSE(dist.empty());
  EXPECT_EQ(dist.front().label, "c2-4");
}

TEST(DistributionTest, ByBladeLabelsAreBladeLevel) {
  auto& f = shared_fixture();
  Context ctx;
  ctx.window = TimeRange{kT0, kT0 + 3600};
  auto dist = distribution(f.engine, f.cluster, ctx, GroupBy::kBlade);
  ASSERT_FALSE(dist.empty());
  for (const auto& entry : dist) {
    auto coord = topo::parse_cname(entry.label);
    ASSERT_TRUE(coord.is_ok()) << entry.label;
    EXPECT_EQ(coord->level(), topo::LocationLevel::kBlade);
  }
}

TEST(DistributionTest, ByApplicationAttributesEvents) {
  auto& f = shared_fixture();
  Context ctx;
  ctx.window = TimeRange{kT0, kT0 + 4 * 3600};
  auto dist = distribution(f.engine, f.cluster, ctx, GroupBy::kApplication);
  ASSERT_FALSE(dist.empty());
  // Ground truth via the same semantics.
  std::map<std::string, std::int64_t> expected;
  for (const auto& e : f.logs.events) {
    std::string label = "(idle)";
    for (const auto& j : f.logs.jobs) {
      if (j.start <= e.ts && e.ts < j.end &&
          std::find(j.nodes.begin(), j.nodes.end(), e.node) != j.nodes.end()) {
        label = j.app_name;
        break;
      }
    }
    expected[label] += e.count;
  }
  std::int64_t total_dist = 0;
  for (const auto& entry : dist) {
    EXPECT_EQ(entry.count, expected[entry.label]) << entry.label;
    total_dist += entry.count;
  }
  std::int64_t total_expected = 0;
  for (const auto& [_, c] : expected) total_expected += c;
  EXPECT_EQ(total_dist, total_expected);
}

TEST(DistributionTest, HourlyCoversWindow) {
  auto& f = shared_fixture();
  Context ctx;
  ctx.window = TimeRange{kT0, kT0 + 4 * 3600};
  auto hourly = hourly_distribution(f.engine, f.cluster, ctx);
  ASSERT_EQ(hourly.size(), 4u);
  std::map<std::int64_t, std::int64_t> expected;
  for (const auto& e : f.logs.events) expected[hour_bucket(e.ts)] += e.count;
  for (const auto& [hour, count] : hourly) {
    EXPECT_EQ(count, expected[hour]) << hour;
  }
}

// -------------------------------------------------------------- timeseries

TEST(TimeSeriesTest, BinningEdges) {
  std::vector<EventRecord> events;
  EventRecord e;
  e.type = EventType::kMachineCheck;
  e.node = 0;
  for (UnixSeconds ts : {0, 59, 60, 119, 120}) {
    e.ts = ts;
    events.push_back(e);
  }
  auto series = bin_series(events, TimeRange{0, 180}, 60);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 2.0);
  EXPECT_DOUBLE_EQ(series[1], 2.0);
  EXPECT_DOUBLE_EQ(series[2], 1.0);
  // Partial last bin.
  auto partial = bin_series(events, TimeRange{0, 150}, 60);
  EXPECT_EQ(partial.size(), 3u);
  // Weighted by count.
  events[0].count = 10;
  auto weighted = bin_series(events, TimeRange{0, 180}, 60);
  EXPECT_DOUBLE_EQ(weighted[0], 11.0);
}

TEST(TimeSeriesTest, CrossCorrelationDetectsKnownLag) {
  // b = a shifted right by 3 bins.
  std::vector<double> a(200, 0.0);
  std::vector<double> b(200, 0.0);
  Rng rng(5);
  for (int i = 0; i < 180; ++i) {
    if (rng.chance(0.2)) {
      a[static_cast<std::size_t>(i)] = 1.0;
      b[static_cast<std::size_t>(i + 3)] = 1.0;
    }
  }
  auto corr = cross_correlation(a, b, 10);
  EXPECT_EQ(peak_lag(corr, 10), 3);
  EXPECT_GT(corr[13], 0.9);
}

TEST(TimeSeriesTest, CrossCorrelationOfConstantIsZero) {
  std::vector<double> a(50, 1.0);
  std::vector<double> b(50, 2.0);
  auto corr = cross_correlation(a, b, 5);
  for (double c : corr) EXPECT_DOUBLE_EQ(c, 0.0);
}

// -------------------------------------------------------- transfer entropy

TEST(TransferEntropyTest, DirectionalCoupling) {
  // y[t+1] = x[t]: maximal X->Y transfer, none the other way.
  Rng rng(17);
  std::vector<double> x(2000);
  std::vector<double> y(2000, 0.0);
  for (std::size_t t = 0; t < x.size(); ++t) x[t] = rng.chance(0.5) ? 1.0 : 0.0;
  for (std::size_t t = 0; t + 1 < y.size(); ++t) y[t + 1] = x[t];
  auto r = transfer_entropy_pair(x, y);
  EXPECT_GT(r.te_xy, 0.8);   // ~1 bit
  EXPECT_LT(r.te_yx, 0.05);
  EXPECT_GT(r.net(), 0.75);
}

TEST(TransferEntropyTest, IndependentSeriesNearZero) {
  Rng rng(23);
  std::vector<double> x(2000);
  std::vector<double> y(2000);
  for (std::size_t t = 0; t < x.size(); ++t) {
    x[t] = rng.chance(0.3) ? 1.0 : 0.0;
    y[t] = rng.chance(0.3) ? 1.0 : 0.0;
  }
  auto r = transfer_entropy_pair(x, y);
  EXPECT_LT(r.te_xy, 0.02);
  EXPECT_LT(r.te_yx, 0.02);
}

TEST(TransferEntropyTest, NonNegativeAndSymmetricOnIdentical) {
  std::vector<double> x{1, 0, 1, 1, 0, 0, 1, 0, 1, 1};
  auto r = transfer_entropy_pair(x, x);
  EXPECT_GE(r.te_xy, 0.0);
  EXPECT_NEAR(r.te_xy, r.te_yx, 1e-12);
}

TEST(TransferEntropyTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(transfer_entropy({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(transfer_entropy({1.0}, {1.0}), 0.0);
  std::vector<double> flat(100, 0.0);
  EXPECT_DOUBLE_EQ(transfer_entropy(flat, flat), 0.0);
}

TEST(TransferEntropyTest, ProfilePeaksAtCouplingLag) {
  // y[t] = x[t-4]; profile over shifts should peak at s = 3 (since the TE
  // estimator already looks one step ahead).
  Rng rng(29);
  std::vector<double> x(3000);
  std::vector<double> y(3000, 0.0);
  for (std::size_t t = 0; t < x.size(); ++t) x[t] = rng.chance(0.4) ? 1.0 : 0.0;
  for (std::size_t t = 4; t < y.size(); ++t) y[t] = x[t - 4];
  auto profile = transfer_entropy_profile(x, y, 8);
  const auto peak = static_cast<std::size_t>(
      std::max_element(profile.begin(), profile.end()) - profile.begin());
  EXPECT_EQ(peak, 3u);
  EXPECT_GT(profile[3], 0.8);
}

class TransferEntropyBinsTest : public ::testing::TestWithParam<int> {};

TEST_P(TransferEntropyBinsTest, CoupledBeatsIndependentAtAnyBinCount) {
  const int levels = GetParam();
  Rng rng(31);
  std::vector<double> x(3000);
  std::vector<double> y(3000, 0.0);
  std::vector<double> z(3000);
  for (std::size_t t = 0; t < x.size(); ++t) {
    x[t] = static_cast<double>(rng.next_below(5));
    z[t] = static_cast<double>(rng.next_below(5));
  }
  for (std::size_t t = 0; t + 1 < y.size(); ++t) y[t + 1] = x[t];
  EXPECT_GT(transfer_entropy(x, y, levels), transfer_entropy(z, y, levels) + 0.1);
}

INSTANTIATE_TEST_SUITE_P(Bins, TransferEntropyBinsTest,
                         ::testing::Values(2, 3, 4, 8));

// -------------------------------------------------------------------- text

TEST(TextTest, TokenizeBehaviour) {
  auto tokens = tokenize(
      "LustreError: 137-5: atlas-OST0042-osc: operation ost_write failed "
      "rc = -110");
  // Lowercased, >= 2 chars, pure numbers dropped, ids kept.
  EXPECT_TRUE(std::find(tokens.begin(), tokens.end(), "ost0042") != tokens.end());
  EXPECT_TRUE(std::find(tokens.begin(), tokens.end(), "ost_write") != tokens.end());
  EXPECT_TRUE(std::find(tokens.begin(), tokens.end(), "137") == tokens.end());
  EXPECT_TRUE(std::find(tokens.begin(), tokens.end(), "110") == tokens.end());
  EXPECT_TRUE(std::find(tokens.begin(), tokens.end(), "lustreerror") != tokens.end());
  EXPECT_TRUE(tokenize("...!!!").empty());
  EXPECT_TRUE(tokenize("").empty());
}

TEST(TextTest, WordCountMessagesFindsDominantTerm) {
  std::vector<std::string> messages;
  for (int i = 0; i < 50; ++i) {
    messages.push_back("ost0042 unreachable from client");
  }
  for (int i = 0; i < 5; ++i) {
    messages.push_back("ost0007 slow ping");
  }
  auto top = word_count_messages(messages, 3);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].term, "ost0042");
  EXPECT_EQ(top[0].count, 50);
}

TEST(TextTest, TfIdfPicksBucketSpecificTerm) {
  // 4 documents of generic chatter; one document saturated with a unique id.
  std::vector<std::vector<std::string>> docs(5);
  for (int d = 0; d < 4; ++d) {
    for (int i = 0; i < 20; ++i) {
      docs[static_cast<std::size_t>(d)].push_back("chatter");
      docs[static_cast<std::size_t>(d)].push_back("osc");
    }
  }
  for (int i = 0; i < 40; ++i) docs[4].push_back("ost0042");
  auto top = tf_idf_top_terms(docs, 2);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].term, "ost0042");
}

TEST(TextTest, StormScenarioRootCause) {
  // Fig 7 reproduction at test scale: storm + background chatter; both
  // word count and the TF-IDF storm signature must surface the faulty OST.
  ScenarioConfig cfg;
  cfg.seed = 77;
  cfg.window = TimeRange{kT0, kT0 + 3600};
  cfg.background_scale = 1.0;
  titanlog::LustreStormSpec storm;
  storm.start = kT0 + 1200;
  storm.duration_seconds = 180;
  storm.ost_index = 0x42;
  storm.messages_per_second = 60;
  cfg.storms.push_back(storm);
  LoadedCluster f(cfg);

  Context ctx;
  ctx.window = cfg.window;
  ctx.types = {EventType::kLustreError};
  auto top = word_count(f.engine, f.cluster, ctx, 5);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].term, "ost0042");

  auto signature = storm_signature(f.engine, f.cluster, ctx, 60, 5);
  ASSERT_FALSE(signature.empty());
  EXPECT_EQ(signature[0].term, "ost0042");
}

// ------------------------------------------------------------- reliability

TEST(ReliabilityTest, ReportConsistentWithGroundTruth) {
  auto& f = shared_fixture();
  Context ctx;
  ctx.window = TimeRange{kT0, kT0 + 4 * 3600};
  auto report = reliability_report(f.engine, f.cluster, ctx);
  std::map<EventType, std::int64_t> expected;
  std::int64_t fatal = 0;
  for (const auto& e : f.logs.events) {
    expected[e.type] += e.count;
    if (titanlog::event_info(e.type).severity == titanlog::Severity::kFatal) {
      fatal += e.count;
    }
  }
  EXPECT_EQ(report.counts_by_type, expected);
  EXPECT_EQ(report.fatal_events, fatal);
  if (fatal > 0) {
    EXPECT_NEAR(report.mtbf_seconds,
                4.0 * 3600.0 / static_cast<double>(fatal), 1e-9);
  }
  EXPECT_GT(report.events_per_node_hour, 0.0);
  EXPECT_GT(report.affected_nodes, 0);
}

TEST(ReliabilityTest, AppImpactLinksFailuresToEvents) {
  auto& f = shared_fixture();
  Context ctx;
  ctx.window = TimeRange{kT0, kT0 + 4 * 3600};
  auto impact = app_impact(f.engine, f.cluster, ctx);
  EXPECT_EQ(impact.jobs, static_cast<std::int64_t>(f.logs.jobs.size()));
  std::int64_t failed = 0;
  for (const auto& j : f.logs.jobs) failed += j.failed() ? 1 : 0;
  EXPECT_EQ(impact.failed_jobs, failed);
  EXPECT_GE(impact.failed_with_event, 0);
  EXPECT_LE(impact.failed_with_event, impact.failed_jobs);
}

}  // namespace
}  // namespace hpcla::analytics
