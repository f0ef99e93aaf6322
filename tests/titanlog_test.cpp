// Tests for the event taxonomy, record round trips, the synthetic Titan log
// generator, and the regex ETL parsers.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "titanlog/events.hpp"
#include "titanlog/generator.hpp"
#include "titanlog/parser.hpp"
#include "titanlog/record.hpp"

namespace hpcla::titanlog {
namespace {

constexpr UnixSeconds kT0 = 1489449600;  // 2017-03-14 00:00:00 UTC

// ---------------------------------------------------------------- taxonomy

TEST(EventCatalogTest, CoversAllTypesWithUniqueIds) {
  std::set<std::string_view> ids;
  for (const auto& info : event_catalog()) {
    EXPECT_FALSE(info.id.empty());
    EXPECT_TRUE(ids.insert(info.id).second) << info.id;
  }
  EXPECT_EQ(ids.size(), kEventTypeCount);
}

TEST(EventCatalogTest, IdRoundTrip) {
  for (EventType t : all_event_types()) {
    auto back = event_type_from_id(event_id(t));
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value(), t);
  }
  EXPECT_FALSE(event_type_from_id("NotAType").is_ok());
}

TEST(EventCatalogTest, RatesSkewedRealistically) {
  // Correctable memory errors dominate; kernel panics are rare.
  EXPECT_GT(event_info(EventType::kMemoryEcc).base_rate_per_node_hour,
            event_info(EventType::kKernelPanic).base_rate_per_node_hour * 20);
  EXPECT_EQ(event_info(EventType::kKernelPanic).severity, Severity::kFatal);
}

// ----------------------------------------------------------------- records

TEST(EventRecordTest, JsonRoundTrip) {
  EventRecord e;
  e.ts = kT0 + 42;
  e.type = EventType::kLustreError;
  e.node = 12345;
  e.message = "LustreError: test";
  e.count = 3;
  e.seq = 99;
  auto back = EventRecord::from_json(e.to_json());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), e);
}

TEST(EventRecordTest, FromJsonRejectsBadInput) {
  Json j = Json::object();
  EXPECT_FALSE(EventRecord::from_json(j).is_ok());  // missing everything
  j["ts"] = kT0;
  j["type"] = "Bogus";
  j["node"] = 1;
  j["message"] = "m";
  EXPECT_FALSE(EventRecord::from_json(j).is_ok());  // unknown type
  j["type"] = "MCE";
  j["node"] = 999999;
  EXPECT_FALSE(EventRecord::from_json(j).is_ok());  // node out of range
}

TEST(JobRecordTest, JsonRoundTrip) {
  JobRecord job;
  job.apid = 5000001;
  job.app_name = "LAMMPS";
  job.user = "usr7";
  job.start = kT0;
  job.end = kT0 + 3600;
  job.nodes = {100, 101, 102, 103};
  job.exit_code = 137;
  auto back = JobRecord::from_json(job.to_json());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), job);
  EXPECT_TRUE(job.failed());
  EXPECT_EQ(job.duration(), 3600);
}

TEST(NidRangeTest, FormatCompresses) {
  EXPECT_EQ(format_nid_ranges({}), "");
  EXPECT_EQ(format_nid_ranges({5}), "5");
  EXPECT_EQ(format_nid_ranges({1, 2, 3}), "1-3");
  EXPECT_EQ(format_nid_ranges({1, 2, 3, 7, 9, 10}), "1-3,7,9-10");
}

TEST(NidRangeTest, ParseRoundTrip) {
  const std::vector<topo::NodeId> nodes{0, 1, 2, 50, 99, 100, 101};
  auto back = parse_nid_ranges(format_nid_ranges(nodes));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), nodes);
}

TEST(NidRangeTest, ParseRejectsBadInput) {
  EXPECT_FALSE(parse_nid_ranges("abc").is_ok());
  EXPECT_FALSE(parse_nid_ranges("5-2").is_ok());        // inverted
  EXPECT_FALSE(parse_nid_ranges("-5").is_ok());
  EXPECT_FALSE(parse_nid_ranges("19200").is_ok());      // out of range
  EXPECT_FALSE(parse_nid_ranges("1,,2").is_ok());
  EXPECT_TRUE(parse_nid_ranges("").is_ok());            // empty = no nodes
  EXPECT_TRUE(parse_nid_ranges("19199").is_ok());       // last valid nid
}

// --------------------------------------------------------------- generator

ScenarioConfig quiet_day() {
  ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.window = TimeRange{kT0, kT0 + 24 * 3600};
  cfg.background_scale = 1.0;
  return cfg;
}

TEST(GeneratorTest, DeterministicForSeed) {
  auto a = Generator(quiet_day()).generate();
  auto b = Generator(quiet_day()).generate();
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.events, b.events);
  auto cfg = quiet_day();
  cfg.seed = 8;
  auto c = Generator(cfg).generate();
  EXPECT_NE(a.events.size(), c.events.size());
}

TEST(GeneratorTest, BackgroundVolumeMatchesRates) {
  auto logs = Generator(quiet_day()).generate();
  // Expected: sum(base rates) * 19200 nodes * 24 h ≈ 0.0417*19200*24 ≈ 19200.
  EXPECT_GT(logs.events.size(), 10000u);
  EXPECT_LT(logs.events.size(), 40000u);
  std::map<EventType, int> by_type;
  for (const auto& e : logs.events) by_type[e.type]++;
  EXPECT_GT(by_type[EventType::kMemoryEcc], by_type[EventType::kKernelPanic]);
  EXPECT_GT(by_type[EventType::kMemoryEcc], by_type[EventType::kGpuMemoryError]);
}

TEST(GeneratorTest, EventsSortedWithUniqueSeq) {
  auto logs = Generator(quiet_day()).generate();
  for (std::size_t i = 1; i < logs.events.size(); ++i) {
    EXPECT_LE(logs.events[i - 1].ts, logs.events[i].ts);
    EXPECT_EQ(logs.events[i].seq, static_cast<std::int64_t>(i));
  }
}

TEST(GeneratorTest, EventsStayInWindowAndOnMachine) {
  auto logs = Generator(quiet_day()).generate();
  for (const auto& e : logs.events) {
    EXPECT_TRUE(quiet_day().window.contains(e.ts));
    EXPECT_GE(e.node, 0);
    EXPECT_LT(e.node, topo::TitanGeometry::kTotalNodes);
    EXPECT_FALSE(e.message.empty());
  }
}

TEST(GeneratorTest, HotspotConcentratesEvents) {
  auto cfg = quiet_day();
  cfg.background_scale = 0.0;
  HotspotSpec hs;
  hs.type = EventType::kMachineCheck;
  hs.location = topo::Coord{4, 2, -1, -1, -1};  // one cabinet
  hs.window = TimeRange{kT0 + 3600, kT0 + 7200};
  hs.rate_per_node_hour = 5.0;
  cfg.hotspots.push_back(hs);
  auto logs = Generator(cfg).generate();
  EXPECT_GT(logs.events.size(), 200u);  // ~480 expected
  const int expected_cabinet = (topo::Coord{4, 2, -1, -1, -1}).cabinet_index();
  for (const auto& e : logs.events) {
    EXPECT_EQ(e.type, EventType::kMachineCheck);
    EXPECT_EQ(topo::cabinet_of(e.node), expected_cabinet);
    EXPECT_GE(e.ts, kT0 + 3600);
    EXPECT_LT(e.ts, kT0 + 7200);
  }
  // Zipf node skew: the busiest node gets far more than the mean.
  std::map<topo::NodeId, int> per_node;
  for (const auto& e : logs.events) per_node[e.node]++;
  int peak = 0;
  for (const auto& [_, c] : per_node) peak = std::max(peak, c);
  const double mean = static_cast<double>(logs.events.size()) / 96.0;
  EXPECT_GT(peak, 3 * mean);
}

TEST(GeneratorTest, StormNamesSingleOst) {
  auto cfg = quiet_day();
  cfg.background_scale = 0.0;
  LustreStormSpec storm;
  storm.start = kT0 + 1000;
  storm.duration_seconds = 120;
  storm.ost_index = 0x42;
  storm.messages_per_second = 100;
  cfg.storms.push_back(storm);
  auto logs = Generator(cfg).generate();
  EXPECT_GT(logs.events.size(), 10000u);
  int named = 0;
  for (const auto& e : logs.events) {
    EXPECT_EQ(e.type, EventType::kLustreError);
    named += e.message.find("OST0042") != std::string::npos ? 1 : 0;
  }
  EXPECT_EQ(named, static_cast<int>(logs.events.size()));
}

TEST(GeneratorTest, CausalPairProducesLaggedEffects) {
  auto cfg = quiet_day();
  cfg.background_scale = 0.0;
  HotspotSpec hs;
  hs.type = EventType::kNetworkError;
  hs.location = topo::Coord{0, 0, -1, -1, -1};
  hs.window = cfg.window;
  hs.rate_per_node_hour = 0.5;
  hs.node_skew = 0.0;
  cfg.hotspots.push_back(hs);
  CausalPairSpec pair;
  pair.cause = EventType::kNetworkError;
  pair.effect = EventType::kLustreError;
  pair.lag_seconds = 30;
  pair.probability = 1.0;
  pair.lag_jitter_seconds = 0;
  cfg.causal_pairs.push_back(pair);
  auto logs = Generator(cfg).generate();

  std::vector<EventRecord> causes;
  std::vector<EventRecord> effects;
  for (const auto& e : logs.events) {
    (e.type == EventType::kNetworkError ? causes : effects).push_back(e);
  }
  EXPECT_GT(causes.size(), 100u);
  // Nearly every cause has its effect (edge-of-window losses only).
  EXPECT_GE(effects.size(), causes.size() * 95 / 100);
  // Effects are at cause.ts + 30 on the same node.
  std::set<std::pair<UnixSeconds, topo::NodeId>> cause_set;
  for (const auto& c : causes) cause_set.insert({c.ts, c.node});
  for (const auto& e : effects) {
    EXPECT_TRUE(cause_set.contains({e.ts - 30, e.node}));
  }
}

TEST(GeneratorTest, JobWorkloadShape) {
  auto cfg = quiet_day();
  cfg.jobs = JobMixSpec{};
  auto logs = Generator(cfg).generate();
  EXPECT_GT(logs.jobs.size(), 2000u);  // 120/h * 24h ≈ 2880
  EXPECT_LT(logs.jobs.size(), 4000u);
  std::set<std::int64_t> apids;
  int failed = 0;
  for (const auto& job : logs.jobs) {
    EXPECT_TRUE(apids.insert(job.apid).second);
    EXPECT_GE(job.start, cfg.window.begin);
    EXPECT_LE(job.end, cfg.window.end);
    EXPECT_GE(job.end, job.start);
    EXPECT_FALSE(job.nodes.empty());
    // Power-of-two contiguous allocations.
    EXPECT_EQ(job.nodes.size() & (job.nodes.size() - 1), 0u);
    for (std::size_t i = 1; i < job.nodes.size(); ++i) {
      EXPECT_EQ(job.nodes[i], job.nodes[i - 1] + 1);
    }
    failed += job.failed() ? 1 : 0;
  }
  EXPECT_GT(failed, 0);
  // AppAbort events exist and reference failing jobs.
  int aborts = 0;
  for (const auto& e : logs.events) {
    aborts += e.type == EventType::kAppAbort ? 1 : 0;
  }
  EXPECT_GT(aborts, 0);
}

TEST(GeneratorTest, RenderAllSortedByTime) {
  auto cfg = quiet_day();
  cfg.jobs = JobMixSpec{};
  auto logs = Generator(cfg).generate();
  auto lines = render_all(logs);
  EXPECT_EQ(lines.size(), logs.events.size() + logs.jobs.size());
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_LE(lines[i - 1].ts, lines[i].ts);
  }
}

// ------------------------------------------------------------------ parser

TEST(ParserTest, ParsesEveryGeneratedEventType) {
  LogParser parser;
  Rng rng(3);
  // Round-trip one synthetic event of each type through render + parse.
  auto cfg = quiet_day();
  auto logs = Generator(cfg).generate();
  std::map<EventType, bool> seen;
  for (const auto& e : logs.events) {
    if (seen[e.type]) continue;
    seen[e.type] = true;
    auto parsed = parser.parse_line(render_event(e).text);
    ASSERT_TRUE(parsed.is_ok())
        << event_id(e.type) << ": " << render_event(e).text << " -> "
        << parsed.status().to_string();
    ASSERT_TRUE(parsed->is_event());
    EXPECT_EQ(parsed->event().type, e.type);
    EXPECT_EQ(parsed->event().node, e.node);
    EXPECT_EQ(parsed->event().ts, e.ts);
    EXPECT_EQ(parsed->event().message, e.message);
  }
  EXPECT_GE(seen.size(), 8u);  // every background type appears in a day
}

TEST(ParserTest, ParsesJobLine) {
  LogParser parser;
  JobRecord job;
  job.apid = 5001234;
  job.app_name = "VASP";
  job.user = "usr12";
  job.start = kT0;
  job.end = kT0 + 7200;
  job.nodes = {256, 257, 258, 259};
  job.exit_code = 0;
  auto parsed = parser.parse_line(render_job(job).text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  ASSERT_FALSE(parsed->is_event());
  EXPECT_EQ(parsed->job(), job);
}

TEST(ParserTest, RejectsMalformedLines) {
  LogParser parser;
  EXPECT_FALSE(parser.parse_line("").is_ok());
  EXPECT_FALSE(parser.parse_line("garbage").is_ok());
  EXPECT_FALSE(parser.parse_line("2017-03-14 05:21:06").is_ok());
  // Bad timestamp.
  EXPECT_FALSE(
      parser.parse_line("2017-13-14 05:21:06 c0-0c0s0n0 MCE: x").is_ok());
  // Bad cname.
  EXPECT_FALSE(
      parser.parse_line("2017-03-14 05:21:06 c9-0c0s0n0 MCE: Machine Check "
                        "Exception bank 1 status 0x0 misc 0x0").is_ok());
  // Cabinet-level location for an event line.
  EXPECT_FALSE(
      parser.parse_line("2017-03-14 05:21:06 c0-0 MCE: Machine Check "
                        "Exception bank 1 status 0x0 misc 0x0").is_ok());
}

TEST(ParserTest, UnmatchedPayloadIsNotFound) {
  LogParser parser;
  auto r = parser.parse_line(
      "2017-03-14 05:21:06 c0-0c0s0n0 some unrecognized chatter");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ParserTest, IncompleteJobLineRejected) {
  LogParser parser;
  EXPECT_FALSE(parser.parse_line("2017-03-14 05:21:06 apsched: apid=5 user=u")
                   .is_ok());
  // end < start.
  EXPECT_FALSE(
      parser.parse_line("2017-03-14 05:21:06 apsched: apid=5 user=u app=a "
                        "nids=0 start=100 end=50 exit=0")
          .is_ok());
  // Longer than kMaxJobSpanSeconds (a week), with and without overflow.
  EXPECT_FALSE(
      parser.parse_line("2017-03-14 05:21:06 apsched: apid=5 user=u app=a "
                        "nids=0-19199 start=0 end=9223372036854775807 exit=0")
          .is_ok());
  EXPECT_FALSE(
      parser.parse_line("2017-03-14 05:21:06 apsched: apid=5 user=u app=a "
                        "nids=0 start=-9223372036854775808 "
                        "end=9223372036854775807 exit=0")
          .is_ok());
  EXPECT_FALSE(
      parser.parse_line("2017-03-14 05:21:06 apsched: apid=5 user=u app=a "
                        "nids=0 start=100 end=604901 exit=0")
          .is_ok());
  EXPECT_TRUE(
      parser.parse_line("2017-03-14 05:21:06 apsched: apid=5 user=u app=a "
                        "nids=0 start=100 end=604900 exit=0")
          .is_ok());
}

TEST(ParserTest, Xid48ClassifiedAsGpuMemoryNotGpuFailure) {
  LogParser parser;
  auto dbe = parser.parse_line(
      "2017-03-14 05:21:06 c0-0c0s0n0 GPU Xid 48: double-bit ECC error "
      "detected at address 0x1a2b3c4d");
  ASSERT_TRUE(dbe.is_ok());
  EXPECT_EQ(dbe->event().type, EventType::kGpuMemoryError);
  auto bus = parser.parse_line(
      "2017-03-14 05:21:06 c0-0c0s0n0 GPU Xid 79: GPU has fallen off the bus");
  ASSERT_TRUE(bus.is_ok());
  EXPECT_EQ(bus->event().type, EventType::kGpuFailure);
}

TEST(ParserTest, BatchStatsAccounting) {
  LogParser parser;
  std::vector<LogLine> lines;
  auto cfg = quiet_day();
  cfg.jobs = JobMixSpec{};
  auto logs = Generator(cfg).generate();
  lines = render_all(logs);
  // Inject noise.
  lines.push_back(LogLine{kT0, LogSource::kConsole, "corrupt line"});
  lines.push_back(LogLine{kT0, LogSource::kConsole,
                          "2017-03-14 05:21:06 c0-0c0s0n0 innocuous chatter"});

  std::vector<EventRecord> events;
  std::vector<JobRecord> jobs;
  ParseStats stats;
  parser.parse_batch(lines, events, jobs, stats);
  EXPECT_EQ(stats.lines, lines.size());
  EXPECT_EQ(stats.events, logs.events.size());
  EXPECT_EQ(stats.jobs, logs.jobs.size());
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_EQ(stats.unmatched, 1u);
  EXPECT_EQ(events.size(), logs.events.size());
  EXPECT_EQ(jobs.size(), logs.jobs.size());
}

TEST(ParserTest, JobLineQuirks) {
  LogParser parser;
  // Unknown key=value tokens are ignored, duplicated keys keep the last.
  auto parsed = parser.parse_line(
      "2017-03-14 05:21:06 apsched: apid=5 user=u app=a nids=0 start=10 "
      "end=20 exit=0 color=blue exit=137");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->job().exit_code, 137);
  // Tokens without '=' are skipped.
  auto sloppy = parser.parse_line(
      "2017-03-14 05:21:06 apsched: noise apid=5 user=u app=a nids=0 "
      "start=10 end=20 exit=0");
  ASSERT_TRUE(sloppy.is_ok());
  // Empty user/app rejected.
  EXPECT_FALSE(parser.parse_line(
                   "2017-03-14 05:21:06 apsched: apid=5 user= app=a nids=0 "
                   "start=10 end=20 exit=0").is_ok());
  // Bad nid range inside an otherwise valid line.
  EXPECT_FALSE(parser.parse_line(
                   "2017-03-14 05:21:06 apsched: apid=5 user=u app=a "
                   "nids=9-2 start=10 end=20 exit=0").is_ok());
}

TEST(ParserTest, PrefilterWithoutRegexMatchFallsThrough) {
  LogParser parser;
  // Contains the "MCE" prefilter substring but not the full pattern, and
  // also the LustreError pattern later — the matching pattern must win.
  auto r = parser.parse_line(
      "2017-03-14 05:21:06 c0-0c0s0n0 MCE-adjacent chatter then "
      "LustreError: atlas-OST0001: slow reply to ping, 9s late");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->event().type, EventType::kLustreError);
}

// Property: render -> parse is the identity on (ts, type, node, message)
// for a large random sample.
TEST(ParserTest, RenderParseRoundTripBulk) {
  LogParser parser;
  auto logs = Generator(quiet_day()).generate();
  std::size_t checked = 0;
  for (std::size_t i = 0; i < logs.events.size(); i += 37) {
    const auto& e = logs.events[i];
    auto parsed = parser.parse_line(render_event(e).text);
    ASSERT_TRUE(parsed.is_ok()) << render_event(e).text;
    EXPECT_EQ(parsed->event().ts, e.ts);
    EXPECT_EQ(parsed->event().type, e.type);
    EXPECT_EQ(parsed->event().node, e.node);
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}

}  // namespace
}  // namespace hpcla::titanlog
