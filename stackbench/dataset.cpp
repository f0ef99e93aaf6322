// Seeded dataset, stack set-up, and reference answers from ground truth.
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <tuple>

#include "analytics/heatmap.hpp"
#include "analytics/text.hpp"
#include "analytics/timeseries.hpp"
#include "analytics/transfer_entropy.hpp"
#include "model/ingest.hpp"
#include "model/tables.hpp"
#include "stackbench.hpp"

namespace stackbench {

namespace titanlog = hpcla::titanlog;
namespace topo = hpcla::topo;
using hpcla::analytics::Context;

Scale full_scale() { return Scale{}; }

Scale tiny_scale() {
  Scale s;
  s.history_hours = 4;
  s.background_scale = 0.5;
  s.storm_msgs_per_s = 10.0;
  s.storm_seconds = 60;
  s.jobs_per_hour = 10.0;
  s.backlog_events = 1500;
  s.live_rate = 2000.0;
  s.ladder_ops = 12;
  s.setups = 1;
  s.check_every = 1;
  return s;
}

// ----------------------------------------------------------------- Samples

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s(v_);
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(s.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(idx),
                   s.end());
  return s[idx];
}

double Samples::mean() const {
  if (v_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : v_) sum += v;
  return sum / static_cast<double>(v_.size());
}

// ------------------------------------------------------------- GroundTruth

void GroundTruth::add_events(const std::vector<EventRecord>& events) {
  events_.reserve(events_.size() + events.size());
  for (const auto& e : events) {
    index_[{hpcla::hour_bucket(e.ts), e.type}].push_back(events_.size());
    events_.push_back(e);
  }
}

std::vector<const EventRecord*> GroundTruth::select(const Context& ctx) const {
  std::vector<const EventRecord*> out;
  for (std::int64_t h = ctx.window.first_hour(); h <= ctx.window.last_hour();
       ++h) {
    for (const EventType t : titanlog::all_event_types()) {
      if (!ctx.wants_type(t)) continue;
      const auto it = index_.find({h, t});
      if (it == index_.end()) continue;
      for (const std::size_t i : it->second) {
        const EventRecord& e = events_[i];
        if (ctx.window.contains(e.ts) && ctx.wants_node(e.node)) {
          out.push_back(&e);
        }
      }
    }
  }
  return out;
}

std::size_t GroundTruth::count(std::int64_t hour, EventType type) const {
  const auto it = index_.find({hour, type});
  return it == index_.end() ? 0 : it->second.size();
}

std::vector<const EventRecord*> GroundTruth::partition(std::int64_t hour,
                                                       EventType type) const {
  std::vector<const EventRecord*> out;
  if (const auto it = index_.find({hour, type}); it != index_.end()) {
    for (const std::size_t i : it->second) out.push_back(&events_[i]);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const EventRecord* a, const EventRecord* b) {
                     return a->ts < b->ts;
                   });
  return out;
}

// ------------------------------------------------------------------ stack

namespace {

hpcla::cassalite::ClusterOptions cluster_options() {
  hpcla::cassalite::ClusterOptions o;  // 4 nodes, RF 3, storage defaults
  o.node_count = 4;
  return o;
}

hpcla::sparklite::EngineOptions engine_options() {
  hpcla::sparklite::EngineOptions o;  // spill and locality at defaults
  o.workers = 4;
  return o;
}

[[noreturn]] void die(const std::string& what) {
  throw std::runtime_error(what);
}

titanlog::ScenarioConfig history_scenario(std::uint64_t seed,
                                          const Scale& scale) {
  titanlog::ScenarioConfig cfg;
  cfg.seed = seed * 2 + 1;
  const UnixSeconds end = kDay0 + scale.history_hours * kHour;
  cfg.window = TimeRange{kDay0, end};
  cfg.background_scale = scale.background_scale;
  hpcla::Rng rng(seed ^ 0x5eedf00dull);
  // The MCE hotspot: one cabinet, hours 2-6 of the day (Fig 5).
  titanlog::HotspotSpec hot;
  hot.type = EventType::kMachineCheck;
  hot.location.row = static_cast<int>(rng.uniform_int(0, 24));
  hot.location.col = static_cast<int>(rng.uniform_int(0, 7));
  hot.window = TimeRange{kDay0 + std::min<std::int64_t>(2, scale.history_hours / 4) * kHour,
                         std::min(end, kDay0 + 6 * kHour)};
  hot.rate_per_node_hour = 6.0;
  cfg.hotspots.push_back(hot);
  // One Lustre storm naming OST 0x42, 60% into the day (Fig 7 word count),
  // always inside one hour partition so every seed has the same hot spot.
  titanlog::LustreStormSpec storm;
  storm.start = kDay0 + scale.history_hours * 6 / 10 * kHour + 600;
  storm.duration_seconds = scale.storm_seconds;
  storm.ost_index = 0x42;
  storm.messages_per_second = scale.storm_msgs_per_s;
  cfg.storms.push_back(storm);
  // Network faults that trigger Lustre errors 30 s later (Fig 7 TE).
  cfg.causal_pairs.push_back(titanlog::CausalPairSpec{});
  titanlog::JobMixSpec jobs;
  jobs.jobs_per_hour = scale.jobs_per_hour;
  jobs.max_size_log2 = 6;
  cfg.jobs = jobs;
  return cfg;
}

}  // namespace

Stack::Stack()
    : cluster(cluster_options()),
      engine(engine_options()),
      server(cluster, engine) {}

std::unique_ptr<Stack> build_stack(std::uint64_t seed, const Scale& scale) {
  auto logs = titanlog::Generator(history_scenario(seed, scale)).generate();
  const auto lines = titanlog::render_all(logs);
  auto stack = std::make_unique<Stack>();
  if (!hpcla::model::create_data_model(stack->cluster).is_ok() ||
      !hpcla::model::load_nodeinfos(stack->cluster).is_ok() ||
      !hpcla::model::load_eventtypes(stack->cluster).is_ok()) {
    die("data model / reference tables failed to load");
  }
  hpcla::model::BatchIngestor etl(stack->cluster, stack->engine);
  etl.set_view_catalog(&stack->views);
  const double t0 = now_us();
  const auto report = etl.ingest_lines(lines);
  stack->etl_seconds = (now_us() - t0) / 1e6;
  stack->lines = lines.size();
  if (report.write_failures != 0 || report.parse.malformed != 0 ||
      report.parse.unmatched != 0 ||
      report.parse.events != logs.events.size() ||
      report.parse.jobs != logs.jobs.size()) {
    die("batch ETL did not land the generated day: " +
        std::to_string(report.parse.events) + " events, " +
        std::to_string(report.parse.jobs) + " jobs, " +
        std::to_string(report.write_failures) + " write failures");
  }
  const std::size_t stride = std::max<std::size_t>(1, lines.size() / 2000);
  for (std::size_t i = 0; i < lines.size(); i += stride) {
    stack->line_sample.push_back(lines[i].text);
  }
  stack->truth.add_events(logs.events);
  stack->truth.set_jobs(std::move(logs.jobs));
  return stack;
}

std::vector<EventRecord> stream_slice(std::uint64_t seed, const Scale& scale,
                                      std::size_t n) {
  titanlog::ScenarioConfig cfg;
  cfg.seed = seed * 2 + 2;
  const UnixSeconds begin = kDay0 + scale.history_hours * kHour;
  cfg.window = TimeRange{begin, begin + 2 * kHour};
  // The storm starts 75 min in, ≈120k events into the slice: inside the
  // catch-up, so the live part's load stays even and the dashboard re-reads
  // the storm's partition only beside the catch-up.
  titanlog::LustreStormSpec storm;
  storm.start = begin + 75 * 60;
  storm.duration_seconds = scale.storm_seconds;
  storm.ost_index = 0x42;
  storm.messages_per_second = 2 * scale.storm_msgs_per_s;
  cfg.storms.push_back(storm);
  // Background volume sized so the slice holds at least n events.
  constexpr double kBackgroundPerHour = 840.0;  // catalog rates x 19,200 nodes
  const double storm_events =
      storm.messages_per_second * static_cast<double>(storm.duration_seconds);
  cfg.background_scale = std::max(
      0.5, 1.3 * (static_cast<double>(n) - storm_events) /
               (2.0 * kBackgroundPerHour));
  auto events = titanlog::Generator(cfg).generate().events;
  if (events.size() > n) events.resize(n);
  return events;
}

// -------------------------------------------------------------------- ops

Op make_op(Json request, bool checkable) {
  Op op;
  op.name = request.get_string("op").value_or("");
  auto path = hpcla::server::classify_query(op.name);
  op.simple = path.is_ok() && path.value() == hpcla::server::QueryPath::kSimple;
  op.text = request.dump();
  op.request = std::move(request);
  op.checkable = checkable;
  return op;
}

namespace {

using Refs = std::vector<const EventRecord*>;

/// The array a node holds, or an empty one (a corrupt answer must fail
/// the check, not abort the run).
const Json::Array& array_of(const Json& j) {
  static const Json::Array kEmpty;
  return j.is_array() ? j.as_array() : kEmpty;
}

std::vector<double> series_of(const Refs& events, EventType type,
                              const TimeRange& window, std::int64_t bin) {
  std::vector<EventRecord> typed;
  for (const auto* e : events) {
    if (e->type == type) typed.push_back(*e);
  }
  return hpcla::analytics::bin_series(typed, window, bin);
}

bool near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

std::string check_synopsis(const GroundTruth& truth, const Json& request,
                           const Json& result) {
  const TimeRange w{request["window"].get_int("begin").value_or(0),
                    request["window"].get_int("end").value_or(0)};
  std::map<std::pair<std::int64_t, std::string>, std::int64_t> want;
  for (std::int64_t h = w.first_hour(); h <= w.last_hour(); ++h) {
    for (const EventType t : titanlog::all_event_types()) {
      if (const auto c = truth.count(h, t); c > 0) {
        want[{h, std::string(titanlog::event_id(t))}] =
            static_cast<std::int64_t>(c);
      }
    }
  }
  std::map<std::pair<std::int64_t, std::string>, std::int64_t> got;
  for (const auto& row : result.as_array()) {
    got[{row.get_int("hour").value_or(-1),
         row.get_string("type").value_or("")}] =
        row.get_int("count").value_or(-1);
  }
  return got == want ? "" : "synopsis counts differ";
}

std::string check_events(const Refs& refs, const Json& request,
                         const Json& result) {
  const auto limit =
      static_cast<std::size_t>(request.get_int("limit").value_or(1000));
  Refs want(refs);
  std::sort(want.begin(), want.end(),
            [](const EventRecord* a, const EventRecord* b) {
              return a->ts > b->ts;
            });
  if (want.size() > limit) want.resize(limit);
  const auto& rows = result.as_array();
  if (rows.size() != want.size()) return "events: wrong row count";
  std::multiset<std::tuple<UnixSeconds, std::int64_t, std::string>> keys;
  for (const auto* e : refs) keys.emplace(e->ts, e->node, e->message);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto ts = rows[i].get_int("ts").value_or(-1);
    if (ts != want[i]->ts) return "events: not the newest rows";
    if (!keys.contains({ts, rows[i].get_int("node").value_or(-1),
                        rows[i].get_string("message").value_or("")})) {
      return "events: row not in the context";
    }
  }
  return "";
}

/// `SELECT * FROM event_by_time WHERE hour = H AND type = T LIMIT 100`:
/// the partition's first 100 rows in clustering (ts, seq) order. The batch
/// ETL assigns seq, so rows are checked by their ts order and by
/// (ts, node, message, count), each event answering one row.
std::string check_cql(const GroundTruth& truth, std::int64_t hour,
                      EventType type, const Json& result) {
  const Refs part = truth.partition(hour, type);
  const std::size_t n = std::min<std::size_t>(100, part.size());
  const auto& rows = array_of(result["rows"]);
  if (result.get_int("count").value_or(-1) != static_cast<std::int64_t>(n) ||
      rows.size() != n) {
    return "cql: wrong row count";
  }
  std::multiset<std::tuple<UnixSeconds, std::int64_t, std::string, std::int64_t>>
      keys;
  for (const auto* e : part) {
    if (n == 0 || e->ts > part[n - 1]->ts) break;
    keys.emplace(e->ts, e->node, e->message, e->count);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto ts = rows[i].get_int("ts").value_or(-1);
    if (ts != part[i]->ts) return "cql: not the partition's first rows";
    const auto it = keys.find({ts, rows[i].get_int("node").value_or(-1),
                               rows[i].get_string("message").value_or(""),
                               rows[i].get_int("count").value_or(-1)});
    if (it == keys.end()) return "cql: row not in the partition";
    keys.erase(it);
  }
  return "";
}

std::string check_jobs(const GroundTruth& truth, const Context& ctx,
                       const Json& result) {
  std::set<std::int64_t> want;
  const UnixSeconds earliest = (ctx.window.first_hour() - 48) * kHour;
  for (const auto& j : truth.jobs()) {
    if (j.end > ctx.window.begin && j.start < ctx.window.end &&
        j.start >= earliest) {
      want.insert(j.apid);
    }
  }
  std::set<std::int64_t> got;
  for (const auto& row : result.as_array()) {
    got.insert(row.get_int("apid").value_or(-1));
  }
  return got == want ? "" : "jobs differ";
}

std::string check_heatmap(const Refs& refs, const Json& result) {
  std::vector<EventRecord> events;
  events.reserve(refs.size());
  for (const auto* e : refs) events.push_back(*e);
  const auto hm = hpcla::analytics::heatmap_from_events(events);
  if (result.get_int("total").value_or(-1) != hm.total ||
      result.get_int("peak").value_or(-1) != hm.peak) {
    return "heatmap totals differ";
  }
  const auto& nodes = array_of(result["nonzero_nodes"]);
  std::size_t i = 0;
  for (std::size_t n = 0; n < hm.node_counts.size(); ++n) {
    if (hm.node_counts[n] == 0) continue;
    if (i >= nodes.size() ||
        nodes[i].get_int("node").value_or(-1) != static_cast<std::int64_t>(n) ||
        nodes[i].get_int("count").value_or(-1) != hm.node_counts[n]) {
      return "heatmap node counts differ";
    }
    ++i;
  }
  return i == nodes.size() ? "" : "heatmap has extra nodes";
}

std::string check_hourly(const Refs& refs, const Json& result) {
  std::map<std::int64_t, std::int64_t> want;
  for (const auto* e : refs) want[hpcla::hour_bucket(e->ts)] += e->count;
  std::map<std::int64_t, std::int64_t> got;
  for (const auto& row : result.as_array()) {
    got[row.get_int("hour").value_or(-1)] = row.get_int("count").value_or(-1);
  }
  return got == want ? "" : "hourly counts differ";
}

std::string check_distribution(const Refs& refs, const Json& request,
                               const Json& result) {
  std::int64_t total = 0;
  std::map<std::string, std::int64_t> got;
  for (const auto& row : result.as_array()) {
    const auto c = row.get_int("count").value_or(-1);
    got[row.get_string("label").value_or("")] = c;
    total += c;
  }
  if (request.get_string("group_by").value_or("") == "type") {
    std::map<std::string, std::int64_t> want;
    for (const auto* e : refs) {
      want[std::string(titanlog::event_id(e->type))] += e->count;
    }
    return got == want ? "" : "distribution differs";
  }
  std::set<int> cabinets;
  std::int64_t want_total = 0;
  for (const auto* e : refs) {
    cabinets.insert(topo::cabinet_of(e->node));
    want_total += e->count;
  }
  return total == want_total && got.size() == cabinets.size()
             ? ""
             : "distribution differs";
}

std::string check_word_count(const Refs& refs, const Json& request,
                             const Json& result) {
  std::vector<std::string> messages;
  messages.reserve(refs.size());
  for (const auto* e : refs) messages.push_back(e->message);
  const auto want = hpcla::analytics::word_count_messages(
      messages,
      static_cast<std::size_t>(request.get_int("top_k").value_or(20)));
  const auto& rows = result.as_array();
  if (rows.size() != want.size()) return "word_count: wrong term count";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].get_string("term").value_or("") != want[i].term ||
        rows[i].get_int("count").value_or(-1) != want[i].count) {
      return "word_count: terms differ";
    }
  }
  return "";
}

std::string check_pair(const Op& op, const Refs& refs, const Context& ctx,
                       const Json& result) {
  const auto type_a = titanlog::event_type_from_id(
      op.request.get_string("type_a").value_or(""));
  const auto type_b = titanlog::event_type_from_id(
      op.request.get_string("type_b").value_or(""));
  if (!type_a.is_ok() || !type_b.is_ok()) return "bad pair request";
  const std::int64_t bin = op.request.get_int("bin_seconds").value_or(60);
  const auto a = series_of(refs, type_a.value(), ctx.window, bin);
  const auto b = series_of(refs, type_b.value(), ctx.window, bin);
  if (op.name == "transfer_entropy") {
    const auto te = hpcla::analytics::transfer_entropy_pair(a, b, 2);
    return near(result.get_double("te_xy").value_or(-1), te.te_xy) &&
                   near(result.get_double("te_yx").value_or(-1), te.te_yx)
               ? ""
               : "transfer entropy differs";
  }
  const auto max_lag =
      static_cast<std::size_t>(op.request.get_int("max_lag").value_or(10));
  const auto corr = hpcla::analytics::cross_correlation(a, b, max_lag);
  const auto& got = array_of(result["correlation"]);
  if (got.size() != corr.size()) return "correlation length differs";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!got[i].is_number() || !near(got[i].as_double(), corr[i])) {
      return "correlation differs";
    }
  }
  return result.get_int("peak_lag").value_or(-99) ==
                 hpcla::analytics::peak_lag(corr, max_lag)
             ? ""
             : "peak lag differs";
}

}  // namespace

bool parse_cql_partition(const std::string& query, std::int64_t& hour,
                         EventType& type) {
  long long h = 0;
  char id[32] = {0};
  if (std::sscanf(query.c_str(),
                  "SELECT * FROM event_by_time WHERE hour = %lld AND type = "
                  "'%31[^']'",
                  &h, id) != 2) {
    return false;
  }
  auto t = titanlog::event_type_from_id(id);
  if (!t.is_ok()) return false;
  hour = h;
  type = t.value();
  return true;
}

std::string check_answer(const Stack& stack, const Op& op,
                         const std::string& response) {
  auto parsed = Json::parse(response);
  if (!parsed.is_ok()) return "response is not JSON";
  const Json& r = parsed.value();
  if (r.get_string("status").value_or("") != "ok") {
    return "error response: " + r.get_string("error").value_or("?");
  }
  const Json& result = r["result"];
  const bool object_result = op.name == "nodeinfo" || op.name == "cql" ||
                             op.name == "heatmap" ||
                             op.name == "transfer_entropy" ||
                             op.name == "cross_correlation";
  if (object_result ? !result.is_object() : !result.is_array()) {
    return "result has the wrong shape";
  }
  const GroundTruth& truth = stack.truth;
  if (op.name == "synopsis") return check_synopsis(truth, op.request, result);
  if (op.name == "nodeinfo") {
    return result.get_int("nid").value_or(-1) ==
                       op.request.get_int("node").value_or(-2) &&
                   result.as_object().size() > 1
               ? ""
               : "nodeinfo row missing";
  }
  if (op.name == "cql") {
    std::int64_t hour = 0;
    EventType type = EventType::kMachineCheck;
    if (!parse_cql_partition(op.request.get_string("query").value_or(""),
                             hour, type)) {
      return "cql query not understood";
    }
    return check_cql(truth, hour, type, result);
  }
  auto ctx = Context::from_json(op.request["context"]);
  if (!ctx.is_ok()) return "request has no context";
  if (op.name == "jobs") return check_jobs(truth, ctx.value(), result);
  const Refs refs = truth.select(ctx.value());
  if (op.name == "events") return check_events(refs, op.request, result);
  if (op.name == "heatmap") return check_heatmap(refs, result);
  if (op.name == "hourly") return check_hourly(refs, result);
  if (op.name == "distribution") {
    return check_distribution(refs, op.request, result);
  }
  if (op.name == "word_count") return check_word_count(refs, op.request, result);
  if (op.name == "storm_signature") {
    return result.as_array().empty() == refs.empty()
               ? ""
               : "storm signature empty/non-empty mismatch";
  }
  if (op.name == "transfer_entropy" || op.name == "cross_correlation") {
    return check_pair(op, refs, ctx.value(), result);
  }
  return "no reference for op " + op.name;
}

}  // namespace stackbench
