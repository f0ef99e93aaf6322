#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "analytics/app_profile.hpp"
#include "analytics/assoc.hpp"
#include "analytics/composite.hpp"
#include "analytics/distribution.hpp"
#include "analytics/heatmap.hpp"
#include "analytics/prediction.hpp"
#include "analytics/queries.hpp"
#include "analytics/reliability.hpp"
#include "cassalite/cql.hpp"
#include "analytics/text.hpp"
#include "analytics/timeseries.hpp"
#include "analytics/transfer_entropy.hpp"
#include "common/clock.hpp"
#include "model/keys.hpp"
#include "server/render.hpp"
#include "titanlog/events.hpp"
#include "topo/machine.hpp"

namespace hpcla::server {

using analytics::Context;
using model::views::ViewCatalog;
using model::views::ViewQuery;

namespace {

/// Answers a cacheable op from the materialized views, or nullopt when the
/// op's arguments are off the views' grid (the engine handler answers).
using ViewAnswerer = std::optional<Json> (*)(const ViewCatalog& views,
                                             const Json& request,
                                             const ViewQuery& q);

std::optional<Json> view_heatmap(const ViewCatalog&, const Json&,
                                 const ViewQuery&);
std::optional<Json> view_distribution(const ViewCatalog&, const Json&,
                                      const ViewQuery&);
std::optional<Json> view_hourly(const ViewCatalog&, const Json&,
                                const ViewQuery&);
std::optional<Json> view_timeseries(const ViewCatalog&, const Json&,
                                    const ViewQuery&);
std::optional<Json> view_burst(const ViewCatalog&, const Json&,
                               const ViewQuery&);

/// Views only cover the dimensions the event tables filter on: an
/// hour-aligned window with no user/app restriction. Anything else falls
/// through to the engine (and still populates the result cache).
std::optional<Json> answer_from_views(ViewAnswerer answer,
                                      const ViewCatalog& views,
                                      const Json& request,
                                      const Context& ctx) {
  if (!ViewCatalog::aligned(ctx.window)) return std::nullopt;
  if (!ctx.users.empty() || !ctx.apps.empty()) return std::nullopt;
  return answer(views, request,
                ViewQuery{ctx.window, ctx.types, ctx.location});
}

Status unknown_op(std::string_view op) {
  return not_found("unknown op '" + std::string(op) + "'");
}

}  // namespace

/// The paper's routing decision (§III-A, Fig 3) for one frontend op: its
/// path, its handler and, when the materialized views can answer it, its
/// view answerer. An op is cacheable exactly when it has a view answerer.
struct AnalyticsServer::Op {
  std::string_view name;
  QueryPath path;
  Result<Json> (AnalyticsServer::*handler)(const Json& request);
  ViewAnswerer view = nullptr;
};

const AnalyticsServer::Op* AnalyticsServer::find_op(
    std::string_view name) noexcept {
  constexpr QueryPath kSimple = QueryPath::kSimple;
  constexpr QueryPath kComplex = QueryPath::kComplex;
  using S = AnalyticsServer;
  static constexpr Op kOps[] = {
      {"cql", kSimple, &S::op_cql},
      {"nodeinfo", kSimple, &S::op_nodeinfo},
      {"eventtypes", kSimple, &S::op_eventtypes},
      {"synopsis", kSimple, &S::op_synopsis},
      {"events", kSimple, &S::op_events},
      {"jobs", kSimple, &S::op_jobs},
      {"metrics", kSimple, &S::op_metrics},
      {"trace", kSimple, &S::op_trace},
      {"slowlog", kSimple, &S::op_slowlog},
      {"topology", kSimple, &S::op_topology},
      {"repair", kSimple, &S::op_repair},
      {"alerts", kSimple, &S::op_alerts},
      {"selfquery", kSimple, &S::op_selfquery},
      {"heatmap", kComplex, &S::op_heatmap, view_heatmap},
      {"distribution", kComplex, &S::op_distribution, view_distribution},
      {"hourly", kComplex, &S::op_hourly, view_hourly},
      {"timeseries", kComplex, &S::op_timeseries, view_timeseries},
      {"burst", kComplex, &S::op_burst, view_burst},
      {"cross_correlation", kComplex, &S::op_cross_correlation},
      {"transfer_entropy", kComplex, &S::op_transfer_entropy},
      {"word_count", kComplex, &S::op_word_count},
      {"storm_signature", kComplex, &S::op_storm_signature},
      {"apps_running", kComplex, &S::op_apps_running},
      {"reliability", kComplex, &S::op_reliability},
      {"app_impact", kComplex, &S::op_app_impact},
      {"render_heatmap", kComplex, &S::op_render_heatmap},
      {"render_placement", kComplex, &S::op_render_placement},
      {"association_rules", kComplex, &S::op_association_rules},
      {"composite_events", kComplex, &S::op_composite_events},
      {"app_profiles", kComplex, &S::op_app_profiles},
      {"predict_failures", kComplex, &S::op_predict_failures},
  };
  for (const Op& op : kOps) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

Result<QueryPath> classify_query(std::string_view op) {
  const AnalyticsServer::Op* row = AnalyticsServer::find_op(op);
  if (row == nullptr) return unknown_op(op);
  return row->path;
}

Json AnalyticsServer::handle(const Json& request) {
  Json response = Json::object();
  auto name = request.get_string("op");
  const Op* op = name.is_ok() ? find_op(name.value()) : nullptr;
  if (op == nullptr) {
    errors_.add();
    response["status"] = "error";
    response["error"] =
        (name.is_ok() ? unknown_op(name.value()) : name.status()).to_string();
    return response;
  }
  const bool simple = op->path == QueryPath::kSimple;
  // Root span: everything the query touches downstream (coordinator reads,
  // sparklite stages, replica tries) becomes a child of this trace.
  telemetry::Span span = telemetry::Span::root("server." + name.value());
  span.tag("op", name.value());
  span.tag("path", simple ? "simple" : "complex");
  const Stopwatch watch;
  // Result cache / materialized views (DESIGN.md §12): cacheable ops
  // consult the LRU keyed by normalized request + view epoch, then the
  // views, before falling back to the engine. The epoch fingerprint is
  // read BEFORE any compute, so an ingest that completes during the query
  // bumps the current epoch past what we store — the entry invalidates on
  // its next lookup instead of being served stale.
  const char* cache_state = nullptr;
  std::string cache_key;
  std::uint64_t epoch = 0;
  bool store = false;
  std::optional<Result<Json>> result;
  if (views_ != nullptr && op->view != nullptr) {
    auto ctx = context_of(request);
    if (ctx.is_ok()) {
      cache_key = normalized_cache_key(request);
      epoch = views_->window_epoch(ctx->window);
      if (auto cached = cache_.lookup(cache_key, epoch)) {
        cache_state = "hit";
        result.emplace(std::move(*cached));
      } else if (auto viewed =
                     answer_from_views(op->view, *views_, request, *ctx)) {
        cache_state = "view";
        store = true;
        view_served_.add();
        result.emplace(std::move(*viewed));
      } else {
        cache_state = "miss";
        store = true;
      }
    }
  }
  if (!result.has_value()) result.emplace((this->*op->handler)(request));
  if (store && result->is_ok()) {
    cache_.insert(cache_key, epoch, result->value());
  }
  if (cache_state != nullptr) span.tag("cache", cache_state);
  (simple ? simple_hist_ : complex_hist_)
      .record(static_cast<std::uint64_t>(watch.elapsed_micros()));
  if (span.active()) {
    response["trace_id"] = static_cast<std::int64_t>(span.trace_id());
  }
  if (!result->is_ok()) {
    span.tag("status", "error");
    errors_.add();
    response["status"] = "error";
    response["error"] = result->status().to_string();
    return response;
  }
  span.tag("status", "ok");
  (simple ? simple_ : complex_).add();
  response["status"] = "ok";
  response["path"] = simple ? "simple" : "complex";
  if (cache_state != nullptr) response["cache"] = cache_state;
  response["result"] = std::move(result->value());
  return response;
}

std::string AnalyticsServer::handle_text(std::string_view request) {
  auto parsed = Json::parse(request);
  if (!parsed.is_ok()) {
    errors_.add();
    Json response = Json::object();
    response["status"] = "error";
    response["error"] = parsed.status().to_string();
    return response.dump();
  }
  return handle(parsed.value()).dump();
}

Result<Context> AnalyticsServer::context_of(const Json& request) const {
  const Json& ctx = request["context"];
  if (ctx.is_null()) return invalid_argument("missing 'context'");
  return Context::from_json(ctx);
}

// ------------------------------------------------------------- simple ops

Result<Json> AnalyticsServer::op_cql(const Json& request) {
  auto query = request.get_string("query");
  if (!query.is_ok()) return query.status();
  auto result = cassalite::execute_cql(*cluster_, query.value());
  if (!result.is_ok()) return result.status();
  return result->to_json();
}

Result<Json> AnalyticsServer::op_metrics(const Json&) {
  // The registry: every live module's instruments under their stable names
  // (see README "Telemetry"), plus their Prometheus text exposition.
  const telemetry::RegistrySnapshot snap = telemetry::registry().snapshot();
  Json reg = Json::object();
  Json counters = Json::object();
  for (const auto& [name, v] : snap.counters) {
    counters[name] = Json(static_cast<std::int64_t>(v));
  }
  reg["counters"] = std::move(counters);
  Json gauges = Json::object();
  for (const auto& [name, v] : snap.gauges) gauges[name] = Json(v);
  reg["gauges"] = std::move(gauges);
  Json hists = Json::object();
  for (const auto& [name, h] : snap.histograms) {
    Json row = Json::object();
    row["count"] = Json(static_cast<std::int64_t>(h.count));
    row["sum_us"] = Json(static_cast<std::int64_t>(h.sum_us));
    row["min_us"] = Json(static_cast<std::int64_t>(h.min_us));
    row["max_us"] = Json(static_cast<std::int64_t>(h.max_us));
    row["p50_us"] = Json(h.p50_us);
    row["p95_us"] = Json(h.p95_us);
    row["p99_us"] = Json(h.p99_us);
    row["mean_us"] = Json(h.mean_us());
    hists[name] = std::move(row);
  }
  reg["histograms"] = std::move(hists);
  Json j = Json::object();
  j["registry"] = std::move(reg);
  j["prometheus"] = Json(telemetry::prometheus_text(snap));
  return j;
}

namespace {

Json span_json(const telemetry::SpanRecord& s) {
  Json row = Json::object();
  row["span_id"] = Json(static_cast<std::int64_t>(s.span_id));
  row["parent_id"] = Json(static_cast<std::int64_t>(s.parent_id));
  row["name"] = Json(s.name);
  row["start_us"] = Json(s.start_us);
  row["duration_us"] = Json(s.duration_us);
  Json tags = Json::object();
  for (const auto& [k, v] : s.tags) tags[k] = Json(v);
  row["tags"] = std::move(tags);
  return row;
}

}  // namespace

Result<Json> AnalyticsServer::op_trace(const Json& request) {
  auto id = request.get_int("trace_id");
  if (!id.is_ok()) return id.status();
  if (id.value() <= 0) return invalid_argument("'trace_id' must be positive");
  auto spans =
      telemetry::tracer().trace(static_cast<std::uint64_t>(id.value()));
  if (spans.empty()) {
    return not_found("no spans for trace " + std::to_string(id.value()) +
                     " (evicted or never recorded)");
  }
  Json out = Json::object();
  out["trace_id"] = id.value();
  Json arr = Json::array();
  for (const auto& s : spans) arr.push_back(span_json(s));
  out["spans"] = std::move(arr);
  out["rendered"] = Json(render_trace(spans));
  return out;
}

Result<Json> AnalyticsServer::op_slowlog(const Json&) {
  const auto spans = telemetry::tracer().slow_ops();
  Json out = Json::object();
  out["threshold_us"] = telemetry::tracer().slow_threshold_us();
  Json arr = Json::array();
  for (const auto& s : spans) {
    Json row = span_json(s);
    row["trace_id"] = Json(static_cast<std::int64_t>(s.trace_id));
    arr.push_back(std::move(row));
  }
  out["spans"] = std::move(arr);
  return out;
}

Result<Json> AnalyticsServer::op_topology(const Json& request) {
  // Optional mutation first (nodetool-style admin verbs), then the
  // post-action view of the ring — so the response always describes the
  // topology the action produced.
  const auto action = request.get_string("action");
  if (action.is_ok()) {
    const std::string& verb = action.value();
    if (verb == "add_node") {
      const std::int64_t vnodes = request.get_int("vnodes").value_or(0);
      const std::int64_t rack = request.get_int("rack").value_or(-1);
      if (vnodes < 0) return invalid_argument("'vnodes' must be >= 0");
      auto added = request.as_object().contains("token_seed")
                       ? cluster_->add_node(
                             static_cast<std::size_t>(vnodes),
                             static_cast<int>(rack),
                             static_cast<std::uint64_t>(
                                 request.get_int("token_seed").value_or(0)))
                       : cluster_->add_node(static_cast<std::size_t>(vnodes),
                                            static_cast<int>(rack));
      if (!added.is_ok()) return added.status();
    } else if (verb == "remove_node") {
      auto node = request.get_int("node");
      if (!node.is_ok()) return node.status();
      if (node.value() < 0) return invalid_argument("'node' must be >= 0");
      HPCLA_RETURN_IF_ERROR(cluster_->remove_node(
          static_cast<cassalite::NodeIndex>(node.value())));
    } else if (verb == "rebalance") {
      auto seed = request.get_int("token_seed");
      if (!seed.is_ok()) return seed.status();
      HPCLA_RETURN_IF_ERROR(
          cluster_->rebalance(static_cast<std::uint64_t>(seed.value())));
    } else {
      return invalid_argument("unknown topology action '" + verb + "'");
    }
  }
  const cassalite::TokenRing& ring = cluster_->ring();
  Json out = Json::object();
  out["epoch"] = static_cast<std::int64_t>(cluster_->ring_epoch());
  out["node_slots"] = static_cast<std::int64_t>(cluster_->node_count());
  out["members"] = static_cast<std::int64_t>(cluster_->member_count());
  out["replication_factor"] =
      static_cast<std::int64_t>(cluster_->replication_factor());
  out["movement_in_progress"] = cluster_->movement_in_progress();
  Json members = Json::array();
  for (cassalite::NodeIndex n : ring.members()) {
    Json row = Json::object();
    row["node"] = static_cast<std::int64_t>(n);
    row["vnodes"] = static_cast<std::int64_t>(ring.tokens_of(n).size());
    row["alive"] = cluster_->is_alive(n);
    const int rack = cluster_->rack_of(n);
    if (rack >= 0) row["rack"] = static_cast<std::int64_t>(rack);
    members.push_back(std::move(row));
  }
  out["ring"] = std::move(members);
  return out;
}

Result<Json> AnalyticsServer::op_repair(const Json& request) {
  const auto table = request.get_string("table");
  auto report = table.is_ok() ? cluster_->repair(table.value())
                              : cluster_->repair_all();
  if (!report.is_ok()) return report.status();
  Json out = Json::object();
  out["tables"] = static_cast<std::int64_t>(report->tables);
  out["ranges_checked"] = static_cast<std::int64_t>(report->ranges_checked);
  out["ranges_diverged"] = static_cast<std::int64_t>(report->ranges_diverged);
  out["rows_streamed"] = static_cast<std::int64_t>(report->rows_streamed);
  out["replicas_repaired"] =
      static_cast<std::int64_t>(report->replicas_repaired);
  return out;
}

Result<Json> AnalyticsServer::op_alerts(const Json&) {
  if (selftel_ == nullptr) {
    return failed_precondition("self-telemetry loop not attached");
  }
  return selftel_->alerts().to_json();
}

namespace {

/// Hour span a selfquery may fan over; beyond this the partition-key list
/// (and the parallel_read behind it) stops being a sane online query.
constexpr std::int64_t kMaxSelfQueryHours = 1024;

}  // namespace

Result<Json> AnalyticsServer::op_selfquery(const Json& request) {
  if (selftel_ == nullptr) {
    return failed_precondition("self-telemetry loop not attached");
  }
  auto what = request.get_string("what");
  if (!what.is_ok()) return what.status();
  auto begin = request.get_int("begin");
  auto end = request.get_int("end");
  if (!begin.is_ok() || !end.is_ok()) {
    return invalid_argument("'begin' and 'end' (unix seconds) are required");
  }
  if (end.value() < begin.value()) {
    return invalid_argument("'end' must be >= 'begin'");
  }
  const std::int64_t h0 = hour_bucket(begin.value());
  const std::int64_t h1 = hour_bucket(end.value());
  if (h1 - h0 + 1 > kMaxSelfQueryHours) {
    return invalid_argument("window spans more than " +
                            std::to_string(kMaxSelfQueryHours) + " hours");
  }
  const std::size_t limit = static_cast<std::size_t>(
      std::max<std::int64_t>(request.get_int("limit").value_or(1000), 1));

  // Per-op span summaries come from the in-memory hourly tiles; metric
  // and span history reads fan partition keys across the cluster — the
  // sys_* tables are shaped like the event tables precisely so the same
  // parallel_read path serves them.
  if (what.value() == "ops") {
    const auto filter = request.get_string("spanop");
    Json arr = Json::array();
    for (const auto& s :
         selftel_->ingestor().views().summaries(h0, h1)) {
      if (filter.is_ok() && s.op != filter.value()) continue;
      arr.push_back(s.to_json());
    }
    Json out = Json::object();
    out["ops"] = std::move(arr);
    return out;
  }

  if (what.value() == "latency_p99" || what.value() == "metric_series") {
    auto metric = request.get_string("metric");
    if (!metric.is_ok()) return metric.status();
    std::vector<std::string> keys;
    keys.reserve(static_cast<std::size_t>(h1 - h0 + 1));
    for (std::int64_t h = h0; h <= h1; ++h) {
      keys.push_back(model::selftel::sys_metric_key(h, metric.value()));
    }
    auto results = cluster_->parallel_read(
        engine_->pool(), std::string(model::selftel::kSysMetrics), keys);
    std::vector<titanlog::MetricSample> samples;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].is_ok()) return results[i].status();
      for (const auto& row : results[i]->rows) {
        auto s = model::selftel::decode_sys_metric_row(keys[i], row);
        if (!s.is_ok()) return s.status();
        if (s->ts < begin.value() || s->ts > end.value()) continue;
        samples.push_back(std::move(s).value());
      }
    }
    // parallel_read returns hours in order and rows clustering-ordered
    // within each partition, so `samples` is already (ts, seq) ascending.
    Json out = Json::object();
    out["metric"] = metric.value();
    out["rows"] = static_cast<std::int64_t>(samples.size());
    if (what.value() == "latency_p99") {
      if (samples.empty()) {
        return not_found("no sys_metrics rows for '" + metric.value() +
                         "' in window");
      }
      out["latest"] = samples.back().to_json();
      return out;
    }
    Json arr = Json::array();
    const std::size_t first =
        samples.size() > limit ? samples.size() - limit : 0;
    for (std::size_t i = first; i < samples.size(); ++i) {
      arr.push_back(samples[i].to_json());
    }
    out["truncated"] = first > 0;
    out["series"] = std::move(arr);
    return out;
  }

  if (what.value() == "slow_spans") {
    auto op = request.get_string("spanop");
    if (!op.is_ok()) return op.status();
    std::vector<std::string> keys;
    keys.reserve(static_cast<std::size_t>(h1 - h0 + 1));
    for (std::int64_t h = h0; h <= h1; ++h) {
      keys.push_back(model::selftel::sys_span_key(h, op.value()));
    }
    auto results = cluster_->parallel_read(
        engine_->pool(), std::string(model::selftel::kSysSpans), keys);
    std::vector<titanlog::SpanSample> spans;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].is_ok()) return results[i].status();
      for (const auto& row : results[i]->rows) {
        auto s = model::selftel::decode_sys_span_row(keys[i], row);
        if (!s.is_ok()) return s.status();
        if (s->ts < begin.value() || s->ts > end.value()) continue;
        if (!s->slow) continue;
        spans.push_back(std::move(s).value());
      }
    }
    std::stable_sort(spans.begin(), spans.end(),
                     [](const titanlog::SpanSample& a,
                        const titanlog::SpanSample& b) {
                       return a.duration_us > b.duration_us;
                     });
    if (spans.size() > limit) spans.resize(limit);
    Json arr = Json::array();
    for (const auto& s : spans) arr.push_back(s.to_json());
    Json out = Json::object();
    out["op"] = op.value();
    out["spans"] = std::move(arr);
    return out;
  }

  return invalid_argument(
      "unknown 'what' (expected latency_p99|metric_series|ops|slow_spans)");
}

Result<Json> AnalyticsServer::op_nodeinfo(const Json& request) {
  topo::NodeId node = topo::kInvalidNode;
  if (request.as_object().contains("node")) {
    auto nid = request.get_int("node");
    if (!nid.is_ok()) return nid.status();
    if (nid.value() < 0 || nid.value() >= topo::TitanGeometry::kTotalNodes) {
      return invalid_argument("node id out of range");
    }
    node = static_cast<topo::NodeId>(nid.value());
  } else {
    auto cname = request.get_string("cname");
    if (!cname.is_ok()) return invalid_argument("need 'node' or 'cname'");
    auto coord = topo::parse_cname(cname.value());
    if (!coord.is_ok()) return coord.status();
    if (coord->level() != topo::LocationLevel::kNode) {
      return invalid_argument("'cname' must be node-level");
    }
    node = topo::node_id(coord.value());
  }
  // Served from the nodeinfos table (falling back to the in-memory machine
  // would hide ingestion gaps from operators).
  cassalite::ReadQuery q;
  q.table = std::string(model::kNodeInfos);
  q.partition_key = model::nodeinfo_key(node);
  auto r = cluster_->select(q);
  if (!r.is_ok()) return r.status();
  if (r->rows.empty()) {
    return not_found("nodeinfos row for nid " + std::to_string(node) +
                     " not loaded");
  }
  Json row = Json::object();
  row["nid"] = node;
  for (const auto& cell : r->rows.front().cells) {
    row[cell.name] = cell.value.to_json();
  }
  return row;
}

Result<Json> AnalyticsServer::op_eventtypes(const Json&) {
  Json arr = Json::array();
  for (const auto& info : titanlog::event_catalog()) {
    arr.push_back(info.to_json());
  }
  return arr;
}

Result<Json> AnalyticsServer::op_synopsis(const Json& request) {
  auto begin = request["window"].get_int("begin");
  if (!begin.is_ok()) return begin.status();
  auto end = request["window"].get_int("end");
  if (!end.is_ok()) return end.status();
  const TimeRange window{begin.value(), end.value()};
  HPCLA_RETURN_IF_ERROR(analytics::check_window_span(window));
  auto entries = analytics::fetch_synopsis(*cluster_, window);
  Json arr = Json::array();
  for (const auto& e : entries) {
    Json row = Json::object();
    row["hour"] = e.hour;
    row["type"] = std::string(titanlog::event_id(e.type));
    row["count"] = e.count;
    row["first_ts"] = e.first_ts;
    row["last_ts"] = e.last_ts;
    arr.push_back(std::move(row));
  }
  return arr;
}

Result<Json> AnalyticsServer::op_events(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  const std::int64_t limit = request.get_int("limit").value_or(1000);
  if (limit <= 0) return invalid_argument("'limit' must be positive");
  auto events = analytics::raw_log_view(*engine_, *cluster_, ctx.value(),
                                        static_cast<std::size_t>(limit));
  Json arr = Json::array();
  for (const auto& e : events) arr.push_back(e.to_json());
  return arr;
}

Result<Json> AnalyticsServer::op_jobs(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  auto jobs = analytics::fetch_jobs(*engine_, *cluster_, ctx.value());
  Json arr = Json::array();
  for (const auto& j : jobs) arr.push_back(j.to_json());
  return arr;
}

// ------------------------------------------------------------ complex ops

namespace {

// Shared serializers for the cacheable ops: the engine path and the
// materialized-view path funnel through the same formatter, so a
// view-served response is byte-identical to a cold recompute.

Json heatmap_json(const analytics::HeatMap& hm, double k_sigma) {
  Json out = Json::object();
  out["total"] = hm.total;
  out["peak"] = hm.peak;
  out["peak_node"] = hm.peak_node;
  if (hm.peak_node != topo::kInvalidNode) {
    out["peak_cname"] = topo::cname_of(hm.peak_node);
  }
  Json cabinets = Json::array();
  for (auto c : hm.cabinet_counts()) cabinets.push_back(c);
  out["cabinets"] = std::move(cabinets);
  Json anomalous = Json::array();
  for (const auto& [node, count] : hm.anomalous_nodes(k_sigma)) {
    Json row = Json::object();
    row["node"] = node;
    row["cname"] = topo::cname_of(node);
    row["count"] = count;
    anomalous.push_back(std::move(row));
  }
  out["anomalous_nodes"] = std::move(anomalous);
  // Nonzero node counts (sparse form — 19,200 dense entries would bloat
  // every response).
  Json nodes = Json::array();
  for (std::size_t n = 0; n < hm.node_counts.size(); ++n) {
    if (hm.node_counts[n] != 0) {
      Json row = Json::object();
      row["node"] = n;
      row["count"] = hm.node_counts[n];
      nodes.push_back(std::move(row));
    }
  }
  out["nonzero_nodes"] = std::move(nodes);
  return out;
}

Json label_count_json(
    const std::vector<std::pair<std::string, std::int64_t>>& rows) {
  Json arr = Json::array();
  for (const auto& [label, count] : rows) {
    Json row = Json::object();
    row["label"] = label;
    row["count"] = count;
    arr.push_back(std::move(row));
  }
  return arr;
}

Json hourly_json(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& hourly) {
  Json arr = Json::array();
  for (const auto& [hour, count] : hourly) {
    Json row = Json::object();
    row["hour"] = hour;
    row["count"] = count;
    arr.push_back(std::move(row));
  }
  return arr;
}

Result<titanlog::EventType> type_field(const Json& request, const char* key) {
  auto id = request.get_string(key);
  if (!id.is_ok()) return id.status();
  return titanlog::event_type_from_id(id.value());
}

Json series_json(const std::vector<double>& series) {
  Json arr = Json::array();
  for (double v : series) arr.push_back(v);
  return arr;
}

// Works for both analytics::BurstPercentiles (engine path) and
// model::views::BurstSummary (view path) — same field names by design,
// so both paths serialize identically. Responses carry only the sketch
// summaries (events + three percentiles), never raw sample buffers.
template <typename Rows>
Json burst_json(const Rows& rows) {
  Json arr = Json::array();
  for (const auto& r : rows) {
    Json row = Json::object();
    row["label"] = r.label;
    row["events"] = static_cast<std::int64_t>(r.events);
    row["p50"] = r.p50;
    row["p95"] = r.p95;
    row["p99"] = r.p99;
    arr.push_back(std::move(row));
  }
  return arr;
}

Json timeseries_json(std::int64_t bin, const std::vector<double>& series) {
  Json out = Json::object();
  out["bin_seconds"] = bin;
  out["series"] = series_json(series);
  return out;
}

}  // namespace

Result<Json> AnalyticsServer::op_heatmap(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  auto hm = analytics::build_heatmap(*engine_, *cluster_, ctx.value());
  return heatmap_json(hm, request.get_double("k_sigma").value_or(3.0));
}

Result<Json> AnalyticsServer::op_distribution(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  auto group_name = request.get_string("group_by");
  if (!group_name.is_ok()) return group_name.status();
  auto group = analytics::group_by_from_string(group_name.value());
  if (!group.is_ok()) return group.status();
  auto dist =
      analytics::distribution(*engine_, *cluster_, ctx.value(), group.value());
  std::vector<std::pair<std::string, std::int64_t>> rows;
  rows.reserve(dist.size());
  for (const auto& entry : dist) rows.emplace_back(entry.label, entry.count);
  return label_count_json(rows);
}

Result<Json> AnalyticsServer::op_burst(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  auto group = analytics::group_by_from_string(
      request.get_string("group_by").value_or("type"));
  if (!group.is_ok()) return group.status();
  const double eps = request.get_double("epsilon").value_or(
      model::views::ViewCatalog::kBurstEpsilon);
  if (!(eps > 0.0 && eps < 0.5)) {
    return invalid_argument("'epsilon' must be in (0, 0.5)");
  }
  return burst_json(analytics::burst_percentiles(*engine_, *cluster_,
                                                 ctx.value(), group.value(),
                                                 eps));
}

Result<Json> AnalyticsServer::op_hourly(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  return hourly_json(
      analytics::hourly_distribution(*engine_, *cluster_, ctx.value()));
}

Result<Json> AnalyticsServer::op_timeseries(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  auto type = type_field(request, "type");
  if (!type.is_ok()) return type.status();
  const std::int64_t bin = request.get_int("bin_seconds").value_or(60);
  if (bin <= 0) return invalid_argument("'bin_seconds' must be positive");
  return timeseries_json(bin,
                         analytics::event_series(*engine_, *cluster_,
                                                 ctx.value(), type.value(),
                                                 bin));
}

namespace {

// View answerers of the cacheable ops: the same responses as the engine
// handlers above, built from the view tiles, or nullopt when the request
// is off the tile grid.

std::optional<Json> view_heatmap(const ViewCatalog& views,
                                 const Json& request, const ViewQuery& q) {
  const auto hm = analytics::heatmap_from_counts(views.heatmap_counts(q));
  return heatmap_json(hm, request.get_double("k_sigma").value_or(3.0));
}

std::optional<Json> view_distribution(const ViewCatalog& views,
                                      const Json& request,
                                      const ViewQuery& q) {
  // Only the per-type grouping is materialized.
  if (request.get_string("group_by").value_or("") != "type") {
    return std::nullopt;
  }
  return label_count_json(views.type_counts(q));
}

std::optional<Json> view_hourly(const ViewCatalog& views, const Json&,
                                const ViewQuery& q) {
  return hourly_json(views.hourly_counts(q));
}

std::optional<Json> view_timeseries(const ViewCatalog& views,
                                    const Json& request, const ViewQuery& q) {
  // Only the hourly bin matches the tile grid; event_series replaces the
  // context's type list with the requested type.
  if (request.get_int("bin_seconds").value_or(60) !=
      ViewCatalog::kHourSeconds) {
    return std::nullopt;
  }
  auto type = type_field(request, "type");
  if (!type.is_ok()) return std::nullopt;  // engine path reports the error
  ViewQuery tq = q;
  tq.types = {type.value()};
  return timeseries_json(ViewCatalog::kHourSeconds, views.hour_series(tq));
}

std::optional<Json> view_burst(const ViewCatalog& views, const Json& request,
                               const ViewQuery& q) {
  // Tile sketches are whole-system and per-type at the catalog's fixed
  // epsilon: a location filter, a non-type grouping, or a custom epsilon
  // all need the engine's per-event pass.
  if (q.location) return std::nullopt;
  if (request.get_string("group_by").value_or("type") != "type") {
    return std::nullopt;
  }
  if (request.get_double("epsilon").value_or(ViewCatalog::kBurstEpsilon) !=
      ViewCatalog::kBurstEpsilon) {
    return std::nullopt;
  }
  return burst_json(views.burst_percentiles(q));
}

}  // namespace

Result<Json> AnalyticsServer::op_cross_correlation(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  auto type_a = type_field(request, "type_a");
  if (!type_a.is_ok()) return type_a.status();
  auto type_b = type_field(request, "type_b");
  if (!type_b.is_ok()) return type_b.status();
  const std::int64_t bin = request.get_int("bin_seconds").value_or(60);
  const std::int64_t max_lag = request.get_int("max_lag").value_or(10);
  if (bin <= 0 || max_lag < 0) return invalid_argument("bad bin/max_lag");
  auto a = analytics::event_series(*engine_, *cluster_, ctx.value(),
                                   type_a.value(), bin);
  auto b = analytics::event_series(*engine_, *cluster_, ctx.value(),
                                   type_b.value(), bin);
  auto corr = analytics::cross_correlation(
      a, b, static_cast<std::size_t>(max_lag));
  Json out = Json::object();
  out["bin_seconds"] = bin;
  out["max_lag"] = max_lag;
  out["correlation"] = series_json(corr);
  out["peak_lag"] =
      analytics::peak_lag(corr, static_cast<std::size_t>(max_lag));
  return out;
}

Result<Json> AnalyticsServer::op_transfer_entropy(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  auto type_a = type_field(request, "type_a");
  if (!type_a.is_ok()) return type_a.status();
  auto type_b = type_field(request, "type_b");
  if (!type_b.is_ok()) return type_b.status();
  const std::int64_t bin = request.get_int("bin_seconds").value_or(60);
  const std::int64_t levels = request.get_int("levels").value_or(2);
  const std::int64_t max_shift = request.get_int("max_shift").value_or(0);
  if (bin <= 0 || levels < 2 || max_shift < 0) {
    return invalid_argument("bad bin/levels/max_shift");
  }
  auto a = analytics::event_series(*engine_, *cluster_, ctx.value(),
                                   type_a.value(), bin);
  auto b = analytics::event_series(*engine_, *cluster_, ctx.value(),
                                   type_b.value(), bin);
  auto pair = analytics::transfer_entropy_pair(a, b, static_cast<int>(levels));
  Json out = Json::object();
  out["bin_seconds"] = bin;
  out["levels"] = levels;
  out["te_xy"] = pair.te_xy;
  out["te_yx"] = pair.te_yx;
  out["net"] = pair.net();
  if (max_shift > 0) {
    out["profile_xy"] = series_json(analytics::transfer_entropy_profile(
        a, b, static_cast<std::size_t>(max_shift), static_cast<int>(levels)));
  }
  return out;
}

Result<Json> AnalyticsServer::op_word_count(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  const std::int64_t top_k = request.get_int("top_k").value_or(20);
  if (top_k <= 0) return invalid_argument("'top_k' must be positive");
  auto terms = analytics::word_count(*engine_, *cluster_, ctx.value(),
                                     static_cast<std::size_t>(top_k));
  Json arr = Json::array();
  for (const auto& t : terms) {
    Json row = Json::object();
    row["term"] = t.term;
    row["count"] = t.count;
    arr.push_back(std::move(row));
  }
  return arr;
}

Result<Json> AnalyticsServer::op_storm_signature(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  const std::int64_t bucket = request.get_int("bucket_seconds").value_or(60);
  const std::int64_t top_k = request.get_int("top_k").value_or(10);
  if (bucket <= 0 || top_k <= 0) return invalid_argument("bad bucket/top_k");
  auto terms = analytics::storm_signature(*engine_, *cluster_, ctx.value(),
                                          bucket,
                                          static_cast<std::size_t>(top_k));
  Json arr = Json::array();
  for (const auto& t : terms) {
    Json row = Json::object();
    row["term"] = t.term;
    row["score"] = t.score;
    arr.push_back(std::move(row));
  }
  return arr;
}

Result<Json> AnalyticsServer::op_apps_running(const Json& request) {
  auto t = request.get_int("t");
  if (!t.is_ok()) return t.status();
  auto jobs = analytics::apps_running_at(*engine_, *cluster_, t.value());
  Json arr = Json::array();
  for (const auto& j : jobs) arr.push_back(j.to_json());
  return arr;
}

Result<Json> AnalyticsServer::op_reliability(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  auto report = analytics::reliability_report(*engine_, *cluster_, ctx.value());
  Json out = Json::object();
  Json counts = Json::object();
  for (const auto& [type, count] : report.counts_by_type) {
    counts[std::string(titanlog::event_id(type))] = count;
  }
  out["counts_by_type"] = std::move(counts);
  out["fatal_events"] = report.fatal_events;
  out["mtbf_seconds"] = report.mtbf_seconds;
  out["events_per_node_hour"] = report.events_per_node_hour;
  out["affected_nodes"] = report.affected_nodes;
  return out;
}

Result<Json> AnalyticsServer::op_app_impact(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  auto report = analytics::app_impact(*engine_, *cluster_, ctx.value());
  Json out = Json::object();
  out["jobs"] = report.jobs;
  out["failed_jobs"] = report.failed_jobs;
  out["failed_with_event"] = report.failed_with_event;
  out["ok_with_event"] = report.ok_with_event;
  out["failure_rate"] = report.failure_rate();
  return out;
}

Result<Json> AnalyticsServer::op_render_heatmap(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  auto hm = analytics::build_heatmap(*engine_, *cluster_, ctx.value());
  Json out = Json::object();
  out["map"] = render_cabinet_heatmap(hm);
  if (request.as_object().contains("cabinet")) {
    auto cab = request.get_int("cabinet");
    if (!cab.is_ok()) return cab.status();
    if (cab.value() < 0 || cab.value() >= topo::TitanGeometry::kCabinets) {
      return invalid_argument("cabinet index out of range");
    }
    out["cabinet_detail"] =
        render_cabinet_detail(hm, static_cast<int>(cab.value()));
  }
  if (request.as_object().contains("ppm_path")) {
    auto path = request.get_string("ppm_path");
    if (!path.is_ok()) return path.status();
    HPCLA_RETURN_IF_ERROR(write_heatmap_ppm(hm, path.value()));
    out["ppm_path"] = path.value();
  }
  return out;
}

Result<Json> AnalyticsServer::op_render_placement(const Json& request) {
  auto t = request.get_int("t");
  if (!t.is_ok()) return t.status();
  auto jobs = analytics::apps_running_at(*engine_, *cluster_, t.value());
  Json out = Json::object();
  out["map"] = render_placement_map(jobs);
  out["jobs"] = static_cast<std::int64_t>(jobs.size());
  return out;
}

Result<Json> AnalyticsServer::op_association_rules(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  analytics::AssocConfig config;
  config.bucket_seconds = request.get_int("bucket_seconds").value_or(600);
  config.min_support = request.get_double("min_support").value_or(0.001);
  config.min_confidence = request.get_double("min_confidence").value_or(0.3);
  if (config.bucket_seconds <= 0 || config.min_support < 0.0 ||
      config.min_confidence < 0.0) {
    return invalid_argument("bad association-rule thresholds");
  }
  auto rules =
      analytics::mine_association_rules(*engine_, *cluster_, ctx.value(),
                                        config);
  Json arr = Json::array();
  for (const auto& r : rules) arr.push_back(r.to_json());
  return arr;
}

Result<Json> AnalyticsServer::op_composite_events(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  // Rules: the named defaults, or inline definitions.
  std::vector<analytics::CompositeRule> rules;
  const Json& spec = request["rules"];
  if (spec.is_null()) {
    rules = analytics::default_composite_rules();
  } else {
    if (!spec.is_array()) return invalid_argument("'rules' must be an array");
    for (const auto& r : spec.as_array()) {
      analytics::CompositeRule rule;
      auto name = r.get_string("name");
      if (!name.is_ok()) return name.status();
      rule.name = name.value();
      auto scope = r.get_string("scope");
      if (scope.is_ok()) {
        auto parsed = analytics::match_scope_from_string(scope.value());
        if (!parsed.is_ok()) return parsed.status();
        rule.scope = parsed.value();
      }
      const Json& steps = r["steps"];
      if (!steps.is_array() || steps.as_array().size() < 2) {
        return invalid_argument("rule '" + rule.name +
                                "' needs >= 2 steps");
      }
      for (const auto& s : steps.as_array()) {
        analytics::CompositeStep step;
        auto type = type_field(s, "type");
        if (!type.is_ok()) return type.status();
        step.type = type.value();
        step.max_gap_seconds = s.get_int("max_gap_seconds").value_or(600);
        rule.steps.push_back(step);
      }
      rules.push_back(std::move(rule));
    }
  }
  auto matches = analytics::detect_composites(*engine_, *cluster_,
                                              ctx.value(), rules);
  Json arr = Json::array();
  for (const auto& m : matches) {
    Json row = Json::object();
    row["rule"] = m.rule;
    row["scope_key"] = m.scope_key;
    row["last_node"] = m.last_node;
    row["cname"] = topo::cname_of(m.last_node);
    row["start_ts"] = m.start_ts;
    row["end_ts"] = m.end_ts;
    row["steps"] = static_cast<std::int64_t>(m.step_events.size());
    arr.push_back(std::move(row));
  }
  return arr;
}

Result<Json> AnalyticsServer::op_app_profiles(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  auto profiles = analytics::build_app_profiles(*engine_, *cluster_,
                                                ctx.value());
  Json arr = Json::array();
  for (const auto& p : profiles) arr.push_back(p.to_json());
  return arr;
}

Result<Json> AnalyticsServer::op_predict_failures(const Json& request) {
  auto ctx = context_of(request);
  if (!ctx.is_ok()) return ctx.status();
  analytics::PredictorConfig config;
  config.window_seconds = request.get_int("window_seconds").value_or(1800);
  config.threshold = request.get_int("threshold").value_or(3);
  config.lead_seconds = request.get_int("lead_seconds").value_or(1800);
  if (config.window_seconds <= 0 || config.threshold <= 0 ||
      config.lead_seconds <= 0) {
    return invalid_argument("window/threshold/lead must be positive");
  }
  const Json& precursors = request["precursors"];
  if (precursors.is_array()) {
    for (const auto& t : precursors.as_array()) {
      if (!t.is_string()) return invalid_argument("precursor must be string");
      auto parsed = titanlog::event_type_from_id(t.as_string());
      if (!parsed.is_ok()) return parsed.status();
      config.precursors.push_back(parsed.value());
    }
  }
  const Json& targets = request["targets"];
  if (targets.is_array()) {
    for (const auto& t : targets.as_array()) {
      if (!t.is_string()) return invalid_argument("target must be string");
      auto parsed = titanlog::event_type_from_id(t.as_string());
      if (!parsed.is_ok()) return parsed.status();
      config.targets.push_back(parsed.value());
    }
  }
  auto report = analytics::evaluate_predictor(*engine_, *cluster_,
                                              ctx.value(), config);
  Json out = Json::object();
  out["alarms"] = static_cast<std::int64_t>(report.alarms.size());
  out["failures"] = report.failures;
  out["failures_predicted"] = report.failures_predicted;
  out["true_positives"] = report.true_positives;
  out["false_positives"] = report.false_positives;
  out["precision"] = report.precision();
  out["recall"] = report.recall();
  out["mean_lead_seconds"] = report.mean_lead_seconds();
  return out;
}

// ------------------------------------------------------------ AsyncSession

std::uint64_t AsyncSession::submit(Json request) {
  std::lock_guard lock(mu_);
  const std::uint64_t ticket = next_ticket_++;
  auto server = server_;
  pending_.emplace(ticket, pool_.submit([server, request = std::move(request)] {
                     return server->handle(request);
                   }));
  return ticket;
}

Result<Json> AsyncSession::poll(std::uint64_t ticket) {
  std::lock_guard lock(mu_);
  const auto it = pending_.find(ticket);
  if (it == pending_.end()) {
    return not_found("unknown ticket " + std::to_string(ticket));
  }
  if (it->second.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    return unavailable("ticket " + std::to_string(ticket) + " still running");
  }
  Json response = it->second.get();
  pending_.erase(it);
  return response;
}

Result<Json> AsyncSession::wait(std::uint64_t ticket) {
  std::future<Json> fut;
  {
    std::lock_guard lock(mu_);
    const auto it = pending_.find(ticket);
    if (it == pending_.end()) {
      return not_found("unknown ticket " + std::to_string(ticket));
    }
    fut = std::move(it->second);
    pending_.erase(it);
  }
  return fut.get();
}

}  // namespace hpcla::server
