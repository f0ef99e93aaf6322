// The analytics server (paper §III, Fig 3).
//
// "The analytics server consists of a web server, a query processing
//  engine, and a big data processing engine. The user queries are received
//  by the web server, translated by the query engine, and either forwarded
//  to the backend database, or the big data processing unit depending on
//  the type of a user query. Simple queries are directly handled by the
//  query engine, and complex queries are passed to the big data processing
//  unit."
//
// AnalyticsServer::handle() is the request entry point: a JSON query in,
// a JSON response out. One op table in server.cpp names every op once:
// its path (lookups/slices are simple, direct cassalite reads; analytics
// are complex, sparklite jobs), its handler and, for the ops the
// materialized views can answer, its view answerer. With a ViewCatalog
// attached (set_view_catalog), those ops are answered from a bounded
// result cache or the views when possible (DESIGN.md §12); the response
// carries a "cache":"hit|view|miss" field.
// AsyncSession reproduces the Tornado long-polling shape: submit returns a
// ticket, poll retrieves the response when ready.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "analytics/context.hpp"
#include "cassalite/cluster.hpp"
#include "common/json.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "model/selftel/selftel.hpp"
#include "model/views/views.hpp"
#include "server/query_cache.hpp"
#include "sparklite/engine.hpp"

namespace hpcla::server {

/// Routing decision for a query op.
enum class QueryPath { kSimple, kComplex };

/// Classifies an op name from the op table; kNotFound for unknown ops.
Result<QueryPath> classify_query(std::string_view op);

class AnalyticsServer {
 public:
  AnalyticsServer(cassalite::Cluster& cluster, sparklite::Engine& engine,
                  QueryCache::Options cache_options = QueryCache::Options())
      : cluster_(&cluster), engine_(&engine), cache_(cache_options) {
    telemetry_ = telemetry::registry().register_collector(
        [this](telemetry::MetricSink& sink) {
          const QueryCacheStats cs = cache_.stats();
          sink.counter("server.cache.hits", cs.hits);
          sink.counter("server.cache.misses", cs.misses);
          sink.counter("server.cache.invalidations", cs.invalidations);
          sink.counter("server.cache.staleness_epochs", cs.staleness_epochs);
          sink.counter("server.cache.evictions", cs.evictions);
          sink.gauge("server.cache.entries",
                     static_cast<double>(cache_.size()));
        });
  }

  /// Attaches the materialized-view catalog maintained by the ingestors
  /// (not owned). Enables the result cache + view serving for the
  /// cacheable complex ops; pass nullptr to fall back to engine-only.
  void set_view_catalog(model::views::ViewCatalog* views) { views_ = views; }

  /// The server-side result cache (for inspection in tests/benchmarks).
  [[nodiscard]] QueryCache& query_cache() noexcept { return cache_; }

  /// Attaches the self-telemetry loop (not owned): enables the `alerts`
  /// op (online anomaly/SLO state) and the `selfquery` op (the system's
  /// own metric/span history out of the sys_* tables and span views).
  /// Pass nullptr to detach.
  void set_self_telemetry(model::selftel::SelfTelemetryLoop* loop) {
    selftel_ = loop;
  }

  /// Handles one frontend query synchronously.
  ///
  /// Request envelope:  {"op": "<name>", ...op-specific fields}
  /// Response envelope: {"status":"ok","path":"simple|complex",
  ///                     "result":...} or {"status":"error","error":"..."}
  ///
  /// The ops are the rows of the op table in server.cpp (see README for
  /// the full schema).
  [[nodiscard]] Json handle(const Json& request);

  /// Convenience: parse a JSON request string, handle, serialize response.
  [[nodiscard]] std::string handle_text(std::string_view request);

 private:
  /// One row of the op table (server.cpp).
  struct Op;
  /// The op table row named `name`, or nullptr.
  static const Op* find_op(std::string_view name) noexcept;
  friend Result<QueryPath> classify_query(std::string_view op);

  // simple path
  Result<Json> op_cql(const Json& request);
  Result<Json> op_nodeinfo(const Json& request);
  Result<Json> op_eventtypes(const Json& request);
  Result<Json> op_synopsis(const Json& request);
  Result<Json> op_events(const Json& request);
  Result<Json> op_jobs(const Json& request);
  Result<Json> op_metrics(const Json& request);
  Result<Json> op_trace(const Json& request);
  Result<Json> op_slowlog(const Json& request);
  Result<Json> op_topology(const Json& request);
  Result<Json> op_repair(const Json& request);
  Result<Json> op_alerts(const Json& request);
  Result<Json> op_selfquery(const Json& request);

  // complex path (big data processing unit)
  Result<Json> op_heatmap(const Json& request);
  Result<Json> op_distribution(const Json& request);
  Result<Json> op_hourly(const Json& request);
  Result<Json> op_timeseries(const Json& request);
  Result<Json> op_burst(const Json& request);
  Result<Json> op_cross_correlation(const Json& request);
  Result<Json> op_transfer_entropy(const Json& request);
  Result<Json> op_word_count(const Json& request);
  Result<Json> op_storm_signature(const Json& request);
  Result<Json> op_apps_running(const Json& request);
  Result<Json> op_reliability(const Json& request);
  Result<Json> op_app_impact(const Json& request);
  Result<Json> op_render_heatmap(const Json& request);
  Result<Json> op_render_placement(const Json& request);
  Result<Json> op_association_rules(const Json& request);
  Result<Json> op_composite_events(const Json& request);
  Result<Json> op_app_profiles(const Json& request);
  Result<Json> op_predict_failures(const Json& request);

  Result<analytics::Context> context_of(const Json& request) const;

  cassalite::Cluster* cluster_;
  sparklite::Engine* engine_;
  model::views::ViewCatalog* views_ = nullptr;           ///< not owned
  model::selftel::SelfTelemetryLoop* selftel_ = nullptr;  ///< not owned
  QueryCache cache_;
  // Query outcomes and per-path end-to-end latency, process-wide (registry
  // references cached once; recording is lock-free).
  telemetry::Counter& simple_ =
      telemetry::registry().counter("server.queries.simple");
  telemetry::Counter& complex_ =
      telemetry::registry().counter("server.queries.complex");
  telemetry::Counter& errors_ =
      telemetry::registry().counter("server.queries.errors");
  telemetry::Counter& view_served_ =
      telemetry::registry().counter("server.queries.view_served");
  telemetry::LatencyHistogram& simple_hist_ =
      telemetry::registry().histogram("server.query.simple.us");
  telemetry::LatencyHistogram& complex_hist_ =
      telemetry::registry().histogram("server.query.complex.us");
  /// Query-cache collector (captures `this`); last member so it
  /// deregisters before the cache it reads.
  telemetry::CollectorHandle telemetry_;
};

/// Long-poll session: queries run on a small worker pool; the client
/// polls with the ticket until the response is ready (paper §III-A:
/// Tornado non-blocking long polling).
class AsyncSession {
 public:
  explicit AsyncSession(AnalyticsServer& server, std::size_t workers = 2)
      : server_(&server), pool_(workers) {}

  /// Enqueues a query; returns a ticket.
  std::uint64_t submit(Json request);

  /// Non-blocking poll: response if ready, kUnavailable if still running,
  /// kNotFound for unknown tickets. A delivered ticket is forgotten.
  Result<Json> poll(std::uint64_t ticket);

  /// Blocking wait for a ticket.
  Result<Json> wait(std::uint64_t ticket);

 private:
  AnalyticsServer* server_;
  ThreadPool pool_;
  std::mutex mu_;
  std::map<std::uint64_t, std::future<Json>> pending_;
  std::uint64_t next_ticket_ = 1;
};

}  // namespace hpcla::server
