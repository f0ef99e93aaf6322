// The traced run's ladder: one op replayed as the chain of public calls it
// makes, top to bottom, each call wrapped in a benchmark-side span:
//
//   handle_text -> (Json::parse, AnalyticsServer::handle, Json::dump)
//     -> the analytics or CQL call the op makes
//       -> the sparklite collect     | Cluster::select
//         -> per-node StorageEngine::scan_partitions
//
// The ladder stops at the server rung when the response came from the
// result cache or the views. No span is added inside the program.
#include <fstream>

#include "analytics/distribution.hpp"
#include "analytics/heatmap.hpp"
#include "analytics/queries.hpp"
#include "analytics/text.hpp"
#include "analytics/timeseries.hpp"
#include "analytics/transfer_entropy.hpp"
#include "cassalite/cql.hpp"
#include "model/keys.hpp"
#include "sparklite/cassalite_source.hpp"
#include "stackbench.hpp"

namespace stackbench {

namespace analytics = hpcla::analytics;
namespace cassalite = hpcla::cassalite;
namespace model = hpcla::model;
using hpcla::analytics::Context;

// ----------------------------------------------------------------- SpanLog

std::uint64_t SpanLog::add(SpanRec rec) {
  std::lock_guard lock(mu_);
  rec.id = next_++;
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

std::size_t SpanLog::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

std::vector<SpanRec> SpanLog::spans_of(std::uint64_t op) const {
  std::lock_guard lock(mu_);
  std::vector<SpanRec> out;
  for (const auto& s : spans_) {
    if (s.op == op) out.push_back(s);
  }
  return out;
}

double self_sum(const std::vector<SpanRec>& spans) {
  struct Below {
    double sum = 0.0;
    double max = 0.0;
    std::uint64_t slowest = 0;
  };
  std::map<std::uint64_t, Below> below;  // by parent id
  std::map<std::uint64_t, bool> fanout;  // by span id
  for (const auto& s : spans) {
    fanout[s.id] = s.fanout;
    if (s.parent == 0) continue;
    Below& b = below[s.parent];
    b.sum += s.dur();
    if (s.dur() >= b.max) {
      b.max = s.dur();
      b.slowest = s.id;
    }
  }
  // Under a fan-out only the slowest child lies on the request's path;
  // the other children overlap it and add nothing.
  double total = 0.0;
  for (const auto& s : spans) {
    if (s.parent != 0 && fanout[s.parent] && below[s.parent].slowest != s.id) {
      continue;
    }
    const auto it = below.find(s.id);
    const double covered =
        it == below.end() ? 0.0 : (s.fanout ? it->second.max : it->second.sum);
    total += std::max(0.0, s.dur() - covered);
  }
  return total;
}

void SpanLog::write(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  for (const auto& s : spans_) {
    Json j = Json::object();
    j["id"] = s.id;
    j["parent"] = s.parent;
    j["op"] = s.op;
    j["name"] = s.name;
    j["start_us"] = s.start_us;
    j["end_us"] = s.end_us;
    if (s.fanout) j["fanout"] = true;
    out << j.dump() << "\n";
  }
}

namespace {

/// One rung: times `fn` and records it as a span under `parent`.
struct Rungs {
  SpanLog& log;
  std::uint64_t op_id;

  template <typename Fn>
  std::pair<std::uint64_t, double> run(std::uint64_t parent, const char* name,
                                       Fn&& fn, bool fanout = false) {
    SpanRec rec;
    rec.parent = parent;
    rec.op = op_id;
    rec.name = name;
    rec.fanout = fanout;
    rec.start_us = now_us();
    fn();
    rec.end_us = now_us();
    const double us = rec.dur();
    return {log.add(std::move(rec)), us};
  }
};

/// Partition keys grouped by primary replica, as scan_table_keyed does.
std::map<cassalite::NodeIndex, std::vector<std::string>> by_primary(
    const cassalite::Cluster& cluster, const std::vector<std::string>& keys) {
  std::map<cassalite::NodeIndex, std::vector<std::string>> out;
  for (const auto& k : keys) out[cluster.ring().primary(k)].push_back(k);
  return out;
}

/// Storage rung: each node's batch through StorageEngine::scan_partitions,
/// replayed serially. Adds to the ladder's scan sum, max, and row count.
void scan_rung(Rungs& rungs, Ladder& L, const cassalite::Cluster& cluster,
               std::uint64_t parent, const std::string& table,
               const std::vector<std::string>& keys) {
  double sum = 0.0;
  double max = 0.0;
  for (const auto& [node, batch] : by_primary(cluster, keys)) {
    std::size_t rows = 0;
    const double us = rungs.run(parent, "storage.scan_partitions", [&] {
      rows = 0;
      cluster.engine(node).scan_partitions(
          table, batch, {},
          [&rows](const std::string&, std::vector<cassalite::Row> r) {
            rows += r.size();
          });
    }).second;
    L.rows_scanned += rows;
    sum += us;
    max = std::max(max, us);
  }
  L.scan_sum_us = std::max(0.0, L.scan_sum_us) + sum;
  L.scan_max_us = std::max(0.0, L.scan_max_us) + max;
}

/// Sparklite rung for an event scan, with its storage fan-out. Ops that
/// hand the events back (`collect`) replay collect(); ops that shuffle them
/// fuse the scan into their map stage, so the replay stops at count(),
/// which runs the same scan, decode and filter tasks without the copy.
void collect_rung(Rungs& rungs, Ladder& L, Stack& s, std::uint64_t parent,
                  const Context& ctx, bool collect) {
  const auto [id, us] = rungs.run(
      parent, "sparklite.collect",
      [&] {
        const auto events = analytics::event_dataset(s.engine, s.cluster, ctx);
        if (collect) {
          (void)events.collect();
        } else {
          (void)events.count();
        }
      },
      /*fanout=*/true);
  const auto plan = analytics::plan_event_scan(ctx);
  scan_rung(rungs, L, s.cluster, id,
            std::string(plan == analytics::ScanPlan::kByTime
                            ? model::kEventByTime
                            : model::kEventByLocation),
            analytics::event_partition_keys(ctx, plan));
  L.collect_us = std::max(0.0, L.collect_us) + us;
}

}  // namespace

Ladder run_ladder(Stack& s, const Op& op, std::uint64_t op_id, SpanLog& log) {
  Ladder L;
  Rungs rungs{log, op_id};
  // The request end to end, after one warm-up so the rungs below replay
  // against the same warm caches.
  std::string response = s.server.handle_text(op.text);
  const auto [root, root_us] = rungs.run(0, "server.handle_text", [&] {
    response = s.server.handle_text(op.text);
  });
  L.root_us = root_us;
  L.response_bytes = response.size();
  if (auto parsed = Json::parse(response); parsed.is_ok()) {
    const Json& r = parsed.value();
    L.cache = r.get_string("cache").value_or("");
    const Json& result = r["result"];
    L.rows_returned = result.is_array() ? result.as_array().size() : 1;
  }

  Json request;
  L.parse_us = rungs.run(root, "server.json_parse", [&] {
                      request = Json::parse(op.text).value();
                    }).second;
  Json resp;
  const auto [handle, handle_us] = rungs.run(
      root, "server.handle", [&] { resp = s.server.handle(request); });
  L.handle_us = handle_us;
  L.dump_us = rungs.run(root, "server.json_dump", [&] {
                     (void)resp.dump();
                   }).second;

  const bool served_above_engine = L.cache == "hit" || L.cache == "view";
  double below_handle = 0.0;  // time of the rung under AnalyticsServer::handle
  if (!served_above_engine) {
    auto ctx_r = Context::from_json(op.request["context"]);
    const Context ctx = ctx_r.is_ok() ? ctx_r.value() : Context{};
    const std::string& name = op.name;
    double below_analytics = 0.0;  // collect or select time under analytics
    std::uint64_t an = 0;
    auto analytics_rung = [&](auto&& fn) {
      const auto [id, us] = rungs.run(handle, "analytics.call", fn);
      an = id;
      L.analytics_us = us;
      below_handle = us;
    };
    if (name == "synopsis") {
      const TimeRange w{op.request["window"].get_int("begin").value_or(0),
                        op.request["window"].get_int("end").value_or(0)};
      analytics_rung([&] { (void)analytics::fetch_synopsis(s.cluster, w); });
      double select = 0.0;
      for (std::int64_t h = w.first_hour(); h <= w.last_hour(); ++h) {
        cassalite::ReadQuery q;
        q.table = std::string(model::kEventSynopsis);
        q.partition_key = model::synopsis_key(h);
        const auto [sel, us] = rungs.run(an, "cassalite.select", [&] {
          (void)s.cluster.select(q);
        });
        select += us;
        scan_rung(rungs, L, s.cluster, sel, q.table, {q.partition_key});
      }
      L.select_us = select;
      below_analytics = select;
    } else if (name == "nodeinfo" || name == "cql") {
      cassalite::ReadQuery q;
      std::string query;
      if (name == "nodeinfo") {
        q.table = std::string(model::kNodeInfos);
        q.partition_key = model::nodeinfo_key(static_cast<hpcla::topo::NodeId>(
            op.request.get_int("node").value_or(0)));
      } else {
        query = op.request.get_string("query").value_or("");
        std::int64_t hour = 0;
        EventType type = EventType::kMachineCheck;
        parse_cql_partition(query, hour, type);
        q.table = std::string(model::kEventByTime);
        q.partition_key = model::event_time_key(hour, type);
      }
      const auto [sel, us] = rungs.run(handle, "cassalite.select", [&] {
        if (query.empty()) {
          (void)s.cluster.select(q);
        } else {
          (void)cassalite::execute_cql(s.cluster, query);
        }
      });
      L.select_us = us;
      below_handle = us;
      scan_rung(rungs, L, s.cluster, sel, q.table, {q.partition_key});
    } else if (name == "jobs") {
      analytics_rung(
          [&] { (void)analytics::fetch_jobs(s.engine, s.cluster, ctx); });
      std::vector<std::string> keys;
      for (std::int64_t h = ctx.window.first_hour() - 48;
           h <= ctx.window.last_hour(); ++h) {
        keys.push_back(model::app_time_key(h));
      }
      const std::string table(model::kAppByTime);
      const auto [col, us] = rungs.run(
          an, "sparklite.collect",
          [&] {
            (void)hpcla::sparklite::scan_table_keyed(s.engine, s.cluster,
                                                     table, keys)
                .collect();
          },
          /*fanout=*/true);
      L.collect_us = us;
      below_analytics = us;
      scan_rung(rungs, L, s.cluster, col, table, keys);
    } else {
      // Ops whose analytics call runs one event scan, or two (the pairs).
      const bool pair = name == "transfer_entropy" || name == "cross_correlation";
      const auto type_a = hpcla::titanlog::event_type_from_id(
          op.request.get_string("type_a").value_or(""));
      const auto type_b = hpcla::titanlog::event_type_from_id(
          op.request.get_string("type_b").value_or(""));
      const std::int64_t bin = op.request.get_int("bin_seconds").value_or(60);
      analytics_rung([&] {
        if (name == "events") {
          (void)analytics::raw_log_view(
              s.engine, s.cluster, ctx,
              static_cast<std::size_t>(op.request.get_int("limit").value_or(1000)));
        } else if (name == "heatmap") {
          (void)analytics::build_heatmap(s.engine, s.cluster, ctx);
        } else if (name == "hourly") {
          (void)analytics::hourly_distribution(s.engine, s.cluster, ctx);
        } else if (name == "distribution") {
          (void)analytics::distribution(
              s.engine, s.cluster, ctx,
              analytics::group_by_from_string(
                  op.request.get_string("group_by").value_or("type"))
                  .value_or(analytics::GroupBy::kEventType));
        } else if (name == "word_count") {
          (void)analytics::word_count(
              s.engine, s.cluster, ctx,
              static_cast<std::size_t>(op.request.get_int("top_k").value_or(20)));
        } else if (name == "storm_signature") {
          (void)analytics::storm_signature(
              s.engine, s.cluster, ctx,
              op.request.get_int("bucket_seconds").value_or(60),
              static_cast<std::size_t>(op.request.get_int("top_k").value_or(10)));
        } else if (pair && type_a.is_ok() && type_b.is_ok()) {
          const auto a = analytics::event_series(s.engine, s.cluster, ctx,
                                                 type_a.value(), bin);
          const auto b = analytics::event_series(s.engine, s.cluster, ctx,
                                                 type_b.value(), bin);
          if (name == "transfer_entropy") {
            (void)analytics::transfer_entropy_pair(a, b, 2);
          } else {
            (void)analytics::cross_correlation(
                a, b,
                static_cast<std::size_t>(op.request.get_int("max_lag").value_or(10)));
          }
        }
      });
      if (pair && type_a.is_ok() && type_b.is_ok()) {
        for (const EventType t : {type_a.value(), type_b.value()}) {
          Context narrowed = ctx;
          narrowed.types = {t};
          collect_rung(rungs, L, s, an, narrowed, /*collect=*/true);
        }
      } else {
        collect_rung(rungs, L, s, an, ctx, /*collect=*/name == "events");
      }
      below_analytics = std::max(0.0, L.collect_us);
    }
    if (L.analytics_us >= 0) {
      L.analytics_self = std::max(0.0, L.analytics_us - below_analytics);
    }
  }

  L.server_self = std::max(0.0, L.root_us - below_handle);
  return L;
}

}  // namespace stackbench
