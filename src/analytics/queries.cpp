#include "analytics/queries.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <set>

namespace hpcla::analytics {

using cassalite::ClusteringKey;
using cassalite::Value;
using model::decode_app_row;
using model::decode_event_location_row;
using model::decode_event_time_row;
using titanlog::EventRecord;
using titanlog::EventType;
using titanlog::JobRecord;

ScanPlan plan_event_scan(const Context& ctx) {
  const std::int64_t hours = ctx.window.last_hour() - ctx.window.first_hour() + 1;
  const std::size_t type_count =
      ctx.types.empty() ? titanlog::kEventTypeCount : ctx.types.size();
  const std::size_t time_keys = static_cast<std::size_t>(hours) * type_count;
  if (!ctx.location) return ScanPlan::kByTime;
  const std::size_t nodes = topo::titan().nodes_in(*ctx.location).size();
  const std::size_t location_keys = static_cast<std::size_t>(hours) * nodes;
  return location_keys < time_keys ? ScanPlan::kByLocation : ScanPlan::kByTime;
}

std::vector<std::string> event_partition_keys(const Context& ctx,
                                              ScanPlan plan) {
  std::vector<std::string> keys;
  const std::int64_t h0 = ctx.window.first_hour();
  const std::int64_t h1 = ctx.window.last_hour();
  if (plan == ScanPlan::kByTime) {
    std::vector<EventType> types(ctx.types);
    if (types.empty()) {
      const auto all = titanlog::all_event_types();
      types.assign(all.begin(), all.end());
    }
    keys.reserve(static_cast<std::size_t>(h1 - h0 + 1) * types.size());
    for (std::int64_t h = h0; h <= h1; ++h) {
      for (auto t : types) keys.push_back(model::event_time_key(h, t));
    }
  } else {
    const auto nodes = topo::titan().nodes_in(
        ctx.location.value_or(topo::Coord{}));
    keys.reserve(static_cast<std::size_t>(h1 - h0 + 1) * nodes.size());
    for (std::int64_t h = h0; h <= h1; ++h) {
      for (auto n : nodes) keys.push_back(model::event_location_key(h, n));
    }
  }
  return keys;
}

namespace {

/// Decodes one scanned event row and applies the context filter; nullopt
/// for a corrupt row (skipped) or one the context excludes.
std::optional<EventRecord> decode_event(ScanPlan plan, const Context& filter,
                                        const std::string& partition_key,
                                        const cassalite::Row& row) {
  auto decoded = plan == ScanPlan::kByTime
                     ? decode_event_time_row(partition_key, row)
                     : decode_event_location_row(partition_key, row);
  if (!decoded.is_ok()) return std::nullopt;
  EventRecord& e = decoded.value();
  if (!filter.window.contains(e.ts)) return std::nullopt;
  if (!filter.wants_type(e.type)) return std::nullopt;
  if (!filter.wants_node(e.node)) return std::nullopt;
  return std::move(e);
}

std::string event_table(ScanPlan plan) {
  return std::string(plan == ScanPlan::kByTime ? model::kEventByTime
                                               : model::kEventByLocation);
}

/// What the scan path returned of one partition: how many rows, and the
/// records they decode to (corrupt rows and those the context excludes
/// left out).
struct PartitionPage {
  std::string partition;
  std::size_t rows = 0;
  std::vector<EventRecord> events;
};

/// The event rows `want` selects from each of `keys` (distinct), decoded
/// and filtered inside the scan tasks: one page per partition with rows.
std::vector<PartitionPage> scan_event_pages(
    sparklite::Engine& engine, const cassalite::Cluster& cluster,
    const Context& ctx, ScanPlan plan, std::vector<std::string> keys,
    const cassalite::LimitedSlice& want) {
  return sparklite::scan_table_keyed(engine, cluster, event_table(plan),
                                     std::move(keys),
                                     /*max_keys_per_task=*/0, want)
      .map_partitions(
          [plan, filter = ctx](
              std::vector<std::pair<std::string, cassalite::Row>> rows) {
            std::vector<PartitionPage> pages;
            for (const auto& [key, row] : rows) {
              if (pages.empty() || pages.back().partition != key) {
                pages.push_back(PartitionPage{key, 0, {}});
              }
              PartitionPage& page = pages.back();
              ++page.rows;
              if (auto e = decode_event(plan, filter, key, row)) {
                page.events.push_back(std::move(*e));
              }
            }
            return pages;
          })
      .collect();
}

/// Newest first: descending (ts, seq), the reverse of fetch_events.
bool newer(const EventRecord& a, const EventRecord& b) {
  if (a.ts != b.ts) return a.ts > b.ts;
  return a.seq > b.seq;
}

}  // namespace

sparklite::Dataset<EventRecord> event_dataset(
    sparklite::Engine& engine, const cassalite::Cluster& cluster,
    const Context& ctx) {
  const ScanPlan plan = plan_event_scan(ctx);
  auto keys = event_partition_keys(ctx, plan);
  auto scan = sparklite::scan_table_keyed(engine, cluster, event_table(plan),
                                          std::move(keys));
  // Decode + context filter inside the scan tasks.
  Context filter = ctx;
  return scan.flat_map(
      [plan, filter](const std::pair<std::string, cassalite::Row>& kv) {
        std::vector<EventRecord> out;
        if (auto e = decode_event(plan, filter, kv.first, kv.second)) {
          out.push_back(std::move(*e));
        }
        return out;
      });
}

std::vector<EventRecord> fetch_events(sparklite::Engine& engine,
                                      const cassalite::Cluster& cluster,
                                      const Context& ctx) {
  auto events = event_dataset(engine, cluster, ctx).collect();
  std::sort(events.begin(), events.end(),
            [](const EventRecord& a, const EventRecord& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              return a.seq < b.seq;
            });
  return events;
}

std::vector<JobRecord> fetch_jobs(sparklite::Engine& engine,
                                  const cassalite::Cluster& cluster,
                                  const Context& ctx) {
  // Planner: a user/app restriction makes the per-user / per-app tables
  // the cheaper access path; otherwise scan the window's hour partitions.
  std::string table;
  std::vector<std::string> keys;
  if (!ctx.users.empty()) {
    table = std::string(model::kAppByUser);
    for (const auto& u : ctx.users) keys.push_back(model::app_user_key(u));
  } else if (!ctx.apps.empty()) {
    table = std::string(model::kAppByApp);
    for (const auto& a : ctx.apps) keys.push_back(model::app_app_key(a));
  } else {
    table = std::string(model::kAppByTime);
    for (std::int64_t h = ctx.window.first_hour(); h <= ctx.window.last_hour();
         ++h) {
      keys.push_back(model::app_time_key(h));
    }
  }

  Context filter = ctx;
  auto jobs =
      sparklite::scan_table_keyed(engine, cluster, table, std::move(keys))
          .flat_map([filter](const std::pair<std::string, cassalite::Row>& kv) {
            std::vector<JobRecord> out;
            auto decoded = decode_app_row(kv.second);
            if (!decoded.is_ok()) return out;
            JobRecord& job = decoded.value();
            // Overlap with the window.
            if (job.end <= filter.window.begin ||
                job.start >= filter.window.end) {
              return out;
            }
            if (!filter.wants_user(job.user)) return out;
            if (!filter.wants_app(job.app_name)) return out;
            if (filter.location) {
              bool touches = false;
              for (const auto n : job.nodes) {
                if (filter.wants_node(n)) {
                  touches = true;
                  break;
                }
              }
              if (!touches) return out;
            }
            out.push_back(std::move(job));
            return out;
          })
          .collect();
  // Order, and keep one row of a job that runs through several hours.
  std::sort(jobs.begin(), jobs.end(),
            [](const JobRecord& a, const JobRecord& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.apid < b.apid;
            });
  jobs.erase(std::unique(jobs.begin(), jobs.end(),
                         [](const JobRecord& a, const JobRecord& b) {
                           return a.apid == b.apid;
                         }),
             jobs.end());
  return jobs;
}

std::vector<JobRecord> apps_running_at(sparklite::Engine& engine,
                                       const cassalite::Cluster& cluster,
                                       UnixSeconds t) {
  // Overlap with [t, t+1) means running at t.
  Context ctx;
  ctx.window = TimeRange{t, t + 1};
  return fetch_jobs(engine, cluster, ctx);
}

std::vector<EventRecord> raw_log_view(sparklite::Engine& engine,
                                      const cassalite::Cluster& cluster,
                                      const Context& ctx, std::size_t limit) {
  if (limit == 0) return {};
  // Event rows cluster by (ts, seq): the window is a clustering slice, and
  // the newest `limit` rows of the answer are among the newest `limit` of
  // each partition — so no storage run serves more than that.
  const ScanPlan plan = plan_event_scan(ctx);
  cassalite::LimitedSlice newest;
  newest.slice.lower = ClusteringKey::of({Value(ctx.window.begin)});
  newest.slice.upper = ClusteringKey::of({Value(ctx.window.end)});
  newest.reverse = true;
  // A location under the by-time plan and a type under the by-location
  // plan are filtered after the read, which a limited read could leave
  // short: such requests read whole partitions.
  const bool filtered = plan == ScanPlan::kByTime ? ctx.location.has_value()
                                                  : !ctx.types.empty();
  newest.limit = filtered ? 0 : limit;
  auto pages = scan_event_pages(engine, cluster, ctx, plan,
                                event_partition_keys(ctx, plan), newest);

  // A corrupt row is dropped after the read too: a partition that came
  // back full with one may hide an answer row. Read those again, whole.
  std::set<std::string> reread;
  for (const PartitionPage& page : pages) {
    if (!filtered && page.rows == limit && page.events.size() < limit) {
      reread.insert(page.partition);
    }
  }
  if (!reread.empty()) {
    std::erase_if(pages, [&reread](const PartitionPage& page) {
      return reread.contains(page.partition);
    });
    auto whole = scan_event_pages(engine, cluster, ctx, plan,
                                  {reread.begin(), reread.end()},
                                  {newest.slice});
    std::move(whole.begin(), whole.end(), std::back_inserter(pages));
  }

  std::vector<EventRecord> answer;
  for (PartitionPage& page : pages) {
    std::move(page.events.begin(), page.events.end(),
              std::back_inserter(answer));
  }
  const std::size_t keep = std::min(limit, answer.size());
  std::partial_sort(answer.begin(),
                    answer.begin() + static_cast<std::ptrdiff_t>(keep),
                    answer.end(), newer);
  answer.resize(keep);
  return answer;
}

std::vector<SynopsisEntry> fetch_synopsis(const cassalite::Cluster& cluster,
                                          const TimeRange& window) {
  std::vector<SynopsisEntry> out;
  for (std::int64_t h = window.first_hour(); h <= window.last_hour(); ++h) {
    cassalite::ReadQuery q;
    q.table = std::string(model::kEventSynopsis);
    q.partition_key = model::synopsis_key(h);
    auto r = cluster.select(q);
    if (!r.is_ok()) continue;
    for (const auto& row : r->rows) {
      if (row.key.parts.empty() || !row.key.parts[0].is_text()) continue;
      auto type = titanlog::event_type_from_id(row.key.parts[0].as_text());
      if (!type.is_ok()) continue;
      SynopsisEntry entry;
      entry.hour = h;
      entry.type = type.value();
      const auto* count = row.find(model::kColCount);
      const auto* first = row.find(model::kColFirstTs);
      const auto* last = row.find(model::kColLastTs);
      entry.count = count && count->is_int() ? count->as_int() : 0;
      entry.first_ts = first && first->is_int() ? first->as_int() : 0;
      entry.last_ts = last && last->is_int() ? last->as_int() : 0;
      out.push_back(entry);
    }
  }
  return out;
}

}  // namespace hpcla::analytics
