// Spatio-temporal queries over the data model.
//
// The planner mirrors the paper's dual-schema design (Fig 1): a context
// restricted by *type* scans event_by_time partitions (hour × type); a
// context restricted to a *small location* scans event_by_location
// partitions (hour × node). Whichever enumerates fewer partitions wins.
// Multi-partition scans run as sparklite datasets with locality hints.
#pragma once

#include <string>
#include <vector>

#include "analytics/context.hpp"
#include "cassalite/cluster.hpp"
#include "model/tables.hpp"
#include "sparklite/cassalite_source.hpp"
#include "sparklite/dataset.hpp"
#include "titanlog/record.hpp"

namespace hpcla::analytics {

/// Which physical table a context scan will use.
enum class ScanPlan { kByTime, kByLocation };

/// Chooses the cheaper event table for a context (exposed for tests and
/// the Fig 1 bench).
ScanPlan plan_event_scan(const Context& ctx);

/// Partition keys the context touches under the given plan.
std::vector<std::string> event_partition_keys(const Context& ctx,
                                              ScanPlan plan);

/// Lazy dataset of the context's events (decoded, window/location/type
/// filtered). The heavy lifting — decode + filter — runs in sparklite
/// tasks co-located with the data.
sparklite::Dataset<titanlog::EventRecord> event_dataset(
    sparklite::Engine& engine, const cassalite::Cluster& cluster,
    const Context& ctx);

/// Materialized convenience wrapper (sorted by ts, then seq).
std::vector<titanlog::EventRecord> fetch_events(
    sparklite::Engine& engine, const cassalite::Cluster& cluster,
    const Context& ctx);

/// Jobs matching a context, ordered by (start, apid), each once. A job
/// matches when its [start, end) overlaps the window, it touches the
/// location (if any), and user/app match. application_by_time holds a job
/// in every hour it runs, so a context without users or apps reads only
/// the window's hours.
std::vector<titanlog::JobRecord> fetch_jobs(
    sparklite::Engine& engine, const cassalite::Cluster& cluster,
    const Context& ctx);

/// Applications running at one instant, with their placements — the
/// Fig 6 "application placement on the physical system map" query.
std::vector<titanlog::JobRecord> apps_running_at(
    sparklite::Engine& engine, const cassalite::Cluster& cluster,
    UnixSeconds t);

/// Raw-log tabular view (paper §III-B "the tabular map of raw log
/// entries"): newest-first event rows, bounded by `limit` — fetch_events
/// reversed and cut, at the cost of the page rather than the window: each
/// storage run serves at most the newest `limit` rows of each partition's
/// window slice. A location filtered after a by-time read or a type
/// filtered after a by-location read makes it read whole partitions; a
/// full partition with a corrupt row is read again, whole, once.
std::vector<titanlog::EventRecord> raw_log_view(
    sparklite::Engine& engine, const cassalite::Cluster& cluster,
    const Context& ctx, std::size_t limit);

/// Per-hour (hour, type) -> count summaries from eventsynopsis — the fast
/// path behind the frontend's temporal map.
struct SynopsisEntry {
  std::int64_t hour = 0;
  titanlog::EventType type = titanlog::EventType::kMachineCheck;
  std::int64_t count = 0;
  UnixSeconds first_ts = 0;
  UnixSeconds last_ts = 0;
};
std::vector<SynopsisEntry> fetch_synopsis(const cassalite::Cluster& cluster,
                                          const TimeRange& window);

}  // namespace hpcla::analytics
