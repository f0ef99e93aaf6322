#include "model/ingest.hpp"

namespace hpcla::model {

using cassalite::Consistency;
using cassalite::ReadQuery;
using cassalite::Row;
using cassalite::Value;
using titanlog::EventRecord;
using titanlog::JobRecord;
using titanlog::LogLine;

BatchIngestor::BatchIngestor(cassalite::Cluster& cluster,
                             sparklite::Engine& engine, IngestOptions options)
    : cluster_(&cluster), engine_(&engine), options_(options) {
  if (options_.partitions == 0) {
    options_.partitions = engine.workers() * 2;
  }
}

void accumulate_synopsis(SynopsisDeltas& deltas, const EventRecord& e) {
  deltas[{hour_bucket(e.ts), e.type}].merge(
      SynopsisDelta{e.count, e.ts, e.ts});
}

std::size_t BatchIngestor::write_event(const EventRecord& e,
                                       IngestReport& report) {
  const std::int64_t hour = hour_bucket(e.ts);
  std::size_t written = 0;
  if (cluster_
          ->insert(std::string(kEventByTime), event_time_key(hour, e.type),
                   event_time_row(e), options_.consistency)
          .is_ok()) {
    ++written;
  } else {
    ++report.write_failures;
  }
  if (cluster_
          ->insert(std::string(kEventByLocation),
                   event_location_key(hour, e.node), event_location_row(e),
                   options_.consistency)
          .is_ok()) {
    ++written;
  } else {
    ++report.write_failures;
  }
  if (written == 2) ++report.event_rows;
  // Incremental view maintenance at the write choke point (batch and
  // streaming both funnel through here): count fully-written events,
  // epoch-bump-only for partial writes so covering caches invalidate.
  if (views_ != nullptr && written > 0) views_->apply(e, written == 2);
  return written;
}

void BatchIngestor::write_job(const JobRecord& job, IngestReport& report) {
  // Rows go into every hour the job runs: a span past kMaxJobSpanSeconds
  // (or an end before the start) writes nothing.
  if (!job.span_ok()) {
    ++report.write_failures;
    return;
  }
  const auto insert = [&](std::string_view table, const std::string& key,
                          Row row) {
    if (cluster_->insert(std::string(table), key, std::move(row),
                         options_.consistency).is_ok()) {
      return true;
    }
    ++report.write_failures;
    return false;
  };
  // The hours [start, end) overlaps; a zero-length job keeps its start hour.
  const std::int64_t first_hour = hour_bucket(job.start);
  const std::int64_t last_hour =
      hour_bucket(job.end > job.start ? job.end - 1 : job.start);

  const Row row = app_row(job);
  bool ok = true;
  for (std::int64_t h = first_hour; h <= last_hour; ++h) {
    ok &= insert(kAppByTime, app_time_key(h), row);
  }
  ok &= insert(kAppByUser, app_user_key(job.user), row);
  ok &= insert(kAppByApp, app_app_key(job.app_name), row);
  if (ok) ++report.app_rows;

  // Placement fan-out: one row per (overlapped hour, node).
  const Row placement = app_location_row(job);
  for (std::int64_t h = first_hour; h <= last_hour; ++h) {
    for (const auto node : job.nodes) {
      if (insert(kAppByLocation, app_location_key(h, node), placement)) {
        ++report.app_location_rows;
      }
    }
  }
}

void BatchIngestor::apply_synopsis(const SynopsisDeltas& deltas,
                                   IngestReport& report) {
  for (const auto& [key, delta] : deltas) {
    const auto& [hour, type] = key;
    // Read-modify-write: merge with any synopsis row a previous ingest
    // batch already stored for this (hour, type).
    ReadQuery q;
    q.table = std::string(kEventSynopsis);
    q.partition_key = synopsis_key(hour);
    cassalite::ClusteringSlice slice;
    const std::string type_id(titanlog::event_id(type));
    slice.lower = cassalite::ClusteringKey::of({Value(type_id)});
    slice.upper = cassalite::ClusteringKey::of({Value(type_id + "\x01")});
    q.slice = slice;
    SynopsisDelta merged = delta;
    auto existing = cluster_->select(q, options_.consistency);
    if (existing.is_ok() && !existing->rows.empty()) {
      const Row& row = existing->rows.front();
      const Value* count = row.find(kColCount);
      const Value* first = row.find(kColFirstTs);
      const Value* last = row.find(kColLastTs);
      if (count && count->is_int()) merged.count += count->as_int();
      if (first && first->is_int()) {
        merged.first_ts = std::min(merged.first_ts, first->as_int());
      }
      if (last && last->is_int()) {
        merged.last_ts = std::max(merged.last_ts, last->as_int());
      }
    }
    Row row;
    row.key = cassalite::ClusteringKey::of({Value(type_id)});
    row.set(std::string(kColCount), Value(merged.count));
    row.set(std::string(kColFirstTs), Value(merged.first_ts));
    row.set(std::string(kColLastTs), Value(merged.last_ts));
    if (cluster_->insert(std::string(kEventSynopsis), synopsis_key(hour),
                         std::move(row), options_.consistency).is_ok()) {
      ++report.synopsis_rows;
    } else {
      ++report.write_failures;
    }
  }
}

IngestReport BatchIngestor::ingest_lines(const std::vector<LogLine>& lines) {
  using titanlog::LogParser;
  using titanlog::ParseStats;

  // Per-partition result, merged on the driver.
  struct Slice {
    ParseStats stats;
    IngestReport report;
    SynopsisDeltas synopsis;
  };

  auto ds = sparklite::Dataset<LogLine>::parallelize(*engine_, lines,
                                                     options_.partitions);
  // Parse + upload inside each partition task (the Spark foreachPartition
  // idiom); collect per-partition accounting. Parsed events carry no seq
  // (the raw line has none), so each task assigns one salted by its
  // partition index — clustering keys (ts, seq) stay unique even for
  // same-second events.
  auto slices =
      ds.map_partitions_indexed(
            [this](std::vector<LogLine> part,
                   const sparklite::TaskContext& ctx) {
              LogParser parser;
              Slice slice;
              std::vector<EventRecord> events;
              std::vector<JobRecord> jobs;
              parser.parse_batch(part, events, jobs, slice.stats);
              std::int64_t next_seq =
                  static_cast<std::int64_t>(ctx.task_index) << 40;
              for (auto& e : events) {
                e.seq = next_seq++;
                write_event(e, slice.report);
                accumulate_synopsis(slice.synopsis, e);
              }
              for (const auto& job : jobs) {
                write_job(job, slice.report);
              }
              return std::vector<Slice>{std::move(slice)};
            })
          .collect();

  IngestReport report;
  SynopsisDeltas deltas;
  for (const auto& slice : slices) {
    report.parse.lines += slice.stats.lines;
    report.parse.events += slice.stats.events;
    report.parse.jobs += slice.stats.jobs;
    report.parse.unmatched += slice.stats.unmatched;
    report.parse.malformed += slice.stats.malformed;
    report.event_rows += slice.report.event_rows;
    report.app_rows += slice.report.app_rows;
    report.app_location_rows += slice.report.app_location_rows;
    report.write_failures += slice.report.write_failures;
    for (const auto& [key, d] : slice.synopsis) deltas[key].merge(d);
  }
  apply_synopsis(deltas, report);
  return report;
}

IngestReport BatchIngestor::ingest_records(
    const std::vector<EventRecord>& events,
    const std::vector<JobRecord>& jobs) {
  IngestReport report;
  SynopsisDeltas deltas;

  auto eds = sparklite::Dataset<EventRecord>::parallelize(*engine_, events,
                                                          options_.partitions);
  auto slices = eds.map_partitions([this](std::vector<EventRecord> part) {
                     IngestReport r;
                     SynopsisDeltas syn;
                     for (const auto& e : part) {
                       write_event(e, r);
                       accumulate_synopsis(syn, e);
                     }
                     return std::vector<
                         std::pair<IngestReport, SynopsisDeltas>>{
                         {r, std::move(syn)}};
                   }).collect();
  for (const auto& [r, syn] : slices) {
    report.event_rows += r.event_rows;
    report.write_failures += r.write_failures;
    for (const auto& [key, d] : syn) deltas[key].merge(d);
  }
  for (const auto& job : jobs) write_job(job, report);
  apply_synopsis(deltas, report);
  return report;
}

}  // namespace hpcla::model
