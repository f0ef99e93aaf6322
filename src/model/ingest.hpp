// Batch ETL: raw log lines -> parsed records -> data-model rows.
//
// Paper §III-D: "The batch import is a traditional ETL procedure that
// involves 1) collocation of all data, 2) parsing the data in search for
// known patterns for each event type, and 3) batch upload into the backend
// database. ... the analytic framework implements parsing and uploading
// using Apache Spark." The BatchIngestor does exactly that: the line set
// is split into sparklite partitions, each worker parses and uploads its
// slice, and per-hour synopsis rows are reconciled at the end.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "cassalite/cluster.hpp"
#include "model/tables.hpp"
#include "model/views/views.hpp"
#include "sparklite/dataset.hpp"
#include "titanlog/parser.hpp"

namespace hpcla::model {

struct IngestOptions {
  cassalite::Consistency consistency = cassalite::Consistency::kQuorum;
  /// Parse/upload parallelism; 0 = 2x engine workers.
  std::size_t partitions = 0;
};

struct IngestReport {
  titanlog::ParseStats parse;
  std::uint64_t event_rows = 0;         ///< rows into event_by_time (+ mirror)
  /// Jobs written whole into application_by_time (one row per hour they
  /// run) and its by-user and by-app mirrors.
  std::uint64_t app_rows = 0;
  std::uint64_t app_location_rows = 0;  ///< placement fan-out rows
  std::uint64_t synopsis_rows = 0;
  std::uint64_t write_failures = 0;     ///< coordinator-level UNAVAILABLE etc.
};

/// Per-(hour, type) synopsis aggregate, merged across ingest batches.
struct SynopsisDelta {
  std::int64_t count = 0;
  UnixSeconds first_ts = 0;
  UnixSeconds last_ts = 0;

  /// Folds `other` in: counts add and the [first_ts, last_ts] range widens.
  /// An empty delta (count 0) takes `other` as is.
  void merge(const SynopsisDelta& other) noexcept {
    if (count == 0) {
      *this = other;
      return;
    }
    count += other.count;
    first_ts = std::min(first_ts, other.first_ts);
    last_ts = std::max(last_ts, other.last_ts);
  }
};

/// Synopsis deltas keyed by (hour, type).
using SynopsisDeltas =
    std::map<std::pair<std::int64_t, titanlog::EventType>, SynopsisDelta>;

class BatchIngestor {
 public:
  BatchIngestor(cassalite::Cluster& cluster, sparklite::Engine& engine,
                IngestOptions options = IngestOptions());

  /// Full pipeline: parallel parse of raw lines, upload, synopsis update.
  IngestReport ingest_lines(const std::vector<titanlog::LogLine>& lines);

  /// Upload-only pipeline for pre-parsed records (bench isolation and
  /// ground-truth loading in tests).
  IngestReport ingest_records(const std::vector<titanlog::EventRecord>& events,
                              const std::vector<titanlog::JobRecord>& jobs);

  /// Writes one event into both event tables. Returns rows written (2) or 0
  /// on failure. Exposed for the streaming ingester.
  std::size_t write_event(const titanlog::EventRecord& e,
                          IngestReport& report);

  /// Writes one job into the four application tables: application_by_time
  /// and application_by_location get a row in every hour the job runs. A
  /// job failing `JobRecord::span_ok` writes nothing and counts one write
  /// failure.
  void write_job(const titanlog::JobRecord& job, IngestReport& report);

  /// Read-modify-write of eventsynopsis rows for the given deltas.
  void apply_synopsis(const SynopsisDeltas& deltas, IngestReport& report);

  /// Attaches a materialized-view catalog (not owned): every event write
  /// folds into the covering view tile and bumps its hour epoch (partial
  /// writes bump the epoch only). Attach before the first ingest — views
  /// only see events written while attached. Pass nullptr to detach.
  void set_view_catalog(views::ViewCatalog* views) { views_ = views; }

 private:
  cassalite::Cluster* cluster_;
  sparklite::Engine* engine_;
  IngestOptions options_;
  views::ViewCatalog* views_ = nullptr;  ///< not owned
};

/// Accumulates an event into a synopsis delta map (helper shared with the
/// streaming path).
void accumulate_synopsis(SynopsisDeltas& deltas,
                         const titanlog::EventRecord& e);

}  // namespace hpcla::model
