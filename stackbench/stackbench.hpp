// stackbench: one benchmark for the whole stack.
//
// A seeded simulated Titan day is batch-ETL'd into a fresh cluster, then a
// workload drives the public entry points (AnalyticsServer::handle_text,
// EventPublisher -> StreamingIngestor::process_available), checks answers
// against the generator's ground truth and reports end-to-end metrics. A
// traced run replays a sample of the same operations one layer at a time
// from this benchmark's own code (ladder.cpp) to attribute request time to
// layers. METRICS.md lists every metric and the workload it should move on.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analytics/context.hpp"
#include "cassalite/cluster.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "model/views/views.hpp"
#include "server/server.hpp"
#include "sparklite/engine.hpp"
#include "titanlog/generator.hpp"

namespace stackbench {

using hpcla::Json;
using hpcla::TimeRange;
using hpcla::UnixSeconds;
using hpcla::titanlog::EventRecord;
using hpcla::titanlog::EventType;
using hpcla::titanlog::JobRecord;

/// 2017-03-14 00:00:00 UTC, the first hour of the simulated day.
constexpr UnixSeconds kDay0 = 1489449600;
constexpr std::int64_t kHour = 3600;

/// Monotonic wall time in microseconds.
inline double now_us() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1e3;
}

/// Dataset and run sizes. `full` is what the benchmark measures; `tiny`
/// only exercises every code path (the self-test).
struct Scale {
  std::int64_t history_hours = 24;
  double background_scale = 1.0;
  double storm_msgs_per_s = 60.0;
  std::int64_t storm_seconds = 180;
  double jobs_per_hour = 40.0;
  std::size_t backlog_events = 74000;  ///< stream catch-up backlog
  double live_rate = 8000.0;           ///< live publish rate, events/s
  std::size_t ladder_ops = 120;        ///< ops replayed by the traced run
  int setups = 3;                      ///< set-ups timed per run (median)
  std::size_t check_every = 4;         ///< answer-check sampling stride
};
Scale full_scale();
Scale tiny_scale();

/// Exact percentiles over every sample (nearest rank).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const;

 private:
  std::vector<double> v_;
};

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

// ------------------------------------------------------------ ground truth

/// The generator's records, indexed for reference answers.
class GroundTruth {
 public:
  void add_events(const std::vector<EventRecord>& events);
  void set_jobs(std::vector<JobRecord> jobs) { jobs_ = std::move(jobs); }

  /// Events matching a context (window, types, location).
  [[nodiscard]] std::vector<const EventRecord*> select(
      const hpcla::analytics::Context& ctx) const;
  [[nodiscard]] std::size_t count(std::int64_t hour, EventType type) const;
  /// The events of one (hour, type) partition, in ts order.
  [[nodiscard]] std::vector<const EventRecord*> partition(
      std::int64_t hour, EventType type) const;
  [[nodiscard]] const std::vector<JobRecord>& jobs() const { return jobs_; }

 private:
  std::vector<EventRecord> events_;
  std::map<std::pair<std::int64_t, EventType>, std::vector<std::size_t>>
      index_;
  std::vector<JobRecord> jobs_;
};

// ------------------------------------------------------------------ stack

/// The system under test, built as a deployment would be: cluster, engine,
/// data model, reference tables, batch-ETL'd history, server. The view
/// catalog is attached to the batch ETL (so views cover the history) and
/// to the server only by the workload that serves from it.
struct Stack {
  hpcla::cassalite::Cluster cluster;
  hpcla::sparklite::Engine engine;
  hpcla::model::views::ViewCatalog views;
  hpcla::server::AnalyticsServer server;
  GroundTruth truth;
  std::size_t lines = 0;       ///< raw lines batch-ETL'd
  double etl_seconds = 0.0;    ///< BatchIngestor::ingest_lines wall time
  std::vector<std::string> line_sample;  ///< raw lines for the parse rung

  Stack();
};

/// Builds and loads a stack; the whole call is what `setup_s` times.
std::unique_ptr<Stack> build_stack(std::uint64_t seed, const Scale& scale);

/// The streamed slice following the history day: `n` events (with a
/// Lustre storm) in ts order, seeded independently of the history.
std::vector<EventRecord> stream_slice(std::uint64_t seed, const Scale& scale,
                                      std::size_t n);

// -------------------------------------------------------------------- ops

/// One request a client sends, with what the answer check needs.
struct Op {
  std::string name;
  std::string text;  ///< request JSON
  Json request;      ///< parsed request (for the ladder and checks)
  bool simple = true;
  bool checkable = true;  ///< false when the answer is not fixed in advance
};

Op make_op(Json request, bool checkable = true);

/// Partition of the benchmark's CQL lookups
/// ("SELECT * FROM event_by_time WHERE hour = H AND type = 'T' ...").
bool parse_cql_partition(const std::string& query, std::int64_t& hour,
                         EventType& type);

/// Compares a response with the reference computed from ground truth.
/// Returns an empty string when it matches, else what differed.
std::string check_answer(const Stack& stack, const Op& op,
                         const std::string& response);

// ---------------------------------------------------------------- tracing

/// A benchmark-side span: kept in memory, written out when the run ends.
struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  /// Children were replayed serially but run in parallel in the real
  /// call: the span's self time subtracts the slowest child, not the sum.
  bool fanout = false;
  [[nodiscard]] double dur() const { return end_us - start_us; }
};

/// Sum of the spans' self times: each span's duration minus what its
/// children cover (their sum, or the slowest child under a fan-out),
/// clamped at 0.
double self_sum(const std::vector<SpanRec>& spans);

class SpanLog {
 public:
  std::uint64_t add(SpanRec rec);
  [[nodiscard]] std::size_t size() const;
  /// Op `op`'s spans in the order they were added.
  [[nodiscard]] std::vector<SpanRec> spans_of(std::uint64_t op) const;
  void write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
  std::uint64_t next_ = 1;
};

/// Result of replaying one op down the layers. Rung times are µs; a rung
/// the op never reached stays < 0.
struct Ladder {
  double root_us = 0.0;  ///< handle_text inside its span
  double parse_us = 0.0;
  double handle_us = 0.0;
  double dump_us = 0.0;
  double analytics_us = -1.0;
  double collect_us = -1.0;
  double select_us = -1.0;
  double scan_sum_us = -1.0;
  double scan_max_us = -1.0;
  std::size_t response_bytes = 0;
  std::size_t rows_scanned = 0;
  std::size_t rows_returned = 0;
  std::string cache;  ///< the response's "cache" field, if any
  // Self time of the two top layers: a rung minus the rung below it.
  double server_self = 0.0;
  double analytics_self = 0.0;
};

/// Replays `op` as a ladder of public calls, each wrapped in a span
/// recorded into `log`.
Ladder run_ladder(Stack& stack, const Op& op, std::uint64_t op_id,
                  SpanLog& log);

}  // namespace stackbench
