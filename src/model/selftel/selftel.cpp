#include "model/selftel/selftel.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/strings.hpp"
#include "common/telemetry.hpp"
#include "model/streaming_ingest.hpp"

namespace hpcla::model::selftel {

using cassalite::ClusteringKey;
using cassalite::Row;
using cassalite::TableSchema;
using cassalite::Value;
using titanlog::MetricSample;
using titanlog::SpanSample;

namespace {

/// Drain-pipeline instruments; selftel. prefix keeps them out of exports.
struct SelftelCounters {
  telemetry::Counter& drains =
      telemetry::registry().counter("selftel.ingest.drains");
  telemetry::Counter& metrics =
      telemetry::registry().counter("selftel.ingest.metrics");
  telemetry::Counter& spans =
      telemetry::registry().counter("selftel.ingest.spans");
  telemetry::Counter& decode_failures =
      telemetry::registry().counter("selftel.ingest.decode_failures");
  telemetry::Counter& quarantined =
      telemetry::registry().counter("selftel.ingest.quarantined");
  telemetry::Counter& rows_written =
      telemetry::registry().counter("selftel.ingest.rows_written");
  telemetry::Counter& write_failures =
      telemetry::registry().counter("selftel.ingest.write_failures");
};

SelftelCounters& counters() {
  static SelftelCounters c;
  return c;
}

double cell_double(const Row& row, std::string_view name) {
  const Value* v = row.find(name);
  return v != nullptr && (v->is_double() || v->is_int()) ? v->as_double()
                                                         : 0.0;
}

bool cell_bool(const Row& row, std::string_view name) {
  const Value* v = row.find(name);
  return v != nullptr && v->is_bool() && v->as_bool();
}

/// "<hour>|<rest>" -> hour; rest is returned via `suffix`.
Status split_hour_key(std::string_view key, std::int64_t& hour,
                      std::string_view& suffix) {
  const auto bar = key.find('|');
  if (bar == std::string_view::npos) {
    return invalid_argument("bad sys key '" + std::string(key) + "'");
  }
  long long h = 0;
  if (!parse_int(key.substr(0, bar), h) || h < 0) {
    return invalid_argument("bad hour in sys key '" + std::string(key) + "'");
  }
  hour = h;
  suffix = key.substr(bar + 1);
  return Status::ok();
}

}  // namespace

Status create_self_telemetry_tables(cassalite::Cluster& cluster) {
  const auto make = [](std::string_view name, std::vector<std::string> pk,
                       std::vector<std::string> ck, std::string comment) {
    TableSchema s;
    s.name = std::string(name);
    s.partition_key_columns = std::move(pk);
    s.clustering_key_columns = std::move(ck);
    s.comment = std::move(comment);
    return s;
  };
  // The loop may be rebuilt over a live cluster — existing tables are fine.
  auto metrics = cluster.create_table(
      make(kSysMetrics, {"hour", "name"}, {"ts", "seq"},
           "the system's own metric stream, one partition per metric-hour"));
  if (!metrics.is_ok() && metrics.code() != StatusCode::kAlreadyExists) {
    return metrics;
  }
  auto spans = cluster.create_table(
      make(kSysSpans, {"hour", "op"}, {"ts", "span_id"},
           "tail-sampled spans of the system's own traces, per op-hour"));
  if (!spans.is_ok() && spans.code() != StatusCode::kAlreadyExists) {
    return spans;
  }
  return Status::ok();
}

std::string sys_metric_key(std::int64_t hour, std::string_view name) {
  return std::to_string(hour) + "|" + std::string(name);
}

std::string sys_span_key(std::int64_t hour, std::string_view op) {
  return std::to_string(hour) + "|" + std::string(op);
}

Row sys_metric_row(const MetricSample& s) {
  Row row;
  row.key = ClusteringKey::of({Value(s.ts), Value(s.seq)});
  row.set("kind", Value(s.kind));
  row.set("value", Value(s.value));
  if (s.kind == "hist") {
    row.set("sum_us", Value(s.sum_us));
    row.set("p50_us", Value(s.p50_us));
    row.set("p95_us", Value(s.p95_us));
    row.set("p99_us", Value(s.p99_us));
    row.set("max_us", Value(s.max_us));
  }
  return row;
}

Row sys_span_row(const SpanSample& s) {
  Row row;
  row.key = ClusteringKey::of(
      {Value(s.ts), Value(static_cast<std::int64_t>(s.span_id))});
  row.set("name", Value(s.name));
  row.set("trace_id", Value(static_cast<std::int64_t>(s.trace_id)));
  row.set("parent_id", Value(static_cast<std::int64_t>(s.parent_id)));
  row.set("start_us", Value(s.start_us));
  row.set("duration_us", Value(s.duration_us));
  row.set("slow", Value(s.slow));
  row.set("errored", Value(s.errored));
  return row;
}

Result<MetricSample> decode_sys_metric_row(const std::string& partition_key,
                                           const cassalite::Row& row) {
  std::int64_t hour = 0;
  std::string_view name;
  HPCLA_RETURN_IF_ERROR(split_hour_key(partition_key, hour, name));
  if (row.key.parts.size() < 2 || !row.key.parts[0].is_int() ||
      !row.key.parts[1].is_int()) {
    return corruption("sys_metrics clustering key must be (ts, seq)");
  }
  MetricSample s;
  s.name = std::string(name);
  s.ts = row.key.parts[0].as_int();
  s.seq = row.key.parts[1].as_int();
  const Value* kind = row.find("kind");
  if (kind == nullptr || !kind->is_text()) {
    return corruption("sys_metrics row missing kind");
  }
  s.kind = kind->as_text();
  s.value = cell_double(row, "value");
  s.sum_us = cell_double(row, "sum_us");
  s.p50_us = cell_double(row, "p50_us");
  s.p95_us = cell_double(row, "p95_us");
  s.p99_us = cell_double(row, "p99_us");
  s.max_us = cell_double(row, "max_us");
  return s;
}

Result<SpanSample> decode_sys_span_row(const std::string& partition_key,
                                       const cassalite::Row& row) {
  std::int64_t hour = 0;
  std::string_view op;
  HPCLA_RETURN_IF_ERROR(split_hour_key(partition_key, hour, op));
  if (row.key.parts.size() < 2 || !row.key.parts[0].is_int() ||
      !row.key.parts[1].is_int()) {
    return corruption("sys_spans clustering key must be (ts, span_id)");
  }
  SpanSample s;
  s.op = std::string(op);
  s.ts = row.key.parts[0].as_int();
  s.span_id = static_cast<std::uint64_t>(row.key.parts[1].as_int());
  const Value* name = row.find("name");
  if (name == nullptr || !name->is_text()) {
    return corruption("sys_spans row missing name");
  }
  s.name = name->as_text();
  const Value* trace = row.find("trace_id");
  s.trace_id = trace != nullptr && trace->is_int()
                   ? static_cast<std::uint64_t>(trace->as_int())
                   : 0;
  const Value* parent = row.find("parent_id");
  s.parent_id = parent != nullptr && parent->is_int()
                    ? static_cast<std::uint64_t>(parent->as_int())
                    : 0;
  s.start_us = static_cast<std::int64_t>(cell_double(row, "start_us"));
  s.duration_us = static_cast<std::int64_t>(cell_double(row, "duration_us"));
  s.slow = cell_bool(row, "slow");
  s.errored = cell_bool(row, "errored");
  return s;
}

// ------------------------------------------------------------- SysViews

Json OpSummary::to_json() const {
  Json j = Json::object();
  j["op"] = op;
  j["spans"] = static_cast<std::int64_t>(spans);
  j["slow"] = static_cast<std::int64_t>(slow);
  j["errored"] = static_cast<std::int64_t>(errored);
  j["p50_us"] = p50_us;
  j["p95_us"] = p95_us;
  j["p99_us"] = p99_us;
  return j;
}

void SysViews::apply(const SpanSample& s) {
  // Only root spans feed the op summaries: one trace = one op sample, so
  // counts match "requests", not "spans per request".
  if (s.parent_id != 0) return;
  const std::int64_t hour = hour_bucket(s.ts);
  std::lock_guard lock(mu_);
  Tile& tile = hours_[hour][s.op];
  ++tile.spans;
  if (s.slow) ++tile.slow;
  if (s.errored) ++tile.errored;
  tile.durations.add(static_cast<double>(s.duration_us));
  ++applied_;
}

std::vector<OpSummary> SysViews::summaries(std::int64_t first_hour,
                                           std::int64_t last_hour) const {
  std::lock_guard lock(mu_);
  std::map<std::string, std::pair<Tile, QuantileSketch>> merged;
  for (const auto& [hour, ops] : hours_) {
    if (hour < first_hour || hour > last_hour) continue;
    for (const auto& [op, tile] : ops) {
      auto [it, inserted] =
          merged.try_emplace(op, Tile{}, QuantileSketch(kEpsilon));
      it->second.first.spans += tile.spans;
      it->second.first.slow += tile.slow;
      it->second.first.errored += tile.errored;
      it->second.second.merge(tile.durations);
    }
  }
  std::vector<OpSummary> out;
  out.reserve(merged.size());
  for (const auto& [op, entry] : merged) {
    OpSummary s;
    s.op = op;
    s.spans = entry.first.spans;
    s.slow = entry.first.slow;
    s.errored = entry.first.errored;
    if (entry.second.count() > 0) {
      s.p50_us = entry.second.quantile(0.50);
      s.p95_us = entry.second.quantile(0.95);
      s.p99_us = entry.second.quantile(0.99);
    }
    out.push_back(std::move(s));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const OpSummary& a, const OpSummary& b) {
                     if (a.spans != b.spans) return a.spans > b.spans;
                     return a.op < b.op;
                   });
  return out;
}

std::uint64_t SysViews::applied() const {
  std::lock_guard lock(mu_);
  return applied_;
}

// ---------------------------------------------------- TelemetryIngestor

TelemetryIngestor::TelemetryIngestor(cassalite::Cluster& cluster,
                                     buslite::Broker& broker,
                                     const std::string& metrics_topic,
                                     const std::string& spans_topic,
                                     IngestorOptions options)
    : cluster_(&cluster),
      broker_(&broker),
      options_(std::move(options)),
      metrics_dlq_(dead_letter_topic(metrics_topic)),
      spans_dlq_(dead_letter_topic(spans_topic)),
      metrics_stream_(broker, options_.group, metrics_topic),
      spans_stream_(broker, options_.group, spans_topic) {
  for (const std::string* dlq : {&metrics_dlq_, &spans_dlq_}) {
    auto created = broker_->create_topic(*dlq);
    HPCLA_CHECK_MSG(
        created.is_ok() || created.code() == StatusCode::kAlreadyExists,
        "failed to create telemetry dead-letter topic");
  }
}

void TelemetryIngestor::handle_metrics(const sparklite::MicroBatch& batch,
                                       DrainReport& report,
                                       UnixSeconds& newest_ts) {
  ++report.metric_batches;
  for (const buslite::Message& msg : batch.messages) {
    ++report.metrics_in;
    counters().metrics.add(1);
    auto json = Json::parse(msg.value);
    auto sample = json.is_ok() ? MetricSample::from_json(json.value())
                               : Result<MetricSample>(json.status());
    if (!sample.is_ok()) {
      ++report.decode_failures;
      counters().decode_failures.add(1);
      if (quarantine_message(*broker_, metrics_dlq_, msg)) {
        ++report.quarantined;
        counters().quarantined.add(1);
      }
      continue;
    }
    const MetricSample& s = sample.value();
    newest_ts = std::max(newest_ts, s.ts);
    auto written = cluster_->insert(std::string(kSysMetrics),
                                    sys_metric_key(hour_bucket(s.ts), s.name),
                                    sys_metric_row(s), options_.consistency);
    if (written.is_ok()) {
      ++report.rows_written;
      counters().rows_written.add(1);
    } else {
      ++report.write_failures;
      counters().write_failures.add(1);
    }
    if (alerts_ != nullptr) alerts_->observe(s);
  }
}

void TelemetryIngestor::handle_spans(const sparklite::MicroBatch& batch,
                                     DrainReport& report) {
  ++report.span_batches;
  for (const buslite::Message& msg : batch.messages) {
    ++report.spans_in;
    counters().spans.add(1);
    auto json = Json::parse(msg.value);
    auto sample = json.is_ok() ? SpanSample::from_json(json.value())
                               : Result<SpanSample>(json.status());
    if (!sample.is_ok()) {
      ++report.decode_failures;
      counters().decode_failures.add(1);
      if (quarantine_message(*broker_, spans_dlq_, msg)) {
        ++report.quarantined;
        counters().quarantined.add(1);
      }
      continue;
    }
    const SpanSample& s = sample.value();
    auto written = cluster_->insert(std::string(kSysSpans),
                                    sys_span_key(hour_bucket(s.ts), s.op),
                                    sys_span_row(s), options_.consistency);
    if (written.is_ok()) {
      ++report.rows_written;
      counters().rows_written.add(1);
    } else {
      ++report.write_failures;
      counters().write_failures.add(1);
    }
    views_.apply(s);
  }
}

DrainReport TelemetryIngestor::drain() {
  // The whole drain is self-telemetry plumbing: no spans, and every
  // instrument sits under the excluded selftel. prefix. The cassalite
  // and bus metric movement it causes is absorbed by the loop's
  // rebaseline-after-drain.
  telemetry::SuppressScope suppress;
  counters().drains.add(1);
  DrainReport report;
  UnixSeconds newest_ts = 0;
  const std::uint64_t fired_before =
      alerts_ != nullptr ? alerts_->fired_count() : 0;
  metrics_stream_.process_available(
      [this, &report, &newest_ts](const sparklite::MicroBatch& b) {
        handle_metrics(b, report, newest_ts);
      });
  spans_stream_.process_available(
      [this, &report](const sparklite::MicroBatch& b) {
        handle_spans(b, report);
      });
  if (alerts_ != nullptr && newest_ts > 0) {
    alerts_->evaluate(newest_ts);
    report.alerts_fired = alerts_->fired_count() - fired_before;
  }
  totals_.metric_batches += report.metric_batches;
  totals_.span_batches += report.span_batches;
  totals_.metrics_in += report.metrics_in;
  totals_.spans_in += report.spans_in;
  totals_.decode_failures += report.decode_failures;
  totals_.quarantined += report.quarantined;
  totals_.rows_written += report.rows_written;
  totals_.write_failures += report.write_failures;
  totals_.alerts_fired += report.alerts_fired;
  return report;
}

// ---------------------------------------------------- SelfTelemetryLoop

SelfTelemetryLoop::SelfTelemetryLoop(cassalite::Cluster& cluster,
                                     buslite::Broker& broker,
                                     telemetry::ExporterOptions exporter_opts,
                                     IngestorOptions ingestor_opts)
    : exporter_(broker, exporter_opts),
      ingestor_(cluster, broker, exporter_.options().metrics_topic,
                exporter_.options().spans_topic, std::move(ingestor_opts)) {
  HPCLA_CHECK_MSG(create_self_telemetry_tables(cluster).is_ok(),
                  "failed to create self-telemetry tables");
  alerts_.install_default_rules();
  ingestor_.set_alert_engine(&alerts_);
}

SelfTelemetryLoop::PumpReport SelfTelemetryLoop::pump() {
  PumpReport report;
  report.published = exporter_.export_now();
  report.drained = ingestor_.drain();
  // Absorb the drain's own metric movement so the next cycle only
  // exports foreground work.
  exporter_.rebaseline();
  return report;
}

SelfTelemetryLoop::PumpReport SelfTelemetryLoop::tick() {
  const std::uint64_t before = exporter_.cycles();
  PumpReport report;
  report.published = exporter_.tick();
  if (exporter_.cycles() == before) return report;  // period not elapsed
  report.drained = ingestor_.drain();
  exporter_.rebaseline();
  return report;
}

}  // namespace hpcla::model::selftel
