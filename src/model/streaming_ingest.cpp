#include "model/streaming_ingest.hpp"

#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "common/logging.hpp"
#include "common/telemetry.hpp"

namespace hpcla::model {

using titanlog::EventRecord;

namespace {

/// Windows at least this large decode their JSON payloads on the engine
/// pool; smaller ones aren't worth the fan-out overhead.
constexpr std::size_t kParallelDecodeThreshold = 512;

/// Process-wide ingest instruments, resolved once. StreamingReport stays
/// the caller-visible per-run view; these are the registry's totals.
struct IngestCounters {
  telemetry::Counter& batches =
      telemetry::registry().counter("ingest.batches");
  telemetry::Counter& messages =
      telemetry::registry().counter("ingest.messages");
  telemetry::Counter& decode_failures =
      telemetry::registry().counter("ingest.decode_failures");
  telemetry::Counter& quarantined =
      telemetry::registry().counter("ingest.quarantined");
  telemetry::Counter& events_written =
      telemetry::registry().counter("ingest.events_written");
};

IngestCounters& counters() {
  static IngestCounters c;
  return c;
}

std::optional<EventRecord> decode_message(const buslite::Message& msg) {
  auto json = Json::parse(msg.value);
  if (!json.is_ok()) return std::nullopt;
  auto event = EventRecord::from_json(json.value());
  if (!event.is_ok()) return std::nullopt;
  return std::move(event).value();
}

}  // namespace

bool quarantine_message(buslite::Broker& broker, const std::string& dlq_topic,
                        const buslite::Message& msg) {
  const auto produced =
      broker.produce(dlq_topic, msg.key, msg.value, msg.timestamp);
  if (!produced.is_ok()) return false;
  HPCLA_LOG(kInfo) << "quarantined undecodable record: topic=" << dlq_topic
                   << " partition=" << produced->first
                   << " offset=" << produced->second
                   << " source_offset=" << msg.offset
                   << " trace_id=" << telemetry::current().trace_id;
  return true;
}

StreamingIngestor::StreamingIngestor(cassalite::Cluster& cluster,
                                     sparklite::Engine& engine,
                                     buslite::Broker& broker,
                                     const std::string& topic,
                                     const std::string& group,
                                     IngestOptions options)
    : StreamingIngestor(cluster, engine, broker, topic, 0, 1, group,
                        options) {}

StreamingIngestor::StreamingIngestor(cassalite::Cluster& cluster,
                                     sparklite::Engine& engine,
                                     buslite::Broker& broker,
                                     const std::string& topic,
                                     std::size_t member_index,
                                     std::size_t member_count,
                                     const std::string& group,
                                     IngestOptions options)
    : writer_(cluster, engine, options),
      engine_(&engine),
      broker_(&broker),
      dlq_topic_(dead_letter_topic(topic)),
      stream_(broker, group, topic, member_index, member_count,
              sparklite::StreamOptions{.window_ms = 1000,
                                       .max_poll = 4096,
                                       .pool = &engine.pool()}) {
  // Several group members share one DLQ; whoever constructs first wins.
  auto created = broker_->create_topic(dlq_topic_);
  HPCLA_CHECK_MSG(
      created.is_ok() || created.code() == StatusCode::kAlreadyExists,
      "failed to create dead-letter topic");
}

void StreamingIngestor::handle_batch(const sparklite::MicroBatch& batch,
                                     StreamingReport& report) {
  telemetry::Span span("ingest.batch");
  span.tag("window_start", batch.window_start);
  span.tag("messages", static_cast<std::uint64_t>(batch.messages.size()));
  ++report.batches;
  const std::size_t n = batch.messages.size();
  report.messages_in += n;
  counters().batches.add(1);
  counters().messages.add(n);
  // Decode every payload first — the regex/JSON cost dominates, and the
  // messages are independent, so large windows decode on the engine pool.
  // Coalescing below stays sequential in batch order, preserving the
  // "first message's payload wins" contract.
  std::vector<std::optional<EventRecord>> decoded(n);
  auto decode_at = [&](std::size_t i) {
    decoded[i] = decode_message(batch.messages[i]);
  };
  if (n >= kParallelDecodeThreshold) {
    engine_->pool().parallel_for(n, decode_at, /*grain=*/64);
  } else {
    for (std::size_t i = 0; i < n; ++i) decode_at(i);
  }
  // Coalesce within the window: same (type, node, second) -> one event with
  // summed count. The first message's payload and lowest seq are kept.
  std::map<std::tuple<titanlog::EventType, topo::NodeId, UnixSeconds>,
           EventRecord>
      coalesced;
  for (std::size_t i = 0; i < n; ++i) {
    auto& slot = decoded[i];
    if (!slot) {
      ++report.decode_failures;
      counters().decode_failures.add(1);
      if (quarantine_message(*broker_, dlq_topic_, batch.messages[i])) {
        ++report.quarantined;
        counters().quarantined.add(1);
      }
      continue;
    }
    EventRecord e = std::move(*slot);
    const auto key = std::make_tuple(e.type, e.node, e.ts);
    auto [it, inserted] = coalesced.try_emplace(key, e);
    if (!inserted) {
      it->second.count += e.count;
      it->second.seq = std::min(it->second.seq, e.seq);
    }
  }
  SynopsisDeltas deltas;
  IngestReport ingest;
  for (const auto& [_, e] : coalesced) {
    if (writer_.write_event(e, ingest) == 2) {
      ++report.events_written;
      counters().events_written.add(1);
    }
    accumulate_synopsis(deltas, e);
  }
  writer_.apply_synopsis(deltas, ingest);
  report.write_failures += ingest.write_failures;
  report.synopsis_rows += ingest.synopsis_rows;
}

StreamingReport StreamingIngestor::process_available() {
  StreamingReport report;
  stream_.process_available([this, &report](const sparklite::MicroBatch& b) {
    handle_batch(b, report);
  });
  totals_.batches += report.batches;
  totals_.messages_in += report.messages_in;
  totals_.decode_failures += report.decode_failures;
  totals_.quarantined += report.quarantined;
  totals_.events_written += report.events_written;
  totals_.write_failures += report.write_failures;
  totals_.synopsis_rows += report.synopsis_rows;
  return report;
}

}  // namespace hpcla::model
