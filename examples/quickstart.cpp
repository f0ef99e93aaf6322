// Quickstart: stand up the full stack in-process — cassalite cluster,
// data model, synthetic Titan logs, batch ETL, and a few queries through
// the analytics server — in under a hundred lines.
//
//   ./build/examples/quickstart
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "buslite/broker.hpp"
#include "common/telemetry.hpp"
#include "model/ingest.hpp"
#include "model/selftel/selftel.hpp"
#include "model/tables.hpp"
#include "server/server.hpp"
#include "titanlog/generator.hpp"

using namespace hpcla;

int main() {
  // 1. A 4-node cassalite cluster with RF=2 and a co-located 4-worker
  //    sparklite engine (the paper's Cassandra+Spark deployment shape).
  cassalite::ClusterOptions copts;
  copts.node_count = 4;
  copts.replication_factor = 2;
  cassalite::Cluster cluster(copts);
  sparklite::Engine engine(sparklite::EngineOptions{.workers = 4});

  // 2. The 9-table data model + reference data.
  HPCLA_CHECK(model::create_data_model(cluster).is_ok());
  HPCLA_CHECK(model::load_eventtypes(cluster).is_ok());

  // 3. One hour of synthetic Titan logs (background noise + a job mix).
  titanlog::ScenarioConfig cfg;
  cfg.seed = 2017;
  cfg.window = TimeRange{1489449600, 1489449600 + 3600};  // 2017-03-14 00:00
  cfg.jobs = titanlog::JobMixSpec{.jobs_per_hour = 60, .max_size_log2 = 6};
  auto logs = titanlog::Generator(cfg).generate();
  auto lines = titanlog::render_all(logs);
  std::printf("generated %zu raw log lines (%zu events, %zu jobs)\n",
              lines.size(), logs.events.size(), logs.jobs.size());
  std::printf("sample line: %s\n", lines.front().text.c_str());

  // 4. Batch ETL: regex parse + upload, parallelized across the engine.
  model::BatchIngestor ingestor(cluster, engine);
  auto report = ingestor.ingest_lines(lines);
  std::printf("ingested: %llu event rows, %llu app rows, %llu malformed\n",
              static_cast<unsigned long long>(report.event_rows),
              static_cast<unsigned long long>(report.app_rows),
              static_cast<unsigned long long>(report.parse.malformed));

  // 5. Query through the analytics server like the web frontend would.
  server::AnalyticsServer server(cluster, engine);
  const char* queries[] = {
      R"({"op":"synopsis","window":{"begin":1489449600,"end":1489453200}})",
      R"({"op":"distribution","group_by":"type",
          "context":{"window":{"begin":1489449600,"end":1489453200}}})",
      R"({"op":"events","limit":3,
          "context":{"window":{"begin":1489449600,"end":1489453200},
                     "types":["MemEcc"]}})",
  };
  for (const char* q : queries) {
    std::printf("\n>>> %s\n", q);
    std::printf("%s\n", server.handle_text(q).c_str());
  }

  auto& reg = telemetry::registry();
  std::printf("\nserver handled %llu simple + %llu complex queries\n",
              static_cast<unsigned long long>(
                  reg.counter("server.queries.simple").value()),
              static_cast<unsigned long long>(
                  reg.counter("server.queries.complex").value()));

  // 6. Close the loop: export the system's own metrics and traces into
  //    sys_* tables and ask the server about its own behaviour.
  buslite::Broker telemetry_bus;
  model::selftel::SelfTelemetryLoop loop(cluster, telemetry_bus);
  server.set_self_telemetry(&loop);
  auto pumped = loop.pump();
  std::printf("\nself-telemetry: published %zu events, landed %llu rows\n",
              pumped.published,
              static_cast<unsigned long long>(pumped.drained.rows_written));
  const std::int64_t now_s = std::chrono::duration_cast<std::chrono::seconds>(
                                 std::chrono::system_clock::now()
                                     .time_since_epoch())
                                 .count();
  const std::int64_t now = hour_bucket(now_s);
  char selfquery[160];
  std::snprintf(selfquery, sizeof(selfquery),
                R"({"op":"selfquery","what":"ops","begin":%lld,"end":%lld})",
                static_cast<long long>((now - 1) * kSecondsPerHour),
                static_cast<long long>((now + 1) * kSecondsPerHour));
  std::printf(">>> %s\n%s\n", selfquery, server.handle_text(selfquery).c_str());
  std::printf(">>> {\"op\":\"alerts\"}\n%s\n",
              server.handle_text(R"({"op":"alerts"})").c_str());
  return 0;
}
