// Interactive analytics shell: the closest thing to the paper's web
// frontend in a terminal. Loads a rich demo day, then reads one JSON query
// per line from stdin and prints the server's JSON response — so every op
// in the protocol can be explored by hand or scripted.
//
//   ./build/examples/analytics_shell              # interactive
//   echo '{"op":"eventtypes"}' | ./build/examples/analytics_shell
//
// Type `help` for sample queries, `quit` to exit.
#include <cstdio>
#include <iostream>
#include <string>

#include "common/telemetry.hpp"
#include "model/ingest.hpp"
#include "server/server.hpp"
#include "titanlog/generator.hpp"

using namespace hpcla;

namespace {

constexpr UnixSeconds kT0 = 1489449600;  // 2017-03-14 00:00:00 UTC

void print_help() {
  std::printf(
      "demo data: 2017-03-14 00:00-06:00 UTC (epoch %lld..%lld)\n"
      "  - MCE hotspot in cabinet c3-11 during hour 2\n"
      "  - Lustre storm naming OST0042 at hour 4\n"
      "  - job mix with failure correlation\n"
      "sample queries (one JSON object per line):\n"
      R"(  {"op":"eventtypes"})" "\n"
      R"(  {"op":"synopsis","window":{"begin":1489449600,"end":1489471200}})" "\n"
      R"(  {"op":"heatmap","context":{"window":{"begin":1489453200,"end":1489456800},"types":["MCE"]}})" "\n"
      R"(  {"op":"word_count","top_k":5,"context":{"window":{"begin":1489464000,"end":1489467600},"types":["LustreError"]}})" "\n"
      R"(  {"op":"render_heatmap","context":{"window":{"begin":1489453200,"end":1489456800},"types":["MCE"]}})" "\n"
      R"(  {"op":"apps_running","t":1489460000})" "\n"
      R"(  {"op":"predict_failures","precursors":["MemEcc"],"targets":["KernelPanic"],"context":{"window":{"begin":1489449600,"end":1489471200}}})" "\n"
      R"(  {"op":"cql","query":"SELECT node, message FROM event_by_time WHERE hour = 413737 AND type = 'MCE' LIMIT 5"})" "\n"
      R"(  {"op":"association_rules","context":{"window":{"begin":1489449600,"end":1489471200}}})" "\n",
      static_cast<long long>(kT0), static_cast<long long>(kT0 + 6 * 3600));
}

}  // namespace

int main() {
  std::fprintf(stderr, "loading demo day...\n");
  cassalite::ClusterOptions copts;
  copts.node_count = 4;
  copts.replication_factor = 2;
  cassalite::Cluster cluster(copts);
  sparklite::Engine engine(sparklite::EngineOptions{.workers = 4});
  HPCLA_CHECK(model::create_data_model(cluster).is_ok());
  HPCLA_CHECK(model::load_eventtypes(cluster).is_ok());

  titanlog::ScenarioConfig cfg;
  cfg.seed = 314;
  cfg.window = TimeRange{kT0, kT0 + 6 * 3600};
  cfg.background_scale = 0.5;
  titanlog::HotspotSpec hs;
  hs.type = titanlog::EventType::kMachineCheck;
  hs.location = topo::parse_cname("c3-11").value();
  hs.window = TimeRange{kT0 + 3600, kT0 + 2 * 3600};
  hs.rate_per_node_hour = 10.0;
  cfg.hotspots.push_back(hs);
  titanlog::LustreStormSpec storm;
  storm.start = kT0 + 4 * 3600;
  storm.duration_seconds = 240;
  storm.ost_index = 0x42;
  storm.messages_per_second = 60.0;
  cfg.storms.push_back(storm);
  cfg.jobs = titanlog::JobMixSpec{.users = 12, .apps = 6, .jobs_per_hour = 50,
                                  .max_size_log2 = 7};
  auto logs = titanlog::Generator(cfg).generate();
  model::BatchIngestor ingestor(cluster, engine);
  auto report = ingestor.ingest_records(logs.events, logs.jobs);
  std::fprintf(stderr, "loaded %llu events, %zu jobs. Type 'help'.\n",
               static_cast<unsigned long long>(report.event_rows),
               logs.jobs.size());

  server::AnalyticsServer server(cluster, engine);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == "quit" || line == "exit") break;
    if (line == "help") {
      print_help();
      continue;
    }
    auto reply = server.handle_text(line);
    // Render embedded ASCII maps readably: pretty-print the envelope.
    auto parsed = Json::parse(reply);
    if (parsed.is_ok() && parsed.value()["result"].is_object() &&
        parsed.value()["result"]["map"].is_string()) {
      std::printf("%s\n", parsed.value()["result"]["map"].as_string().c_str());
    } else {
      std::printf("%s\n", reply.c_str());
    }
    std::fflush(stdout);
  }
  auto& reg = telemetry::registry();
  std::fprintf(stderr, "session: %llu simple, %llu complex, %llu errors\n",
               static_cast<unsigned long long>(
                   reg.counter("server.queries.simple").value()),
               static_cast<unsigned long long>(
                   reg.counter("server.queries.complex").value()),
               static_cast<unsigned long long>(
                   reg.counter("server.queries.errors").value()));
  return 0;
}
