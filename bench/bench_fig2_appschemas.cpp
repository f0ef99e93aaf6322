// Fig 2 — application-run schemas: denormalized views by time (every hour
// a job runs), by application name, and by user (plus the per-node
// placement fan-out).
//
// Measures the cost of the 4-way denormalized write against what it buys:
// each perspective's query is a direct partition read instead of a scan.
#include "bench_util.hpp"

#include "analytics/queries.hpp"

namespace hpcla::bench {
namespace {

LoadedStack& stack() {
  static LoadedStack s = [] {
    auto cfg = mixed_scenario(0.2, 3);
    cfg.jobs->jobs_per_hour = 400;  // job-heavy: ~800 runs in 2 h
    return LoadedStack(cluster_opts(4), engine_opts(4), cfg);
  }();
  return s;
}

/// Denormalized write: one job into all four application tables.
void BM_Fig2_DenormalizedJobWrite(benchmark::State& state) {
  cassalite::Cluster cluster(cluster_opts(4));
  sparklite::Engine engine(engine_opts(2));
  HPCLA_CHECK(model::create_data_model(cluster).is_ok());
  model::BatchIngestor ingestor(cluster, engine);
  titanlog::JobRecord job;
  job.app_name = "LAMMPS";
  job.user = "usr1";
  job.nodes = {100, 101, 102, 103};
  std::int64_t i = 0;
  for (auto _ : state) {
    job.apid = 5000000 + i;
    job.start = kT0 + (i % 3600);
    job.end = job.start + 1800;
    ++i;
    model::IngestReport report;
    ingestor.write_job(job, report);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["tables_per_job"] = 4;
}
BENCHMARK(BM_Fig2_DenormalizedJobWrite);

/// Perspective reads: by hour (application_by_time holds a job in every
/// hour it runs), by user, by application name.
void BM_Fig2_QueryByPerspective(benchmark::State& state) {
  auto& s = stack();
  const int perspective = static_cast<int>(state.range(0));
  cassalite::ReadQuery q;
  switch (perspective) {
    case 0:
      q.table = std::string(model::kAppByTime);
      q.partition_key = model::app_time_key(hour_bucket(kT0));
      break;
    case 1:
      q.table = std::string(model::kAppByUser);
      q.partition_key = model::app_user_key("usr1");
      break;
    default:
      q.table = std::string(model::kAppByApp);
      q.partition_key = model::app_app_key("LAMMPS");
      break;
  }
  std::size_t rows = 0;
  for (auto _ : state) {
    auto r = s.cluster.select(q);
    HPCLA_CHECK(r.is_ok());
    rows = r->rows.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_Fig2_QueryByPerspective)
    ->Arg(0)->Arg(1)->Arg(2)
    ->ArgName("perspective_time0_user1_app2");

/// The placement query Fig 6 needs: jobs on one node in one hour.
void BM_Fig2_PlacementLookup(benchmark::State& state) {
  auto& s = stack();
  const topo::NodeId node = s.logs.jobs.front().nodes.front();
  cassalite::ReadQuery q;
  q.table = std::string(model::kAppByLocation);
  q.partition_key = model::app_location_key(hour_bucket(kT0), node);
  for (auto _ : state) {
    auto r = s.cluster.select(q);
    HPCLA_CHECK(r.is_ok());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Fig2_PlacementLookup);

/// The alternative the schema avoids: finding one user's jobs by scanning
/// every hour partition and filtering (a multi-hour job counts once per
/// hour it runs).
void BM_Fig2_UserQueryViaScan(benchmark::State& state) {
  auto& s = stack();
  for (auto _ : state) {
    auto ds = sparklite::scan_table(s.engine, s.cluster,
                                    std::string(model::kAppByTime));
    auto count = ds.filter([](const cassalite::Row& row) {
                     const auto* user = row.find(model::kColUser);
                     return user && user->is_text() &&
                            user->as_text() == "usr1";
                   }).count();
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_Fig2_UserQueryViaScan);

}  // namespace
}  // namespace hpcla::bench

int main(int argc, char** argv) { return hpcla::bench::bench_main(argc, argv); }
