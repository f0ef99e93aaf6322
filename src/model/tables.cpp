#include "model/tables.hpp"

namespace hpcla::model {

using cassalite::ClusteringKey;
using cassalite::Row;
using cassalite::TableSchema;
using cassalite::Value;
using titanlog::EventRecord;
using titanlog::JobRecord;

Status create_data_model(cassalite::Cluster& cluster) {
  const auto make = [](std::string_view name,
                       std::vector<std::string> pk,
                       std::vector<std::string> ck,
                       std::string comment) {
    TableSchema s;
    s.name = std::string(name);
    s.partition_key_columns = std::move(pk);
    s.clustering_key_columns = std::move(ck);
    s.comment = std::move(comment);
    return s;
  };

  HPCLA_RETURN_IF_ERROR(cluster.create_table(make(
      kNodeInfos, {"nid"}, {},
      "static machine description: position, routing, hardware")));
  HPCLA_RETURN_IF_ERROR(cluster.create_table(make(
      kEventTypes, {"type"}, {},
      "catalog of monitored event types")));
  HPCLA_RETURN_IF_ERROR(cluster.create_table(make(
      kEventSynopsis, {"hour"}, {"type"},
      "per-hour per-type occurrence summary")));
  HPCLA_RETURN_IF_ERROR(cluster.create_table(make(
      kEventByTime, {"hour", "type"}, {"ts", "seq"},
      "events of one type in one hour, time ordered (Fig 1 top)")));
  HPCLA_RETURN_IF_ERROR(cluster.create_table(make(
      kEventByLocation, {"hour", "node"}, {"ts", "seq"},
      "events on one component in one hour, time ordered (Fig 1 bottom)")));
  HPCLA_RETURN_IF_ERROR(cluster.create_table(make(
      kAppByTime, {"hour"}, {"start", "apid"},
      "application runs by each hour they run (Fig 2 top)")));
  HPCLA_RETURN_IF_ERROR(cluster.create_table(make(
      kAppByUser, {"user"}, {"start", "apid"},
      "application runs by user (Fig 2 bottom)")));
  HPCLA_RETURN_IF_ERROR(cluster.create_table(make(
      kAppByApp, {"app"}, {"start", "apid"},
      "application runs by application name (Fig 2 middle)")));
  HPCLA_RETURN_IF_ERROR(cluster.create_table(make(
      kAppByLocation, {"hour", "node"}, {"start", "apid"},
      "application placements per node-hour")));
  return Status::ok();
}

Status load_nodeinfos(cassalite::Cluster& cluster,
                      cassalite::Consistency consistency) {
  for (const auto& info : topo::titan().nodes()) {
    Row row;
    row.key = ClusteringKey{};  // single row per partition
    row.set("cname", Value(info.cname));
    row.set("row", Value(info.coord.row));
    row.set("col", Value(info.coord.col));
    row.set("cage", Value(info.coord.cage));
    row.set("slot", Value(info.coord.slot));
    row.set("node", Value(info.coord.node));
    row.set("cabinet", Value(info.cabinet));
    row.set("blade", Value(info.blade));
    row.set("gemini", Value(info.gemini));
    row.set("torus_x", Value(info.torus.x));
    row.set("torus_y", Value(info.torus.y));
    row.set("torus_z", Value(info.torus.z));
    row.set("cpu", Value(info.cpu_model));
    row.set("cpu_cores", Value(info.cpu_cores));
    row.set("cpu_memory_gb", Value(info.cpu_memory_gb));
    row.set("gpu", Value(info.gpu_model));
    row.set("gpu_memory_gb", Value(info.gpu_memory_gb));
    HPCLA_RETURN_IF_ERROR(cluster.insert(std::string(kNodeInfos),
                                         nodeinfo_key(info.id), std::move(row),
                                         consistency));
  }
  return Status::ok();
}

Status load_eventtypes(cassalite::Cluster& cluster) {
  for (const auto& info : titanlog::event_catalog()) {
    Row row;
    row.set("description", Value(std::string(info.description)));
    row.set("source", Value(std::string(titanlog::log_source_name(info.source))));
    row.set("severity", Value(std::string(titanlog::severity_name(info.severity))));
    row.set("base_rate_per_node_hour", Value(info.base_rate_per_node_hour));
    HPCLA_RETURN_IF_ERROR(cluster.insert(std::string(kEventTypes),
                                         eventtype_key(info.type),
                                         std::move(row)));
  }
  return Status::ok();
}

Row event_time_row(const EventRecord& e) {
  Row row;
  row.key = ClusteringKey::of({Value(e.ts), Value(e.seq)});
  row.set(std::string(kColNode), Value(static_cast<std::int64_t>(e.node)));
  row.set(std::string(kColMessage), Value(e.message));
  row.set(std::string(kColCount), Value(e.count));
  return row;
}

Row event_location_row(const EventRecord& e) {
  Row row;
  row.key = ClusteringKey::of({Value(e.ts), Value(e.seq)});
  row.set(std::string(kColType),
          Value(std::string(titanlog::event_id(e.type))));
  row.set(std::string(kColMessage), Value(e.message));
  row.set(std::string(kColCount), Value(e.count));
  return row;
}

namespace {

Result<EventRecord> decode_common(const cassalite::Row& row, EventRecord& e) {
  if (row.key.parts.size() < 2 || !row.key.parts[0].is_int() ||
      !row.key.parts[1].is_int()) {
    return corruption("event row clustering key must be (ts, seq)");
  }
  e.ts = row.key.parts[0].as_int();
  e.seq = row.key.parts[1].as_int();
  const Value* msg = row.find(kColMessage);
  if (!msg || !msg->is_text()) return corruption("event row missing message");
  e.message = msg->as_text();
  const Value* count = row.find(kColCount);
  e.count = count && count->is_int() ? count->as_int() : 1;
  return e;
}

}  // namespace

Result<EventRecord> decode_event_time_row(const std::string& partition_key,
                                          const cassalite::Row& row) {
  auto key = parse_event_time_key(partition_key);
  if (!key.is_ok()) return key.status();
  EventRecord e;
  e.type = key->type;
  const Value* node = row.find(kColNode);
  if (!node || !node->is_int()) return corruption("event row missing node");
  e.node = static_cast<topo::NodeId>(node->as_int());
  return decode_common(row, e);
}

Result<EventRecord> decode_event_location_row(const std::string& partition_key,
                                              const cassalite::Row& row) {
  auto key = parse_event_location_key(partition_key);
  if (!key.is_ok()) return key.status();
  EventRecord e;
  e.node = key->node;
  const Value* type = row.find(kColType);
  if (!type || !type->is_text()) return corruption("event row missing type");
  auto parsed = titanlog::event_type_from_id(type->as_text());
  if (!parsed.is_ok()) return parsed.status();
  e.type = parsed.value();
  return decode_common(row, e);
}

Row app_row(const JobRecord& job) {
  Row row;
  row.key = ClusteringKey::of({Value(job.start), Value(job.apid)});
  row.set(std::string(kColApp), Value(job.app_name));
  row.set(std::string(kColUser), Value(job.user));
  row.set(std::string(kColNids), Value(titanlog::format_nid_ranges(job.nodes)));
  row.set(std::string(kColEnd), Value(job.end));
  row.set(std::string(kColExit), Value(job.exit_code));
  return row;
}

Result<JobRecord> decode_app_row(const cassalite::Row& row) {
  if (row.key.parts.size() < 2 || !row.key.parts[0].is_int() ||
      !row.key.parts[1].is_int()) {
    return corruption("app row clustering key must be (start, apid)");
  }
  JobRecord job;
  job.start = row.key.parts[0].as_int();
  job.apid = row.key.parts[1].as_int();
  const Value* app = row.find(kColApp);
  const Value* user = row.find(kColUser);
  const Value* nids = row.find(kColNids);
  const Value* end = row.find(kColEnd);
  const Value* exit_code = row.find(kColExit);
  if (!app || !user || !nids || !end || !exit_code) {
    return corruption("app row missing cells");
  }
  job.app_name = app->as_text();
  job.user = user->as_text();
  auto nodes = titanlog::parse_nid_ranges(nids->as_text());
  if (!nodes.is_ok()) return nodes.status();
  job.nodes = std::move(nodes.value());
  job.end = end->as_int();
  job.exit_code = static_cast<int>(exit_code->as_int());
  return job;
}

Row app_location_row(const JobRecord& job) {
  Row row;
  row.key = ClusteringKey::of({Value(job.start), Value(job.apid)});
  row.set(std::string(kColApp), Value(job.app_name));
  row.set(std::string(kColUser), Value(job.user));
  row.set(std::string(kColEnd), Value(job.end));
  row.set(std::string(kColExit), Value(job.exit_code));
  return row;
}

}  // namespace hpcla::model
