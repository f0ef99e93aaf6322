// Dataset sources backed by cassalite tables.
//
// Partition keys are grouped by their primary replica, and each node's
// batch becomes one sparklite partition whose preferred node is that
// replica — the co-location contract of paper §III-A ("by associating local
// partitions with the same local Spark worker, the big data processing unit
// performs analytics efficiently"). A batch is read against a *single*
// storage snapshot (StorageEngine::scan_partitions), so one task drives a
// whole node-local partition batch instead of issuing per-key reads.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cassalite/cluster.hpp"
#include "common/telemetry.hpp"
#include "sparklite/dataset.hpp"

namespace hpcla::sparklite {

/// Scans the given partitions of a table into a Dataset of (key, row)
/// pairs. When `partition_keys` is empty, all partitions of the table are
/// scanned. `max_keys_per_task` splits one node's batch into several tasks
/// (more parallelism within a node); 0 keeps one task per node. `want` is
/// what each partition contributes: a clustering slice, cut to a number of
/// rows per partition taken from either end (default: every row).
inline Dataset<std::pair<std::string, cassalite::Row>> scan_table_keyed(
    Engine& engine, const cassalite::Cluster& cluster,
    const std::string& table, std::vector<std::string> partition_keys = {},
    std::size_t max_keys_per_task = 0, cassalite::LimitedSlice want = {}) {
  if (partition_keys.empty()) {
    partition_keys = cluster.all_partition_keys(table);
  }
  // Group by primary replica, preserving key order within each group.
  std::map<cassalite::NodeIndex, std::vector<std::string>> by_node;
  for (auto& key : partition_keys) {
    by_node[cluster.ring().primary(key)].push_back(std::move(key));
  }

  using Out = std::pair<std::string, cassalite::Row>;
  std::vector<Dataset<Out>::Partition> parts;
  parts.reserve(by_node.size());
  for (auto& [node, keys] : by_node) {
    const std::size_t chunk =
        max_keys_per_task == 0 ? keys.size() : max_keys_per_task;
    for (std::size_t begin = 0; begin < keys.size(); begin += chunk) {
      std::vector<std::string> batch(
          keys.begin() + static_cast<std::ptrdiff_t>(begin),
          keys.begin() +
              static_cast<std::ptrdiff_t>(std::min(begin + chunk, keys.size())));
      parts.push_back(Dataset<Out>::Partition{
          [&cluster, table, want, node = node,
           batch = std::move(batch)](const TaskContext&) {
            // Child of the sparklite.stage span running this task (the
            // engine propagates the trace context onto pool threads).
            telemetry::Span span("cassalite.scan");
            span.tag("table", table);
            span.tag("node", static_cast<std::uint64_t>(node));
            span.tag("keys", static_cast<std::uint64_t>(batch.size()));
            if (want.limit != 0) {
              span.tag("limit", static_cast<std::uint64_t>(want.limit));
            }
            std::vector<Out> out;
            cluster.engine(node).scan_partitions(
                table, batch, want,
                [&out](const std::string& key, std::vector<cassalite::Row> rows) {
                  for (auto& row : rows) out.emplace_back(key, std::move(row));
                });
            span.tag("rows", static_cast<std::uint64_t>(out.size()));
            return out;
          },
          static_cast<int>(node)});
    }
  }
  return Dataset<Out>(engine, std::move(parts));
}

/// Row-only variant of scan_table_keyed.
inline Dataset<cassalite::Row> scan_table(
    Engine& engine, const cassalite::Cluster& cluster,
    const std::string& table, std::vector<std::string> partition_keys = {},
    std::size_t max_keys_per_task = 0) {
  return scan_table_keyed(engine, cluster, table, std::move(partition_keys),
                          max_keys_per_task)
      .map([](const std::pair<std::string, cassalite::Row>& kv) {
        return kv.second;
      });
}

}  // namespace hpcla::sparklite
