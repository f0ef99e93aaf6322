// Table schemas and read-query specifications (the CQL-shaped surface).
//
// cassalite queries follow Cassandra's access model exactly: a read names a
// partition key and optionally a clustering range within that partition —
// "data is retrieved by row key and range within a row" (paper §II-A).
// Arbitrary secondary predicates are the job of the sparklite layer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cassalite/value.hpp"

namespace hpcla::cassalite {

/// DDL-level description of a table. Column *types* are deliberately not
/// fixed (flexible schema); only the key structure is declared.
struct TableSchema {
  std::string name;
  /// Documentation of what composes the partition key, e.g. {"hour","type"}.
  std::vector<std::string> partition_key_columns;
  /// Documentation of the clustering key parts, e.g. {"ts","seq"}.
  std::vector<std::string> clustering_key_columns;
  std::string comment;

  [[nodiscard]] Json to_json() const {
    Json j = Json::object();
    j["name"] = name;
    Json pk = Json::array();
    for (const auto& c : partition_key_columns) pk.push_back(c);
    j["partition_key"] = std::move(pk);
    Json ck = Json::array();
    for (const auto& c : clustering_key_columns) ck.push_back(c);
    j["clustering_key"] = std::move(ck);
    j["comment"] = comment;
    return j;
  }
};

/// Half-open clustering-key slice. Unset bounds are unbounded.
struct ClusteringSlice {
  std::optional<ClusteringKey> lower;  ///< inclusive
  std::optional<ClusteringKey> upper;  ///< exclusive

  [[nodiscard]] bool admits(const ClusteringKey& k) const noexcept {
    if (lower && k.compare(*lower) == std::strong_ordering::less) return false;
    if (upper && k.compare(*upper) != std::strong_ordering::less) return false;
    return true;
  }
};

/// What a read takes from each partition it touches: the rows `slice`
/// admits, in ascending clustering order (descending when `reverse`), cut
/// to the first `limit` of that order — CQL's PER PARTITION LIMIT.
struct LimitedSlice {
  ClusteringSlice slice;
  std::size_t limit = 0;  ///< 0 = unlimited
  bool reverse = false;

  /// The rows this selects from `rows` (ascending, one per clustering
  /// key), as an index range [first, second): the slice's first `limit`
  /// rows, or its last `limit` when `reverse`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> select(
      const std::vector<Row>& rows) const {
    const auto below = [](const Row& r, const ClusteringKey& k) {
      return r.key.compare(k) == std::strong_ordering::less;
    };
    auto begin = rows.begin();
    auto end = rows.end();
    if (slice.lower) begin = std::lower_bound(begin, end, *slice.lower, below);
    if (slice.upper) end = std::lower_bound(begin, end, *slice.upper, below);
    auto first = static_cast<std::size_t>(begin - rows.begin());
    auto last = static_cast<std::size_t>(end - rows.begin());
    if (limit != 0 && last - first > limit) {
      if (reverse) {
        first = last - limit;
      } else {
        last = first + limit;
      }
    }
    return {first, last};
  }
};

/// SELECT ... FROM table WHERE partition_key = ? [AND clustering in slice]
/// [ORDER BY clustering DESC] [LIMIT n].
struct ReadQuery {
  std::string table;
  std::string partition_key;
  ClusteringSlice slice;
  std::size_t limit = 0;    ///< 0 = unlimited
  bool reverse = false;     ///< descending clustering order
};

/// Result of a partition read.
struct ReadResult {
  std::vector<Row> rows;
  /// True when `limit` cut the scan short.
  bool truncated = false;
};

/// Mutation: one row appended/overwritten in one partition of one table.
struct WriteCommand {
  std::string table;
  std::string partition_key;
  Row row;
};

}  // namespace hpcla::cassalite
