// In-memory write buffer: the first stop of every mutation on a node.
// Rows are kept sorted per partition; when the accounted size crosses the
// flush threshold, the storage engine freezes the memtable into an SSTable.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cassalite/schema.hpp"
#include "cassalite/value.hpp"

namespace hpcla::cassalite {

/// One table's memtable on one node. Not internally synchronized — the
/// owning StorageEngine serializes writers and lets concurrent readers in
/// under a shared lock (const methods touch no mutable state).
class Memtable {
 public:
  /// Inserts or overwrites (same clustering key, last-write-wins by
  /// write_ts) a row. Returns bytes added to the accounting.
  std::size_t put(const std::string& partition_key, Row row);

  /// Appends the rows of one partition that `want` selects, in ascending
  /// clustering order.
  void read(const std::string& partition_key, const LimitedSlice& want,
            std::vector<Row>& out) const;

  /// All partition keys present (sorted).
  [[nodiscard]] std::vector<std::string> partition_keys() const;

  [[nodiscard]] std::size_t partition_count() const noexcept {
    return partitions_.size();
  }
  [[nodiscard]] std::size_t row_count() const noexcept { return rows_; }
  [[nodiscard]] std::size_t memory_bytes() const noexcept { return bytes_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }

  /// Direct view of the sorted content. Flush reads this under the shared
  /// memtable lock (the engine writer mutex excludes mutation) to build
  /// the SSTable and *publish it* before drain(), so a reader that checks
  /// the memtable first can only see a row twice (reconciled), never miss
  /// it. Copying rows straight into SSTable partitions from this view
  /// replaces the old clone-the-whole-map flush path.
  [[nodiscard]] const std::map<std::string, std::vector<Row>>& partitions()
      const noexcept {
    return partitions_;
  }

  /// Hands the sorted partition map to the flusher and resets.
  [[nodiscard]] std::map<std::string, std::vector<Row>> drain();

 private:
  // partition key -> rows sorted by clustering key
  std::map<std::string, std::vector<Row>> partitions_;
  std::size_t rows_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace hpcla::cassalite
