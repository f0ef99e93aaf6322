// Immutable sorted run produced by flushing a memtable: sorted partitions,
// each with clustering-sorted rows, fronted by a Bloom filter on partition
// keys. Mirrors Cassandra's on-disk SSTable at the data-structure level.
//
// Partitions are stored one of three ways:
//   * plain Row vectors (the original path),
//   * resident ColumnarExtent column streams decoded lazily per slice
//     (DESIGN.md §13.2), or
//   * file-backed extents (DESIGN.md §14): the SSTable holds only the
//     lightweight handles — partition keys, Bloom filter, per-group
//     first/last keys and block offsets — while the compressed blocks
//     live in an on-disk extent file fetched by mmap/pread on demand.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cassalite/bloom.hpp"
#include "cassalite/extent.hpp"
#include "cassalite/extent_file.hpp"
#include "cassalite/schema.hpp"
#include "cassalite/value.hpp"

namespace hpcla::cassalite {

/// Immutable after construction (persist_to/attach_file run before the
/// table is published); safe to share across threads.
class SSTable {
 public:
  struct Partition {
    std::string key;
    std::vector<Row> rows;  ///< ascending clustering order
  };

  /// Builds from a sorted partition map (as produced by Memtable::drain or
  /// compaction). Generation numbers increase monotonically per table.
  /// With `extent_opts`, partitions are columnar-encoded and the row
  /// vectors are dropped; reads decode lazily per slice.
  SSTable(std::uint64_t generation, std::vector<Partition> sorted_partitions,
          const ExtentOptions* extent_opts = nullptr);

  /// Rebuilds the SSTable skeleton from a sealed extent file's footer —
  /// the cold-start path: no block is read until a slice needs it.
  [[nodiscard]] static std::shared_ptr<SSTable> from_extent_file(
      std::shared_ptr<ExtentFile> file, const ExtentOptions& opts);

  /// Streams every partition's compressed blocks into `writer` (dropping
  /// the resident copies) and appends the index entries to `footer`.
  /// Caller seals the writer, opens the result, and attach_file()s it
  /// before publishing the table. Columnar tables only.
  void persist_to(ExtentFileWriter& writer, ExtentFileFooter& footer);
  void attach_file(const std::shared_ptr<ExtentFile>& file);

  /// The backing extent file; null for in-memory tables.
  [[nodiscard]] const std::shared_ptr<ExtentFile>& extent_file()
      const noexcept {
    return file_;
  }

  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }
  [[nodiscard]] std::size_t partition_count() const noexcept {
    return partitions_.size();
  }
  [[nodiscard]] std::size_t row_count() const noexcept { return rows_; }
  [[nodiscard]] bool columnar() const noexcept { return columnar_; }

  /// Compression accounting (columnar tables only; zero otherwise).
  [[nodiscard]] std::size_t extent_raw_bytes() const noexcept {
    return raw_bytes_;
  }
  [[nodiscard]] std::size_t extent_encoded_bytes() const noexcept {
    return encoded_bytes_;
  }

  /// Appends the rows of the partition that `want` selects to `out`, in
  /// ascending clustering order. Consults the Bloom filter first;
  /// `bloom_rejections` metric is the caller's concern. Returns false if
  /// the Bloom filter rejected (definite miss).
  bool read(const std::string& partition_key, const LimitedSlice& want,
            std::vector<Row>& out) const;

  /// Partition keys in ascending order (metadata only — never decodes).
  [[nodiscard]] std::vector<std::string> partition_keys() const;

  /// Streams partitions in key order for compaction and full scans:
  /// `fn(const std::string& key, const std::vector<Row>& rows)`. Columnar
  /// partitions are decoded one at a time, so residency stays bounded by
  /// the largest single partition rather than the whole table.
  template <typename Fn>
  void for_each_partition(Fn&& fn) const {
    for (const auto& p : partitions_) {
      if (columnar_) {
        fn(p.key, p.extent.decode_all());
      } else {
        fn(p.key, p.rows);
      }
    }
  }

 private:
  struct Stored {
    std::string key;
    std::vector<Row> rows;  ///< empty when columnar
    ColumnarExtent extent;
  };

  SSTable(std::uint64_t generation, std::size_t bloom_hint)
      : generation_(generation), bloom_(std::max<std::size_t>(bloom_hint, 8)) {}

  std::uint64_t generation_;
  std::vector<Stored> partitions_;  ///< sorted by key
  std::size_t rows_ = 0;
  bool columnar_ = false;
  std::size_t raw_bytes_ = 0;
  std::size_t encoded_bytes_ = 0;
  std::shared_ptr<ExtentFile> file_;  ///< null = fully resident
  BloomFilter bloom_;
};

using SSTablePtr = std::shared_ptr<const SSTable>;

/// Merges several runs into one (size-tiered compaction step): partitions
/// unioned, rows with equal clustering keys reconciled last-write-wins.
/// `extent_opts` propagates the output encoding as in the constructor.
/// Returned mutable so the engine can persist_to/attach_file before
/// publishing it as const.
std::shared_ptr<SSTable> compact(std::uint64_t new_generation,
                                 const std::vector<SSTablePtr>& inputs,
                                 const ExtentOptions* extent_opts = nullptr);

}  // namespace hpcla::cassalite
