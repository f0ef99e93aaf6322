// Columnar extent encoding for SSTable partitions (DESIGN.md §13.2), the
// DataSeries idea applied to cassalite: instead of vectors of boxed Rows, a
// partition is stored as row groups of per-column typed arrays —
// zigzag-delta varints for integers, bit-exact raw doubles, dictionaries
// for repetitive text (with a raw fallback for high-cardinality columns),
// bitpacked bools — compressed with the shared LZ4-style block codec.
// Decoding is lazy per read slice: each group keeps its first/last
// clustering key uncompressed, so a slice read touches only the groups its
// range intersects and a full scan streams group by group.
//
// Since PR 8 an extent's compressed bodies may live *outside* the object,
// in an on-disk extent file (extent_file.hpp): persist() streams the
// bodies out, attach_file() binds the read-side handle, and decode fetches
// blocks back by mmap/pread on demand. Decoded groups are optionally
// shared through the process BlockCache (ExtentOptions::cache_decoded), so
// hot groups decompress once, not once per read.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cassalite/schema.hpp"
#include "cassalite/value.hpp"

namespace hpcla::cassalite {

class ExtentFile;

/// Encoding knobs (StorageOptions carries them per engine).
struct ExtentOptions {
  /// Rows per compressed group — the lazy-decode granularity. Smaller
  /// groups prune harder on narrow slices; larger groups compress better.
  std::size_t rows_per_group = 1024;
  /// Share decoded groups through the process BlockCache. Off by default:
  /// the cache itself is sized by StorageOptions::block_cache_bytes /
  /// HPCLA_BLOCK_CACHE_BYTES, and an unsized cache admits nothing.
  bool cache_decoded = false;
};

/// One row group's placement metadata — everything the extent-file footer
/// stores about a block, and everything pruning needs without touching it.
struct ExtentGroupMeta {
  ClusteringKey first;  ///< kept decoded for slice pruning
  ClusteringKey last;
  std::uint32_t rows = 0;
  std::uint32_t raw_size = 0;  ///< pre-compression body bytes
  std::uint64_t offset = 0;    ///< compressed body position in the file
  std::uint32_t length = 0;    ///< compressed body bytes
};

/// RAII claim on a BlockCache owner id. Copies of one extent (moves,
/// shared snapshots) share the registration; the last one out drops the
/// owner's cached blocks so superseded SSTables can't serve stale reads.
class ExtentCacheOwner {
 public:
  ExtentCacheOwner();
  ~ExtentCacheOwner();
  ExtentCacheOwner(const ExtentCacheOwner&) = delete;
  ExtentCacheOwner& operator=(const ExtentCacheOwner&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_;
};

/// One partition's rows, columnar-encoded. Immutable after encode();
/// decode-side counters are relaxed atomics, safe for concurrent readers.
class ColumnarExtent {
 public:
  ColumnarExtent() = default;
  // The decode counter is atomic, so moves are spelled out (encode()
  // returns by value; extents are immutable once published).
  ColumnarExtent(ColumnarExtent&& o) noexcept
      : groups_(std::move(o.groups_)),
        rows_(o.rows_),
        raw_bytes_(o.raw_bytes_),
        encoded_bytes_(o.encoded_bytes_),
        file_(std::move(o.file_)),
        cache_(std::move(o.cache_)),
        decoded_groups_(o.decoded_groups_.load(std::memory_order_relaxed)) {}
  ColumnarExtent& operator=(ColumnarExtent&& o) noexcept {
    groups_ = std::move(o.groups_);
    rows_ = o.rows_;
    raw_bytes_ = o.raw_bytes_;
    encoded_bytes_ = o.encoded_bytes_;
    file_ = std::move(o.file_);
    cache_ = std::move(o.cache_);
    decoded_groups_.store(o.decoded_groups_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    return *this;
  }

  /// Encodes rows (ascending clustering order, as SSTables store them).
  static ColumnarExtent encode(const std::vector<Row>& rows,
                               const ExtentOptions& opts);

  /// Rebuilds a file-backed extent from footer metadata: no block is read
  /// until a slice actually needs it.
  static ColumnarExtent from_file(std::shared_ptr<ExtentFile> file,
                                  std::vector<ExtentGroupMeta> groups,
                                  std::uint64_t rows, std::uint64_t raw_bytes,
                                  const ExtentOptions& opts);

  /// Streams each group's compressed body through `append` (which returns
  /// the chosen file offset) and drops the resident copies. The extent is
  /// unreadable until attach_file() binds the handle those offsets refer
  /// to — flush writes all partitions, seals the file, then attaches.
  void persist(const std::function<std::uint64_t(std::string_view)>& append);
  void attach_file(std::shared_ptr<ExtentFile> file) {
    file_ = std::move(file);
  }

  /// Per-group placement metadata (extent-file footer contents).
  [[nodiscard]] std::vector<ExtentGroupMeta> group_metas() const;

  /// Appends the rows `want` selects to `out` in ascending clustering
  /// order, decoding only the groups whose [first, last] key range
  /// intersects the slice — and, under a limit, only those its rows come
  /// from (walking newest first when `want.reverse`).
  void read(const LimitedSlice& want, std::vector<Row>& out) const;

  /// Decodes everything (compaction, full scans).
  [[nodiscard]] std::vector<Row> decode_all() const;

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_; }
  [[nodiscard]] std::size_t group_count() const noexcept {
    return groups_.size();
  }
  /// Approximate boxed-Row footprint of the input (compression numerator).
  [[nodiscard]] std::size_t raw_bytes() const noexcept { return raw_bytes_; }
  /// Encoded footprint (compression denominator; on disk once persisted).
  [[nodiscard]] std::size_t encoded_bytes() const noexcept {
    return encoded_bytes_;
  }
  [[nodiscard]] bool file_backed() const noexcept { return file_ != nullptr; }
  [[nodiscard]] const std::shared_ptr<ExtentFile>& file() const noexcept {
    return file_;
  }
  /// Groups decompressed so far — tests assert slice reads prune groups.
  /// BlockCache hits reuse an already-decoded group and do *not* count.
  [[nodiscard]] std::uint64_t decoded_groups() const noexcept {
    return decoded_groups_.load(std::memory_order_relaxed);
  }

 private:
  struct Group {
    ExtentGroupMeta meta;
    std::string body;  ///< block-compressed column streams; empty once
                       ///< persisted to an extent file
  };

  static Group encode_group(const Row* rows, std::size_t n);
  /// Decompresses + decodes one group (counting it). Fetches the body
  /// from the extent file when persisted.
  std::vector<Row> decode_group(const Group& g) const;
  /// Cache-aware decode: returns a shared decoded group, reusing the
  /// BlockCache copy when one is resident.
  [[nodiscard]] std::shared_ptr<const std::vector<Row>> group_rows(
      std::size_t index) const;

  std::vector<Group> groups_;
  std::size_t rows_ = 0;
  std::size_t raw_bytes_ = 0;
  std::size_t encoded_bytes_ = 0;
  std::shared_ptr<ExtentFile> file_;        ///< null = bodies resident
  std::shared_ptr<ExtentCacheOwner> cache_;  ///< null = caching off
  mutable std::atomic<std::uint64_t> decoded_groups_{0};
};

}  // namespace hpcla::cassalite
