// Per-node storage engine: commit log -> memtable -> SSTables, with
// size-tiered compaction and merge-on-read. One instance per simulated
// cluster node.
//
// Concurrency model (see DESIGN.md §"Storage concurrency"):
//   * Reads are snapshot-based and run without the writer lock. Each table
//     publishes its immutable SSTable list as a shared_ptr<const
//     TableSnapshot> swapped atomically on flush/compaction; the live
//     memtable is read under a brief shared lock. A read therefore costs
//     one shared-lock acquisition plus one atomic load, then proceeds
//     entirely against immutable structures. A per-table publish version
//     lets readers reuse a thread-local snapshot reference between
//     publishes, so the hot read path skips the contended atomic
//     shared_ptr load (and its refcount cache-line bounce) entirely.
//   * Writes (`apply`), flush, compaction publish, and crash recovery are
//     serialized by one writer-exclusive mutex per engine.
//   * Flush publishes the new SSTable *before* draining the memtable, and
//     readers consult the memtable *before* loading the snapshot — so a
//     concurrent reader can observe a row twice (reconciled last-write-wins)
//     but never miss it.
//   * Compaction merges its input runs outside every lock and re-enters the
//     writer lock only to swap the snapshot, so a long compaction stalls
//     neither readers nor writers.
//
// Out-of-core tier (DESIGN.md §14): with `extent_files` on, flush and
// compaction write each SSTable's columnar extents to an on-disk extent
// file under `data_dir` and the published SSTables hold only lightweight
// handles; reads fetch blocks by mmap/pread through the process
// BlockCache. reopen_from_disk() rebuilds the whole engine state from
// those files plus the commit log — the cold-start path.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cassalite/commitlog.hpp"
#include "cassalite/memtable.hpp"
#include "cassalite/schema.hpp"
#include "cassalite/sstable.hpp"

namespace hpcla {
class FaultInjector;
}

namespace hpcla::cassalite {

/// Tuning knobs, exposed for the ablation benches.
struct StorageOptions {
  /// True when HPCLA_COLUMNAR_EXTENTS is set to anything but "0".
  static bool columnar_extents_default() noexcept;
  /// True when HPCLA_EXTENT_FILES is set to anything but "0".
  static bool extent_files_default() noexcept;
  /// False only when HPCLA_EXTENT_MMAP is set to "0" (pread fallback).
  static bool extent_mmap_default() noexcept;
  /// HPCLA_BLOCK_CACHE_BYTES, default 0 (cache disabled).
  static std::size_t block_cache_bytes_default() noexcept;

  /// Memtable flush threshold in bytes.
  std::size_t memtable_flush_bytes = 8u << 20;  // 8 MiB
  /// Compact when a table accumulates this many SSTables.
  std::size_t compaction_threshold = 8;
  /// Store SSTable partitions as compressed columnar extents decoded
  /// lazily per read slice (DESIGN.md §13.2) instead of plain Row vectors.
  bool columnar_extents = columnar_extents_default();
  /// Rows per extent group when columnar_extents is on — the lazy-decode
  /// and compression granularity.
  std::size_t extent_rows_per_group = 1024;
  /// Persist extents to on-disk extent files on flush/compaction (implies
  /// columnar_extents); SSTables keep only handles and block indexes.
  bool extent_files = extent_files_default();
  /// Directory for extent files. Empty = a unique scratch subdirectory
  /// (honoring HPCLA_SPILL_DIR) that is removed with the engine; explicit
  /// paths persist across engine lifetimes for reopen_from_disk().
  std::string data_dir;
  /// Fetch extent blocks through mmap (pread streaming when off or when
  /// the map fails).
  bool extent_mmap = extent_mmap_default();
  /// Budget for the process-wide decoded-block cache. Applied to the
  /// BlockCache singleton at engine construction *grow-only* (the cache
  /// is shared by every engine in the process, so a small-budget engine
  /// never shrinks or mass-evicts it); 0 leaves the cache untouched.
  /// Callers needing an exact budget use BlockCache::set_capacity.
  std::size_t block_cache_bytes = block_cache_bytes_default();
};

/// Plain snapshot of the storage-level counters, safe to copy around.
/// The engine maintains these as relaxed atomics; `metrics()` never locks.
struct StorageMetrics {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t memtable_flushes = 0;
  std::uint64_t compactions = 0;
  std::uint64_t sstables_read = 0;
  std::uint64_t bloom_rejections = 0;
  /// Snapshot acquisitions serving reads: one per read(), one per
  /// scan_partitions() batch (a batch amortizes the acquisition).
  std::uint64_t snapshot_reads = 0;
  /// Wall time the compaction publish step held the writer lock — the only
  /// part of compaction that can stall writers (readers are never stalled).
  std::uint64_t compaction_stall_us = 0;
  /// Extent compression accounting across currently published SSTables
  /// (zero unless columnar_extents is on): boxed-Row footprint of the
  /// encoded data vs. the encoded bytes held (on disk once extent_files).
  std::uint64_t extent_raw_bytes = 0;
  std::uint64_t extent_encoded_bytes = 0;
  /// Extent files written (flush + compaction) since construction.
  std::uint64_t extent_files_written = 0;
};

class StorageEngine {
 public:
  explicit StorageEngine(StorageOptions options = {});
  ~StorageEngine();

  /// Applies one mutation: journal, memtable, maybe flush/compact.
  void apply(const WriteCommand& cmd);

  /// Fallible apply: when a fault injector is attached and fires a
  /// transient write fault for this node, the mutation is rejected
  /// *before* touching the commit log and false is returned — the
  /// coordinator retries or hints. Without an injector this is `apply`.
  [[nodiscard]] bool try_apply(const WriteCommand& cmd);

  /// Attaches a fault injector; `node` is this engine's index in the
  /// injector's node space. Pass nullptr to detach. Not thread-safe
  /// against in-flight writes — wire up before traffic starts.
  void set_fault_injector(FaultInjector* injector, std::size_t node);

  /// Reads a partition slice, merging memtable and all SSTables
  /// (last-write-wins per clustering key), honoring limit/reverse: each
  /// run serves at most `limit + 1` rows, enough to tell `truncated`.
  /// Lock-free against the snapshot; safe under concurrent writers.
  [[nodiscard]] ReadResult read(const ReadQuery& q) const;

  /// Batch scan: reads several partitions of one table against a *single*
  /// snapshot acquisition and invokes `fn(key, rows)` per requested key
  /// with what `want` selects of it (reconciled, in `want`'s order, at
  /// most `want.limit` rows — each run contributes no more; keys with no
  /// rows are still reported, with an empty vector). An empty `keys`
  /// scans every partition currently on this node. This is the sparklite
  /// node-local scan path: one task drives a whole partition batch
  /// instead of paying per-key synchronization.
  void scan_partitions(
      const std::string& table, const std::vector<std::string>& keys,
      const LimitedSlice& want,
      const std::function<void(const std::string& key, std::vector<Row> rows)>&
          fn) const;

  /// Partition keys of a table currently stored on this node (union of
  /// memtable and SSTables) — the scan entry point for sparklite locality.
  [[nodiscard]] std::vector<std::string> partition_keys(
      const std::string& table) const;

  /// Names of every table with data on this node (sorted). Range streaming
  /// and anti-entropy repair enumerate tables through this, so data written
  /// to tables never registered with Cluster::create_table still moves.
  [[nodiscard]] std::vector<std::string> table_names() const;

  /// Number of rows stored for a table (post-reconciliation upper bound:
  /// duplicates across runs counted once per run).
  [[nodiscard]] std::uint64_t approximate_rows(const std::string& table) const;

  /// Simulates a crash: all memtables are lost, then recovered from the
  /// commit log. With extent_files on, the in-memory SSTable objects are
  /// dropped too and the node reopens from its extent files — the honest
  /// crash path. Returns the number of replayed mutations.
  std::size_t crash_and_recover();

  /// Cold start from disk: discards every in-memory table structure,
  /// rebuilds SSTables from the extent files found in data_dir(), and
  /// replays the commit log past the highest LSN the files cover.
  /// Requires extent_files. Returns the number of replayed mutations.
  std::size_t reopen_from_disk();

  /// The extent-file directory ("" unless extent_files is on).
  [[nodiscard]] const std::string& data_dir() const noexcept {
    return data_dir_;
  }

  [[nodiscard]] StorageMetrics metrics() const;

  /// Forces all memtables to SSTables (test/bench hook).
  void flush_all();

 private:
  /// Immutable view of one table's on-"disk" state. Shared with readers;
  /// never mutated after publication.
  struct TableSnapshot {
    std::vector<SSTablePtr> sstables;
  };
  using SnapshotPtr = std::shared_ptr<const TableSnapshot>;

  struct TableStore {
    /// Guards the live memtable only: writers unique, readers shared.
    mutable std::shared_mutex mem_mu;
    Memtable memtable;
    /// Published SSTable list; swapped (release) on flush/compaction and
    /// loaded (acquire) by readers. Non-snapshot fields below are written
    /// only under the engine writer mutex.
    std::atomic<SnapshotPtr> snapshot{std::make_shared<TableSnapshot>()};
    /// Bumped (release) after every snapshot store — readers compare it
    /// against a thread-local cache to skip the atomic shared_ptr load.
    std::atomic<std::uint64_t> snapshot_version{1};
    /// Process-unique id keying the thread-local snapshot cache (table
    /// stores from different engines may reuse addresses).
    const std::uint64_t id;
    std::uint64_t next_generation = 1;
    /// LSN of the newest mutation already covered by the SSTables.
    std::uint64_t flushed_lsn = 0;
    /// LSN of the newest mutation applied to the memtable.
    std::uint64_t applied_lsn = 0;
    /// True while a compaction for this table is merging out-of-lock.
    bool compacting = false;

    TableStore();
  };

  /// A compaction prepared under the writer lock and executed outside it.
  struct CompactionJob {
    TableStore* store = nullptr;
    std::string table;
    std::vector<SSTablePtr> inputs;  ///< prefix of the snapshot at grab time
    std::uint64_t generation = 0;
  };

  /// Relaxed atomic counters behind the StorageMetrics snapshot.
  struct Counters {
    std::atomic<std::uint64_t> writes{0};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> memtable_flushes{0};
    std::atomic<std::uint64_t> compactions{0};
    std::atomic<std::uint64_t> sstables_read{0};
    std::atomic<std::uint64_t> bloom_rejections{0};
    std::atomic<std::uint64_t> snapshot_reads{0};
    std::atomic<std::uint64_t> compaction_stall_us{0};
    std::atomic<std::uint64_t> extent_files_written{0};
  };

  /// Read-side table lookup (shared map lock; pointer stays valid because
  /// tables are never erased and std::map nodes are stable).
  const TableStore* find_table(const std::string& table) const;
  /// Write-side lookup-or-create (caller holds the writer mutex).
  TableStore& table_for_write(const std::string& table);

  /// Read-side snapshot acquisition with the thread-local version cache:
  /// when the table's publish version matches the cached one, the cached
  /// shared_ptr is reused — no atomic shared_ptr load, no refcount bounce.
  /// Slots live in a process registry so compaction and engine teardown
  /// invalidate stale entries held by idle threads (otherwise a parked
  /// pool thread would pin superseded SSTables and their extent files).
  static SnapshotPtr load_snapshot(const TableStore& store);
  /// Publishes a new snapshot and bumps the version (writer side).
  static void publish_snapshot(TableStore& store, SnapshotPtr next);

  /// nullptr when columnar extents are off; otherwise the shared encoding
  /// options handed to every SSTable build (flush and compaction alike).
  [[nodiscard]] const ExtentOptions* extent_opts() const noexcept {
    return options_.columnar_extents ? &extent_opts_ : nullptr;
  }

  /// Writes `sst`'s blocks + footer to a fresh extent file in data_dir_
  /// and attaches the sealed file. No-op unless extent_files is on.
  void persist_sstable(const std::string& table, SSTable& sst,
                       std::uint64_t flushed_lsn);

  void apply_one_locked(const WriteCommand& cmd, std::uint64_t lsn,
                        std::vector<CompactionJob>& jobs);
  void flush_store_locked(const std::string& table, TableStore& store);
  std::optional<CompactionJob> maybe_begin_compaction_locked(
      const std::string& table, TableStore& store);
  void run_compaction(CompactionJob job);
  /// Shared core of reopen_from_disk/crash_and_recover: caller holds the
  /// writer mutex; compaction jobs triggered by replay are returned.
  std::size_t reopen_locked(std::vector<CompactionJob>& jobs);

  /// LWW-reconciles candidate rows in place (sort by key then write_ts,
  /// keep the newest version of each clustering key), reverses them when
  /// asked and cuts them to `limit` (0 = all). Returns true when the cut
  /// dropped rows.
  static bool reconcile(std::vector<Row>& candidates, std::size_t limit,
                        bool reverse);

  /// Serializes apply/flush/compaction-publish/recovery.
  mutable std::mutex writer_mu_;
  StorageOptions options_;
  ExtentOptions extent_opts_;
  std::string data_dir_;          ///< resolved extent-file directory
  bool owns_data_dir_ = false;    ///< scratch subdir removed in dtor
  std::atomic<std::uint64_t> next_file_seq_{1};
  FaultInjector* injector_ = nullptr;  ///< not owned; see set_fault_injector
  std::size_t injector_node_ = 0;
  CommitLog log_;
  /// Guards the table map structure (insertions vs. reader lookups).
  mutable std::shared_mutex map_mu_;
  std::map<std::string, TableStore> tables_;
  mutable Counters counters_;
};

}  // namespace hpcla::cassalite
