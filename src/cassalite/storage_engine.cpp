#include "cassalite/storage_engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <system_error>
#include <utility>

#include "common/block_cache.hpp"
#include "common/clock.hpp"
#include "common/faultsim.hpp"
#include "common/scratch.hpp"
#include "common/status.hpp"
#include "common/telemetry.hpp"

namespace hpcla::cassalite {
namespace {

bool env_flag(const char* name, bool fallback) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return fallback;
  return std::string_view(e) != "0";
}

// Numeric suffix of an "ext-<n>.extent" file name, 0 when the name does
// not match. Reopen seeds the fresh-file sequence from these — file names
// are numbered by a process-global counter, so per-table generations say
// nothing about which names are taken on disk.
std::uint64_t extent_file_seq(const std::filesystem::path& path) {
  const std::string stem = path.stem().string();  // "ext-<n>"
  constexpr std::string_view kPrefix = "ext-";
  if (stem.size() <= kPrefix.size() || stem.compare(0, kPrefix.size(), kPrefix) != 0) {
    return 0;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = kPrefix.size(); i < stem.size(); ++i) {
    const char c = stem[i];
    if (c < '0' || c > '9') return 0;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

// Thread-local snapshot cache slot (see load_snapshot), registered
// process-wide so the engine can invalidate entries held by threads that
// are no longer reading: without this, an idle pool thread's cached
// snapshot pins superseded SSTables — and their remove_on_close() extent
// files — until that thread happens to read again or exits. The per-slot
// mutex is uncontended on the read path (only invalidation sweeps, which
// ride on rare compactions and engine teardown, contend for it).
struct SnapshotCacheSlot {
  std::mutex mu;
  std::uint64_t table_id = 0;
  std::uint64_t version = 0;
  std::shared_ptr<const void> snap;
};

class SnapshotCacheRegistry {
 public:
  static SnapshotCacheRegistry& instance() {
    // Leaked: thread_local slot destructors may outlive function statics.
    static auto* reg = new SnapshotCacheRegistry();
    return *reg;
  }
  void add(SnapshotCacheSlot* slot) {
    std::lock_guard lock(mu_);
    slots_.push_back(slot);
  }
  void remove(SnapshotCacheSlot* slot) {
    std::lock_guard lock(mu_);
    std::erase(slots_, slot);
  }
  /// Drops every thread's cached snapshot of one table (by store id).
  void invalidate(std::uint64_t table_id) {
    std::lock_guard lock(mu_);
    for (SnapshotCacheSlot* slot : slots_) {
      std::lock_guard slot_lock(slot->mu);
      if (slot->table_id == table_id) {
        slot->table_id = 0;
        slot->version = 0;
        slot->snap.reset();
      }
    }
  }

 private:
  std::mutex mu_;
  std::vector<SnapshotCacheSlot*> slots_;
};

SnapshotCacheSlot& thread_snapshot_slot() {
  struct Registered {
    SnapshotCacheSlot slot;
    Registered() { SnapshotCacheRegistry::instance().add(&slot); }
    ~Registered() { SnapshotCacheRegistry::instance().remove(&slot); }
  };
  thread_local Registered r;
  return r.slot;
}

}  // namespace

bool StorageOptions::columnar_extents_default() noexcept {
  return env_flag("HPCLA_COLUMNAR_EXTENTS", false);
}

bool StorageOptions::extent_files_default() noexcept {
  return env_flag("HPCLA_EXTENT_FILES", false);
}

bool StorageOptions::extent_mmap_default() noexcept {
  return env_flag("HPCLA_EXTENT_MMAP", true);
}

std::size_t StorageOptions::block_cache_bytes_default() noexcept {
  const char* e = std::getenv("HPCLA_BLOCK_CACHE_BYTES");
  if (e == nullptr || *e == '\0') return 0;
  return static_cast<std::size_t>(std::strtoull(e, nullptr, 10));
}

StorageEngine::TableStore::TableStore()
    : id([] {
        static std::atomic<std::uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()) {}

StorageEngine::StorageEngine(StorageOptions options) : options_(options) {
  if (options_.extent_files) options_.columnar_extents = true;
  extent_opts_.rows_per_group =
      std::max<std::size_t>(options_.extent_rows_per_group, 1);
  if (options_.block_cache_bytes != 0) {
    // Engines share the process-wide cache, so engine-driven sizing is
    // grow-only: constructing a small-budget engine must not mass-evict
    // a bigger engine's resident working set. Tests (or callers) that
    // need an exact or smaller budget call set_capacity directly.
    BlockCache& cache = BlockCache::instance();
    if (cache.capacity() < options_.block_cache_bytes) {
      cache.set_capacity(options_.block_cache_bytes);
    }
  }
  // Decoded-group caching only pays when the process cache can hold the
  // result; otherwise the plain move-out decode path is strictly faster.
  extent_opts_.cache_decoded =
      options_.extent_files && BlockCache::instance().capacity() != 0;
  if (options_.extent_files) {
    if (options_.data_dir.empty()) {
      data_dir_ = scratch::make_subdir("hpcla-extents");
      owns_data_dir_ = true;
    } else {
      std::error_code ec;
      std::filesystem::create_directories(options_.data_dir, ec);
      data_dir_ = options_.data_dir;
    }
    HPCLA_CHECK_MSG(!data_dir_.empty(), "cannot create extent data dir");
  }
}

StorageEngine::~StorageEngine() {
  // Release every thread's cached snapshot of this engine's tables so
  // superseded SSTables (and their extent files) die with the engine
  // instead of dangling from idle threads' caches.
  for (const auto& [_, store] : tables_) {
    SnapshotCacheRegistry::instance().invalidate(store.id);
  }
  if (owns_data_dir_) scratch::remove_all(data_dir_);
}

const StorageEngine::TableStore* StorageEngine::find_table(
    const std::string& table) const {
  std::shared_lock lock(map_mu_);
  const auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : &it->second;
}

StorageEngine::TableStore& StorageEngine::table_for_write(
    const std::string& table) {
  {
    std::shared_lock lock(map_mu_);
    const auto it = tables_.find(table);
    if (it != tables_.end()) return it->second;
  }
  std::unique_lock lock(map_mu_);
  return tables_[table];
}

StorageEngine::SnapshotPtr StorageEngine::load_snapshot(
    const TableStore& store) {
  // One-entry thread-local cache keyed by (table id, publish version).
  // Publishes are rare next to reads, so the hot path degenerates to an
  // uncontended thread-owned lock plus two loads — the atomic shared_ptr
  // load below serializes readers on the control block's refcount (and on
  // a spinlock in libstdc++'s non-lock-free atomic<shared_ptr>), which is
  // what flattened read scaling at 8 threads before this cache existed.
  // The slot is registry-visible so compaction and engine teardown can
  // clear stale entries out from under idle threads (hence the lock).
  SnapshotCacheSlot& slot = thread_snapshot_slot();
  const std::uint64_t version =
      store.snapshot_version.load(std::memory_order_acquire);
  {
    std::lock_guard lock(slot.mu);
    if (slot.table_id == store.id && slot.version == version &&
        slot.snap != nullptr) {
      return std::static_pointer_cast<const TableSnapshot>(slot.snap);
    }
  }
  // Safety: a reader that must observe a publish (because it already
  // observed the corresponding memtable drain via mem_mu) sees the bumped
  // version — publish stores the snapshot before bumping, and the drain
  // happens after the bump, so lock acquisition ordering carries the new
  // version to the reader and the mismatch forces a fresh load here.
  SnapshotPtr snap = store.snapshot.load(std::memory_order_acquire);
  {
    std::lock_guard lock(slot.mu);
    slot.table_id = store.id;
    slot.version = version;
    slot.snap = snap;
  }
  return snap;
}

void StorageEngine::publish_snapshot(TableStore& store, SnapshotPtr next) {
  store.snapshot.store(std::move(next), std::memory_order_release);
  store.snapshot_version.fetch_add(1, std::memory_order_release);
}

void StorageEngine::apply(const WriteCommand& cmd) {
  std::vector<CompactionJob> jobs;
  {
    std::lock_guard writer(writer_mu_);
    const std::uint64_t lsn = log_.append(cmd);
    apply_one_locked(cmd, lsn, jobs);
  }
  counters_.writes.fetch_add(1, std::memory_order_relaxed);
  for (auto& job : jobs) run_compaction(std::move(job));
}

bool StorageEngine::try_apply(const WriteCommand& cmd) {
  // Fault fires before the commit-log append: a transiently failed write
  // leaves no trace on this node, exactly like a dropped network mutation.
  if (injector_ != nullptr && injector_->fail_write(injector_node_)) {
    return false;
  }
  apply(cmd);
  return true;
}

void StorageEngine::set_fault_injector(FaultInjector* injector,
                                       std::size_t node) {
  injector_ = injector;
  injector_node_ = node;
}

void StorageEngine::apply_one_locked(const WriteCommand& cmd,
                                     std::uint64_t lsn,
                                     std::vector<CompactionJob>& jobs) {
  TableStore& store = table_for_write(cmd.table);
  {
    std::unique_lock mem(store.mem_mu);
    store.memtable.put(cmd.partition_key, cmd.row);
  }
  store.applied_lsn = std::max(store.applied_lsn, lsn);
  if (store.memtable.memory_bytes() >= options_.memtable_flush_bytes) {
    flush_store_locked(cmd.table, store);
    if (auto job = maybe_begin_compaction_locked(cmd.table, store)) {
      jobs.push_back(std::move(*job));
    }
  }
}

void StorageEngine::persist_sstable(const std::string& table, SSTable& sst,
                                    std::uint64_t flushed_lsn) {
  if (!options_.extent_files) return;
  // Never reuse a name already present on disk: the writer truncates, and
  // an existing file may be live (mmapped by a published SSTable). Reopen
  // seeds the sequence past everything it scanned, so this loop only
  // skips names raced in by a foreign writer sharing the directory.
  std::string path;
  std::error_code exists_ec;
  do {
    path = data_dir_ + "/ext-" +
           std::to_string(
               next_file_seq_.fetch_add(1, std::memory_order_relaxed)) +
           ".extent";
  } while (std::filesystem::exists(path, exists_ec));
  ExtentFileWriter writer(path);
  ExtentFileFooter footer;
  footer.table = table;
  footer.generation = sst.generation();
  footer.flushed_lsn = flushed_lsn;
  sst.persist_to(writer, footer);
  writer.finish(footer);
  auto file = ExtentFile::open(path, options_.extent_mmap);
  HPCLA_CHECK_MSG(file != nullptr, "cannot reopen sealed extent file");
  sst.attach_file(file);
  counters_.extent_files_written.fetch_add(1, std::memory_order_relaxed);
}

void StorageEngine::flush_store_locked(const std::string& table,
                                       TableStore& store) {
  if (store.memtable.empty()) return;
  // Writers are excluded by writer_mu_, so a shared lock is enough for a
  // consistent copy even while readers stream through. Rows are copied
  // straight into SSTable partitions (one copy, not map-clone + move).
  std::vector<SSTable::Partition> partitions;
  {
    std::shared_lock mem(store.mem_mu);
    const auto& frozen = store.memtable.partitions();
    partitions.reserve(frozen.size());
    for (const auto& [key, rows] : frozen) {
      partitions.push_back(SSTable::Partition{key, rows});
    }
  }
  auto sst = std::make_shared<SSTable>(store.next_generation++,
                                       std::move(partitions), extent_opts());
  // The footer covers every mutation currently in the memtable, i.e.
  // everything up to applied_lsn (which becomes flushed_lsn below).
  persist_sstable(table, *sst, store.applied_lsn);

  // Publish BEFORE drain: a reader checks the memtable first, so between
  // publish and drain it sees the rows twice (reconciled) — never zero.
  const SnapshotPtr old = store.snapshot.load(std::memory_order_relaxed);
  auto next = std::make_shared<TableSnapshot>();
  next->sstables = old->sstables;
  next->sstables.push_back(std::move(sst));
  publish_snapshot(store, std::move(next));
  // The drained map is freed after the lock scope, so readers do not wait
  // on the deallocation of a whole memtable.
  std::map<std::string, std::vector<Row>> drained;
  {
    std::unique_lock mem(store.mem_mu);
    drained = store.memtable.drain();
  }
  store.flushed_lsn = store.applied_lsn;
  counters_.memtable_flushes.fetch_add(1, std::memory_order_relaxed);

  // Commit-log entries at or below the minimum flushed LSN across tables
  // are durable in SSTables and can be recycled. (Holding writer_mu_ makes
  // iterating tables_ safe: only writers insert.)
  std::uint64_t min_unflushed = log_.last_lsn();
  for (const auto& [_, t] : tables_) {
    if (t.applied_lsn > t.flushed_lsn) {
      // This table still has memtable-only data covering (flushed, applied].
      min_unflushed = std::min(min_unflushed, t.flushed_lsn);
    }
  }
  log_.truncate(min_unflushed);
}

std::optional<StorageEngine::CompactionJob>
StorageEngine::maybe_begin_compaction_locked(const std::string& table,
                                             TableStore& store) {
  const SnapshotPtr snap = store.snapshot.load(std::memory_order_relaxed);
  if (snap->sstables.size() < options_.compaction_threshold ||
      store.compacting) {
    return std::nullopt;
  }
  store.compacting = true;
  CompactionJob job;
  job.store = &store;
  job.table = table;
  job.inputs = snap->sstables;
  job.generation = store.next_generation++;
  return job;
}

void StorageEngine::run_compaction(CompactionJob job) {
  // The heavy merge runs with no lock held: readers keep reading the old
  // snapshot, writers keep appending new SSTables behind our inputs.
  std::shared_ptr<SSTable> merged =
      compact(job.generation, job.inputs, extent_opts());
  // The merged run covers exactly what its inputs covered: take the
  // newest input footer LSN (0 when inputs are purely in-memory).
  std::uint64_t covered_lsn = 0;
  for (const auto& input : job.inputs) {
    if (const auto& f = input->extent_file()) {
      covered_lsn = std::max(covered_lsn, f->footer().flushed_lsn);
    }
  }
  persist_sstable(job.table, *merged, covered_lsn);

  Stopwatch publish_watch;
  {
    std::lock_guard writer(writer_mu_);
    // Our inputs are a stable prefix of the current list: only flushes
    // append (behind them) and only one compaction per table is in flight.
    const SnapshotPtr cur = job.store->snapshot.load(std::memory_order_relaxed);
    auto next = std::make_shared<TableSnapshot>();
    next->sstables.reserve(cur->sstables.size() - job.inputs.size() + 1);
    next->sstables.push_back(std::move(merged));
    next->sstables.insert(
        next->sstables.end(),
        cur->sstables.begin() +
            static_cast<std::ptrdiff_t>(job.inputs.size()),
        cur->sstables.end());
    publish_snapshot(*job.store, std::move(next));
    job.store->compacting = false;
  }
  // Idle threads' cached snapshots would otherwise pin the superseded
  // inputs (and their files) indefinitely; clear them now. Threads that
  // reloaded the new snapshot just refill on their next read.
  SnapshotCacheRegistry::instance().invalidate(job.store->id);
  // Superseded runs' files go when their last reader drops the handle
  // (in-flight snapshots may still be streaming from them).
  for (const auto& input : job.inputs) {
    if (const auto& f = input->extent_file()) f->remove_on_close();
  }
  counters_.compactions.fetch_add(1, std::memory_order_relaxed);
  counters_.compaction_stall_us.fetch_add(
      static_cast<std::uint64_t>(publish_watch.elapsed_micros()),
      std::memory_order_relaxed);
}

bool StorageEngine::reconcile(std::vector<Row>& candidates, std::size_t limit,
                              bool reverse) {
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Row& a, const Row& b) {
                     const auto c = a.key.compare(b.key);
                     if (c != std::strong_ordering::equal) {
                       return c == std::strong_ordering::less;
                     }
                     return a.write_ts < b.write_ts;
                   });
  // Keep the newest version of each clustering key.
  std::size_t out = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (out != 0 && candidates[out - 1].key == candidates[i].key) {
      candidates[out - 1] = std::move(candidates[i]);
    } else {
      if (out != i) candidates[out] = std::move(candidates[i]);
      ++out;
    }
  }
  candidates.resize(out);
  if (reverse) std::reverse(candidates.begin(), candidates.end());
  if (limit == 0 || candidates.size() <= limit) return false;
  candidates.resize(limit);
  return true;
}

ReadResult StorageEngine::read(const ReadQuery& q) const {
  counters_.reads.fetch_add(1, std::memory_order_relaxed);
  ReadResult result;
  const TableStore* store = find_table(q.table);
  if (store == nullptr) return result;
  counters_.snapshot_reads.fetch_add(1, std::memory_order_relaxed);

  // Each run serves at most `limit + 1` rows (the per-run cut of
  // scan_partitions): the merged first `limit + 1` lie among them, so
  // `truncated` stays exact. A limit of SIZE_MAX wraps to 0: whole runs.
  const LimitedSlice want{q.slice, q.limit == 0 ? 0 : q.limit + 1, q.reverse};
  // Memtable BEFORE snapshot: flush publishes before draining, so this
  // order can only duplicate rows across the two sources, never lose them.
  std::vector<Row> candidates;
  {
    std::shared_lock mem(store->mem_mu);
    store->memtable.read(q.partition_key, want, candidates);
  }
  const SnapshotPtr snap = load_snapshot(*store);
  for (const auto& sst : snap->sstables) {
    counters_.sstables_read.fetch_add(1, std::memory_order_relaxed);
    if (!sst->read(q.partition_key, want, candidates)) {
      counters_.bloom_rejections.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (candidates.empty()) return result;
  result.truncated = reconcile(candidates, q.limit, q.reverse);
  result.rows = std::move(candidates);
  return result;
}

void StorageEngine::scan_partitions(
    const std::string& table, const std::vector<std::string>& keys,
    const LimitedSlice& want,
    const std::function<void(const std::string& key, std::vector<Row> rows)>&
        fn) const {
  telemetry::Span span("cassalite.scan");
  // Stats deltas are whole-process (other threads contribute), so only
  // worth the shard walk when a trace is actually recording.
  const bool tag_cache = span.active() && extent_opts_.cache_decoded;
  const BlockCache::Stats cache_before =
      tag_cache ? BlockCache::instance().stats() : BlockCache::Stats{};

  const TableStore* store = find_table(table);
  if (store == nullptr) {
    for (const auto& key : keys) fn(key, {});
    return;
  }
  counters_.snapshot_reads.fetch_add(1, std::memory_order_relaxed);

  std::vector<std::string> scan_keys = keys;
  if (scan_keys.empty()) {
    // Whole-table scan: union of live and flushed keys. The memtable is
    // listed before the snapshot (same ordering argument as read()); a
    // newer snapshot in the data pass only adds duplicates, which
    // reconcile away.
    std::set<std::string> all;
    {
      std::shared_lock mem(store->mem_mu);
      auto live = store->memtable.partition_keys();
      all.insert(std::make_move_iterator(live.begin()),
                 std::make_move_iterator(live.end()));
    }
    const SnapshotPtr snap = load_snapshot(*store);
    for (const auto& sst : snap->sstables) {
      for (auto& k : sst->partition_keys()) all.insert(std::move(k));
    }
    scan_keys.assign(all.begin(), all.end());
  }

  counters_.reads.fetch_add(scan_keys.size(), std::memory_order_relaxed);
  // Process in chunks: one shared-lock + snapshot acquisition covers a
  // whole chunk (amortized synchronization) while the merge stays
  // cache-hot. Memtable-before-snapshot order per chunk, as in read().
  // Each run contributes at most `want.limit` rows: runs hold one row per
  // clustering key and there are no deletes, so a key among the merged
  // first n sits among the first n of every run that holds it.
  constexpr std::size_t kChunk = 16;
  std::vector<std::vector<Row>> mem_rows(std::min(kChunk, scan_keys.size()));
  for (std::size_t begin = 0; begin < scan_keys.size(); begin += kChunk) {
    const std::size_t end = std::min(begin + kChunk, scan_keys.size());
    {
      std::shared_lock mem(store->mem_mu);
      for (std::size_t k = begin; k < end; ++k) {
        mem_rows[k - begin].clear();
        store->memtable.read(scan_keys[k], want, mem_rows[k - begin]);
      }
    }
    const SnapshotPtr snap = load_snapshot(*store);
    for (std::size_t k = begin; k < end; ++k) {
      const std::string& key = scan_keys[k];
      std::vector<Row> candidates = std::move(mem_rows[k - begin]);
      for (const auto& sst : snap->sstables) {
        counters_.sstables_read.fetch_add(1, std::memory_order_relaxed);
        if (!sst->read(key, want, candidates)) {
          counters_.bloom_rejections.fetch_add(1, std::memory_order_relaxed);
        }
      }
      reconcile(candidates, want.limit, want.reverse);
      fn(key, std::move(candidates));
    }
  }

  if (span.active()) {
    span.tag("table", table);
    span.tag("keys", static_cast<std::uint64_t>(scan_keys.size()));
    if (tag_cache) {
      const BlockCache::Stats after = BlockCache::instance().stats();
      span.tag("blockcache_hits", after.hits - cache_before.hits);
      span.tag("blockcache_misses", after.misses - cache_before.misses);
    }
  }
}

std::vector<std::string> StorageEngine::partition_keys(
    const std::string& table) const {
  const TableStore* store = find_table(table);
  if (store == nullptr) return {};
  std::set<std::string> keys;
  {
    std::shared_lock mem(store->mem_mu);
    for (auto& k : store->memtable.partition_keys()) keys.insert(std::move(k));
  }
  const SnapshotPtr snap = load_snapshot(*store);
  for (const auto& sst : snap->sstables) {
    for (auto& k : sst->partition_keys()) keys.insert(std::move(k));
  }
  return {keys.begin(), keys.end()};
}

std::vector<std::string> StorageEngine::table_names() const {
  std::shared_lock lock(map_mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, _] : tables_) out.push_back(name);
  return out;  // std::map iteration order: already sorted
}

std::uint64_t StorageEngine::approximate_rows(const std::string& table) const {
  const TableStore* store = find_table(table);
  if (store == nullptr) return 0;
  std::uint64_t total = 0;
  {
    std::shared_lock mem(store->mem_mu);
    total += store->memtable.row_count();
  }
  const SnapshotPtr snap = load_snapshot(*store);
  for (const auto& sst : snap->sstables) total += sst->row_count();
  return total;
}

std::size_t StorageEngine::reopen_locked(std::vector<CompactionJob>& jobs) {
  // Drop every in-memory structure: memtables are gone (a crash loses
  // them), and with extent files on the SSTable objects themselves are
  // rebuilt from disk rather than trusted.
  for (auto& [_, store] : tables_) {
    std::map<std::string, std::vector<Row>> drained;  // freed unlocked
    {
      std::unique_lock mem(store.mem_mu);
      drained = store.memtable.drain();
    }
    if (options_.extent_files) {
      publish_snapshot(store, std::make_shared<TableSnapshot>());
      store.flushed_lsn = 0;
      store.next_generation = 1;
    }
    store.applied_lsn = store.flushed_lsn;
  }

  if (options_.extent_files) {
    // Scan the data dir for sealed extent files. Files that fail to open
    // (torn writes, foreign files) are skipped, not fatal — but their
    // names still count toward the fresh-file sequence below, so a later
    // flush can never truncate a path that exists on disk.
    std::map<std::string, std::vector<std::shared_ptr<ExtentFile>>> by_table;
    std::uint64_t max_seq = 0;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(data_dir_, ec)) {
      if (!entry.is_regular_file() ||
          entry.path().extension() != ".extent") {
        continue;
      }
      max_seq = std::max(max_seq, extent_file_seq(entry.path()));
      if (auto file =
              ExtentFile::open(entry.path().string(), options_.extent_mmap)) {
        by_table[file->footer().table].push_back(std::move(file));
      }
    }
    for (auto& [table, files] : by_table) {
      // Ascending generation restores flush order (compaction outputs carry
      // a generation above their inputs', so they sort behind them too).
      std::sort(files.begin(), files.end(),
                [](const auto& a, const auto& b) {
                  return a->footer().generation < b->footer().generation;
                });
      TableStore& store = table_for_write(table);
      auto next = std::make_shared<TableSnapshot>();
      for (auto& file : files) {
        store.next_generation =
            std::max(store.next_generation, file->footer().generation + 1);
        store.flushed_lsn =
            std::max(store.flushed_lsn, file->footer().flushed_lsn);
        next->sstables.push_back(
            SSTable::from_extent_file(std::move(file), extent_opts_));
      }
      store.applied_lsn = store.flushed_lsn;
      publish_snapshot(store, std::move(next));
    }
    // Keep fresh file names clear of anything already in the directory.
    // max_seq comes from the file names themselves, NOT from per-table
    // generations: the sequence is process-global across tables, so the
    // per-table generation max can sit below a live file's number.
    std::uint64_t seq = next_file_seq_.load(std::memory_order_relaxed);
    next_file_seq_.store(std::max(seq, max_seq + 1),
                         std::memory_order_relaxed);
  }

  // Replay everything newer than the oldest flushed point. Replaying a
  // mutation that already reached an SSTable is harmless: reconciliation
  // is last-write-wins on identical write_ts.
  std::uint64_t min_flushed = log_.last_lsn();
  for (const auto& [_, store] : tables_) {
    min_flushed = std::min(min_flushed, store.flushed_lsn);
  }
  const auto entries = log_.replay(min_flushed);
  std::uint64_t lsn = min_flushed;
  for (const auto& cmd : entries) {
    apply_one_locked(cmd, ++lsn, jobs);
  }
  return entries.size();
}

std::size_t StorageEngine::crash_and_recover() {
  std::vector<CompactionJob> jobs;
  std::size_t replayed = 0;
  {
    std::lock_guard writer(writer_mu_);
    replayed = reopen_locked(jobs);
  }
  for (auto& job : jobs) run_compaction(std::move(job));
  return replayed;
}

std::size_t StorageEngine::reopen_from_disk() {
  HPCLA_CHECK_MSG(options_.extent_files,
                  "reopen_from_disk requires extent_files");
  return crash_and_recover();
}

StorageMetrics StorageEngine::metrics() const {
  StorageMetrics m;
  m.writes = counters_.writes.load(std::memory_order_relaxed);
  m.reads = counters_.reads.load(std::memory_order_relaxed);
  m.memtable_flushes =
      counters_.memtable_flushes.load(std::memory_order_relaxed);
  m.compactions = counters_.compactions.load(std::memory_order_relaxed);
  m.sstables_read = counters_.sstables_read.load(std::memory_order_relaxed);
  m.bloom_rejections =
      counters_.bloom_rejections.load(std::memory_order_relaxed);
  m.snapshot_reads = counters_.snapshot_reads.load(std::memory_order_relaxed);
  m.compaction_stall_us =
      counters_.compaction_stall_us.load(std::memory_order_relaxed);
  m.extent_files_written =
      counters_.extent_files_written.load(std::memory_order_relaxed);
  // Extent accounting reflects the currently published SSTables (it shrinks
  // when compaction supersedes runs). Tables are never erased and map nodes
  // are stable, so a shared map lock plus acquire snapshot loads suffice.
  {
    std::shared_lock map(map_mu_);
    for (const auto& [_, store] : tables_) {
      const SnapshotPtr snap = store.snapshot.load(std::memory_order_acquire);
      for (const auto& sst : snap->sstables) {
        m.extent_raw_bytes += sst->extent_raw_bytes();
        m.extent_encoded_bytes += sst->extent_encoded_bytes();
      }
    }
  }
  return m;
}

void StorageEngine::flush_all() {
  std::vector<CompactionJob> jobs;
  {
    std::lock_guard writer(writer_mu_);
    for (auto& [table, store] : tables_) {
      flush_store_locked(table, store);
      if (auto job = maybe_begin_compaction_locked(table, store)) {
        jobs.push_back(std::move(*job));
      }
    }
  }
  for (auto& job : jobs) run_compaction(std::move(job));
}

}  // namespace hpcla::cassalite
