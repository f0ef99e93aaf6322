// Out-of-core extent-file tests (DESIGN.md §14): footer roundtrip through
// a sealed file, lazy block fetch with group pruning on cold slice reads,
// BlockCache reuse on warm reads, engine-level crash recovery and cold
// start from disk (byte-identical reads), compaction unlinking superseded
// files, and reopen-from-disk shrugging off malformed files.
#include "cassalite/extent_file.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "cassalite/extent.hpp"
#include "cassalite/sstable.hpp"
#include "cassalite/storage_engine.hpp"
#include "common/block_cache.hpp"
#include "common/scratch.hpp"

namespace hpcla::cassalite {
namespace {

Row make_row(std::int64_t ck, std::int64_t ts) {
  Row r;
  r.key.parts = {Value(ck)};
  r.write_ts = ts;
  return r;
}

std::vector<Row> sample_rows(std::int64_t n) {
  std::vector<Row> rows;
  for (std::int64_t i = 0; i < n; ++i) {
    Row r = make_row(i, 1000 + i);
    r.set("node", Value(i % 32));
    r.set("score", Value(0.25 * static_cast<double>(i)));
    r.set("msg", Value(std::string("event class ") + std::to_string(i % 6)));
    rows.push_back(std::move(r));
  }
  return rows;
}

/// Encodes `rows` into a sealed single-partition extent file at `path`
/// and returns the file-backed extent rebuilt from its footer.
ColumnarExtent persist_one_partition(const std::vector<Row>& rows,
                                     const std::string& path,
                                     const ExtentOptions& opts,
                                     bool use_mmap) {
  auto ext = ColumnarExtent::encode(rows, opts);
  const std::uint64_t raw = ext.raw_bytes();
  ExtentFileWriter writer(path);
  ext.persist([&](std::string_view block) { return writer.append(block); });
  ExtentFileFooter footer;
  footer.table = "events";
  footer.generation = 1;
  footer.flushed_lsn = 7;
  ExtentFilePartition part;
  part.key = "p0";
  part.groups = ext.group_metas();
  part.rows = rows.size();
  part.raw_bytes = raw;
  footer.partitions.push_back(std::move(part));
  writer.finish(footer);

  auto file = ExtentFile::open(path, use_mmap);
  EXPECT_NE(file, nullptr);
  EXPECT_EQ(file->footer().table, "events");
  EXPECT_EQ(file->footer().flushed_lsn, 7u);
  EXPECT_EQ(file->footer().partitions.size(), 1u);
  return ColumnarExtent::from_file(file, file->footer().partitions[0].groups,
                                   rows.size(), raw, opts);
}

class ExtentFileTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = scratch::make_subdir("extfile-test"); }
  void TearDown() override {
    BlockCache::instance().set_capacity(0);
    scratch::remove_all(dir_);
  }
  std::string dir_;
};

TEST_F(ExtentFileTest, RoundTripsThroughSealedFile) {
  const auto rows = sample_rows(500);
  for (const bool mmap : {true, false}) {
    ExtentOptions opts;
    opts.rows_per_group = 64;
    const auto cold = persist_one_partition(
        rows, dir_ + (mmap ? "/a.extent" : "/b.extent"), opts, mmap);
    EXPECT_TRUE(cold.file_backed());
    EXPECT_EQ(cold.file()->mapped(), mmap);
    EXPECT_EQ(cold.decode_all(), rows) << "mmap=" << mmap;
  }
}

TEST_F(ExtentFileTest, ColdSliceReadFetchesOnlyIntersectingBlocks) {
  const auto rows = sample_rows(1000);
  ExtentOptions opts;
  opts.rows_per_group = 100;
  const auto cold =
      persist_one_partition(rows, dir_ + "/c.extent", opts, true);
  ASSERT_EQ(cold.group_count(), 10u);

  ClusteringSlice slice;
  slice.lower = ClusteringKey::of({Value(450)});
  slice.upper = ClusteringKey::of({Value(460)});
  std::vector<Row> out;
  cold.read({slice}, out);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out.front().key.parts[0].as_int(), 450);
  // Pruning happens on the footer's uncompressed first/last keys — only
  // the intersecting group (plus at most one boundary neighbor) is
  // fetched from disk and decoded.
  EXPECT_LE(cold.decoded_groups(), 2u);
}

TEST_F(ExtentFileTest, WarmReReadsServeFromBlockCache) {
  BlockCache::instance().set_capacity(16u << 20);
  const auto rows = sample_rows(800);
  ExtentOptions opts;
  opts.rows_per_group = 64;
  opts.cache_decoded = true;
  const auto cold =
      persist_one_partition(rows, dir_ + "/d.extent", opts, true);

  const auto before = BlockCache::instance().stats();
  EXPECT_EQ(cold.decode_all(), rows);  // cold pass decodes every group
  const std::uint64_t cold_decodes = cold.decoded_groups();
  EXPECT_EQ(cold_decodes, cold.group_count());

  EXPECT_EQ(cold.decode_all(), rows);  // warm pass: all cache hits
  const auto after = BlockCache::instance().stats();
  EXPECT_EQ(cold.decoded_groups(), cold_decodes)
      << "warm re-read must not decode blocks again";
  EXPECT_GE(after.hits - before.hits, cold.group_count());
  const double hit_rate =
      static_cast<double>(after.hits - before.hits) /
      static_cast<double>((after.hits - before.hits) +
                          (after.misses - before.misses));
  EXPECT_GE(hit_rate, 0.5);
}

TEST_F(ExtentFileTest, OpenRejectsFooterWithOutOfBoundsGroups) {
  // A footer can decode cleanly yet index blocks outside the file (bit
  // rot, crafted input). open() must reject it — fetch() would otherwise
  // read past the mapping, and `offset + length` can even wrap uint64.
  struct Case {
    std::uint64_t offset;
    std::uint32_t length;
  };
  const Case cases[] = {
      {~std::uint64_t{0} - 4, 100},  // offset + length wraps past zero
      {1u << 30, 8},                 // offset beyond EOF
      {0, ~std::uint32_t{0}},        // length beyond EOF
  };
  int n = 0;
  for (const Case& c : cases) {
    const std::string path = dir_ + "/oob" + std::to_string(n++) + ".extent";
    {
      ExtentFileWriter writer(path);
      writer.append("some block bytes");
      ExtentFileFooter footer;
      footer.table = "events";
      footer.generation = 1;
      ExtentFilePartition part;
      part.key = "p0";
      ExtentGroupMeta g;
      g.rows = 1;
      g.raw_size = 8;
      g.offset = c.offset;
      g.length = c.length;
      part.groups.push_back(g);
      part.rows = 1;
      footer.partitions.push_back(std::move(part));
      writer.finish(footer);
    }
    EXPECT_EQ(ExtentFile::open(path, true), nullptr)
        << "offset=" << c.offset << " length=" << c.length;
  }
}

TEST_F(ExtentFileTest, OpenRejectsMalformedFiles) {
  // Truncated / garbage / empty files must yield nullptr, not a crash.
  const std::string junk = dir_ + "/junk.extent";
  { std::ofstream(junk) << "HPEXT1\nnot really a footer"; }
  EXPECT_EQ(ExtentFile::open(junk, true), nullptr);
  const std::string empty = dir_ + "/empty.extent";
  { std::ofstream touch(empty); }
  EXPECT_EQ(ExtentFile::open(empty, true), nullptr);
  EXPECT_EQ(ExtentFile::open(dir_ + "/missing.extent", true), nullptr);
}

// ------------------------------------------------------------ engine level

StorageOptions out_of_core_options(const std::string& dir) {
  StorageOptions opts;
  opts.extent_files = true;
  opts.data_dir = dir;
  opts.memtable_flush_bytes = 32u << 10;  // many flushes
  opts.compaction_threshold = 4;
  opts.extent_rows_per_group = 64;
  return opts;
}

void write_workload(StorageEngine& eng, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    WriteCommand cmd;
    cmd.table = "events";
    cmd.partition_key = "node-" + std::to_string(i % 5);
    cmd.row = make_row(i, 1000 + i);
    cmd.row.set("count", Value(i % 13));
    cmd.row.set("msg", Value(std::string("event class ") +
                             std::to_string(i % 6)));
    eng.apply(cmd);
  }
  // Overwrites exercising LWW reconciliation across runs.
  for (std::int64_t i = 0; i < n; i += 10) {
    WriteCommand cmd;
    cmd.table = "events";
    cmd.partition_key = "node-" + std::to_string(i % 5);
    cmd.row = make_row(i, 999999 + i);
    cmd.row.set("count", Value(-7));
    eng.apply(cmd);
  }
}

std::vector<std::vector<Row>> collect_all(const StorageEngine& eng) {
  std::vector<std::vector<Row>> out;
  for (int p = 0; p < 5; ++p) {
    ReadQuery q;
    q.table = "events";
    q.partition_key = "node-" + std::to_string(p);
    out.push_back(eng.read(q).rows);
  }
  return out;
}

std::size_t extent_file_count(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".extent") ++n;
  }
  return n;
}

TEST_F(ExtentFileTest, CrashRecoveryReadsAreByteIdentical) {
  StorageEngine eng(out_of_core_options(dir_ + "/crash"));
  write_workload(eng, 3000);
  // Deliberately leave unflushed memtable rows: recovery must merge the
  // extent files with the commit-log replay.
  const auto before = collect_all(eng);
  const auto metrics_before = eng.metrics();
  EXPECT_GT(metrics_before.extent_files_written, 0u);

  const std::size_t replayed = eng.crash_and_recover();
  EXPECT_GT(replayed, 0u) << "unflushed tail should replay from the log";
  EXPECT_EQ(collect_all(eng), before);

  // Cold start exercises the same path explicitly.
  (void)eng.reopen_from_disk();
  EXPECT_EQ(collect_all(eng), before);
}

TEST_F(ExtentFileTest, FreshEngineReopensFromDiskByteIdentical) {
  const std::string data = dir_ + "/reopen";
  std::vector<std::vector<Row>> before;
  {
    StorageEngine eng(out_of_core_options(data));
    write_workload(eng, 2500);
    eng.flush_all();  // everything durable in extent files
    before = collect_all(eng);
  }
  // The engine is gone; explicit data_dir survives. A stray junk file in
  // the directory must be skipped, not fatal.
  { std::ofstream(data + "/stray.extent") << "garbage"; }
  StorageEngine fresh(out_of_core_options(data));
  (void)fresh.reopen_from_disk();
  EXPECT_EQ(collect_all(fresh), before);
  EXPECT_GT(fresh.metrics().extent_raw_bytes, 0u);
}

TEST_F(ExtentFileTest, CompactionUnlinksSupersededFiles) {
  const std::string data = dir_ + "/compact";
  StorageEngine eng(out_of_core_options(data));
  write_workload(eng, 6000);
  eng.flush_all();
  const auto m = eng.metrics();
  EXPECT_GT(m.compactions, 0u);
  // Every published SSTable owns exactly one live extent file; inputs
  // superseded by compaction are unlinked once unreferenced.
  EXPECT_LT(extent_file_count(data), m.extent_files_written);
  const auto before = collect_all(eng);
  (void)eng.reopen_from_disk();
  EXPECT_EQ(collect_all(eng), before)
      << "reopen after compaction must see only live files";
}

TEST_F(ExtentFileTest, EngineWarmReadsHitBlockCache) {
  StorageOptions opts = out_of_core_options(dir_ + "/cache");
  opts.block_cache_bytes = 16u << 20;
  StorageEngine eng(opts);
  write_workload(eng, 3000);
  eng.flush_all();

  const auto cold_stats = BlockCache::instance().stats();
  const auto first = collect_all(eng);   // populates the cache
  const auto mid_stats = BlockCache::instance().stats();
  EXPECT_EQ(collect_all(eng), first);    // warm re-read
  const auto warm_stats = BlockCache::instance().stats();

  EXPECT_GT(mid_stats.inserts - cold_stats.inserts, 0u);
  const std::uint64_t warm_hits = warm_stats.hits - mid_stats.hits;
  const std::uint64_t warm_misses = warm_stats.misses - mid_stats.misses;
  ASSERT_GT(warm_hits + warm_misses, 0u);
  const double hit_rate =
      static_cast<double>(warm_hits) /
      static_cast<double>(warm_hits + warm_misses);
  EXPECT_GE(hit_rate, 0.9) << "warm re-read should be >=90% cache hits";
}

TEST_F(ExtentFileTest, ReopenNeverTruncatesLiveFilesAcrossTables) {
  // File names carry a process-global sequence while generations are
  // per-table, so with 2+ tables the per-table generation max sits below
  // the highest file number on disk. Reopen must seed fresh names from
  // the file names themselves: the first post-reopen flush used to pick
  // a live file's name and truncate it out from under its mmapped,
  // just-rebuilt SSTable.
  const std::string data = dir_ + "/twotables";
  StorageOptions opts = out_of_core_options(data);
  opts.compaction_threshold = 100;  // keep generations low and stable

  auto write_to = [&](StorageEngine& eng, const std::string& table,
                      std::int64_t base, std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      WriteCommand cmd;
      cmd.table = table;
      cmd.partition_key = "p" + std::to_string(i % 3);
      cmd.row = make_row(base + i, 1000 + base + i);
      cmd.row.set("msg", Value(table + " payload " + std::to_string(i)));
      eng.apply(cmd);
    }
    eng.flush_all();
  };
  auto read_table = [&](StorageEngine& eng, const std::string& table) {
    std::vector<std::vector<Row>> out;
    for (int p = 0; p < 3; ++p) {
      ReadQuery q;
      q.table = table;
      q.partition_key = "p" + std::to_string(p);
      out.push_back(eng.read(q).rows);
    }
    return out;
  };

  std::vector<std::vector<Row>> alpha_before, beta_before;
  {
    // Interleaved flushes: alpha and beta each reach generation 2, but
    // the files on disk are ext-1..ext-4 — beta's last file outnumbers
    // every table's generation.
    StorageEngine writer(opts);
    write_to(writer, "alpha", 0, 300);
    write_to(writer, "beta", 0, 300);
    write_to(writer, "alpha", 300, 300);
    write_to(writer, "beta", 300, 300);
    alpha_before = read_table(writer, "alpha");
    beta_before = read_table(writer, "beta");
  }

  // A fresh engine (file sequence back at 1) must reseed from the file
  // names on disk, not from per-table generations.
  StorageEngine eng(opts);
  (void)eng.reopen_from_disk();
  write_to(eng, "alpha", 600, 300);  // must claim an unused file name

  EXPECT_EQ(read_table(eng, "beta"), beta_before)
      << "post-reopen flush truncated another table's live extent file";
  const auto alpha_after = read_table(eng, "alpha");
  std::size_t rows_before = 0, rows_after = 0;
  for (const auto& p : alpha_before) rows_before += p.size();
  for (const auto& p : alpha_after) rows_after += p.size();
  EXPECT_EQ(rows_after, rows_before + 300);
}

TEST_F(ExtentFileTest, CompactionReleasesIdleThreadSnapshots) {
  // An idle thread's cached snapshot must not pin compaction inputs: the
  // invalidation sweep clears the thread-local cache so superseded extent
  // files are unlinked while the thread is still parked.
  const std::string data = dir_ + "/idle";
  StorageOptions opts = out_of_core_options(data);
  opts.compaction_threshold = 4;
  StorageEngine eng(opts);

  auto write_batch = [&](std::int64_t base) {
    for (std::int64_t i = 0; i < 200; ++i) {
      WriteCommand cmd;
      cmd.table = "events";
      cmd.partition_key = "node-" + std::to_string(i % 3);
      cmd.row = make_row(base + i, 1000 + base + i);
      eng.apply(cmd);
    }
    eng.flush_all();
  };
  write_batch(0);
  write_batch(200);  // two sealed files; no compaction yet

  std::promise<void> read_done;
  std::promise<void> release;
  std::thread idle([&] {
    ReadQuery q;
    q.table = "events";
    q.partition_key = "node-0";
    (void)eng.read(q);  // populates this thread's snapshot cache
    read_done.set_value();
    release.get_future().wait();  // park, cache entry still in TLS
  });
  read_done.get_future().wait();

  write_batch(400);
  write_batch(600);  // 4th flush triggers compaction over all four runs
  const auto m = eng.metrics();
  ASSERT_GT(m.compactions, 0u);
  // Only the merged output remains on disk — the two files pinned by the
  // parked thread's snapshot were released by the invalidation sweep.
  EXPECT_EQ(extent_file_count(data), 1u);

  release.set_value();
  idle.join();
}

TEST_F(ExtentFileTest, EngineBlockCacheSizingIsGrowOnly) {
  BlockCache::instance().set_capacity(0);
  StorageOptions big = out_of_core_options(dir_ + "/grow1");
  big.block_cache_bytes = 8u << 20;
  StorageEngine first(big);
  EXPECT_EQ(BlockCache::instance().capacity(), 8u << 20);

  // A second engine with a smaller budget must not shrink (and thereby
  // mass-evict) the cache shared by every engine in the process.
  StorageOptions small = out_of_core_options(dir_ + "/grow2");
  small.block_cache_bytes = 1u << 20;
  StorageEngine second(small);
  EXPECT_EQ(BlockCache::instance().capacity(), 8u << 20);

  StorageOptions bigger = out_of_core_options(dir_ + "/grow3");
  bigger.block_cache_bytes = 16u << 20;
  StorageEngine third(bigger);
  EXPECT_EQ(BlockCache::instance().capacity(), 16u << 20);
}

}  // namespace
}  // namespace hpcla::cassalite
