// Tests for memtable, sstable, bloom filter, commit log, and the per-node
// storage engine (flush, compaction, merge-on-read, crash recovery).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>

#include "cassalite/bloom.hpp"
#include "cassalite/commitlog.hpp"
#include "cassalite/memtable.hpp"
#include "cassalite/sstable.hpp"
#include "cassalite/storage_engine.hpp"
#include "common/rng.hpp"

namespace hpcla::cassalite {
namespace {

Row make_row(std::int64_t ts, std::int64_t seq, const std::string& msg,
             std::int64_t write_ts = 0) {
  Row r;
  r.key = ClusteringKey::of({Value(ts), Value(seq)});
  r.set("msg", msg);
  r.write_ts = write_ts;
  return r;
}

// ------------------------------------------------------------------- bloom

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bf(1000);
  for (int i = 0; i < 1000; ++i) bf.insert("key-" + std::to_string(i));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bf.may_contain("key-" + std::to_string(i)));
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  BloomFilter bf(1000, 10);
  for (int i = 0; i < 1000; ++i) bf.insert("key-" + std::to_string(i));
  int fp = 0;
  for (int i = 0; i < 10000; ++i) {
    fp += bf.may_contain("absent-" + std::to_string(i)) ? 1 : 0;
  }
  EXPECT_LT(fp, 500);  // ~1% expected; generous bound
}

TEST(BloomFilterTest, TinyFilterStillCorrect) {
  BloomFilter bf(0);  // degenerate sizing clamps to minimum
  bf.insert("a");
  EXPECT_TRUE(bf.may_contain("a"));
}

// ---------------------------------------------------------------- memtable

TEST(MemtableTest, RowsSortedWithinPartition) {
  Memtable mt;
  mt.put("p", make_row(30, 0, "c"));
  mt.put("p", make_row(10, 0, "a"));
  mt.put("p", make_row(20, 0, "b"));
  std::vector<Row> rows;
  mt.read("p", {}, rows);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].find("msg")->as_text(), "a");
  EXPECT_EQ(rows[1].find("msg")->as_text(), "b");
  EXPECT_EQ(rows[2].find("msg")->as_text(), "c");
}

TEST(MemtableTest, SliceBounds) {
  Memtable mt;
  for (std::int64_t ts = 0; ts < 10; ++ts) {
    mt.put("p", make_row(ts, 0, "m" + std::to_string(ts)));
  }
  ClusteringSlice slice;
  slice.lower = ClusteringKey::of({Value(3)});
  slice.upper = ClusteringKey::of({Value(7)});
  std::vector<Row> rows;
  mt.read("p", {slice}, rows);
  ASSERT_EQ(rows.size(), 4u);  // ts 3,4,5,6 (keys {3,0}..{6,0} < {7})
  EXPECT_EQ(rows.front().key.parts[0].as_int(), 3);
  EXPECT_EQ(rows.back().key.parts[0].as_int(), 6);
}

TEST(MemtableTest, LastWriteWinsOnSameClusteringKey) {
  Memtable mt;
  mt.put("p", make_row(1, 0, "old", /*write_ts=*/1));
  mt.put("p", make_row(1, 0, "new", /*write_ts=*/2));
  mt.put("p", make_row(1, 0, "stale", /*write_ts=*/1));  // older: ignored
  std::vector<Row> rows;
  mt.read("p", {}, rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].find("msg")->as_text(), "new");
}

TEST(MemtableTest, PartitionsIsolated) {
  Memtable mt;
  mt.put("p1", make_row(1, 0, "x"));
  mt.put("p2", make_row(1, 0, "y"));
  std::vector<Row> rows;
  mt.read("p1", {}, rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].find("msg")->as_text(), "x");
  EXPECT_EQ(mt.partition_count(), 2u);
  EXPECT_EQ(mt.row_count(), 2u);
}

TEST(MemtableTest, MemoryGrowsAndDrainResets) {
  Memtable mt;
  EXPECT_EQ(mt.memory_bytes(), 0u);
  mt.put("p", make_row(1, 0, std::string(1000, 'x')));
  EXPECT_GT(mt.memory_bytes(), 1000u);
  auto drained = mt.drain();
  EXPECT_EQ(drained.size(), 1u);
  EXPECT_TRUE(mt.empty());
  EXPECT_EQ(mt.memory_bytes(), 0u);
}

TEST(MemtableTest, ReadMissingPartitionIsEmpty) {
  Memtable mt;
  std::vector<Row> rows;
  mt.read("absent", {}, rows);
  EXPECT_TRUE(rows.empty());
}

// ----------------------------------------------------------------- sstable

SSTablePtr build_sstable(std::uint64_t gen,
                         std::vector<std::pair<std::string, std::vector<Row>>>
                             parts) {
  std::vector<SSTable::Partition> ps;
  for (auto& [k, rows] : parts) ps.push_back(SSTable::Partition{k, rows});
  return std::make_shared<const SSTable>(gen, std::move(ps));
}

TEST(SSTableTest, ReadSlice) {
  auto sst = build_sstable(
      1, {{"p", {make_row(1, 0, "a"), make_row(2, 0, "b"), make_row(3, 0, "c")}}});
  ClusteringSlice slice;
  slice.lower = ClusteringKey::of({Value(2)});
  std::vector<Row> rows;
  EXPECT_TRUE(sst->read("p", {slice}, rows));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].find("msg")->as_text(), "b");
}

TEST(SSTableTest, BloomRejectsAbsentPartition) {
  auto sst = build_sstable(1, {{"present", {make_row(1, 0, "a")}}});
  std::vector<Row> rows;
  // Probe many absent keys: bloom must reject nearly all of them; any
  // accepted probe must still return no rows.
  int rejected = 0;
  for (int i = 0; i < 100; ++i) {
    const bool accepted = sst->read("absent-" + std::to_string(i), {}, rows);
    rejected += accepted ? 0 : 1;
  }
  EXPECT_TRUE(rows.empty());
  EXPECT_GT(rejected, 90);
}

TEST(SSTableTest, CountsRows) {
  auto sst = build_sstable(3, {{"a", {make_row(1, 0, "x")}},
                               {"b", {make_row(1, 0, "y"), make_row(2, 0, "z")}}});
  EXPECT_EQ(sst->generation(), 3u);
  EXPECT_EQ(sst->partition_count(), 2u);
  EXPECT_EQ(sst->row_count(), 3u);
}

TEST(CompactionTest, MergesAndReconciles) {
  auto old_run = build_sstable(
      1, {{"p", {make_row(1, 0, "old-1", 10), make_row(2, 0, "keep-2", 11)}}});
  auto new_run = build_sstable(
      2, {{"p", {make_row(1, 0, "new-1", 20)}}, {"q", {make_row(5, 0, "q5", 12)}}});
  auto merged = compact(3, {old_run, new_run});
  EXPECT_EQ(merged->partition_count(), 2u);
  EXPECT_EQ(merged->row_count(), 3u);

  std::vector<Row> rows;
  EXPECT_TRUE(merged->read("p", {}, rows));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].find("msg")->as_text(), "new-1");  // write_ts 20 wins
  EXPECT_EQ(rows[1].find("msg")->as_text(), "keep-2");
}

// --------------------------------------------------------------- commitlog

TEST(CommitLogTest, AppendReplayTruncate) {
  CommitLog log;
  WriteCommand c1{"t", "p1", make_row(1, 0, "a")};
  WriteCommand c2{"t", "p2", make_row(2, 0, "b")};
  EXPECT_EQ(log.append(c1), 1u);
  EXPECT_EQ(log.append(c2), 2u);
  EXPECT_EQ(log.last_lsn(), 2u);

  auto all = log.replay(0);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].partition_key, "p1");

  auto tail = log.replay(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].partition_key, "p2");

  log.truncate(1);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.replay(0).size(), 1u);
}

// ---------------------------------------------------------- storage engine

WriteCommand cmd(const std::string& pk, std::int64_t ts, std::int64_t seq,
                 const std::string& msg) {
  return WriteCommand{"events", pk, make_row(ts, seq, msg)};
}

TEST(StorageEngineTest, WriteThenRead) {
  StorageEngine eng;
  eng.apply(cmd("h1|MCE", 100, 0, "mce on c0-0c0s0n0"));
  eng.apply(cmd("h1|MCE", 101, 0, "mce on c0-0c0s1n2"));
  eng.apply(cmd("h2|MCE", 200, 0, "later"));

  ReadQuery q;
  q.table = "events";
  q.partition_key = "h1|MCE";
  auto result = eng.read(q);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].key.parts[0].as_int(), 100);
}

TEST(StorageEngineTest, ReadUnknownTableOrPartition) {
  StorageEngine eng;
  ReadQuery q;
  q.table = "nope";
  q.partition_key = "p";
  EXPECT_TRUE(eng.read(q).rows.empty());
  eng.apply(cmd("p", 1, 0, "x"));
  q.table = "events";
  q.partition_key = "other";
  EXPECT_TRUE(eng.read(q).rows.empty());
}

TEST(StorageEngineTest, LimitAndReverse) {
  StorageEngine eng;
  for (std::int64_t ts = 0; ts < 10; ++ts) {
    eng.apply(cmd("p", ts, 0, "m" + std::to_string(ts)));
  }
  ReadQuery q;
  q.table = "events";
  q.partition_key = "p";
  q.limit = 3;
  auto asc = eng.read(q);
  ASSERT_EQ(asc.rows.size(), 3u);
  EXPECT_TRUE(asc.truncated);
  EXPECT_EQ(asc.rows[0].key.parts[0].as_int(), 0);

  q.reverse = true;
  auto desc = eng.read(q);
  ASSERT_EQ(desc.rows.size(), 3u);
  EXPECT_EQ(desc.rows[0].key.parts[0].as_int(), 9);
}

TEST(StorageEngineTest, FlushAndMergeOnRead) {
  StorageOptions opts;
  opts.memtable_flush_bytes = 1;  // flush after every write
  StorageEngine eng(opts);
  eng.apply(cmd("p", 1, 0, "a"));
  eng.apply(cmd("p", 2, 0, "b"));
  eng.apply(cmd("p", 3, 0, "c"));
  EXPECT_GE(eng.metrics().memtable_flushes, 3u);

  ReadQuery q;
  q.table = "events";
  q.partition_key = "p";
  auto result = eng.read(q);
  ASSERT_EQ(result.rows.size(), 3u);  // merged across runs, still sorted
  EXPECT_EQ(result.rows[0].find("msg")->as_text(), "a");
  EXPECT_EQ(result.rows[2].find("msg")->as_text(), "c");
}

TEST(StorageEngineTest, OverwriteAcrossRunsLastWriteWins) {
  StorageOptions opts;
  opts.memtable_flush_bytes = 1;
  StorageEngine eng(opts);
  WriteCommand old_cmd{"events", "p", make_row(1, 0, "old", 0)};
  old_cmd.row.write_ts = 5;
  eng.apply(old_cmd);  // flushed to sstable
  WriteCommand new_cmd{"events", "p", make_row(1, 0, "new", 0)};
  new_cmd.row.write_ts = 9;
  eng.apply(new_cmd);

  ReadQuery q;
  q.table = "events";
  q.partition_key = "p";
  auto result = eng.read(q);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].find("msg")->as_text(), "new");
}

TEST(StorageEngineTest, CompactionCollapsesRuns) {
  StorageOptions opts;
  opts.memtable_flush_bytes = 1;
  opts.compaction_threshold = 4;
  StorageEngine eng(opts);
  for (std::int64_t i = 0; i < 16; ++i) {
    eng.apply(cmd("p", i, 0, "m" + std::to_string(i)));
  }
  EXPECT_GE(eng.metrics().compactions, 1u);
  ReadQuery q;
  q.table = "events";
  q.partition_key = "p";
  EXPECT_EQ(eng.read(q).rows.size(), 16u);
}

TEST(StorageEngineTest, PartitionKeysUnionAcrossRuns) {
  StorageOptions opts;
  opts.memtable_flush_bytes = 1;
  StorageEngine eng(opts);
  eng.apply(cmd("flushed", 1, 0, "x"));
  opts = StorageOptions{};  // default: stays in memtable
  eng.apply(cmd("inmem", 2, 0, "y"));
  auto keys = eng.partition_keys("events");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "flushed");
  EXPECT_EQ(keys[1], "inmem");
}

TEST(StorageEngineTest, CrashLosesNothingThanksToCommitLog) {
  StorageEngine eng;  // default flush threshold: everything sits in memtable
  for (std::int64_t i = 0; i < 100; ++i) {
    eng.apply(cmd("p", i, 0, "m" + std::to_string(i)));
  }
  const std::size_t replayed = eng.crash_and_recover();
  EXPECT_EQ(replayed, 100u);

  ReadQuery q;
  q.table = "events";
  q.partition_key = "p";
  auto result = eng.read(q);
  ASSERT_EQ(result.rows.size(), 100u);
  EXPECT_EQ(result.rows[42].find("msg")->as_text(), "m42");
}

TEST(StorageEngineTest, CrashAfterFlushReplaysOnlyTail) {
  StorageOptions opts;
  opts.memtable_flush_bytes = 1u << 10;
  StorageEngine eng(opts);
  for (std::int64_t i = 0; i < 50; ++i) {
    eng.apply(cmd("p", i, 0, std::string(100, 'x')));
  }
  eng.flush_all();
  eng.apply(cmd("p", 100, 0, "after-flush"));
  const std::size_t replayed = eng.crash_and_recover();
  EXPECT_LE(replayed, 2u);  // only the unflushed tail

  ReadQuery q;
  q.table = "events";
  q.partition_key = "p";
  EXPECT_EQ(eng.read(q).rows.size(), 51u);
}

TEST(StorageEngineTest, ApproximateRows) {
  StorageEngine eng;
  EXPECT_EQ(eng.approximate_rows("events"), 0u);
  for (std::int64_t i = 0; i < 10; ++i) eng.apply(cmd("p", i, 0, "m"));
  EXPECT_EQ(eng.approximate_rows("events"), 10u);
}

TEST(StorageEngineTest, MetricsProgress) {
  StorageEngine eng;
  eng.apply(cmd("p", 1, 0, "x"));
  ReadQuery q;
  q.table = "events";
  q.partition_key = "p";
  (void)eng.read(q);
  auto m = eng.metrics();
  EXPECT_EQ(m.writes, 1u);
  EXPECT_EQ(m.reads, 1u);
}

// Differential: a limited read or scan, forward or reverse, equals the
// unlimited read cut to the limit, and `truncated` says exactly whether
// the cut dropped rows. The rows are spread over the memtable, several
// SSTables and compactions, with same-key overwrites landing in different
// runs; every fifth write carries an older write_ts than anything before
// it, so the newest run does not always win. Parameter: columnar extents
// (4-row groups) instead of row SSTables.
class LimitedReadTest : public ::testing::TestWithParam<bool> {};

TEST_P(LimitedReadTest, EqualsUnlimitedReadCut) {
  StorageOptions opts;
  if (GetParam()) opts.columnar_extents = true;
  opts.memtable_flush_bytes = 2048;
  opts.compaction_threshold = 4;
  opts.extent_rows_per_group = 4;
  StorageEngine eng(opts);
  Rng rng(7);
  constexpr std::uint64_t kPartitions = 3;
  constexpr std::uint64_t kKeys = 60;
  // partition -> ts -> (write_ts, msg) of the newest write
  std::map<std::string, std::map<std::int64_t, std::pair<std::int64_t, std::string>>>
      model;
  for (std::int64_t i = 1; i <= 600; ++i) {
    const std::string pk = "p" + std::to_string(rng.next_below(kPartitions));
    const auto ts = static_cast<std::int64_t>(rng.next_below(kKeys));
    const std::int64_t write_ts = i % 5 == 0 ? -i : i;
    const std::string msg = "w" + std::to_string(i);
    eng.apply(WriteCommand{"events", pk, make_row(ts, 0, msg, write_ts)});
    auto [it, inserted] = model[pk].try_emplace(ts, write_ts, msg);
    if (!inserted && write_ts > it->second.first) it->second = {write_ts, msg};
  }
  ASSERT_GE(eng.metrics().memtable_flushes, 3u);
  ASSERT_GE(eng.metrics().compactions, 1u);

  std::vector<ClusteringSlice> slices(5);
  slices[1].lower = ClusteringKey::of({Value(17)});
  slices[2].upper = ClusteringKey::of({Value(41)});
  slices[3].lower = ClusteringKey::of({Value(23)});
  slices[3].upper = ClusteringKey::of({Value(31), Value(0)});
  slices[4].lower = ClusteringKey::of({Value(30)});
  slices[4].upper = ClusteringKey::of({Value(30)});  // empty
  const std::vector<std::string> keys = {"p0", "p1", "p2", "absent"};
  for (const auto& slice : slices) {
    std::map<std::string, std::vector<Row>> unlimited;
    for (const auto& pk : keys) {
      ReadQuery q;
      q.table = "events";
      q.partition_key = pk;
      q.slice = slice;
      auto& rows = unlimited[pk];
      rows = eng.read(q).rows;
      std::vector<std::pair<std::int64_t, std::string>> want;
      for (const auto& [ts, newest] : model[pk]) {
        if (slice.admits(ClusteringKey::of({Value(ts), Value(0)}))) {
          want.emplace_back(newest.first, newest.second);
        }
      }
      ASSERT_EQ(rows.size(), want.size()) << pk;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].write_ts, want[i].first) << pk << " at " << i;
        EXPECT_EQ(rows[i].find("msg")->as_text(), want[i].second);
      }
    }
    for (const bool reverse : {false, true}) {
      for (const std::size_t limit :
           {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
            std::size_t{13}, unlimited["p1"].size() - 1, unlimited["p1"].size(),
            unlimited["p1"].size() + 1,
            std::numeric_limits<std::size_t>::max()}) {
        if (limit == 0) continue;
        const LimitedSlice want{slice, limit, reverse};
        std::map<std::string, std::vector<Row>> cut;
        for (const auto& pk : keys) {
          std::vector<Row> rows = unlimited[pk];
          if (reverse) std::reverse(rows.begin(), rows.end());
          if (rows.size() > limit) rows.resize(limit);
          ReadQuery q;
          q.table = "events";
          q.partition_key = pk;
          q.slice = slice;
          q.limit = limit;
          q.reverse = reverse;
          const ReadResult got = eng.read(q);
          EXPECT_EQ(got.rows, rows) << pk << " limit " << limit << " reverse "
                                    << reverse;
          EXPECT_EQ(got.truncated, unlimited[pk].size() > limit)
              << pk << " limit " << limit << " reverse " << reverse;
          cut[pk] = std::move(rows);
        }
        std::size_t scanned = 0;
        eng.scan_partitions(
            "events", keys, want,
            [&](const std::string& pk, std::vector<Row> rows) {
              ++scanned;
              EXPECT_EQ(rows, cut[pk]) << "scan " << pk << " limit " << limit
                                       << " reverse " << reverse;
            });
        EXPECT_EQ(scanned, keys.size());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RowAndColumnarRuns, LimitedReadTest,
                         ::testing::Bool());

// Property sweep: N random writes across P partitions always read back
// complete and sorted, for several flush thresholds.
class StorageEnginePropertyTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StorageEnginePropertyTest, RandomWorkloadReadsBackSorted) {
  StorageOptions opts;
  opts.memtable_flush_bytes = GetParam();
  opts.compaction_threshold = 3;
  StorageEngine eng(opts);
  Rng rng(GetParam());
  constexpr int kWrites = 500;
  constexpr int kPartitions = 7;
  std::vector<int> per_partition(kPartitions, 0);
  for (int i = 0; i < kWrites; ++i) {
    const int p = static_cast<int>(rng.next_below(kPartitions));
    // Unique clustering key per write: (random ts, i).
    eng.apply(WriteCommand{
        "events", "part-" + std::to_string(p),
        make_row(static_cast<std::int64_t>(rng.next_below(1000)), i, "m")});
    per_partition[p]++;
  }
  for (int p = 0; p < kPartitions; ++p) {
    ReadQuery q;
    q.table = "events";
    q.partition_key = "part-" + std::to_string(p);
    auto result = eng.read(q);
    EXPECT_EQ(result.rows.size(), static_cast<std::size_t>(per_partition[p]));
    for (std::size_t i = 1; i < result.rows.size(); ++i) {
      EXPECT_TRUE(result.rows[i - 1].key < result.rows[i].key ||
                  result.rows[i - 1].key == result.rows[i].key);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FlushThresholds, StorageEnginePropertyTest,
                         ::testing::Values(1, 256, 4096, 1u << 20));

}  // namespace
}  // namespace hpcla::cassalite
