// Columnar extent tests (DESIGN.md §13.2): lossless roundtrip across every
// cell type and encoding path (delta ints, raw doubles, dictionary and raw
// text, packed bools, mixed columns, nulls), degenerate shapes (empty
// partition, single row, ragged clustering keys), lazy group pruning on
// slice reads and on limited reads from either end, and end-to-end
// equivalence of the SSTable/StorageEngine stack with the flag on vs. off.
#include "cassalite/extent.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cassalite/sstable.hpp"
#include "cassalite/storage_engine.hpp"

namespace hpcla::cassalite {
namespace {

Row make_row(std::int64_t ck, std::int64_t ts) {
  Row r;
  r.key.parts = {Value(ck)};
  r.write_ts = ts;
  return r;
}

void expect_roundtrip(const std::vector<Row>& rows, std::size_t per_group) {
  ExtentOptions opts;
  opts.rows_per_group = per_group;
  const auto ext = ColumnarExtent::encode(rows, opts);
  EXPECT_EQ(ext.row_count(), rows.size());
  EXPECT_EQ(ext.decode_all(), rows);
}

TEST(ColumnarExtent, RoundTripsEveryValueKind) {
  std::vector<Row> rows;
  for (std::int64_t i = 0; i < 300; ++i) {
    Row r = make_row(i, 1000 + i * 7);
    r.set("flag", Value(i % 3 == 0));
    r.set("node", Value(i * 131 - 5000));  // negative deltas too
    r.set("score", Value(0.125 * static_cast<double>(i) - 3.5));
    r.set("type", Value(std::string("type-") + std::to_string(i % 4)));  // dict
    rows.push_back(std::move(r));
  }
  expect_roundtrip(rows, 64);
  expect_roundtrip(rows, 1);      // one row per group
  expect_roundtrip(rows, 10000);  // one group total
}

TEST(ColumnarExtent, RoundTripsEmptyAndSingleRow) {
  expect_roundtrip({}, 16);
  const auto empty = ColumnarExtent::encode({}, {});
  EXPECT_EQ(empty.group_count(), 0u);
  std::vector<Row> out;
  empty.read({}, out);
  EXPECT_TRUE(out.empty());

  Row r = make_row(42, 7);
  r.set("only", Value("one"));
  expect_roundtrip({r}, 16);
}

TEST(ColumnarExtent, RoundTripsHighCardinalityTextFallback) {
  // Every value distinct: the dictionary gate (distinct*2 <= n) must fall
  // back to raw text and still roundtrip.
  std::vector<Row> rows;
  for (std::int64_t i = 0; i < 200; ++i) {
    Row r = make_row(i, i);
    r.set("msg", Value("unique message #" + std::to_string(i * 7919)));
    rows.push_back(std::move(r));
  }
  expect_roundtrip(rows, 50);
}

TEST(ColumnarExtent, RoundTripsMixedTypeAndSparseColumns) {
  std::vector<Row> rows;
  for (std::int64_t i = 0; i < 100; ++i) {
    Row r = make_row(i, i);
    // Same column name, different type per row -> kMixed encoding.
    switch (i % 5) {
      case 0: r.set("v", Value());           break;  // explicit null cell
      case 1: r.set("v", Value(true));       break;
      case 2: r.set("v", Value(i * -17));    break;
      case 3: r.set("v", Value(i * 0.5));    break;
      default: r.set("v", Value("text"));    break;
    }
    // Sparse column: present on a minority of rows only.
    if (i % 7 == 0) r.set("rare", Value(i));
    rows.push_back(std::move(r));
  }
  expect_roundtrip(rows, 33);
}

TEST(ColumnarExtent, RoundTripsDuplicateCellNamesInOneRow) {
  // Rows may carry repeated cell names (flexible schema); order and
  // multiplicity must survive.
  Row r = make_row(1, 1);
  r.cells.push_back({"x", Value(1)});
  r.cells.push_back({"y", Value("mid")});
  r.cells.push_back({"x", Value(2)});
  expect_roundtrip({r, make_row(2, 2)}, 16);
}

TEST(ColumnarExtent, RoundTripsRaggedClusteringKeys) {
  std::vector<Row> rows;
  for (std::int64_t i = 0; i < 60; ++i) {
    Row r;
    r.key.parts = {Value(i)};
    if (i % 2 == 0) r.key.parts.push_back(Value("sub-" + std::to_string(i % 3)));
    if (i % 4 == 0) r.key.parts.push_back(Value(i * 0.25));
    r.write_ts = i;
    r.set("c", Value(i));
    rows.push_back(std::move(r));
  }
  expect_roundtrip(rows, 7);
}

TEST(ColumnarExtent, SliceReadDecodesOnlyIntersectingGroups) {
  std::vector<Row> rows;
  for (std::int64_t i = 0; i < 1000; ++i) {
    Row r = make_row(i, i);
    r.set("n", Value(i));
    rows.push_back(std::move(r));
  }
  ExtentOptions opts;
  opts.rows_per_group = 100;
  const auto ext = ColumnarExtent::encode(rows, opts);
  ASSERT_EQ(ext.group_count(), 10u);

  ClusteringSlice slice;
  slice.lower = ClusteringKey::of({Value(450)});
  slice.upper = ClusteringKey::of({Value(460)});
  std::vector<Row> out;
  ext.read({slice}, out);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out.front().key.parts[0].as_int(), 450);
  EXPECT_EQ(out.back().key.parts[0].as_int(), 459);
  // The range lives inside group [400,499]; at most one neighbor decoded.
  EXPECT_LE(ext.decoded_groups(), 2u) << "slice read is not pruning groups";
}

TEST(ColumnarExtent, LimitedReadsTakeTheRightEndAndPruneGroups) {
  std::vector<Row> rows;
  for (std::int64_t i = 0; i < 1000; ++i) rows.push_back(make_row(i, i));
  ExtentOptions opts;
  opts.rows_per_group = 100;
  std::vector<ClusteringSlice> slices(3);
  slices[1].lower = ClusteringKey::of({Value(150)});
  slices[1].upper = ClusteringKey::of({Value(777)});
  slices[2].lower = ClusteringKey::of({Value(455)});
  slices[2].upper = ClusteringKey::of({Value(456)});
  for (const auto& slice : slices) {
    for (const bool reverse : {false, true}) {
      for (const std::size_t limit : {1, 7, 100, 101, 250, 5000}) {
        const LimitedSlice want{slice, limit, reverse};
        const auto ext = ColumnarExtent::encode(rows, opts);
        std::vector<Row> out;
        ext.read(want, out);
        const auto [first, last] = want.select(rows);
        EXPECT_EQ(out, std::vector<Row>(rows.begin() + first,
                                        rows.begin() + last))
            << "limit " << limit << " reverse " << reverse;
        // Only the groups the selected rows come from are decoded.
        const std::size_t groups =
            first == last ? 0 : (last - 1) / 100 - first / 100 + 1;
        EXPECT_EQ(ext.decoded_groups(), groups)
            << "limit " << limit << " reverse " << reverse;
      }
    }
  }
}

TEST(ColumnarExtent, CompressesRepetitiveLogShapedData) {
  std::vector<Row> rows;
  for (std::int64_t i = 0; i < 2000; ++i) {
    Row r = make_row(i, 1700000000000000 + i * 1000);
    r.set("node", Value(i % 32));
    r.set("msg", Value(std::string("machine check L2 cache parity error")));
    rows.push_back(std::move(r));
  }
  const auto ext = ColumnarExtent::encode(rows, {});
  EXPECT_GT(ext.raw_bytes(), 0u);
  EXPECT_GT(ext.encoded_bytes(), 0u);
  EXPECT_LT(ext.encoded_bytes() * 2, ext.raw_bytes())
      << "log-shaped data should compress at least 2x";
  EXPECT_EQ(ext.decode_all(), rows);
}

std::vector<SSTable::Partition> sample_partitions() {
  std::vector<SSTable::Partition> parts;
  for (int p = 0; p < 4; ++p) {
    SSTable::Partition part;
    part.key = "part-" + std::to_string(p);
    for (std::int64_t i = 0; i < 200; ++i) {
      Row r = make_row(i, 100 + i);
      r.set("v", Value(i * p));
      r.set("tag", Value(std::string(i % 2 ? "odd" : "even")));
      part.rows.push_back(std::move(r));
    }
    parts.push_back(std::move(part));
  }
  return parts;
}

TEST(ColumnarSSTable, ReadsMatchPlainSSTable) {
  ExtentOptions opts;
  opts.rows_per_group = 32;
  const SSTable plain(1, sample_partitions());
  const SSTable columnar(1, sample_partitions(), &opts);
  EXPECT_FALSE(plain.columnar());
  EXPECT_TRUE(columnar.columnar());
  EXPECT_EQ(plain.row_count(), columnar.row_count());
  EXPECT_EQ(plain.partition_keys(), columnar.partition_keys());
  EXPECT_GT(columnar.extent_encoded_bytes(), 0u);

  ClusteringSlice whole;
  ClusteringSlice narrow;
  narrow.lower = ClusteringKey::of({Value(50)});
  narrow.upper = ClusteringKey::of({Value(60)});
  for (const auto& key : plain.partition_keys()) {
    for (const auto* slice : {&whole, &narrow}) {
      std::vector<Row> a, b;
      EXPECT_TRUE(plain.read(key, {*slice}, a));
      EXPECT_TRUE(columnar.read(key, {*slice}, b));
      EXPECT_EQ(a, b) << key;
    }
  }
  std::vector<Row> miss;
  EXPECT_FALSE(columnar.read("absent-partition", {whole}, miss));
}

TEST(ColumnarSSTable, CompactionPreservesRowsAcrossEncodings) {
  ExtentOptions opts;
  opts.rows_per_group = 16;
  auto a = std::make_shared<const SSTable>(1, sample_partitions(), &opts);
  // Overwrite some rows with newer write timestamps in a plain run.
  std::vector<SSTable::Partition> newer;
  {
    SSTable::Partition part;
    part.key = "part-1";
    for (std::int64_t i = 0; i < 50; ++i) {
      Row r = make_row(i * 4, 100000 + i);
      r.set("v", Value(-1));
      part.rows.push_back(std::move(r));
    }
    newer.push_back(std::move(part));
  }
  auto b = std::make_shared<const SSTable>(2, std::move(newer));
  const auto merged_columnar = compact(3, {a, b}, &opts);
  const auto merged_plain = compact(3, {a, b});
  EXPECT_TRUE(merged_columnar->columnar());
  EXPECT_EQ(merged_columnar->row_count(), merged_plain->row_count());
  ClusteringSlice whole;
  for (const auto& key : merged_plain->partition_keys()) {
    std::vector<Row> x, y;
    merged_plain->read(key, {whole}, x);
    merged_columnar->read(key, {whole}, y);
    EXPECT_EQ(x, y) << key;
  }
  // LWW actually applied: overwritten row carries the newer cell.
  std::vector<Row> rows;
  merged_columnar->read("part-1", {whole}, rows);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(*rows[0].find("v"), Value(-1));
}

void write_workload(StorageEngine& store) {
  for (std::int64_t i = 0; i < 3000; ++i) {
    WriteCommand cmd;
    cmd.table = "events";
    cmd.partition_key = "node-" + std::to_string(i % 5);
    cmd.row = make_row(i, 1000 + i);
    cmd.row.set("count", Value(i % 13));
    cmd.row.set("msg", Value(std::string("event class ") +
                             std::to_string(i % 6)));
    store.apply(cmd);
  }
  // Overwrites exercising merge-on-read + LWW across runs.
  for (std::int64_t i = 0; i < 3000; i += 10) {
    WriteCommand cmd;
    cmd.table = "events";
    cmd.partition_key = "node-" + std::to_string(i % 5);
    cmd.row = make_row(i, 999999 + i);
    cmd.row.set("count", Value(-7));
    store.apply(cmd);
  }
  store.flush_all();
}

TEST(ColumnarStorageEngine, EndToEndMatchesRowStorage) {
  StorageOptions plain_opts;
  plain_opts.columnar_extents = false;
  plain_opts.extent_files = false;  // HPCLA_EXTENT_FILES would re-enable both
  plain_opts.memtable_flush_bytes = 64 * 1024;  // force several flushes
  plain_opts.compaction_threshold = 3;          // and compactions
  StorageOptions col_opts = plain_opts;
  col_opts.columnar_extents = true;
  col_opts.extent_rows_per_group = 64;

  StorageEngine plain(plain_opts);
  StorageEngine columnar(col_opts);
  write_workload(plain);
  write_workload(columnar);

  for (int p = 0; p < 5; ++p) {
    ReadQuery q;
    q.table = "events";
    q.partition_key = "node-" + std::to_string(p);
    EXPECT_EQ(plain.read(q).rows, columnar.read(q).rows) << q.partition_key;

    q.slice.lower = ClusteringKey::of({Value(100)});
    q.slice.upper = ClusteringKey::of({Value(200)});
    q.reverse = true;
    q.limit = 7;
    const auto a = plain.read(q);
    const auto b = columnar.read(q);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.truncated, b.truncated);
  }

  const auto m = columnar.metrics();
  EXPECT_GT(m.memtable_flushes, 0u);
  EXPECT_GT(m.extent_raw_bytes, 0u);
  EXPECT_GT(m.extent_encoded_bytes, 0u);
  EXPECT_LT(m.extent_encoded_bytes, m.extent_raw_bytes)
      << "extents should shrink this repetitive workload";
  EXPECT_EQ(plain.metrics().extent_raw_bytes, 0u);
}

TEST(ColumnarStorageEngine, SurvivesCrashRecovery) {
  StorageOptions opts;
  opts.columnar_extents = true;
  opts.memtable_flush_bytes = 32 * 1024;
  StorageEngine store(opts);
  write_workload(store);
  ReadQuery q;
  q.table = "events";
  q.partition_key = "node-2";
  const auto before = store.read(q).rows;
  store.crash_and_recover();
  EXPECT_EQ(store.read(q).rows, before);
}

}  // namespace
}  // namespace hpcla::cassalite
