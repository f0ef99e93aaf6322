// Tests for the CQL dialect: lexing/parsing, schema-aware validation, and
// execution semantics on the data model's tables.
#include "cassalite/cql.hpp"

#include <gtest/gtest.h>

#include "model/tables.hpp"

namespace hpcla::cassalite {
namespace {

using titanlog::EventType;

constexpr std::int64_t kT0 = 1489449600;
const std::int64_t kHour0 = kT0 / 3600;

struct CqlFixture {
  Cluster cluster;

  CqlFixture() : cluster(opts()) {
    HPCLA_CHECK(model::create_data_model(cluster).is_ok());
    // Ten MCEs in hour0 at ts kT0+0..9s, nodes 100..109.
    for (int i = 0; i < 10; ++i) {
      titanlog::EventRecord e;
      e.ts = kT0 + i;
      e.seq = i;
      e.type = EventType::kMachineCheck;
      e.node = 100 + i;
      e.message = "bank " + std::to_string(i);
      HPCLA_CHECK(cluster.insert(std::string(model::kEventByTime),
                                 model::event_time_key(kHour0, e.type),
                                 model::event_time_row(e)).is_ok());
    }
  }

  static ClusterOptions opts() {
    ClusterOptions o;
    o.node_count = 3;
    o.replication_factor = 2;
    return o;
  }

  Result<CqlResult> run(const std::string& q) {
    return execute_cql(cluster, q);
  }
};

// ------------------------------------------------------------------ parser

TEST(CqlParseTest, SelectStar) {
  auto stmt = parse_cql(
      "SELECT * FROM event_by_time WHERE hour = 413185 AND type = 'MCE'");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  ASSERT_TRUE(stmt->select.has_value());
  EXPECT_EQ(stmt->select->table, "event_by_time");
  EXPECT_TRUE(stmt->select->columns.empty());
  EXPECT_EQ(stmt->select->partition_eq.size(), 2u);
  EXPECT_EQ(stmt->select->partition_eq[0].first, "hour");
  EXPECT_EQ(stmt->select->partition_eq[0].second.as_int(), 413185);
  EXPECT_EQ(stmt->select->partition_eq[1].second.as_text(), "MCE");
}

TEST(CqlParseTest, SelectColumnsRangeOrderLimit) {
  auto stmt = parse_cql(
      "select node, message from event_by_time where hour=1 and type='MCE' "
      "and ts >= 10 and ts < 20 order by ts desc limit 5;");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& sel = *stmt->select;
  EXPECT_EQ(sel.columns, (std::vector<std::string>{"node", "message"}));
  ASSERT_TRUE(sel.ck_lower.has_value());
  EXPECT_EQ(sel.ck_lower->as_int(), 10);
  EXPECT_FALSE(sel.ck_lower_strict);
  ASSERT_TRUE(sel.ck_upper.has_value());
  EXPECT_EQ(sel.ck_upper->as_int(), 20);
  EXPECT_FALSE(sel.ck_upper_inclusive);
  EXPECT_TRUE(sel.order_desc);
  EXPECT_EQ(sel.limit, 5u);
}

TEST(CqlParseTest, CountStar) {
  auto stmt = parse_cql("SELECT COUNT(*) FROM eventsynopsis WHERE hour=1");
  ASSERT_TRUE(stmt.is_ok());
  EXPECT_TRUE(stmt->select->count_only);
}

TEST(CqlParseTest, Insert) {
  auto stmt = parse_cql(
      "INSERT INTO eventtypes (type, description, flag, weight, note) "
      "VALUES ('X', 'desc with ''quote''', true, 2.5, null)");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  ASSERT_TRUE(stmt->insert.has_value());
  const auto& ins = *stmt->insert;
  EXPECT_EQ(ins.table, "eventtypes");
  ASSERT_EQ(ins.values.size(), 5u);
  EXPECT_EQ(ins.values[1].second.as_text(), "desc with 'quote'");
  EXPECT_EQ(ins.values[2].second.as_bool(), true);
  EXPECT_DOUBLE_EQ(ins.values[3].second.as_double(), 2.5);
  EXPECT_TRUE(ins.values[4].second.is_null());
}

TEST(CqlParseTest, Rejections) {
  EXPECT_FALSE(parse_cql("").is_ok());
  EXPECT_FALSE(parse_cql("DROP TABLE x").is_ok());
  EXPECT_FALSE(parse_cql("SELECT FROM t").is_ok());
  EXPECT_FALSE(parse_cql("SELECT * FROM t WHERE").is_ok());
  EXPECT_FALSE(parse_cql("SELECT * FROM t WHERE a == 1").is_ok());
  EXPECT_FALSE(parse_cql("SELECT * FROM t LIMIT 0").is_ok());
  EXPECT_FALSE(parse_cql("SELECT * FROM t LIMIT -3").is_ok());
  EXPECT_FALSE(parse_cql("SELECT * FROM t; garbage").is_ok());
  EXPECT_FALSE(parse_cql("INSERT INTO t (a, b) VALUES (1)").is_ok());
  EXPECT_FALSE(parse_cql("SELECT * FROM t WHERE a = 'unterminated").is_ok());
  // An integer literal outside int64 is refused, not wrapped.
  const auto huge = parse_cql("SELECT * FROM t WHERE a = 25000000000000000000");
  ASSERT_FALSE(huge.is_ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------- execution

TEST(CqlExecTest, SelectWholePartition) {
  CqlFixture f;
  auto r = f.run("SELECT * FROM event_by_time WHERE hour = " +
                 std::to_string(kHour0) + " AND type = 'MCE'");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_TRUE(r->is_rows);
  EXPECT_EQ(r->count, 10);
  ASSERT_EQ(r->rows.as_array().size(), 10u);
  // Clustering columns materialized by name; cells present.
  const Json& first = r->rows.as_array().front();
  EXPECT_EQ(first["ts"].as_int(), kT0);
  EXPECT_EQ(first["seq"].as_int(), 0);
  EXPECT_EQ(first["node"].as_int(), 100);
  EXPECT_EQ(first["message"].as_string(), "bank 0");
}

TEST(CqlExecTest, RangeAndLimit) {
  CqlFixture f;
  const std::string base = "SELECT * FROM event_by_time WHERE hour = " +
                           std::to_string(kHour0) + " AND type = 'MCE' ";
  auto r = f.run(base + "AND ts >= " + std::to_string(kT0 + 3) +
                 " AND ts < " + std::to_string(kT0 + 7));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->count, 4);  // ts +3,+4,+5,+6

  auto strict = f.run(base + "AND ts > " + std::to_string(kT0 + 3) +
                      " AND ts <= " + std::to_string(kT0 + 7));
  ASSERT_TRUE(strict.is_ok());
  EXPECT_EQ(strict->count, 4);  // +4..+7
  EXPECT_EQ(strict->rows.as_array().front()["ts"].as_int(), kT0 + 4);
  EXPECT_EQ(strict->rows.as_array().back()["ts"].as_int(), kT0 + 7);

  auto limited = f.run(base + "LIMIT 3");
  ASSERT_TRUE(limited.is_ok());
  EXPECT_EQ(limited->count, 3);
}

TEST(CqlExecTest, OrderDescWithLimitIsNewestFirst) {
  CqlFixture f;
  auto r = f.run("SELECT * FROM event_by_time WHERE hour = " +
                 std::to_string(kHour0) +
                 " AND type = 'MCE' ORDER BY ts DESC LIMIT 2");
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->rows.as_array().size(), 2u);
  EXPECT_EQ(r->rows.as_array()[0]["ts"].as_int(), kT0 + 9);
  EXPECT_EQ(r->rows.as_array()[1]["ts"].as_int(), kT0 + 8);
}

// LIMIT reaches the replicas unless a residual filter on the first
// clustering column ("=", ">", "<=" over the (ts, seq) keys) follows the
// read; either way the answer is the unlimited answer cut. Three rows share
// each ts, one row has no clustering key, and 256-byte memtables spread the
// partition over many runs.
TEST(CqlExecTest, LimitEqualsTheUnlimitedAnswerCut) {
  ClusterOptions o = CqlFixture::opts();
  o.storage.memtable_flush_bytes = 256;
  o.storage.compaction_threshold = 4;
  Cluster cluster(o);
  ASSERT_TRUE(model::create_data_model(cluster).is_ok());
  for (int i = 0; i < 60; ++i) {
    titanlog::EventRecord e;
    e.ts = kT0 + i / 3;
    e.seq = i % 3;
    e.type = EventType::kMachineCheck;
    e.node = 100 + i;
    e.message = "bank " + std::to_string(i);
    ASSERT_TRUE(cluster.insert(std::string(model::kEventByTime),
                               model::event_time_key(kHour0, e.type),
                               model::event_time_row(e)).is_ok());
  }
  // A row with no clustering parts sorts first; no range admits it.
  Row keyless;
  keyless.set("message", Value(std::string("no key")));
  ASSERT_TRUE(cluster.insert(std::string(model::kEventByTime),
                             model::event_time_key(kHour0,
                                                   EventType::kMachineCheck),
                             keyless).is_ok());
  EXPECT_GE(cluster.engine(0).metrics().memtable_flushes +
                cluster.engine(1).metrics().memtable_flushes +
                cluster.engine(2).metrics().memtable_flushes,
            10u);
  const std::string base = "SELECT * FROM event_by_time WHERE hour = " +
                           std::to_string(kHour0) + " AND type = 'MCE'";
  const std::string t7 = std::to_string(kT0 + 7);
  const std::string t13 = std::to_string(kT0 + 13);
  for (const std::string& where :
       {std::string(), " AND ts = " + t7, " AND ts > " + t7,
        " AND ts <= " + t13, " AND ts > " + t7 + " AND ts <= " + t13,
        " AND ts >= " + t7, " AND ts < " + t13,
        " AND ts >= " + t7 + " AND ts < " + t13}) {
    for (const std::string order : {"", " ORDER BY ts DESC"}) {
      const auto whole = execute_cql(cluster, base + where + order);
      ASSERT_TRUE(whole.is_ok()) << where << order;
      const auto& all_rows = whole->rows.as_array();
      ASSERT_FALSE(all_rows.empty()) << where << order;
      for (const std::size_t limit :
           {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{7},
            all_rows.size() - 1, all_rows.size(), all_rows.size() + 1}) {
        if (limit == 0) continue;
        const auto cut = execute_cql(
            cluster, base + where + order + " LIMIT " + std::to_string(limit));
        ASSERT_TRUE(cut.is_ok()) << where << order << " LIMIT " << limit;
        const std::size_t n = std::min(limit, all_rows.size());
        ASSERT_EQ(cut->count, static_cast<std::int64_t>(n))
            << where << order << " LIMIT " << limit;
        Json want = Json::array();
        for (std::size_t i = 0; i < n; ++i) want.push_back(all_rows[i]);
        EXPECT_EQ(cut->rows, want) << where << order << " LIMIT " << limit;
      }
    }
  }
}

TEST(CqlExecTest, ClusteringEquality) {
  CqlFixture f;
  auto r = f.run("SELECT * FROM event_by_time WHERE hour = " +
                 std::to_string(kHour0) + " AND type = 'MCE' AND ts = " +
                 std::to_string(kT0 + 5));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->count, 1);
  EXPECT_EQ(r->rows.as_array()[0]["node"].as_int(), 105);
}

TEST(CqlExecTest, CountStar) {
  CqlFixture f;
  auto r = f.run("SELECT COUNT(*) FROM event_by_time WHERE hour = " +
                 std::to_string(kHour0) + " AND type = 'MCE' AND ts >= " +
                 std::to_string(kT0 + 8));
  ASSERT_TRUE(r.is_ok());
  EXPECT_FALSE(r->is_rows);
  EXPECT_EQ(r->count, 2);
}

TEST(CqlExecTest, ColumnProjection) {
  CqlFixture f;
  auto r = f.run("SELECT node FROM event_by_time WHERE hour = " +
                 std::to_string(kHour0) + " AND type = 'MCE' LIMIT 1");
  ASSERT_TRUE(r.is_ok());
  const Json& row = r->rows.as_array().front();
  EXPECT_TRUE(row["node"].is_int());
  EXPECT_TRUE(row["message"].is_null());       // projected away
  EXPECT_EQ(row["ts"].as_int(), kT0);          // key columns always present
}

TEST(CqlExecTest, InsertThenSelect) {
  CqlFixture f;
  auto ins = f.run(
      "INSERT INTO event_by_time (hour, type, ts, seq, node, message, extra) "
      "VALUES (" + std::to_string(kHour0) + ", 'GPUDbe', " +
      std::to_string(kT0 + 100) + ", 0, 7, 'dbe detected', 42)");
  ASSERT_TRUE(ins.is_ok()) << ins.status().to_string();
  EXPECT_EQ(ins->count, 1);
  auto r = f.run("SELECT * FROM event_by_time WHERE hour = " +
                 std::to_string(kHour0) + " AND type = 'GPUDbe'");
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->count, 1);
  const Json& row = r->rows.as_array().front();
  EXPECT_EQ(row["message"].as_string(), "dbe detected");
  EXPECT_EQ(row["extra"].as_int(), 42);  // flexible schema: ad-hoc column
}

TEST(CqlExecTest, SchemaValidation) {
  CqlFixture f;
  // Unknown table.
  EXPECT_EQ(f.run("SELECT * FROM nope WHERE x = 1").status().code(),
            StatusCode::kNotFound);
  // Missing partition column.
  EXPECT_FALSE(f.run("SELECT * FROM event_by_time WHERE hour = 1").is_ok());
  // Range on a non-clustering column.
  EXPECT_FALSE(
      f.run("SELECT * FROM event_by_time WHERE hour = 1 AND type = 'MCE' "
            "AND node > 5").is_ok());
  // ORDER BY a non-clustering column.
  EXPECT_FALSE(
      f.run("SELECT * FROM event_by_time WHERE hour = 1 AND type = 'MCE' "
            "ORDER BY node").is_ok());
  // Equality on a regular column.
  EXPECT_FALSE(
      f.run("SELECT * FROM event_by_time WHERE hour = 1 AND type = 'MCE' "
            "AND message = 'x'").is_ok());
  // INSERT missing clustering column.
  EXPECT_FALSE(
      f.run("INSERT INTO event_by_time (hour, type, ts) VALUES (1, 'MCE', 2)")
          .is_ok());
}

TEST(CqlExecTest, EmptyResultIsOk) {
  CqlFixture f;
  auto r = f.run(
      "SELECT * FROM event_by_time WHERE hour = 999999 AND type = 'MCE'");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->count, 0);
  EXPECT_TRUE(r->rows.as_array().empty());
}

}  // namespace
}  // namespace hpcla::cassalite
