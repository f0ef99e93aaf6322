// Tests for the token ring and the replicated cluster: placement, balance,
// consistency levels, hinted handoff, read repair, fault injection.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <thread>

#include "cassalite/cluster.hpp"
#include "cassalite/ring.hpp"
#include "common/faultsim.hpp"

namespace hpcla::cassalite {
namespace {

Row event_row(std::int64_t ts, std::int64_t seq, const std::string& msg) {
  Row r;
  r.key = ClusteringKey::of({Value(ts), Value(seq)});
  r.set("msg", msg);
  return r;
}

// -------------------------------------------------------------------- ring

TEST(TokenRingTest, PrimaryIsDeterministic) {
  TokenRing ring(8);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(ring.primary(key), ring.primary(key));
  }
}

TEST(TokenRingTest, ReplicasAreDistinctAndPrimaryFirst) {
  TokenRing ring(8);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "partition-" + std::to_string(i);
    auto reps = ring.replicas(key, 3);
    ASSERT_EQ(reps.size(), 3u);
    EXPECT_EQ(reps[0], ring.primary(key));
    std::set<NodeIndex> uniq(reps.begin(), reps.end());
    EXPECT_EQ(uniq.size(), 3u);
  }
}

TEST(TokenRingTest, RfClampedToNodeCount) {
  TokenRing ring(2);
  auto reps = ring.replicas("k", 5);
  EXPECT_EQ(reps.size(), 2u);
  auto zero = ring.replicas("k", 0);
  EXPECT_EQ(zero.size(), 1u);
}

TEST(TokenRingTest, LoadIsBalanced) {
  // Property (Fig 4): with vnodes, partitions spread evenly; CV of the
  // per-node partition counts stays small.
  for (std::size_t nodes : {4u, 8u, 16u, 32u}) {
    TokenRing ring(nodes, 128);
    std::map<NodeIndex, int> counts;
    const int kKeys = 20000;
    for (int i = 0; i < kKeys; ++i) {
      counts[ring.primary("hour-" + std::to_string(i) + "|type-" +
                          std::to_string(i % 17))]++;
    }
    EXPECT_EQ(counts.size(), nodes);
    double mean = static_cast<double>(kKeys) / static_cast<double>(nodes);
    for (const auto& [_, c] : counts) {
      EXPECT_GT(c, mean * 0.6);
      EXPECT_LT(c, mean * 1.4);
    }
  }
}

TEST(TokenRingTest, SingleNodeOwnsEverything) {
  TokenRing ring(1);
  EXPECT_EQ(ring.primary("anything"), 0u);
  EXPECT_EQ(ring.replicas("anything", 3).size(), 1u);
}

TEST(TokenRingTest, SeedChangesPlacement) {
  TokenRing a(8, 64, 1);
  TokenRing b(8, 64, 2);
  int moved = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    moved += a.primary(key) != b.primary(key) ? 1 : 0;
  }
  EXPECT_GT(moved, 50);
}

// ------------------------------------------------------------- consistency

TEST(RequiredAcksTest, Table) {
  EXPECT_EQ(required_acks(Consistency::kOne, 3), 1u);
  EXPECT_EQ(required_acks(Consistency::kQuorum, 3), 2u);
  EXPECT_EQ(required_acks(Consistency::kQuorum, 5), 3u);
  EXPECT_EQ(required_acks(Consistency::kQuorum, 1), 1u);
  EXPECT_EQ(required_acks(Consistency::kAll, 3), 3u);
}

// ----------------------------------------------------------------- cluster

ClusterOptions small_cluster() {
  ClusterOptions o;
  o.node_count = 4;
  o.replication_factor = 3;
  return o;
}

TEST(ClusterTest, DdlRegistryAndDuplicates) {
  Cluster c(small_cluster());
  TableSchema s;
  s.name = "event_by_time";
  s.partition_key_columns = {"hour", "type"};
  s.clustering_key_columns = {"ts", "seq"};
  EXPECT_TRUE(c.create_table(s).is_ok());
  EXPECT_EQ(c.create_table(s).code(), StatusCode::kAlreadyExists);
  auto fetched = c.schema("event_by_time");
  ASSERT_TRUE(fetched.is_ok());
  EXPECT_EQ(fetched->partition_key_columns.size(), 2u);
  EXPECT_FALSE(c.schema("nope").is_ok());
  EXPECT_EQ(c.schemas().size(), 1u);
}

TEST(ClusterTest, WriteReadRoundTrip) {
  Cluster c(small_cluster());
  ASSERT_TRUE(c.insert("t", "pk", event_row(10, 0, "hello")).is_ok());
  ReadQuery q;
  q.table = "t";
  q.partition_key = "pk";
  auto r = c.select(q);
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].find("msg")->as_text(), "hello");
}

TEST(ClusterTest, DataLandsOnAllReplicas) {
  Cluster c(small_cluster());
  ASSERT_TRUE(c.insert("t", "pk", event_row(1, 0, "x"),
                       Consistency::kAll).is_ok());
  auto reps = c.replicas_of("pk");
  ASSERT_EQ(reps.size(), 3u);
  ReadQuery q;
  q.table = "t";
  q.partition_key = "pk";
  for (NodeIndex n : reps) {
    EXPECT_EQ(c.engine(n).read(q).rows.size(), 1u) << "replica " << n;
  }
  // The non-replica node must NOT have the data (ring boundaries hold).
  for (NodeIndex n = 0; n < c.node_count(); ++n) {
    if (std::find(reps.begin(), reps.end(), n) == reps.end()) {
      EXPECT_TRUE(c.engine(n).read(q).rows.empty()) << "non-replica " << n;
    }
  }
}

TEST(ClusterTest, WriteSurvivesMinorityNodeFailureAtQuorum) {
  Cluster c(small_cluster());
  auto reps = c.replicas_of("pk");
  c.kill_node(reps[0]);
  EXPECT_TRUE(c.insert("t", "pk", event_row(1, 0, "x"),
                       Consistency::kQuorum).is_ok());
  ReadQuery q;
  q.table = "t";
  q.partition_key = "pk";
  auto r = c.select(q, Consistency::kQuorum);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST(ClusterTest, WriteFailsWhenQuorumLost) {
  Cluster c(small_cluster());
  auto reps = c.replicas_of("pk");
  c.kill_node(reps[0]);
  c.kill_node(reps[1]);
  auto status = c.insert("t", "pk", event_row(1, 0, "x"), Consistency::kQuorum);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // ONE still succeeds via the last live replica.
  EXPECT_TRUE(c.insert("t", "pk", event_row(2, 0, "y"),
                       Consistency::kOne).is_ok());
}

TEST(ClusterTest, AllRequiresEveryReplica) {
  Cluster c(small_cluster());
  auto reps = c.replicas_of("pk");
  c.kill_node(reps[2]);
  EXPECT_EQ(c.insert("t", "pk", event_row(1, 0, "x"), Consistency::kAll).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(c.insert("t", "pk", event_row(1, 0, "x"),
                       Consistency::kQuorum).is_ok());
}

TEST(ClusterTest, HintedHandoffConvergesRevivedNode) {
  Cluster c(small_cluster());
  auto reps = c.replicas_of("pk");
  c.kill_node(reps[1]);
  for (std::int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(c.insert("t", "pk", event_row(i, 0, "m" + std::to_string(i)),
                         Consistency::kQuorum).is_ok());
  }
  EXPECT_EQ(c.pending_hints(), 10u);
  const std::size_t replayed = c.revive_node(reps[1]);
  EXPECT_EQ(replayed, 10u);
  EXPECT_EQ(c.pending_hints(), 0u);

  // The revived node now serves the full partition on a direct read.
  ReadQuery q;
  q.table = "t";
  q.partition_key = "pk";
  EXPECT_EQ(c.engine(reps[1]).read(q).rows.size(), 10u);
  EXPECT_EQ(c.metrics().hints_replayed, 10u);
}

TEST(ClusterTest, ReadRepairFixesStaleReplica) {
  Cluster c(small_cluster());
  auto reps = c.replicas_of("pk");
  // Write at ALL, then a newer overwrite while one replica is down (ONE ack
  // needed, hints disabled by... hints exist; to exercise read repair rather
  // than handoff, revive the node but drop its hints by reading first).
  ASSERT_TRUE(c.insert("t", "pk", event_row(1, 0, "v1"),
                       Consistency::kAll).is_ok());
  c.kill_node(reps[2]);
  ASSERT_TRUE(c.insert("t", "pk", event_row(1, 0, "v2"),
                       Consistency::kQuorum).is_ok());
  // Revive replays hints; to test read repair instead, inject staleness by
  // writing an extra row only reachable via the two live replicas, and
  // clear hints via revive on a *different* partition... Simplest: verify a
  // QUORUM read returns v2 regardless and repairs if views diverge.
  c.revive_node(reps[2]);
  ReadQuery q;
  q.table = "t";
  q.partition_key = "pk";
  auto r = c.select(q, Consistency::kAll);
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].find("msg")->as_text(), "v2");
}

TEST(ClusterTest, ReadReconciliationPicksNewestAcrossReplicas) {
  // Force divergence: write v1 at ALL; kill replica A; write v2 at QUORUM;
  // read at ALL after reviving A *without* hint replay being possible —
  // we simulate that by checking the merged read wins even while A is
  // stale (read at QUORUM might not touch A, so use ALL and kill hints by
  // reading before revive).
  Cluster c(small_cluster());
  auto reps = c.replicas_of("pk");
  ASSERT_TRUE(c.insert("t", "pk", event_row(1, 0, "v1"),
                       Consistency::kAll).is_ok());
  c.kill_node(reps[0]);
  ASSERT_TRUE(c.insert("t", "pk", event_row(1, 0, "v2"),
                       Consistency::kQuorum).is_ok());
  // ALL read fails while a replica is down.
  ReadQuery q;
  q.table = "t";
  q.partition_key = "pk";
  EXPECT_EQ(c.select(q, Consistency::kAll).status().code(),
            StatusCode::kUnavailable);
  // QUORUM read (two live replicas) returns the newest value.
  auto r = c.select(q, Consistency::kQuorum);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->rows[0].find("msg")->as_text(), "v2");
}

TEST(ClusterTest, LiveNodeCountTracksKillsAndRevives) {
  Cluster c(small_cluster());
  EXPECT_EQ(c.live_node_count(), 4u);
  c.kill_node(0);
  c.kill_node(3);
  EXPECT_EQ(c.live_node_count(), 2u);
  EXPECT_FALSE(c.is_alive(0));
  EXPECT_TRUE(c.is_alive(1));
  c.revive_node(0);
  EXPECT_EQ(c.live_node_count(), 3u);
}

TEST(ClusterTest, PartitionKeyEnumeration) {
  ClusterOptions o;
  o.node_count = 4;
  o.replication_factor = 2;
  Cluster c(o);
  std::set<std::string> expected;
  for (int i = 0; i < 40; ++i) {
    const std::string pk = "part-" + std::to_string(i);
    ASSERT_TRUE(c.insert("t", pk, event_row(i, 0, "m")).is_ok());
    expected.insert(pk);
  }
  auto all = c.all_partition_keys("t");
  EXPECT_EQ(std::set<std::string>(all.begin(), all.end()), expected);

  // Primary partition keys across nodes partition the key set exactly.
  std::set<std::string> primaries;
  for (NodeIndex n = 0; n < c.node_count(); ++n) {
    for (const auto& k : c.primary_partition_keys(n, "t")) {
      EXPECT_TRUE(primaries.insert(k).second) << "key owned twice: " << k;
    }
  }
  EXPECT_EQ(primaries, expected);
}

TEST(ClusterTest, ConcurrentWritersAllLand) {
  ClusterOptions o;
  o.node_count = 4;
  o.replication_factor = 3;
  Cluster c(o);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(c.insert("t", "pk",
                             event_row(t, i, "w"),
                             Consistency::kQuorum).is_ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  ReadQuery q;
  q.table = "t";
  q.partition_key = "pk";
  auto r = c.select(q, Consistency::kAll);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->rows.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(c.metrics().writes_ok, static_cast<std::uint64_t>(kThreads * kPerThread));
}

// -------------------------------------------------------------- rack aware

TEST(RackAwareTest, ReplicasSpanDistinctRacks) {
  TokenRing ring(6, 64);
  std::vector<int> rack_of{0, 1, 2, 0, 1, 2};  // 6 nodes over 3 racks
  for (int i = 0; i < 200; ++i) {
    auto reps = ring.replicas_rack_aware("k" + std::to_string(i), 3, rack_of);
    ASSERT_EQ(reps.size(), 3u);
    std::set<int> racks;
    for (auto n : reps) racks.insert(rack_of[n]);
    EXPECT_EQ(racks.size(), 3u) << "key k" << i;
  }
}

TEST(RackAwareTest, FillsBeyondRackCount) {
  TokenRing ring(6, 64);
  std::vector<int> rack_of{0, 1, 0, 1, 0, 1};  // 2 racks
  auto reps = ring.replicas_rack_aware("key", 4, rack_of);
  ASSERT_EQ(reps.size(), 4u);
  std::set<NodeIndex> distinct(reps.begin(), reps.end());
  EXPECT_EQ(distinct.size(), 4u);
  std::set<int> racks;
  for (auto n : reps) racks.insert(rack_of[n]);
  EXPECT_EQ(racks.size(), 2u);  // both racks used before doubling up
}

TEST(RackAwareTest, PrimaryMatchesRingOwner) {
  TokenRing ring(6, 64);
  std::vector<int> rack_of{0, 1, 2, 0, 1, 2};
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(ring.replicas_rack_aware(key, 3, rack_of).front(),
              ring.primary(key));
  }
}

TEST(RackAwareTest, ClusterSurvivesWholeRackLossAtQuorum) {
  ClusterOptions o;
  o.node_count = 6;
  o.replication_factor = 3;
  o.racks = 3;
  Cluster c(o);
  EXPECT_EQ(c.rack_of(0), 0);
  EXPECT_EQ(c.rack_of(4), 1);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(c.insert("t", "p" + std::to_string(i), event_row(i, i, "m"),
                         Consistency::kQuorum).is_ok());
  }
  // An entire rack burns down: every partition still has 2 of 3 replicas.
  c.kill_rack(1);
  EXPECT_EQ(c.live_node_count(), 4u);
  for (int i = 0; i < 30; ++i) {
    ReadQuery q;
    q.table = "t";
    q.partition_key = "p" + std::to_string(i);
    auto r = c.select(q, Consistency::kQuorum);
    ASSERT_TRUE(r.is_ok()) << "partition p" << i;
    EXPECT_EQ(r->rows.size(), 1u);
    ASSERT_TRUE(c.insert("t", q.partition_key, event_row(100 + i, i, "w"),
                         Consistency::kQuorum).is_ok());
  }
}

TEST(RackAwareTest, RackBlindClusterCanLoseQuorumToOneRack) {
  // Control: without rack awareness some partition has 2+ replicas in one
  // "rack" (node index mod 3), so losing that rack kills its quorum.
  ClusterOptions o;
  o.node_count = 6;
  o.replication_factor = 3;
  o.racks = 0;
  Cluster c(o);
  EXPECT_EQ(c.rack_of(2), -1);
  bool some_partition_vulnerable = false;
  for (int i = 0; i < 200 && !some_partition_vulnerable; ++i) {
    auto reps = c.replicas_of("p" + std::to_string(i));
    std::map<int, int> per_rack;
    for (auto n : reps) per_rack[static_cast<int>(n % 3)]++;
    for (const auto& [_, count] : per_rack) {
      if (count >= 2) some_partition_vulnerable = true;
    }
  }
  EXPECT_TRUE(some_partition_vulnerable);
}

TEST(ClusterPagingTest, WalksWholePartitionWithoutDupsOrGaps) {
  Cluster c(small_cluster());
  constexpr int kRows = 100;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(c.insert("t", "pk", event_row(i, i, "m" + std::to_string(i)))
                    .is_ok());
  }
  ReadQuery q;
  q.table = "t";
  q.partition_key = "pk";
  std::vector<std::int64_t> seen;
  std::optional<ClusteringKey> token;
  int pages = 0;
  while (true) {
    auto page = c.select_page(q, 7, token);
    ASSERT_TRUE(page.is_ok());
    for (const auto& row : page->rows) {
      seen.push_back(row.key.parts[0].as_int());
    }
    ++pages;
    if (!page->next) break;
    token = page->next;
    ASSERT_LT(pages, 200) << "paging did not terminate";
  }
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kRows));
  for (int i = 0; i < kRows; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(pages, (kRows + 6) / 7);
}

TEST(ClusterPagingTest, ExactMultipleEndsWithEmptyLastSignal) {
  Cluster c(small_cluster());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(c.insert("t", "pk", event_row(i, i, "m")).is_ok());
  }
  ReadQuery q;
  q.table = "t";
  q.partition_key = "pk";
  auto first = c.select_page(q, 10);
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first->rows.size(), 10u);
  EXPECT_FALSE(first->next.has_value());  // peeked row proves completion
}

TEST(ClusterPagingTest, RespectsSliceBounds) {
  Cluster c(small_cluster());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(c.insert("t", "pk", event_row(i, i, "m")).is_ok());
  }
  ReadQuery q;
  q.table = "t";
  q.partition_key = "pk";
  q.slice.lower = ClusteringKey::of({Value(5)});
  q.slice.upper = ClusteringKey::of({Value(15)});
  std::size_t total = 0;
  std::optional<ClusteringKey> token;
  while (true) {
    auto page = c.select_page(q, 4, token);
    ASSERT_TRUE(page.is_ok());
    total += page->rows.size();
    for (const auto& row : page->rows) {
      EXPECT_GE(row.key.parts[0].as_int(), 5);
      EXPECT_LT(row.key.parts[0].as_int(), 15);
    }
    if (!page->next) break;
    token = page->next;
  }
  EXPECT_EQ(total, 10u);
}

TEST(ClusterPagingTest, EmptyPartition) {
  Cluster c(small_cluster());
  ReadQuery q;
  q.table = "t";
  q.partition_key = "absent";
  auto page = c.select_page(q, 5);
  ASSERT_TRUE(page.is_ok());
  EXPECT_TRUE(page->rows.empty());
  EXPECT_FALSE(page->next.has_value());
}

// ---------------------------------------------------------- limited reads

// Three replicas of "pk" that disagree, each over several storage runs
// (512-byte memtables): kKeys rows written at ALL; then, with the first
// replica down until its hints expire, every third key overwritten and
// kExtra newer keys added; then, with the second replica down the same way,
// every fifth key overwritten again.
constexpr std::int64_t kKeys = 150;
constexpr std::int64_t kExtra = 10;

struct DivergentCluster {
  SimClock clock;
  Cluster c{options()};
  std::vector<NodeIndex> reps;

  DivergentCluster() {
    c.set_clock(&clock);
    reps = c.replicas_of("pk");
    for (std::int64_t i = 0; i < kKeys; ++i) {
      HPCLA_CHECK(
          c.insert("t", "pk", event_row(i, 0, "v1"), Consistency::kAll).is_ok());
    }
    miss_writes(reps[0], [](std::int64_t i) {
      return i >= kKeys || i % 3 == 0;
    }, "v2");
    miss_writes(reps[1], [](std::int64_t i) { return i % 5 == 0; }, "v3");
  }

  // Overwrites the keys `pick` selects while `down` is dead, and lets its
  // hints expire before it comes back.
  template <typename Pick>
  void miss_writes(NodeIndex down, Pick pick, const std::string& msg) {
    c.kill_node(down);
    for (std::int64_t i = 0; i < kKeys + kExtra; ++i) {
      if (!pick(i)) continue;
      HPCLA_CHECK(c.insert("t", "pk", event_row(i, 0, msg),
                           Consistency::kQuorum).is_ok());
    }
    clock.advance_ms(100);
    HPCLA_CHECK(c.revive_node(down) == 0);
  }

  static ClusterOptions options() {
    ClusterOptions o = small_cluster();
    o.hint_ttl_ms = 50;
    o.storage.memtable_flush_bytes = 512;
    o.storage.compaction_threshold = 4;
    return o;
  }
};

ReadQuery pk_query(const ClusteringSlice& slice = {}) {
  ReadQuery q;
  q.table = "t";
  q.partition_key = "pk";
  q.slice = slice;
  return q;
}

TEST(LimitedSelectTest, EqualsTheUnlimitedSelectCut) {
  {
    DivergentCluster d;
    for (const NodeIndex r : d.reps) {
      EXPECT_GE(d.c.engine(r).metrics().memtable_flushes, 10u);
      EXPECT_GE(d.c.engine(r).metrics().compactions, 1u);
    }
    // The replicas really differ.
    std::set<std::uint64_t> digests;
    for (const NodeIndex r : d.reps) {
      digests.insert(rows_digest(d.c.engine(r).read(pk_query()).rows));
    }
    EXPECT_EQ(digests.size(), 3u);
  }
  ClusteringSlice middle;
  middle.lower = ClusteringKey::of({Value(20)});
  middle.upper = ClusteringKey::of({Value(153)});
  std::uint64_t all_mismatches = 0;
  for (const auto& slice : {ClusteringSlice{}, middle}) {
    for (const Consistency cl :
         {Consistency::kOne, Consistency::kQuorum, Consistency::kAll}) {
      for (const bool reverse : {false, true}) {
        // Every read below runs on a fresh copy: read repair changes the
        // replicas it reads.
        ReadQuery q = pk_query(slice);
        q.reverse = reverse;
        DivergentCluster reference;
        const auto whole = reference.c.select(q, cl);
        ASSERT_TRUE(whole.is_ok());
        const std::size_t n = whole->rows.size();
        ASSERT_GT(n, 100u);
        for (const std::size_t limit :
             {std::size_t{1}, std::size_t{7}, std::size_t{100}, n - 1, n,
              n + 1}) {
          std::vector<Row> want = whole->rows;
          want.resize(std::min(limit, n));
          DivergentCluster d;
          q.limit = limit;
          const auto got = d.c.select(q, cl);
          ASSERT_TRUE(got.is_ok());
          const std::string where =
              std::string(consistency_name(cl)) + " limit " +
              std::to_string(limit) + (reverse ? " reverse" : "") +
              (slice.lower ? " middle" : "");
          EXPECT_EQ(got->rows, want) << where;
          EXPECT_EQ(got->truncated, n > limit) << where;
          if (cl == Consistency::kAll) {
            all_mismatches += d.c.metrics().digest_mismatches;
          }
        }
      }
    }
  }
  EXPECT_GT(all_mismatches, 0u);  // the merge path ran, not only digests
}

TEST(LimitedSelectTest, PageWalksReproduceTheUnlimitedRead) {
  for (const Consistency cl :
       {Consistency::kOne, Consistency::kQuorum, Consistency::kAll}) {
    DivergentCluster reference;
    const auto whole = reference.c.select(pk_query(), cl);
    ASSERT_TRUE(whole.is_ok());
    ASSERT_GE(whole->rows.size(), static_cast<std::size_t>(kKeys));
    for (const std::size_t page_size : {1u, 7u, 500u}) {
      DivergentCluster d;
      std::vector<Row> walked;
      std::optional<ClusteringKey> token;
      std::size_t pages = 0;
      do {
        const auto page = d.c.select_page(pk_query(), page_size, token, cl);
        ASSERT_TRUE(page.is_ok());
        walked.insert(walked.end(), page->rows.begin(), page->rows.end());
        token = page->next;
        ASSERT_LE(++pages, whole->rows.size() + 1) << "paging did not end";
      } while (token);
      EXPECT_EQ(walked, whole->rows)
          << consistency_name(cl) << " page size " << page_size;
      EXPECT_EQ(pages, (whole->rows.size() + page_size - 1) / page_size);
    }
  }
}

TEST(LimitedSelectTest, DigestsAndRepairCoverOnlyTheRowsReturned) {
  SimClock clock;
  ClusterOptions o = small_cluster();
  o.hint_ttl_ms = 50;
  Cluster c(o);
  c.set_clock(&clock);
  for (std::int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        c.insert("t", "pk", event_row(i, 0, "v"), Consistency::kAll).is_ok());
  }
  const auto reps = c.replicas_of("pk");
  c.kill_node(reps[0]);
  for (std::int64_t i = 20; i < 30; ++i) {
    ASSERT_TRUE(
        c.insert("t", "pk", event_row(i, 0, "v"), Consistency::kQuorum).is_ok());
  }
  clock.advance_ms(100);
  ASSERT_EQ(c.revive_node(reps[0]), 0u);  // reps[0] never hears of 20..29

  // The oldest 10 rows agree on every replica: no mismatch, no repair.
  ReadQuery q = pk_query();
  q.limit = 10;
  auto oldest = c.select(q, Consistency::kAll);
  ASSERT_TRUE(oldest.is_ok());
  ASSERT_EQ(oldest->rows.size(), 10u);
  EXPECT_EQ(oldest->rows.back().key.parts[0].as_int(), 9);
  EXPECT_TRUE(oldest->truncated);
  EXPECT_EQ(c.metrics().digest_mismatches, 0u);
  EXPECT_EQ(c.metrics().read_repairs, 0u);
  EXPECT_EQ(c.engine(reps[0]).read(pk_query()).rows.size(), 20u);

  // The newest 10 differ: the read repairs exactly those rows.
  q.reverse = true;
  auto newest = c.select(q, Consistency::kAll);
  ASSERT_TRUE(newest.is_ok());
  ASSERT_EQ(newest->rows.size(), 10u);
  EXPECT_EQ(newest->rows.front().key.parts[0].as_int(), 29);
  EXPECT_EQ(newest->rows.back().key.parts[0].as_int(), 20);
  EXPECT_TRUE(newest->truncated);
  EXPECT_EQ(c.metrics().digest_mismatches, 1u);
  EXPECT_EQ(c.metrics().read_repairs, 1u);
  EXPECT_EQ(c.engine(reps[0]).read(pk_query()).rows.size(), 30u);
}

// -------------------------------------------------------------- resilience

TEST(ResilienceTest, HintQueueIsBoundedPerNodeOldestDroppedFirst) {
  ClusterOptions o = small_cluster();
  o.max_hints_per_node = 4;
  Cluster c(o);
  const auto reps = c.replicas_of("pk");
  c.kill_node(reps[1]);
  for (std::int64_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(c.insert("t", "pk", event_row(i, 0, "m" + std::to_string(i)),
                         Consistency::kQuorum)
                    .is_ok());
  }
  EXPECT_EQ(c.pending_hints(), 4u);  // bound held
  EXPECT_EQ(c.metrics().hints_overflowed, 3u);
  EXPECT_EQ(c.revive_node(reps[1]), 4u);

  // Only the 4 newest writes were hinted; the revived node misses 0..2
  // until read repair touches the partition.
  ReadQuery q;
  q.table = "t";
  q.partition_key = "pk";
  const auto rows = c.engine(reps[1]).read(q).rows;
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows.front().key.parts[0].as_int(), 3);
}

TEST(ResilienceTest, ExpiredHintsAreDroppedNotReplayed) {
  SimClock clock;
  ClusterOptions o = small_cluster();
  o.hint_ttl_ms = 100;
  Cluster c(o);
  c.set_clock(&clock);
  const auto reps = c.replicas_of("pk");
  c.kill_node(reps[1]);
  ASSERT_TRUE(
      c.insert("t", "pk", event_row(1, 0, "old"), Consistency::kQuorum)
          .is_ok());
  clock.advance_ms(150);  // past the TTL
  ASSERT_TRUE(
      c.insert("t", "pk", event_row(2, 0, "new"), Consistency::kQuorum)
          .is_ok());
  // Replay applies only the fresh hint; the expired one is counted, not
  // delivered.
  EXPECT_EQ(c.revive_node(reps[1]), 1u);
  EXPECT_EQ(c.metrics().hints_expired, 1u);
  ReadQuery q;
  q.table = "t";
  q.partition_key = "pk";
  const auto rows = c.engine(reps[1]).read(q).rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].find("msg")->as_text(), "new");
}

TEST(ResilienceTest, TransientWriteErrorsAreRetriedAndCounted) {
  SimClock clock;
  FaultOptions fopts;
  fopts.seed = 21;
  fopts.write_error_rate = 0.3;
  fopts.base_latency_ms = 1;
  ClusterOptions o = small_cluster();
  FaultInjector injector(o.node_count, fopts, &clock);
  Cluster c(o);
  c.set_fault_injector(&injector);
  for (std::int64_t i = 0; i < 100; ++i) {
    // At a 30% transient error rate with 2 retries per replica, QUORUM
    // writes virtually never fail (p(replica lost) ~ 0.027).
    const Status st = c.insert("t", "pk" + std::to_string(i % 5),
                               event_row(i, 0, "m"), Consistency::kQuorum);
    EXPECT_TRUE(st.is_ok() || st.code() == StatusCode::kUnavailable);
  }
  const ClusterMetrics m = c.metrics();
  EXPECT_GT(m.write_retries, 0u);
  EXPECT_GT(m.writes_ok, 90u);
  EXPECT_GT(injector.counts().write_errors, 0u);
}

TEST(ResilienceTest, DigestMismatchTriggersRepairOfStaleReplica) {
  // Build divergence the honest way: a hint expires, so the revived
  // replica never hears about the overwrite. A QUORUM-of-digests read then
  // disagrees, falls back to full reads + LWW merge, and repairs it.
  SimClock clock;
  ClusterOptions o = small_cluster();
  o.hint_ttl_ms = 50;
  Cluster c(o);
  c.set_clock(&clock);
  ASSERT_TRUE(
      c.insert("t", "pk", event_row(1, 0, "v1"), Consistency::kAll).is_ok());
  const auto reps = c.replicas_of("pk");
  c.kill_node(reps[0]);
  ASSERT_TRUE(
      c.insert("t", "pk", event_row(1, 0, "v2"), Consistency::kQuorum)
          .is_ok());
  clock.advance_ms(100);         // the hint for reps[0] expires
  EXPECT_EQ(c.revive_node(reps[0]), 0u);
  EXPECT_EQ(c.metrics().hints_expired, 1u);

  ReadQuery q;
  q.table = "t";
  q.partition_key = "pk";
  // The stale replica really is stale before the coordinated read...
  ASSERT_EQ(c.engine(reps[0]).read(q).rows[0].find("msg")->as_text(), "v1");
  const auto r = c.select(q, Consistency::kAll);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->rows[0].find("msg")->as_text(), "v2");
  EXPECT_GT(c.metrics().digest_mismatches, 0u);
  EXPECT_GT(c.metrics().read_repairs, 0u);
  // ...and repaired after it.
  EXPECT_EQ(c.engine(reps[0]).read(q).rows[0].find("msg")->as_text(), "v2");
}

TEST(ResilienceTest, TracedReadReportsSpeculationAndLatency) {
  SimClock clock;
  FaultOptions fopts;
  fopts.seed = 4;
  fopts.base_latency_ms = 5;
  fopts.slow_latency_ms = 200;
  ClusterOptions o;
  o.node_count = 5;
  o.replication_factor = 3;
  o.speculative_delay_ms = 5;
  o.read_timeout_ms = 1000;
  FaultInjector injector(o.node_count, fopts, &clock);
  Cluster c(o);
  c.set_fault_injector(&injector);
  ASSERT_TRUE(
      c.insert("t", "pk", event_row(1, 0, "x"), Consistency::kAll).is_ok());

  ReadQuery q;
  q.table = "t";
  q.partition_key = "pk";
  const auto order = c.read_order_of("pk");
  ASSERT_GE(order.size(), 3u);
  injector.slow_window(order[0], 0, INT64_MAX / 2);  // first-choice replica

  const auto traced = c.select_traced(q, Consistency::kQuorum);
  ASSERT_TRUE(traced.is_ok());
  EXPECT_TRUE(traced->speculated);
  EXPECT_EQ(traced->latency_ms, 10);  // spec_delay(5) + base(5), not 200
  EXPECT_EQ(traced->replicas_contacted, 3u);
  EXPECT_EQ(traced->result.rows.size(), 1u);
  EXPECT_EQ(c.metrics().speculative_reads, 1u);
}

class ClusterScaleTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ClusterScaleTest, RoundTripAtEveryClusterSize) {
  ClusterOptions o;
  o.node_count = GetParam();
  o.replication_factor = 3;
  Cluster c(o);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(c.insert("t", "p" + std::to_string(i % 5),
                         event_row(i, i, "m" + std::to_string(i)))
                    .is_ok());
  }
  std::size_t total = 0;
  for (int p = 0; p < 5; ++p) {
    ReadQuery q;
    q.table = "t";
    q.partition_key = "p" + std::to_string(p);
    auto r = c.select(q, Consistency::kQuorum);
    ASSERT_TRUE(r.is_ok());
    total += r->rows.size();
  }
  EXPECT_EQ(total, 50u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClusterScaleTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32));

}  // namespace
}  // namespace hpcla::cassalite
