// The simulated cassalite cluster: N nodes (each a StorageEngine), a token
// ring for placement, replication with tunable consistency, hinted handoff
// for writes to down nodes, and read repair. This is the paper's
// "32 VM Cassandra cluster" scaled to an in-process simulation — identical
// data paths, node boundaries enforced by the ring, failures injectable.
//
// Since PR 9 the topology is *elastic*: the ring lives inside an
// epoch-stamped TopologyVersion published RCU-style (like PR 6's rowstore
// snapshots). add_node/remove_node/rebalance move token ranges in three
// stages — publish a pending ring (writers dual-write old+new owners),
// stream moved ranges to their new owners from a quorum of old owners,
// then commit the new ring — so no write acked at QUORUM is ever lost
// across a movement. Merkle-tree anti-entropy repair reconciles replicas
// that diverged while partitioned (DESIGN.md §15).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cassalite/ring.hpp"
#include "cassalite/schema.hpp"
#include "cassalite/storage_engine.hpp"
#include "common/telemetry.hpp"

namespace hpcla {
class ThreadPool;
class FaultInjector;
class SimClock;
}

namespace hpcla::cassalite {

/// Cassandra-style tunable consistency for reads and writes.
enum class Consistency : std::uint8_t { kOne, kQuorum, kAll };

std::string_view consistency_name(Consistency c) noexcept;

/// Number of replica acknowledgements required at replication factor rf.
constexpr std::size_t required_acks(Consistency c, std::size_t rf) noexcept {
  switch (c) {
    case Consistency::kOne: return 1;
    case Consistency::kQuorum: return rf / 2 + 1;
    case Consistency::kAll: return rf;
  }
  return rf;
}

struct ClusterOptions {
  std::size_t node_count = 4;
  std::size_t replication_factor = 3;
  std::size_t vnodes = 64;
  std::uint64_t ring_seed = 0xCA55A17E;
  /// Number of failure domains ("racks"); node i lives in rack i % racks.
  /// 0 disables rack awareness (SimpleStrategy placement).
  std::size_t racks = 0;
  StorageOptions storage;

  // --- resilience knobs (virtual milliseconds; see DESIGN.md §10) ---

  /// Soft per-replica deadline: a replica answering slower than this is
  /// counted as timed out and does not contribute to the consistency level.
  std::int64_t read_timeout_ms = 1000;
  std::int64_t write_timeout_ms = 1000;
  /// Launch one speculative read on the next-best replica when the
  /// consistency level has not been met after this long.
  std::int64_t speculative_delay_ms = 50;
  bool speculative_retry = true;
  /// Transient replica errors are retried on the same replica up to this
  /// many times, with exponential backoff + decorrelated jitter.
  std::size_t max_replica_retries = 2;
  std::int64_t retry_backoff_base_ms = 4;
  std::int64_t retry_backoff_max_ms = 64;
  /// At QUORUM/ALL, ship one data response plus digests; fall back to full
  /// reads + repair only on digest mismatch.
  bool digest_reads = true;
  /// Hinted-handoff bounds, enforced per target node (sharded queues).
  /// The default absorbs a full batch-ingest day with one replica down;
  /// oldest hints are dropped first once the bound is hit.
  std::size_t max_hints_per_node = 65536;
  std::int64_t hint_ttl_ms = 600000;  // 10 virtual minutes

  // --- elastic-topology knobs (DESIGN.md §15) ---

  /// Upper bound on engine slots across the cluster's lifetime (node
  /// additions never reallocate the engine/hint/liveness arrays). 0 means
  /// node_count + 16.
  std::size_t max_node_count = 0;
  /// Merkle tree depth for anti-entropy repair: each repaired range splits
  /// into 2^depth leaves; only divergent leaves stream rows.
  int repair_merkle_depth = 4;
  /// Which node the coordinator logic "runs on" for partition-link checks
  /// (a partitioned coordinator cannot reach replicas across the cut).
  std::size_t coordinator_node = 0;
};

/// Coordinator-level counters (atomics; safe to read anytime).
struct ClusterMetrics {
  std::uint64_t writes_ok = 0;
  std::uint64_t writes_unavailable = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t reads_unavailable = 0;
  std::uint64_t hints_stored = 0;
  std::uint64_t hints_replayed = 0;
  std::uint64_t read_repairs = 0;
  // resilience counters
  std::uint64_t read_retries = 0;
  std::uint64_t write_retries = 0;
  std::uint64_t speculative_reads = 0;
  std::uint64_t replica_timeouts = 0;
  std::uint64_t digest_mismatches = 0;
  std::uint64_t hints_expired = 0;
  std::uint64_t hints_overflowed = 0;
  // elastic topology + anti-entropy counters
  std::uint64_t topology_changes = 0;     ///< committed ring transitions
  std::uint64_t pending_range_writes = 0; ///< writes dual-routed to movers
  std::uint64_t stream_rows_sent = 0;     ///< rows copied by rebalance streams
  std::uint64_t repairs_scheduled = 0;    ///< repair(table) invocations
  std::uint64_t ranges_streamed = 0;      ///< moved ranges + divergent leaves
  std::uint64_t repair_rows_sent = 0;     ///< rows applied by repair
};

/// Per-read coordinator trace: how the read completed under faults.
/// Latencies are virtual (fault-injected); 0 without an injector.
struct ReadTrace {
  ReadResult result;
  std::int64_t latency_ms = 0;
  std::size_t replicas_contacted = 0;
  bool speculated = false;
  bool digest_matched = true;
};

/// Result of one anti-entropy repair pass (see Cluster::repair).
struct RepairReport {
  std::size_t tables = 0;            ///< tables repaired
  std::size_t ranges_checked = 0;    ///< ownership ranges Merkle-compared
  std::size_t ranges_diverged = 0;   ///< divergent Merkle leaves found
  std::size_t rows_streamed = 0;     ///< rows applied to stale replicas
  std::size_t replicas_repaired = 0; ///< (replica, leaf) repair applications
};

/// Movement stages surfaced to the topology hook (chaos tests inject
/// partitions and traffic at exact protocol points through this).
enum class TopologyStage { kPendingPublished, kStreamed, kCommitted };

class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});

  // ------------------------------------------------------------------ DDL

  /// Registers a table. Duplicate names are rejected.
  Status create_table(TableSchema schema);

  /// Schema lookup.
  [[nodiscard]] Result<TableSchema> schema(const std::string& table) const;

  /// All registered schemas, in creation order.
  [[nodiscard]] std::vector<TableSchema> schemas() const;

  // ----------------------------------------------------------------- data

  /// Coordinator write: assigns a write timestamp, routes to the replica
  /// set, stores hints for down replicas. Fails with UNAVAILABLE when
  /// fewer than required_acks replicas are alive. During a topology
  /// movement the write is dual-routed: natural replicas of the committed
  /// ring plus the pending ring's extra owners, all of which must ack
  /// (pending-range writes) so the post-commit quorum always intersects
  /// the acked set.
  Status insert(const std::string& table, const std::string& partition_key,
                Row row, Consistency consistency = Consistency::kQuorum);

  /// Coordinator read: queries the required number of live replicas,
  /// reconciles last-write-wins, and repairs stale replicas it touched.
  /// Each replica reads only the query's cut (slice, `limit`, direction),
  /// so digests and read repair cover the rows the read returns.
  /// Logically const: read repair only rewrites replica-internal state.
  [[nodiscard]] Result<ReadResult> select(
      const ReadQuery& query,
      Consistency consistency = Consistency::kOne) const;

  /// `select` plus a coordinator trace (virtual latency, speculation,
  /// digest outcome) — the observability hook for the chaos harness and
  /// the speculative-retry latency tests.
  [[nodiscard]] Result<ReadTrace> select_traced(
      const ReadQuery& query,
      Consistency consistency = Consistency::kOne) const;

  /// One page of a large partition (Cassandra-style paging): ascending
  /// clustering order, at most `page_size` rows, starting strictly after
  /// `resume_after` (nullopt = from the slice start). `query.limit` and
  /// `query.reverse` are ignored. Replicas read `page_size + 1` rows; the
  /// returned `next` token is set iff more rows remain; feed it back to
  /// continue.
  struct Page {
    std::vector<Row> rows;
    std::optional<ClusteringKey> next;
  };
  [[nodiscard]] Result<Page> select_page(
      const ReadQuery& query, std::size_t page_size,
      const std::optional<ClusteringKey>& resume_after = std::nullopt,
      Consistency consistency = Consistency::kOne) const;

  /// Multi-partition read fanned across `pool`; results align with
  /// `partition_keys` by index. At Consistency::kOne, keys are grouped by
  /// their first live replica and each node's batch is served against a
  /// single storage snapshot (StorageEngine::scan_partitions) — one task
  /// drives a whole node-local batch instead of issuing per-key reads.
  /// Higher consistency levels fan out per-key quorum selects instead.
  [[nodiscard]] std::vector<Result<ReadResult>> parallel_read(
      ThreadPool& pool, const std::string& table,
      const std::vector<std::string>& partition_keys,
      const ClusteringSlice& slice = {},
      Consistency consistency = Consistency::kOne) const;

  // ------------------------------------------------------------- topology

  /// Engine slots ever created (index space). Removed members keep their
  /// slot, so this only grows; use member_count() for ring membership.
  [[nodiscard]] std::size_t node_count() const noexcept {
    return node_slots_.load(std::memory_order_acquire);
  }
  /// Current ring members.
  [[nodiscard]] std::size_t member_count() const noexcept {
    return ring().node_count();
  }
  [[nodiscard]] bool is_member(NodeIndex node) const noexcept {
    return ring().is_member(node);
  }
  [[nodiscard]] std::size_t replication_factor() const noexcept {
    return options_.replication_factor;
  }
  /// The committed ring of the current topology version. The reference
  /// stays valid for the cluster's lifetime (superseded rings are pinned
  /// by the topology history), but a new ring may be published at any
  /// time — re-call for fresh placement.
  [[nodiscard]] const TokenRing& ring() const noexcept;

  /// Epoch of the current topology version (bumps on every publish:
  /// pending, commit, and abort).
  [[nodiscard]] std::uint64_t ring_epoch() const noexcept;

  /// True while a movement's pending ring is published but not committed.
  [[nodiscard]] bool movement_in_progress() const noexcept;

  /// Adds a fresh node (new StorageEngine slot) to the ring and streams
  /// its gained ranges from a quorum of the old owners before committing.
  /// `vnodes` 0 means the cluster default; `rack` -1 means the slot's
  /// default failure domain (index % racks). Returns the new node's index.
  Result<NodeIndex> add_node(std::size_t vnodes = 0, int rack = -1,
                             std::uint64_t token_seed = 0x5EEDAD0Dull);

  /// Removes a member from the ring (decommission): its ranges fall to
  /// the remaining members, streamed before the commit. The engine slot
  /// and its data survive — only ownership changes. Refused when it would
  /// leave fewer members than the replication factor.
  Status remove_node(NodeIndex node);

  /// Re-derives every member's tokens from `token_seed` and migrates all
  /// moved ranges (a full elastic rebalance).
  Status rebalance(std::uint64_t token_seed);

  /// Ranges served by `node` as a streaming source across all movements
  /// (introspection for the suspicion-aware source-selection tests).
  [[nodiscard]] std::uint64_t streams_served(NodeIndex node) const;

  /// Observes movement stages (chaos tests schedule partitions and traffic
  /// at exact protocol points). Called with topology lock held — do not
  /// call topology operations from inside. Wire up before traffic starts.
  void set_topology_hook(std::function<void(TopologyStage)> hook);

  // --------------------------------------------------------- anti-entropy

  /// Merkle anti-entropy repair of one table: every ownership range of the
  /// committed ring is hash-tree-compared across its live replicas; only
  /// divergent leaves stream rows, reconciled last-write-wins. Replicas
  /// end byte-identical on every compared range.
  Result<RepairReport> repair(const std::string& table);

  /// repair() over every registered table, summed.
  Result<RepairReport> repair_all();

  /// Replica set for a partition key (primary first); rack-aware when the
  /// cluster was configured with failure domains.
  [[nodiscard]] std::vector<NodeIndex> replicas_of(
      const std::string& partition_key) const {
    return replicas_in(ring(), partition_key);
  }

  /// Rack of a node (-1 when rack awareness is disabled).
  [[nodiscard]] int rack_of(NodeIndex node) const {
    HPCLA_CHECK_MSG(node < node_count(), "node index out of range");
    return rack_aware_ ? rack_of_[node] : -1;
  }

  /// Kills every node of one rack (fault-injection convenience).
  void kill_rack(int rack);

  // ------------------------------------------------------ fault injection

  /// Attaches a fault injector: its crash windows extend node liveness,
  /// its error rates drive transient read/write failures, its latencies
  /// drive timeouts and speculation, and its partition links gate
  /// coordinator<->replica traffic. Also forwards to every node's
  /// StorageEngine and (when no clock was set) adopts the injector's
  /// SimClock for hint TTLs. Wire up before traffic starts.
  void set_fault_injector(FaultInjector* injector);

  /// Virtual clock for hint TTL accounting (nullptr = TTLs never fire).
  void set_clock(SimClock* clock);

  /// Suspicion oracle consulted when ordering replicas for reads and when
  /// choosing streaming sources: suspected nodes are tried last (reads)
  /// or excluded (streams). Typically wraps Gossiper::suspects from the
  /// coordinator's viewpoint. Must be safe to call concurrently; wire up
  /// before traffic starts.
  void set_suspicion_source(std::function<bool(NodeIndex)> suspected);

  /// Invoked immediately before streaming sources are chosen, so the
  /// failure detector can refresh its verdicts (e.g. run gossip rounds)
  /// instead of acting on stale suspicion.
  void set_suspicion_refresher(std::function<void()> refresher);

  /// Replica read order for a key: up replicas only, unsuspected before
  /// suspected, ring order otherwise (introspection for ordering tests).
  [[nodiscard]] std::vector<NodeIndex> read_order_of(
      const std::string& partition_key) const;

  /// Marks a node down: it stops acking writes and serving reads; writes
  /// destined for it are stored as hints on the coordinator.
  void kill_node(NodeIndex node);

  /// Brings a node back and replays its hinted mutations.
  /// Returns the number of hints replayed.
  std::size_t revive_node(NodeIndex node);

  /// Replays (and drops) the hint queue of one node, skipping TTL-expired
  /// entries. Safe to call anytime; a no-op for an empty queue. Returns
  /// the number of hints applied.
  std::size_t replay_hints(NodeIndex node);

  /// Replays hints for every node currently up and reachable from the
  /// coordinator (chaos-heal convenience).
  std::size_t replay_all_hints();

  /// Simulates a process crash on a node: its memtables are lost and
  /// recovered from the commit log (the node stays "up" throughout).
  /// Returns the number of replayed mutations.
  std::size_t crash_node(NodeIndex node);

  [[nodiscard]] bool is_alive(NodeIndex node) const;
  [[nodiscard]] std::size_t live_node_count() const;
  [[nodiscard]] std::size_t pending_hints() const;

  // --------------------------------------------- scan / locality support

  /// Direct access to a node's engine — sparklite workers use this to scan
  /// partitions resident on "their" node (data locality, paper §III-A).
  [[nodiscard]] const StorageEngine& engine(NodeIndex node) const;

  /// Partition keys of `table` whose *primary* replica is `node`.
  [[nodiscard]] std::vector<std::string> primary_partition_keys(
      NodeIndex node, const std::string& table) const;

  /// All partition keys of `table` across the cluster (deduplicated).
  [[nodiscard]] std::vector<std::string> all_partition_keys(
      const std::string& table) const;

  [[nodiscard]] ClusterMetrics metrics() const;

 private:
  struct Hint {
    WriteCommand cmd;
    std::int64_t stored_at_ms = 0;  ///< SimClock time; TTL anchor
  };

  /// Per-target-node hint queue: its own mutex, FIFO, TTL + size bound.
  /// Sharding means a write hinting node A never contends with replay or
  /// writes hinting node B (the old design took one global mutex on every
  /// operation — ROADMAP open item).
  struct HintShard {
    mutable std::mutex mu;
    std::deque<Hint> q;
  };

  /// One atomically-published topology version. `committed` is the ring
  /// reads use; during a movement `pending` carries the successor ring and
  /// `moved` its diff, and writers dual-route. `inflight` counts writers
  /// currently routing against this version — the movement coordinator
  /// drains it after publishing a successor, so no write straddles the
  /// stream-then-commit boundary unseen (RCU grace period).
  struct TopologyVersion {
    std::uint64_t epoch = 0;
    std::shared_ptr<const TokenRing> committed;
    std::shared_ptr<const TokenRing> pending;  ///< null outside movements
    std::vector<MovedRange> moved;
    mutable std::atomic<std::uint64_t> inflight{0};
  };

  /// One coordinator attempt against one replica, resolved in virtual
  /// time. `end` is when the coordinator learns the outcome (response,
  /// final retry failure, or soft-timeout expiry).
  struct ReplicaTry {
    NodeIndex replica = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
    bool usable = false;    ///< responded ok within read_timeout_ms
    bool timed_out = false;
    bool hedged = false;    ///< launched as the speculative extra read
    std::size_t retries = 0;  ///< transient-error retries consumed
  };

  [[nodiscard]] const TopologyVersion* topo() const noexcept {
    return topo_.load(std::memory_order_acquire);
  }
  /// Pins the current version for a write: increments inflight and
  /// re-checks publication so the movement coordinator's drain is exact.
  [[nodiscard]] const TopologyVersion* enter_write() const;
  void leave_write(const TopologyVersion* v) const;
  /// Publishes `next` (under topo_mu_) and waits for the superseded
  /// version's inflight writers to drain.
  void publish_and_drain(std::shared_ptr<TopologyVersion> next);
  /// Shared movement driver: pending publish -> stream -> commit.
  Status apply_topology_change_locked(
      std::shared_ptr<const TokenRing> next_ring);
  /// Streams every moved range to its gained owners from a quorum of old
  /// owners (suspicion- and partition-aware source selection).
  Status stream_moved_ranges(const std::vector<MovedRange>& moved);
  /// Union of registered schemas and every engine's stored tables.
  [[nodiscard]] std::vector<std::string> all_table_names() const;

  /// Replica set of `key` in an explicit ring (rack-aware when enabled).
  [[nodiscard]] std::vector<NodeIndex> replicas_in(
      const TokenRing& ring, const std::string& key) const {
    if (rack_aware_) {
      return ring.replicas_rack_aware(key, options_.replication_factor,
                                      rack_of_);
    }
    return ring.replicas(key, options_.replication_factor);
  }

  /// Node accepts traffic: marked alive AND not inside an injected crash
  /// window.
  [[nodiscard]] bool replica_up(NodeIndex node) const;
  /// Coordinator can exchange a round trip with `node` (no partition link
  /// down in either direction).
  [[nodiscard]] bool reachable(NodeIndex node) const;
  [[nodiscard]] std::int64_t now_ms() const noexcept;
  /// Read preference order over an explicit replica set (up + reachable
  /// replicas only, unsuspected first).
  [[nodiscard]] std::vector<NodeIndex> order_replicas(
      const std::vector<NodeIndex>& replicas) const;
  /// Appends to `node`'s hint shard, enforcing TTL + size bound.
  void store_hint(NodeIndex node, const WriteCommand& cmd);
  /// Deterministic decorrelated jitter for a retry backoff.
  [[nodiscard]] std::int64_t backoff_ms(std::uint64_t salt,
                                        std::int64_t prev) const;
  /// Simulates one replica read try (retry loop + backoff) in virtual time.
  [[nodiscard]] ReplicaTry run_read_try(NodeIndex replica, std::int64_t start,
                                        std::uint64_t salt) const;
  /// Full-partition read straight off one replica (repair/stream helper).
  [[nodiscard]] std::vector<Row> read_partition(NodeIndex node,
                                                const std::string& table,
                                                const std::string& key) const;

  ClusterOptions options_;
  std::size_t capacity_ = 0;  ///< engine-slot bound (max_node_count)
  bool rack_aware_ = false;
  std::vector<int> rack_of_;  ///< capacity_-sized; only members are read
  std::atomic<std::size_t> node_slots_{0};
  std::unique_ptr<std::unique_ptr<StorageEngine>[]> nodes_;
  std::unique_ptr<std::atomic<bool>[]> alive_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> streams_served_;

  // Topology versions: readers follow the raw pointer (lock-free); the
  // history vector (guarded by topo_mu_) pins every published version for
  // the cluster's lifetime so ring() references never dangle.
  mutable std::mutex topo_mu_;
  std::vector<std::shared_ptr<TopologyVersion>> topo_history_;
  mutable std::atomic<const TopologyVersion*> topo_{nullptr};

  // Fault wiring: raw pointers, not owned; set before traffic starts.
  FaultInjector* injector_ = nullptr;
  SimClock* clock_ = nullptr;
  std::function<bool(NodeIndex)> suspected_;
  std::function<void()> suspicion_refresher_;
  std::function<void(TopologyStage)> topology_hook_;

  mutable std::mutex ddl_mu_;
  std::vector<TableSchema> schemas_;

  std::unique_ptr<HintShard[]> hint_shards_;

  std::atomic<std::int64_t> write_clock_{1};

  // metrics
  mutable std::atomic<std::uint64_t> writes_ok_{0};
  mutable std::atomic<std::uint64_t> writes_unavailable_{0};
  mutable std::atomic<std::uint64_t> reads_ok_{0};
  mutable std::atomic<std::uint64_t> reads_unavailable_{0};
  mutable std::atomic<std::uint64_t> hints_stored_{0};
  mutable std::atomic<std::uint64_t> hints_replayed_{0};
  mutable std::atomic<std::uint64_t> read_repairs_{0};
  mutable std::atomic<std::uint64_t> read_retries_{0};
  mutable std::atomic<std::uint64_t> write_retries_{0};
  mutable std::atomic<std::uint64_t> speculative_reads_{0};
  mutable std::atomic<std::uint64_t> replica_timeouts_{0};
  mutable std::atomic<std::uint64_t> digest_mismatches_{0};
  mutable std::atomic<std::uint64_t> hints_expired_{0};
  mutable std::atomic<std::uint64_t> hints_overflowed_{0};
  mutable std::atomic<std::uint64_t> topology_changes_{0};
  mutable std::atomic<std::uint64_t> pending_range_writes_{0};
  mutable std::atomic<std::uint64_t> stream_rows_sent_{0};
  mutable std::atomic<std::uint64_t> repairs_scheduled_{0};
  mutable std::atomic<std::uint64_t> ranges_streamed_{0};
  mutable std::atomic<std::uint64_t> repair_rows_sent_{0};

  // Registry collector exposing the counters above plus the aggregated
  // per-node StorageMetrics under `cassalite.*` names (DESIGN.md §11).
  // Last member: it captures `this`, so it must deregister first.
  telemetry::CollectorHandle telemetry_;
};

}  // namespace hpcla::cassalite
