#include "cassalite/cluster.hpp"

#include <algorithm>
#include <set>
#include <thread>
#include <utility>

#include "cassalite/merkle.hpp"
#include "common/faultsim.hpp"
#include "common/hash.hpp"
#include "common/thread_pool.hpp"

namespace hpcla::cassalite {
namespace {

constexpr std::uint64_t kBackoffChannel = fnv1a_64("cassalite.backoff");

/// LWW merge of full-slice row sets from several replicas: per clustering
/// key the newest write wins. Consumes `results`.
ReadResult merge_lww(std::vector<ReadResult>& results) {
  ReadResult merged;
  std::vector<Row> all;
  for (auto& r : results) {
    all.insert(all.end(), std::make_move_iterator(r.rows.begin()),
               std::make_move_iterator(r.rows.end()));
  }
  std::stable_sort(all.begin(), all.end(), [](const Row& a, const Row& b) {
    const auto c = a.key.compare(b.key);
    if (c != std::strong_ordering::equal) {
      return c == std::strong_ordering::less;
    }
    return a.write_ts < b.write_ts;
  });
  for (auto& row : all) {
    if (!merged.rows.empty() && merged.rows.back().key == row.key) {
      merged.rows.back() = std::move(row);
    } else {
      merged.rows.push_back(std::move(row));
    }
  }
  return merged;
}

}  // namespace

std::string_view consistency_name(Consistency c) noexcept {
  switch (c) {
    case Consistency::kOne: return "ONE";
    case Consistency::kQuorum: return "QUORUM";
    case Consistency::kAll: return "ALL";
  }
  return "?";
}

Cluster::Cluster(ClusterOptions options) : options_(options) {
  HPCLA_CHECK_MSG(options.node_count >= 1, "cluster needs at least one node");
  options_.replication_factor =
      std::min(std::max<std::size_t>(options_.replication_factor, 1),
               options_.node_count);
  capacity_ = options_.max_node_count != 0 ? options_.max_node_count
                                           : options_.node_count + 16;
  HPCLA_CHECK_MSG(capacity_ >= options_.node_count,
                  "max_node_count below initial node_count");
  rack_aware_ = options_.racks > 0;
  rack_of_.resize(capacity_, 0);
  if (rack_aware_) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      rack_of_[i] = static_cast<int>(i % options_.racks);
    }
  }
  nodes_ = std::make_unique<std::unique_ptr<StorageEngine>[]>(capacity_);
  alive_ = std::make_unique<std::atomic<bool>[]>(capacity_);
  streams_served_ = std::make_unique<std::atomic<std::uint64_t>[]>(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    alive_[i].store(true, std::memory_order_relaxed);
    streams_served_[i].store(0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < options_.node_count; ++i) {
    nodes_[i] = std::make_unique<StorageEngine>(options_.storage);
  }
  node_slots_.store(options_.node_count, std::memory_order_release);
  hint_shards_ = std::make_unique<HintShard[]>(capacity_);

  auto v0 = std::make_shared<TopologyVersion>();
  v0->epoch = 1;
  v0->committed = std::make_shared<const TokenRing>(
      options_.node_count, options_.vnodes, options_.ring_seed);
  topo_history_.push_back(v0);
  topo_.store(v0.get(), std::memory_order_release);

  telemetry_ = telemetry::registry().register_collector(
      [this](telemetry::MetricSink& sink) {
        const ClusterMetrics m = metrics();
        sink.counter("cassalite.write.ok", m.writes_ok);
        sink.counter("cassalite.write.unavailable", m.writes_unavailable);
        sink.counter("cassalite.write.retries", m.write_retries);
        sink.counter("cassalite.write.pending_range", m.pending_range_writes);
        sink.counter("cassalite.read.ok", m.reads_ok);
        sink.counter("cassalite.read.unavailable", m.reads_unavailable);
        sink.counter("cassalite.read.retries", m.read_retries);
        sink.counter("cassalite.read.repairs", m.read_repairs);
        sink.counter("cassalite.read.speculative", m.speculative_reads);
        sink.counter("cassalite.read.digest_mismatches", m.digest_mismatches);
        sink.counter("cassalite.replica.timeouts", m.replica_timeouts);
        sink.counter("cassalite.hints.stored", m.hints_stored);
        sink.counter("cassalite.hints.replayed", m.hints_replayed);
        sink.counter("cassalite.hints.expired", m.hints_expired);
        sink.counter("cassalite.hints.overflowed", m.hints_overflowed);
        sink.counter("cassalite.topology.changes", m.topology_changes);
        sink.counter("cassalite.topology.epoch", ring_epoch());
        sink.counter("cassalite.stream.rows_sent", m.stream_rows_sent);
        sink.counter("cassalite.repair.scheduled", m.repairs_scheduled);
        sink.counter("cassalite.repair.ranges_streamed", m.ranges_streamed);
        sink.counter("cassalite.repair.rows_sent", m.repair_rows_sent);
        StorageMetrics s;
        const std::size_t slots = node_count();
        for (std::size_t i = 0; i < slots; ++i) {
          const StorageMetrics n = nodes_[i]->metrics();
          s.writes += n.writes;
          s.reads += n.reads;
          s.memtable_flushes += n.memtable_flushes;
          s.compactions += n.compactions;
          s.sstables_read += n.sstables_read;
          s.bloom_rejections += n.bloom_rejections;
          s.snapshot_reads += n.snapshot_reads;
          s.compaction_stall_us += n.compaction_stall_us;
        }
        sink.counter("cassalite.storage.writes", s.writes);
        sink.counter("cassalite.storage.reads", s.reads);
        sink.counter("cassalite.storage.memtable_flushes", s.memtable_flushes);
        sink.counter("cassalite.storage.compactions", s.compactions);
        sink.counter("cassalite.storage.sstables_read", s.sstables_read);
        sink.counter("cassalite.storage.bloom_rejections", s.bloom_rejections);
        sink.counter("cassalite.storage.snapshot_reads", s.snapshot_reads);
        sink.counter("cassalite.storage.compaction_stall_us",
                     s.compaction_stall_us);
      });
}

Status Cluster::create_table(TableSchema schema) {
  std::lock_guard lock(ddl_mu_);
  for (const auto& s : schemas_) {
    if (s.name == schema.name) {
      return already_exists("table '" + schema.name + "' already exists");
    }
  }
  schemas_.push_back(std::move(schema));
  return Status::ok();
}

Result<TableSchema> Cluster::schema(const std::string& table) const {
  std::lock_guard lock(ddl_mu_);
  for (const auto& s : schemas_) {
    if (s.name == table) return s;
  }
  return not_found("no such table '" + table + "'");
}

std::vector<TableSchema> Cluster::schemas() const {
  std::lock_guard lock(ddl_mu_);
  return schemas_;
}

// ------------------------------------------------------------ fault wiring

void Cluster::set_fault_injector(FaultInjector* injector) {
  injector_ = injector;
  if (clock_ == nullptr && injector != nullptr) clock_ = injector->clock();
  const std::size_t slots = node_count();
  for (std::size_t i = 0; i < slots; ++i) {
    nodes_[i]->set_fault_injector(injector, i);
  }
}

void Cluster::set_clock(SimClock* clock) { clock_ = clock; }

void Cluster::set_suspicion_source(std::function<bool(NodeIndex)> suspected) {
  suspected_ = std::move(suspected);
}

void Cluster::set_suspicion_refresher(std::function<void()> refresher) {
  suspicion_refresher_ = std::move(refresher);
}

void Cluster::set_topology_hook(std::function<void(TopologyStage)> hook) {
  topology_hook_ = std::move(hook);
}

bool Cluster::replica_up(NodeIndex node) const {
  if (!alive_[node].load(std::memory_order_acquire)) return false;
  return injector_ == nullptr || !injector_->is_down(node);
}

bool Cluster::reachable(NodeIndex node) const {
  if (injector_ == nullptr) return true;
  const std::size_t coord = options_.coordinator_node;
  // A usable replica needs the round trip: request out AND response back.
  if (injector_->link_down(coord, node)) return false;
  if (injector_->link_down(node, coord)) return false;
  return true;
}

std::int64_t Cluster::now_ms() const noexcept {
  return clock_ != nullptr ? clock_->now_ms() : 0;
}

std::vector<NodeIndex> Cluster::order_replicas(
    const std::vector<NodeIndex>& replicas) const {
  std::vector<NodeIndex> order;
  order.reserve(replicas.size());
  for (NodeIndex r : replicas) {
    if (replica_up(r) && reachable(r)) order.push_back(r);
  }
  if (suspected_) {
    // Suspected-but-up nodes go last: they are likelier to be slow or about
    // to fail, so healthy replicas absorb the load first.
    std::stable_partition(order.begin(), order.end(),
                          [&](NodeIndex r) { return !suspected_(r); });
  }
  return order;
}

std::vector<NodeIndex> Cluster::read_order_of(
    const std::string& partition_key) const {
  return order_replicas(replicas_of(partition_key));
}

std::int64_t Cluster::backoff_ms(std::uint64_t salt, std::int64_t prev) const {
  // Decorrelated jitter (Exponential-Backoff-And-Jitter style): uniform in
  // [base, prev*3], capped. The "random" draw is a hash of the op identity,
  // so schedules replay deterministically.
  const std::int64_t base = std::max<std::int64_t>(options_.retry_backoff_base_ms, 1);
  const std::int64_t cap = std::max(options_.retry_backoff_max_ms, base);
  const std::int64_t hi = std::max(base, prev * 3);
  const std::uint64_t h = hash_combine(hash_combine(kBackoffChannel, salt),
                                       static_cast<std::uint64_t>(prev));
  const auto span = static_cast<std::uint64_t>(hi - base + 1);
  return std::min(cap, base + static_cast<std::int64_t>(h % span));
}

// -------------------------------------------------------- topology versions

const TokenRing& Cluster::ring() const noexcept { return *topo()->committed; }

std::uint64_t Cluster::ring_epoch() const noexcept { return topo()->epoch; }

bool Cluster::movement_in_progress() const noexcept {
  return topo()->pending != nullptr;
}

const Cluster::TopologyVersion* Cluster::enter_write() const {
  const TopologyVersion* v = topo_.load(std::memory_order_acquire);
  for (;;) {
    v->inflight.fetch_add(1, std::memory_order_seq_cst);
    // Re-check after announcing ourselves: if a new version was published
    // in between, the drain may already have sampled our version's count
    // as zero — retry on the fresh version instead of routing stale.
    const TopologyVersion* cur = topo_.load(std::memory_order_seq_cst);
    if (cur == v) return v;
    v->inflight.fetch_sub(1, std::memory_order_relaxed);
    v = cur;
  }
}

void Cluster::leave_write(const TopologyVersion* v) const {
  v->inflight.fetch_sub(1, std::memory_order_release);
}

void Cluster::publish_and_drain(std::shared_ptr<TopologyVersion> next) {
  const TopologyVersion* prev = topo_.load(std::memory_order_relaxed);
  topo_history_.push_back(next);  // pins the version for the cluster's life
  topo_.store(next.get(), std::memory_order_seq_cst);
  if (prev == nullptr) return;
  // RCU grace period: wait until every writer that routed against the
  // superseded version has finished, so the streaming scan below (or the
  // committed ring above) observes all of their effects.
  while (prev->inflight.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
}

std::uint64_t Cluster::streams_served(NodeIndex node) const {
  HPCLA_CHECK_MSG(node < node_count(), "node index out of range");
  return streams_served_[node].load(std::memory_order_relaxed);
}

Status Cluster::stream_moved_ranges(const std::vector<MovedRange>& moved) {
  if (moved.empty()) return Status::ok();
  // Satellite fix: refresh the failure detector *now*, then never stream
  // from a node it suspects — a stale verdict must not pick a source that
  // is already failing, and a fresh one must veto it outright.
  if (suspicion_refresher_) suspicion_refresher_();
  const std::vector<std::string> tables = all_table_names();
  for (const MovedRange& m : moved) {
    if (m.gained.empty()) continue;
    const std::size_t quorum = m.old_owners.size() / 2 + 1;
    std::vector<NodeIndex> sources;
    for (NodeIndex s : m.old_owners) {
      if (!replica_up(s) || !reachable(s)) continue;
      if (suspected_ && suspected_(s)) continue;
      sources.push_back(s);
    }
    if (sources.size() < quorum) {
      return unavailable(
          "range streaming reached " + std::to_string(sources.size()) + "/" +
          std::to_string(quorum) + " healthy sources; movement aborted");
    }
    // Quorum-merge streaming: any old-owner quorum intersects the ack set
    // of every write acked before the movement, so the gained replicas
    // receive every acked write even if one source is stale.
    sources.resize(quorum);
    ranges_streamed_.fetch_add(1, std::memory_order_relaxed);
    for (NodeIndex s : sources) {
      streams_served_[s].fetch_add(1, std::memory_order_relaxed);
    }
    for (const std::string& table : tables) {
      // Union of in-range partition keys across the sources (sorted for
      // deterministic replay).
      std::map<std::string, char> keys;
      for (NodeIndex s : sources) {
        for (auto& key : nodes_[s]->partition_keys(table)) {
          if (m.range.contains(token_for_key(key))) {
            keys.emplace(std::move(key), 0);
          }
        }
      }
      for (const auto& [key, unused] : keys) {
        std::vector<ReadResult> results(sources.size());
        for (std::size_t i = 0; i < sources.size(); ++i) {
          results[i].rows = read_partition(sources[i], table, key);
        }
        const ReadResult merged = merge_lww(results);
        for (NodeIndex g : m.gained) {
          for (const Row& row : merged.rows) {
            nodes_[g]->apply(WriteCommand{table, key, row});
            stream_rows_sent_.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }
  }
  return Status::ok();
}

Status Cluster::apply_topology_change_locked(
    std::shared_ptr<const TokenRing> next_ring) {
  telemetry::Span span("cassalite.topology");
  const TopologyVersion* cur = topo();
  std::shared_ptr<const TokenRing> old_ring = topo_history_.back()->committed;
  std::vector<MovedRange> moved =
      ring_diff(*old_ring, *next_ring, options_.replication_factor,
                rack_aware_ ? rack_of_ : std::vector<int>{});
  span.tag("moved_ranges", static_cast<std::uint64_t>(moved.size()));

  // Stage 1 — pending publish: writers start dual-routing to old+new
  // owners; the drain guarantees no writer is still routing old-only when
  // the streaming scan starts.
  auto pending = std::make_shared<TopologyVersion>();
  pending->epoch = cur->epoch + 1;
  pending->committed = old_ring;
  pending->pending = next_ring;
  pending->moved = std::move(moved);
  publish_and_drain(pending);
  if (topology_hook_) topology_hook_(TopologyStage::kPendingPublished);

  // Stage 2 — stream moved ranges to their gained owners.
  Status streamed = stream_moved_ranges(pending->moved);
  if (topology_hook_) topology_hook_(TopologyStage::kStreamed);

  // Stage 3 — commit the new ring, or abort back to the old one. Either
  // way the pending version drains so no dual-router straddles the switch.
  auto final_version = std::make_shared<TopologyVersion>();
  final_version->epoch = pending->epoch + 1;
  final_version->committed = streamed.is_ok() ? next_ring : old_ring;
  publish_and_drain(final_version);
  if (streamed.is_ok()) {
    topology_changes_.fetch_add(1, std::memory_order_relaxed);
    if (topology_hook_) topology_hook_(TopologyStage::kCommitted);
    span.tag("committed", true);
  }
  return streamed;
}

Result<NodeIndex> Cluster::add_node(std::size_t vnodes, int rack,
                                    std::uint64_t token_seed) {
  std::lock_guard lock(topo_mu_);
  const std::size_t idx = node_slots_.load(std::memory_order_relaxed);
  if (idx >= capacity_) {
    return resource_exhausted("cluster is at max_node_count (" +
                              std::to_string(capacity_) + ")");
  }
  // Build the slot before any ring referencing it can publish.
  nodes_[idx] = std::make_unique<StorageEngine>(options_.storage);
  if (injector_ != nullptr) nodes_[idx]->set_fault_injector(injector_, idx);
  alive_[idx].store(true, std::memory_order_release);
  if (rack_aware_ && rack >= 0) rack_of_[idx] = rack;
  node_slots_.store(idx + 1, std::memory_order_release);

  auto next = std::make_shared<const TokenRing>(topo()->committed->with_node(
      idx, vnodes != 0 ? vnodes : options_.vnodes, token_seed));
  Status s = apply_topology_change_locked(next);
  if (!s.is_ok()) return s;  // slot stays allocated but is not a member
  return idx;
}

Status Cluster::remove_node(NodeIndex node) {
  std::lock_guard lock(topo_mu_);
  const std::shared_ptr<const TokenRing> cur = topo_history_.back()->committed;
  if (!cur->is_member(node)) {
    return failed_precondition("node " + std::to_string(node) +
                               " is not a ring member");
  }
  if (cur->node_count() - 1 < options_.replication_factor) {
    return failed_precondition(
        "removing node " + std::to_string(node) +
        " would leave fewer members than the replication factor");
  }
  auto next = std::make_shared<const TokenRing>(cur->without_node(node));
  return apply_topology_change_locked(next);
}

Status Cluster::rebalance(std::uint64_t token_seed) {
  std::lock_guard lock(topo_mu_);
  auto next = std::make_shared<const TokenRing>(
      topo_history_.back()->committed->reshuffled(token_seed));
  return apply_topology_change_locked(next);
}

// ------------------------------------------------------------------- write

Status Cluster::insert(const std::string& table,
                       const std::string& partition_key, Row row,
                       Consistency consistency) {
  telemetry::Span span("cassalite.write");
  span.tag("table", table);
  span.tag("consistency", consistency_name(consistency));
  row.write_ts = write_clock_.fetch_add(1, std::memory_order_relaxed);

  const TopologyVersion* tv = enter_write();
  const auto natural = replicas_in(*tv->committed, partition_key);
  std::size_t needed = required_acks(consistency, natural.size());
  std::vector<NodeIndex> targets = natural;
  if (tv->pending != nullptr) {
    // Pending-range write: also route to the new ring's extra owners, and
    // require *all* of them to ack. Guarantees every write acked during
    // the movement already sits on enough of the post-commit replica set
    // that any post-commit quorum intersects it.
    bool extra = false;
    for (NodeIndex r : replicas_in(*tv->pending, partition_key)) {
      if (std::find(targets.begin(), targets.end(), r) == targets.end()) {
        targets.push_back(r);
        ++needed;
        extra = true;
      }
    }
    if (extra) pending_range_writes_.fetch_add(1, std::memory_order_relaxed);
  }

  WriteCommand cmd{table, partition_key, std::move(row)};
  const std::uint64_t op_salt =
      hash_combine(fnv1a_64(partition_key),
                   static_cast<std::uint64_t>(cmd.row.write_ts));
  const std::size_t coord = options_.coordinator_node;
  std::size_t acks = 0;
  for (NodeIndex r : targets) {
    if (!replica_up(r)) {
      // Down replica: hint immediately so it converges on return.
      store_hint(r, cmd);
      continue;
    }
    if (injector_ != nullptr && injector_->link_down(coord, r)) {
      // Outbound partition: the mutation never reaches the replica.
      store_hint(r, cmd);
      continue;
    }
    // Bounded retry against a transiently failing replica; every attempt
    // and backoff consumes virtual latency against the write deadline.
    std::int64_t elapsed = 0;
    std::int64_t prev_backoff = options_.retry_backoff_base_ms;
    bool applied = false;
    for (std::size_t attempt = 0; attempt <= options_.max_replica_retries;
         ++attempt) {
      if (injector_ != nullptr) elapsed += injector_->replica_latency_ms(r);
      if (nodes_[r]->try_apply(cmd)) {
        applied = true;
        break;
      }
      if (attempt == options_.max_replica_retries) break;
      const std::int64_t b =
          backoff_ms(hash_combine(op_salt, hash_combine(r, attempt)),
                     prev_backoff);
      prev_backoff = b;
      elapsed += b;
      write_retries_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!applied) {
      // Retries exhausted: hint so the write still converges — even when
      // the overall write comes back UNAVAILABLE, replicas that *did*
      // accept it hold real data, so the miss must be repaired eventually.
      store_hint(r, cmd);
      continue;
    }
    if (injector_ != nullptr && injector_->link_down(r, coord)) {
      // Asymmetric partition on the return path: the replica applied the
      // mutation but the ack is lost — no consistency-level credit. Hint
      // anyway; the LWW re-apply on replay is harmless.
      store_hint(r, cmd);
      continue;
    }
    if (elapsed > options_.write_timeout_ms) {
      // Applied, but the ack is too late to count toward the consistency
      // level. No hint needed: the data is on the replica.
      replica_timeouts_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    ++acks;
  }
  leave_write(tv);
  if (acks < needed) {
    writes_unavailable_.fetch_add(1, std::memory_order_relaxed);
    return unavailable("write to '" + partition_key + "' got " +
                       std::to_string(acks) + "/" + std::to_string(needed) +
                       " acks at " + std::string(consistency_name(consistency)));
  }
  writes_ok_.fetch_add(1, std::memory_order_relaxed);
  return Status::ok();
}

// -------------------------------------------------------------------- read

Cluster::ReplicaTry Cluster::run_read_try(NodeIndex replica,
                                          std::int64_t start,
                                          std::uint64_t salt) const {
  ReplicaTry t;
  t.replica = replica;
  t.start = start;
  std::int64_t elapsed = 0;
  std::int64_t prev_backoff = options_.retry_backoff_base_ms;
  bool ok = false;
  for (std::size_t attempt = 0; attempt <= options_.max_replica_retries;
       ++attempt) {
    if (injector_ != nullptr) elapsed += injector_->replica_latency_ms(replica);
    if (injector_ != nullptr && injector_->fail_read(replica)) {
      if (attempt == options_.max_replica_retries) break;
      const std::int64_t b =
          backoff_ms(hash_combine(salt, attempt), prev_backoff);
      prev_backoff = b;
      elapsed += b;
      read_retries_.fetch_add(1, std::memory_order_relaxed);
      ++t.retries;
      continue;
    }
    ok = true;
    break;
  }
  if (ok && elapsed <= options_.read_timeout_ms) {
    t.usable = true;
    t.end = start + elapsed;
  } else {
    t.usable = false;
    t.timed_out = ok;  // responded, but past the soft deadline
    if (t.timed_out) {
      replica_timeouts_.fetch_add(1, std::memory_order_relaxed);
    }
    // The coordinator learns of the failure at the response (error) or at
    // deadline expiry (timeout), whichever is sooner.
    t.end = start + std::min(elapsed, options_.read_timeout_ms);
  }
  return t;
}

std::vector<Row> Cluster::read_partition(NodeIndex node,
                                         const std::string& table,
                                         const std::string& key) const {
  ReadQuery q;
  q.table = table;
  q.partition_key = key;
  return nodes_[node]->read(q).rows;
}

Result<ReadTrace> Cluster::select_traced(const ReadQuery& query,
                                         Consistency consistency) const {
  telemetry::Span span("cassalite.read");
  span.tag("table", query.table);
  span.tag("consistency", consistency_name(consistency));
  const auto replicas = replicas_of(query.partition_key);
  const std::size_t needed = required_acks(consistency, replicas.size());
  const auto candidates = order_replicas(replicas);

  if (candidates.size() < needed) {
    reads_unavailable_.fetch_add(1, std::memory_order_relaxed);
    return unavailable("read of '" + query.partition_key + "' reached " +
                       std::to_string(candidates.size()) + "/" +
                       std::to_string(needed) + " replicas at " +
                       std::string(consistency_name(consistency)));
  }

  // --- virtual-time coordination: launch tries, replace failures, and
  // speculate past slow replicas, all against the deterministic injector.
  const std::uint64_t op_salt = fnv1a_64(query.partition_key);
  std::vector<ReplicaTry> tries;
  std::size_t next = 0;
  for (; next < needed; ++next) {
    tries.push_back(run_read_try(candidates[next], 0,
                                 hash_combine(op_salt, candidates[next])));
  }
  bool speculated = false;
  std::size_t replacements = 0;
  while (next < candidates.size()) {
    std::vector<std::int64_t> usable_ends;
    std::vector<std::int64_t> failure_ends;
    for (const auto& t : tries) {
      (t.usable ? usable_ends : failure_ends).push_back(t.end);
    }
    std::sort(usable_ends.begin(), usable_ends.end());
    std::sort(failure_ends.begin(), failure_ends.end());
    if (usable_ends.size() < needed) {
      // A failed try frees its slot: retry on the next-best replica at the
      // moment the coordinator learned of the failure.
      if (replacements >= failure_ends.size()) break;  // unreachable guard
      const std::int64_t at = failure_ends[replacements++];
      tries.push_back(run_read_try(candidates[next], at,
                                   hash_combine(op_salt, candidates[next])));
      ++next;
      continue;
    }
    if (options_.speculative_retry && !speculated &&
        usable_ends[needed - 1] > options_.speculative_delay_ms) {
      // The level won't be met by the speculation deadline: hedge with one
      // extra replica instead of waiting out the slow one.
      speculated = true;
      speculative_reads_.fetch_add(1, std::memory_order_relaxed);
      tries.push_back(run_read_try(candidates[next],
                                   options_.speculative_delay_ms,
                                   hash_combine(op_salt, candidates[next])));
      tries.back().hedged = true;
      ++next;
      continue;
    }
    break;
  }

  std::vector<const ReplicaTry*> usable;
  bool any_timeout = false;
  for (const auto& t : tries) {
    if (t.usable) usable.push_back(&t);
    any_timeout = any_timeout || t.timed_out;
  }
  if (span.active()) {
    // Per-replica child spans in virtual time, anchored at the read span's
    // start — the chaos harness asserts these land in the slow-op log.
    for (const auto& t : tries) {
      std::vector<std::pair<std::string, std::string>> tags;
      tags.emplace_back("replica", std::to_string(t.replica));
      tags.emplace_back("usable", t.usable ? "true" : "false");
      if (t.timed_out) tags.emplace_back("timed_out", "true");
      if (t.hedged) tags.emplace_back("hedged", "true");
      if (t.retries > 0) {
        tags.emplace_back("retries", std::to_string(t.retries));
      }
      telemetry::emit_span(span.context(), "cassalite.replica",
                           span.start_us() + t.start * 1000,
                           (t.end - t.start) * 1000, std::move(tags));
    }
  }
  if (usable.size() < needed) {
    reads_unavailable_.fetch_add(1, std::memory_order_relaxed);
    const std::string detail =
        "read of '" + query.partition_key + "' completed " +
        std::to_string(usable.size()) + "/" + std::to_string(needed) +
        " replicas at " + std::string(consistency_name(consistency));
    if (any_timeout) return timeout(detail + " before the deadline");
    return unavailable(detail);
  }
  // The read completes when the needed-th fastest usable response arrives.
  std::sort(usable.begin(), usable.end(),
            [](const ReplicaTry* a, const ReplicaTry* b) {
              return a->end < b->end;
            });
  usable.resize(needed);

  // Every contributing replica reads the query's own cut: slice, limit and
  // direction. Runs hold one row per clustering key and there are no
  // deletes, so a key among the merged first `limit` rows is among the
  // first `limit` of every replica that holds it: merging the cut reads and
  // cutting again is exact, and digests and read repair cover just the
  // rows the read returns.
  std::vector<ReadResult> results;
  std::vector<NodeIndex> contacted;
  results.reserve(usable.size());
  for (const ReplicaTry* t : usable) {
    results.push_back(nodes_[t->replica]->read(query));
    contacted.push_back(t->replica);
  }

  ReadTrace trace;
  trace.latency_ms = usable.back()->end;
  trace.replicas_contacted = tries.size();
  trace.speculated = speculated;

  ReadResult merged;
  if (results.size() == 1) {
    merged = std::move(results.front());
  } else {
    // Digest exchange: the fastest replica ships data, the rest ship
    // digests. Identical digests prove identical returned rows, so the
    // merge and repair passes are skipped entirely.
    std::vector<std::uint64_t> digests(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      digests[i] = rows_digest(results[i].rows);
    }
    const bool all_match = std::all_of(
        digests.begin(), digests.end(),
        [&](std::uint64_t d) { return d == digests.front(); });
    if (!all_match) {
      digest_mismatches_.fetch_add(1, std::memory_order_relaxed);
      trace.digest_matched = false;
    }
    // A replica holding more than `limit` rows means the union does too.
    const bool replica_truncated =
        std::any_of(results.begin(), results.end(),
                    [](const ReadResult& r) { return r.truncated; });
    if (all_match && options_.digest_reads) {
      merged = std::move(results.front());
    } else {
      merged = merge_lww(results);
      if (query.reverse) std::reverse(merged.rows.begin(), merged.rows.end());
      if (query.limit != 0 && merged.rows.size() > query.limit) {
        merged.rows.resize(query.limit);
        merged.truncated = true;
      }
      // Read repair: replicas whose digest differs from the merged state
      // get the merged rows re-applied (anti-entropy; bypasses injection).
      const std::uint64_t want = rows_digest(merged.rows);
      for (std::size_t i = 0; i < contacted.size(); ++i) {
        if (digests[i] == want) continue;
        for (const auto& row : merged.rows) {
          nodes_[contacted[i]]->apply(
              WriteCommand{query.table, query.partition_key, row});
        }
        read_repairs_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!all_match && injector_ != nullptr) {
        // Mismatch costs one extra exchange to pull full data.
        trace.latency_ms += injector_->options().base_latency_ms;
      }
    }
    merged.truncated = merged.truncated || replica_truncated;
  }

  reads_ok_.fetch_add(1, std::memory_order_relaxed);
  if (span.active()) {
    span.tag("replicas", static_cast<std::uint64_t>(tries.size()));
    if (query.limit != 0) {
      span.tag("limit", static_cast<std::uint64_t>(query.limit));
    }
    span.tag("rows", static_cast<std::uint64_t>(merged.rows.size()));
    if (speculated) span.tag("hedged", true);
    if (!trace.digest_matched) span.tag("digest_mismatch", true);
    // Virtual latency is the deterministic duration under fault injection;
    // without an injector the wall clock stands.
    if (injector_ != nullptr) span.set_duration_us(trace.latency_ms * 1000);
  }
  trace.result = std::move(merged);
  return trace;
}

Result<ReadResult> Cluster::select(const ReadQuery& query,
                                   Consistency consistency) const {
  auto traced = select_traced(query, consistency);
  if (!traced.is_ok()) return traced.status();
  return std::move(traced->result);
}

Result<Cluster::Page> Cluster::select_page(
    const ReadQuery& query, std::size_t page_size,
    const std::optional<ClusteringKey>& resume_after,
    Consistency consistency) const {
  HPCLA_CHECK_MSG(page_size >= 1, "page_size must be >= 1");
  ReadQuery paged = query;
  paged.reverse = false;
  // Fetch one extra row to learn whether another page exists.
  paged.limit = page_size + 1;
  if (resume_after) {
    // Exclusive lower bound: appending a null part yields the smallest key
    // strictly greater than resume_after (prefixes sort first).
    ClusteringKey after = *resume_after;
    after.parts.emplace_back();
    if (!paged.slice.lower ||
        paged.slice.lower->compare(after) == std::strong_ordering::less) {
      paged.slice.lower = std::move(after);
    }
  }
  auto result = select(paged, consistency);
  if (!result.is_ok()) return result.status();
  Page page;
  page.rows = std::move(result->rows);
  if (page.rows.size() > page_size) {
    page.rows.resize(page_size);
    page.next = page.rows.back().key;
  }
  return page;
}

std::vector<Result<ReadResult>> Cluster::parallel_read(
    ThreadPool& pool, const std::string& table,
    const std::vector<std::string>& partition_keys,
    const ClusteringSlice& slice, Consistency consistency) const {
  std::vector<Result<ReadResult>> results(partition_keys.size(),
                                          Result<ReadResult>(ReadResult{}));
  if (partition_keys.empty()) return results;
  telemetry::Span span("cassalite.parallel_read");
  span.tag("table", table);
  span.tag("keys", static_cast<std::uint64_t>(partition_keys.size()));
  span.tag("consistency", consistency_name(consistency));
  // Pool tasks run on other threads; hand them this span's context.
  const telemetry::TraceContext tctx = telemetry::current();

  if (consistency == Consistency::kOne) {
    // Group keys by the replica a ONE read would contact first (up +
    // unsuspected preferred), so each node's whole batch is served against
    // a single snapshot.
    std::map<NodeIndex, std::vector<std::size_t>> by_node;
    for (std::size_t i = 0; i < partition_keys.size(); ++i) {
      const auto order = read_order_of(partition_keys[i]);
      if (order.empty()) {
        reads_unavailable_.fetch_add(1, std::memory_order_relaxed);
        results[i] = unavailable("read of '" + partition_keys[i] +
                                 "' reached 0/1 replicas at ONE");
      } else {
        by_node[order.front()].push_back(i);
      }
    }
    std::vector<std::pair<NodeIndex, std::vector<std::size_t>>> groups(
        by_node.begin(), by_node.end());
    pool.parallel_for(groups.size(), [&](std::size_t g) {
      const telemetry::ScopedContext tguard(tctx);
      const auto& [node, indices] = groups[g];
      telemetry::Span scan_span("cassalite.scan");
      scan_span.tag("node", static_cast<std::uint64_t>(node));
      scan_span.tag("keys", static_cast<std::uint64_t>(indices.size()));
      // One fault decision per node batch: on transient error or timeout,
      // each key falls back to the resilient per-key path (retry on the
      // remaining replicas).
      if (injector_ != nullptr) {
        bool failed = injector_->fail_read(node);
        if (!failed &&
            injector_->replica_latency_ms(node) > options_.read_timeout_ms) {
          replica_timeouts_.fetch_add(1, std::memory_order_relaxed);
          failed = true;
        }
        if (failed) {
          for (std::size_t i : indices) {
            ReadQuery q;
            q.table = table;
            q.partition_key = partition_keys[i];
            q.slice = slice;
            results[i] = select(q, Consistency::kOne);
          }
          return;
        }
      }
      std::vector<std::string> batch;
      batch.reserve(indices.size());
      for (std::size_t i : indices) batch.push_back(partition_keys[i]);
      std::size_t cursor = 0;
      nodes_[node]->scan_partitions(
          table, batch, {slice},
          [&](const std::string&, std::vector<Row> rows) {
            ReadResult r;
            r.rows = std::move(rows);
            results[indices[cursor++]] = std::move(r);
            reads_ok_.fetch_add(1, std::memory_order_relaxed);
          });
    });
    return results;
  }

  // QUORUM/ALL batched digest scan: every key plans its first `needed`
  // preferred replicas; each node then serves *all* of its planned keys
  // against one snapshot. Keys whose digests agree across the quorum
  // complete right there; mismatches and per-node faults fall back to the
  // per-key resilient select (merge + repair + retry + speculation).
  if (!options_.digest_reads) {
    pool.parallel_for(
        partition_keys.size(),
        [&](std::size_t i) {
          const telemetry::ScopedContext tguard(tctx);
          ReadQuery q;
          q.table = table;
          q.partition_key = partition_keys[i];
          q.slice = slice;
          results[i] = select(q, consistency);
        },
        /*grain=*/8);
    return results;
  }

  std::vector<std::vector<NodeIndex>> plan(partition_keys.size());
  std::map<NodeIndex, std::vector<std::size_t>> by_node;
  for (std::size_t i = 0; i < partition_keys.size(); ++i) {
    const auto replicas = replicas_of(partition_keys[i]);
    const std::size_t needed = required_acks(consistency, replicas.size());
    auto order = order_replicas(replicas);
    if (order.size() < needed) {
      reads_unavailable_.fetch_add(1, std::memory_order_relaxed);
      results[i] = unavailable(
          "read of '" + partition_keys[i] + "' reached " +
          std::to_string(order.size()) + "/" + std::to_string(needed) +
          " replicas at " + std::string(consistency_name(consistency)));
      continue;
    }
    order.resize(needed);
    for (NodeIndex r : order) by_node[r].push_back(i);
    plan[i] = std::move(order);
  }

  std::vector<std::pair<NodeIndex, std::vector<std::size_t>>> groups(
      by_node.begin(), by_node.end());
  std::map<NodeIndex, std::size_t> group_of;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    group_of[groups[g].first] = g;
  }
  std::vector<std::vector<std::vector<Row>>> node_rows(groups.size());
  std::vector<char> node_failed(groups.size(), 0);
  pool.parallel_for(groups.size(), [&](std::size_t g) {
    const telemetry::ScopedContext tguard(tctx);
    const auto& [node, indices] = groups[g];
    telemetry::Span scan_span("cassalite.scan");
    scan_span.tag("node", static_cast<std::uint64_t>(node));
    scan_span.tag("keys", static_cast<std::uint64_t>(indices.size()));
    if (injector_ != nullptr) {
      bool failed = injector_->fail_read(node);
      if (!failed &&
          injector_->replica_latency_ms(node) > options_.read_timeout_ms) {
        replica_timeouts_.fetch_add(1, std::memory_order_relaxed);
        failed = true;
      }
      if (failed) {
        node_failed[g] = 1;
        return;
      }
    }
    std::vector<std::string> batch;
    batch.reserve(indices.size());
    for (std::size_t i : indices) batch.push_back(partition_keys[i]);
    node_rows[g].resize(indices.size());
    std::size_t cursor = 0;
    nodes_[node]->scan_partitions(table, batch, {slice},
                                  [&](const std::string&, std::vector<Row> rows) {
                                    node_rows[g][cursor++] = std::move(rows);
                                  });
  });

  // Assemble per key; collect fallbacks for a second resilient pass.
  std::vector<std::size_t> fallback;
  for (std::size_t i = 0; i < partition_keys.size(); ++i) {
    if (plan[i].empty()) continue;  // already resolved (unavailable)
    bool degraded = false;
    std::vector<std::vector<Row>*> cells;
    for (NodeIndex r : plan[i]) {
      const std::size_t g = group_of.at(r);
      if (node_failed[g] != 0) {
        degraded = true;
        break;
      }
      const auto& indices = groups[g].second;
      const auto it =
          std::lower_bound(indices.begin(), indices.end(), i);
      cells.push_back(
          &node_rows[g][static_cast<std::size_t>(it - indices.begin())]);
    }
    if (!degraded) {
      const std::uint64_t want = rows_digest(*cells.front());
      for (std::size_t c = 1; c < cells.size() && !degraded; ++c) {
        if (rows_digest(*cells[c]) != want) {
          digest_mismatches_.fetch_add(1, std::memory_order_relaxed);
          degraded = true;
        }
      }
    }
    if (degraded) {
      fallback.push_back(i);
      continue;
    }
    ReadResult r;
    r.rows = std::move(*cells.front());
    results[i] = std::move(r);
    reads_ok_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!fallback.empty()) {
    pool.parallel_for(
        fallback.size(),
        [&](std::size_t f) {
          const telemetry::ScopedContext tguard(tctx);
          ReadQuery q;
          q.table = table;
          q.partition_key = partition_keys[fallback[f]];
          q.slice = slice;
          results[fallback[f]] = select(q, consistency);
        },
        /*grain=*/8);
  }
  return results;
}

// ----------------------------------------------------------- anti-entropy

std::vector<std::string> Cluster::all_table_names() const {
  // Union of registered schemas and every engine's actual tables — implicit
  // tables (written without create_table) still stream and repair.
  std::set<std::string> names;
  for (const TableSchema& s : schemas()) names.insert(s.name);
  const std::size_t slots = node_count();
  for (std::size_t i = 0; i < slots; ++i) {
    for (auto& t : nodes_[i]->table_names()) names.insert(std::move(t));
  }
  return {names.begin(), names.end()};
}

Result<RepairReport> Cluster::repair(const std::string& table) {
  const auto known = all_table_names();
  if (std::find(known.begin(), known.end(), table) == known.end()) {
    return not_found("no such table '" + table + "'");
  }
  telemetry::Span span("cassalite.repair");
  span.tag("table", table);
  repairs_scheduled_.fetch_add(1, std::memory_order_relaxed);
  RepairReport rep;
  rep.tables = 1;
  const TopologyVersion* tv = topo();
  const TokenRing& r = *tv->committed;

  // Per-node (token, key) index for this table; partition digests are
  // recomputed per range below (reads are snapshot-consistent per call).
  const std::size_t slots = node_count();
  std::vector<std::vector<std::pair<Token, std::string>>> parts(slots);
  for (NodeIndex n : r.members()) {
    if (!replica_up(n)) continue;
    for (auto& key : nodes_[n]->partition_keys(table)) {
      parts[n].emplace_back(token_for_key(key), std::move(key));
    }
    std::sort(parts[n].begin(), parts[n].end());
  }

  // Ownership intervals at ring token boundaries, merged while the owner
  // set is unchanged (fewer, wider Merkle trees).
  auto owners_at = [&](Token t) {
    return rack_aware_ ? r.replicas_for_token_rack_aware(
                             t, options_.replication_factor, rack_of_)
                       : r.replicas_for_token(t, options_.replication_factor);
  };
  struct Interval {
    TokenRange range;
    std::vector<NodeIndex> owners;
  };
  std::vector<Interval> intervals;
  const std::vector<Token> bounds = r.boundary_tokens();
  const std::size_t k = bounds.size();
  if (k == 1) {
    intervals.push_back(
        {TokenRange{bounds[0], bounds[0], true}, owners_at(bounds[0])});
  } else {
    for (std::size_t i = 0; i < k; ++i) {
      const bool wrap = i == 0;
      const Token lo = wrap ? bounds[k - 1] : bounds[i - 1];
      const Token hi = bounds[i];
      auto owners = owners_at(hi);
      if (!wrap && !intervals.empty() && !intervals.back().range.wraps &&
          intervals.back().range.hi == lo &&
          intervals.back().owners == owners) {
        intervals.back().range.hi = hi;
      } else {
        intervals.push_back({TokenRange{lo, hi, wrap}, std::move(owners)});
      }
    }
  }

  for (const Interval& iv : intervals) {
    std::vector<NodeIndex> live;
    for (NodeIndex o : iv.owners) {
      if (replica_up(o)) live.push_back(o);
    }
    if (live.size() < 2) continue;  // nothing to compare against
    ++rep.ranges_checked;

    // One Merkle tree per live replica over this range.
    std::vector<MerkleTree> trees;
    trees.reserve(live.size());
    for (NodeIndex o : live) {
      MerkleTree tree(iv.range, options_.repair_merkle_depth);
      for (const auto& [tok, key] : parts[o]) {
        if (!iv.range.contains(tok)) continue;
        tree.add(tok, hash_combine(fnv1a_64(key),
                                   rows_digest(read_partition(o, table, key))));
      }
      trees.push_back(std::move(tree));
    }
    std::vector<char> divergent(trees.front().leaf_count(), 0);
    bool any = false;
    for (std::size_t i = 1; i < trees.size(); ++i) {
      for (std::size_t leaf : MerkleTree::diff(trees.front(), trees[i])) {
        divergent[leaf] = 1;
        any = true;
      }
    }
    if (!any) continue;

    for (std::size_t leaf = 0; leaf < divergent.size(); ++leaf) {
      if (divergent[leaf] == 0) continue;
      ++rep.ranges_diverged;
      ranges_streamed_.fetch_add(1, std::memory_order_relaxed);
      // Union of partitions hashing into this leaf across the replicas
      // (sorted: deterministic reconciliation order).
      std::map<std::string, char> keys;
      for (NodeIndex o : live) {
        for (const auto& [tok, key] : parts[o]) {
          if (iv.range.contains(tok) &&
              trees.front().leaf_index(tok) == leaf) {
            keys.emplace(key, 0);
          }
        }
      }
      for (const auto& [key, unused] : keys) {
        // LWW-merge the partition across replicas, then apply only the
        // rows a replica is missing or holds stale.
        std::vector<std::vector<Row>> replica_rows(live.size());
        std::vector<ReadResult> results(live.size());
        for (std::size_t i = 0; i < live.size(); ++i) {
          replica_rows[i] = read_partition(live[i], table, key);
          results[i].rows = replica_rows[i];
        }
        const ReadResult merged = merge_lww(results);
        for (std::size_t i = 0; i < live.size(); ++i) {
          bool repaired = false;
          for (const Row& row : merged.rows) {
            const auto it = std::find_if(
                replica_rows[i].begin(), replica_rows[i].end(),
                [&](const Row& have) { return have.key == row.key; });
            if (it != replica_rows[i].end() && *it == row) continue;
            nodes_[live[i]]->apply(WriteCommand{table, key, row});
            repair_rows_sent_.fetch_add(1, std::memory_order_relaxed);
            ++rep.rows_streamed;
            repaired = true;
          }
          if (repaired) ++rep.replicas_repaired;
        }
      }
    }
  }
  span.tag("ranges_checked", static_cast<std::uint64_t>(rep.ranges_checked));
  span.tag("ranges_diverged", static_cast<std::uint64_t>(rep.ranges_diverged));
  span.tag("rows_streamed", static_cast<std::uint64_t>(rep.rows_streamed));
  return rep;
}

Result<RepairReport> Cluster::repair_all() {
  RepairReport total;
  for (const std::string& name : all_table_names()) {
    auto rep = repair(name);
    if (!rep.is_ok()) return rep.status();
    total.tables += rep->tables;
    total.ranges_checked += rep->ranges_checked;
    total.ranges_diverged += rep->ranges_diverged;
    total.rows_streamed += rep->rows_streamed;
    total.replicas_repaired += rep->replicas_repaired;
  }
  return total;
}

// ------------------------------------------------------------------- hints

void Cluster::store_hint(NodeIndex node, const WriteCommand& cmd) {
  const std::int64_t now = now_ms();
  HintShard& shard = hint_shards_[node];
  std::lock_guard lock(shard.mu);
  // Expire from the front first (FIFO order = oldest first), then make
  // room: the freshest hint always wins over the stalest.
  while (!shard.q.empty() && options_.hint_ttl_ms > 0 &&
         shard.q.front().stored_at_ms + options_.hint_ttl_ms <= now) {
    shard.q.pop_front();
    hints_expired_.fetch_add(1, std::memory_order_relaxed);
  }
  if (options_.max_hints_per_node > 0 &&
      shard.q.size() >= options_.max_hints_per_node) {
    shard.q.pop_front();
    hints_overflowed_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.q.push_back(Hint{cmd, now});
  hints_stored_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t Cluster::replay_hints(NodeIndex node) {
  HPCLA_CHECK_MSG(node < node_count(), "node index out of range");
  std::deque<Hint> pending;
  {
    std::lock_guard lock(hint_shards_[node].mu);
    pending.swap(hint_shards_[node].q);
  }
  const std::int64_t now = now_ms();
  std::size_t replayed = 0;
  for (const auto& h : pending) {
    if (options_.hint_ttl_ms > 0 &&
        h.stored_at_ms + options_.hint_ttl_ms <= now) {
      hints_expired_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Replay applies directly (anti-entropy): injected transient faults
    // model the request path, not local recovery writes.
    nodes_[node]->apply(h.cmd);
    hints_replayed_.fetch_add(1, std::memory_order_relaxed);
    ++replayed;
  }
  return replayed;
}

std::size_t Cluster::replay_all_hints() {
  std::size_t total = 0;
  const std::size_t slots = node_count();
  for (NodeIndex n = 0; n < slots; ++n) {
    if (replica_up(n) && reachable(n)) total += replay_hints(n);
  }
  return total;
}

// ---------------------------------------------------------------- liveness

void Cluster::kill_node(NodeIndex node) {
  HPCLA_CHECK_MSG(node < node_count(), "node index out of range");
  alive_[node].store(false, std::memory_order_release);
}

std::size_t Cluster::revive_node(NodeIndex node) {
  HPCLA_CHECK_MSG(node < node_count(), "node index out of range");
  alive_[node].store(true, std::memory_order_release);
  return replay_hints(node);
}

void Cluster::kill_rack(int rack) {
  HPCLA_CHECK_MSG(rack_aware_, "cluster has no rack configuration");
  const std::size_t slots = node_count();
  for (NodeIndex n = 0; n < slots; ++n) {
    if (rack_of_[n] == rack) kill_node(n);
  }
}

std::size_t Cluster::crash_node(NodeIndex node) {
  HPCLA_CHECK_MSG(node < node_count(), "node index out of range");
  return nodes_[node]->crash_and_recover();
}

bool Cluster::is_alive(NodeIndex node) const {
  HPCLA_CHECK_MSG(node < node_count(), "node index out of range");
  return alive_[node].load(std::memory_order_acquire);
}

std::size_t Cluster::live_node_count() const {
  std::size_t n = 0;
  const std::size_t slots = node_count();
  for (std::size_t i = 0; i < slots; ++i) {
    n += alive_[i].load(std::memory_order_acquire) ? 1 : 0;
  }
  return n;
}

std::size_t Cluster::pending_hints() const {
  std::size_t n = 0;
  const std::size_t slots = node_count();
  for (std::size_t i = 0; i < slots; ++i) {
    std::lock_guard lock(hint_shards_[i].mu);
    n += hint_shards_[i].q.size();
  }
  return n;
}

const StorageEngine& Cluster::engine(NodeIndex node) const {
  HPCLA_CHECK_MSG(node < node_count(), "node index out of range");
  return *nodes_[node];
}

std::vector<std::string> Cluster::primary_partition_keys(
    NodeIndex node, const std::string& table) const {
  HPCLA_CHECK_MSG(node < node_count(), "node index out of range");
  const TokenRing& r = ring();
  std::vector<std::string> out;
  for (auto& key : nodes_[node]->partition_keys(table)) {
    if (r.primary(key) == node) out.push_back(std::move(key));
  }
  return out;
}

std::vector<std::string> Cluster::all_partition_keys(
    const std::string& table) const {
  std::vector<std::string> all;
  const std::size_t slots = node_count();
  for (std::size_t i = 0; i < slots; ++i) {
    auto keys = nodes_[i]->partition_keys(table);
    all.insert(all.end(), std::make_move_iterator(keys.begin()),
               std::make_move_iterator(keys.end()));
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

ClusterMetrics Cluster::metrics() const {
  ClusterMetrics m;
  m.writes_ok = writes_ok_.load(std::memory_order_relaxed);
  m.writes_unavailable = writes_unavailable_.load(std::memory_order_relaxed);
  m.reads_ok = reads_ok_.load(std::memory_order_relaxed);
  m.reads_unavailable = reads_unavailable_.load(std::memory_order_relaxed);
  m.hints_stored = hints_stored_.load(std::memory_order_relaxed);
  m.hints_replayed = hints_replayed_.load(std::memory_order_relaxed);
  m.read_repairs = read_repairs_.load(std::memory_order_relaxed);
  m.read_retries = read_retries_.load(std::memory_order_relaxed);
  m.write_retries = write_retries_.load(std::memory_order_relaxed);
  m.speculative_reads = speculative_reads_.load(std::memory_order_relaxed);
  m.replica_timeouts = replica_timeouts_.load(std::memory_order_relaxed);
  m.digest_mismatches = digest_mismatches_.load(std::memory_order_relaxed);
  m.hints_expired = hints_expired_.load(std::memory_order_relaxed);
  m.hints_overflowed = hints_overflowed_.load(std::memory_order_relaxed);
  m.topology_changes = topology_changes_.load(std::memory_order_relaxed);
  m.pending_range_writes =
      pending_range_writes_.load(std::memory_order_relaxed);
  m.stream_rows_sent = stream_rows_sent_.load(std::memory_order_relaxed);
  m.repairs_scheduled = repairs_scheduled_.load(std::memory_order_relaxed);
  m.ranges_streamed = ranges_streamed_.load(std::memory_order_relaxed);
  m.repair_rows_sent = repair_rows_sent_.load(std::memory_order_relaxed);
  return m;
}

}  // namespace hpcla::cassalite
