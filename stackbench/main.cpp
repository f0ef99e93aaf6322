// stackbench entry point: set-up, the three workloads, metrics.
//
//   stackbench --workload lookup|analytics|ingest --seed N --seconds S
//              --trace 0|1 [--tiny] [--corrupt-answer] [--ladder-check]
//              [--spans PATH]
//
// Prints human-readable progress on stderr and one JSON result object as
// the last line of stdout. Exit code 0 only when every answer checked out
// and the run is valid. Run it through run.py, which builds it first.
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "analytics/queries.hpp"
#include "model/ingest.hpp"
#include "model/streaming_ingest.hpp"
#include "model/tables.hpp"
#include "stackbench.hpp"
#include "titanlog/parser.hpp"
#include "topo/cname.hpp"

extern char** environ;

namespace stackbench {
namespace {

namespace telemetry = hpcla::telemetry;
namespace titanlog = hpcla::titanlog;
namespace model = hpcla::model;

/// Publisher lateness (p99, vs. schedule) above which a live phase is
/// invalid: freshness would then time the generator, not the system.
constexpr double kMaxLateP99Ms = 100.0;
/// Bursts the stream's catch-up backlog comes in.
constexpr int kCatchupBursts = 5;
const char* const kTopic = "titan-events";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;       ///< corrupt the first checked answer
  bool ladder_check = false;  ///< replay one heatmap ladder, report its sum
  std::string spans;          ///< where the traced run writes its spans
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + f);
      return argv[++i];
    };
    if (f == "--workload") {
      a.workload = value();
    } else if (f == "--seed") {
      a.seed = std::stoull(value());
    } else if (f == "--seconds") {
      a.seconds = std::stod(value());
    } else if (f == "--trace") {
      a.trace = value() == "1";
    } else if (f == "--tiny") {
      a.tiny = true;
    } else if (f == "--corrupt-answer") {
      a.corrupt = true;
    } else if (f == "--ladder-check") {
      a.ladder_check = true;
    } else if (f == "--spans") {
      a.spans = value();
    } else {
      throw std::runtime_error("unknown flag " + f);
    }
  }
  if (a.workload != "lookup" && a.workload != "analytics" &&
      a.workload != "ingest") {
    throw std::runtime_error("--workload must be lookup|analytics|ingest");
  }
  return a;
}

/// Every HPCLA_* variable; refuses any that changes behaviour (only path
/// variables, *_DIR, may be set) so a stray export cannot change what is
/// measured.
Json pinned_environment() {
  Json env = Json::object();
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("HPCLA_", 0) != 0) continue;
    const auto eq = kv.find('=');
    const std::string name = kv.substr(0, eq);
    if (name.size() < 4 || name.compare(name.size() - 4, 4, "_DIR") != 0) {
      throw std::runtime_error(name +
                               " is set: it changes behaviour; unset it");
    }
    env[name] = eq == std::string::npos ? "" : kv.substr(eq + 1);
  }
  return env;
}

double cpu_us() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --------------------------------------------------------------- registry

/// Registry state at a phase boundary.
struct Snap {
  telemetry::RegistrySnapshot reg;
  double cpu = 0.0;
  std::vector<std::shared_ptr<const hpcla::sparklite::ShuffleRecord>> shuffles;
};

Snap snap(Stack& s) {
  return Snap{telemetry::registry().snapshot(), cpu_us(),
              s.engine.shuffle_history()};
}

double delta(const Snap& a, const Snap& b, const std::string& name) {
  const auto ia = a.reg.counters.find(name);
  const auto ib = b.reg.counters.find(name);
  const double va = ia == a.reg.counters.end() ? 0.0 : static_cast<double>(ia->second);
  const double vb = ib == b.reg.counters.end() ? 0.0 : static_cast<double>(ib->second);
  return vb - va;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// p99 of the observations a histogram received between two snapshots.
double histogram_delta_p99(const Snap& a, const Snap& b,
                           const std::string& name) {
  const auto ib = b.reg.histograms.find(name);
  if (ib == b.reg.histograms.end()) return 0.0;
  std::vector<std::pair<double, std::uint64_t>> before;
  if (const auto ia = a.reg.histograms.find(name);
      ia != a.reg.histograms.end()) {
    before = ia->second.cumulative_buckets;
  }
  const auto cum_before = [&](double bound) {
    std::uint64_t c = 0;
    for (const auto& [ub, n] : before) {
      if (ub <= bound) c = n;
    }
    return c;
  };
  const auto& after = ib->second.cumulative_buckets;
  if (after.empty()) return 0.0;
  const double total = static_cast<double>(after.back().second -
                                           cum_before(after.back().first));
  if (total <= 0.0) return 0.0;
  for (const auto& [ub, n] : after) {
    if (static_cast<double>(n - cum_before(ub)) >= 0.99 * total) return ub;
  }
  return after.back().first;
}

double mean_new_skew(const Snap& a, const Snap& b) {
  std::set<const void*> seen;
  for (const auto& s : a.shuffles) seen.insert(s.get());
  double sum = 0.0;
  int n = 0;
  for (const auto& s : b.shuffles) {
    if (seen.contains(s.get())) continue;
    sum += s->skew;
    ++n;
  }
  return n ? sum / n : 0.0;
}

// ----------------------------------------------------------------- clients

/// One completed request.
struct Completion {
  double end_us = 0.0;
  double latency_us = 0.0;
  bool simple = true;
};

/// Closed-loop client tallies.
struct ClientStats {
  std::vector<Completion> done;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t checked = 0;
  std::vector<std::string> errors;

  void merge(const ClientStats& o) {
    done.insert(done.end(), o.done.begin(), o.done.end());
    ops += o.ops;
    failed += o.failed;
    checked += o.checked;
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  }
};

/// Query-phase figures over the requests that completed in [begin, end].
/// Throughput and medians come from equal time slices of the phase, the
/// median slice reported, so a burst of outside load in one slice does not
/// decide them; a p99 needs every sample of the phase to rest on ≥1000 of
/// them.
struct QueryFigures {
  Samples qps, simple_p50, complex_p50;
  Samples simple, complex;  ///< every latency of the phase
};

QueryFigures query_figures(const ClientStats& st, double begin_us,
                           double end_us) {
  constexpr int kSlices = 3;
  const double len = (end_us - begin_us) / kSlices;
  std::vector<Samples> simple(kSlices), complex(kSlices);
  QueryFigures f;
  for (const auto& c : st.done) {
    if (c.end_us < begin_us || c.end_us > end_us) continue;
    const int k = std::clamp(static_cast<int>((c.end_us - begin_us) / len), 0,
                             kSlices - 1);
    (c.simple ? simple : complex)[static_cast<std::size_t>(k)].add(c.latency_us);
    (c.simple ? f.simple : f.complex).add(c.latency_us);
  }
  for (int k = 0; k < kSlices; ++k) {
    f.qps.add(static_cast<double>(simple[k].size() + complex[k].size()) /
              (len / 1e6));
    f.simple_p50.add(simple[k].quantile(0.5));
    f.complex_p50.add(complex[k].quantile(0.5));
  }
  return f;
}

using OpSource = std::function<Op()>;

/// Changes one digit of a synopsis answer: the first digit of the result
/// belongs to its first row (a count or an hour), so the check must see it.
void corrupt(std::string& response) {
  const auto at = response.find("\"result\"");
  for (std::size_t i = at == std::string::npos ? 0 : at; i < response.size();
       ++i) {
    if (response[i] >= '0' && response[i] <= '9') {
      response[i] = response[i] == '1' ? '2' : '1';
      return;
    }
  }
}

/// Sends ops back to back until `stop`; checks every `check_every`-th
/// checkable answer of each op kind against ground truth. With
/// `corrupt_once` set, the first checked synopsis answer is corrupted.
void run_client(Stack& s, const OpSource& next, const std::atomic<bool>& stop,
                std::size_t check_every, std::atomic<bool>* corrupt_once,
                ClientStats& out) {
  std::map<std::string, std::size_t> seen;  // checkable answers by op kind
  while (!stop.load(std::memory_order_relaxed)) {
    const Op op = next();
    const double t0 = now_us();
    std::string response = s.server.handle_text(op.text);
    const double t1 = now_us();
    out.done.push_back({t1, t1 - t0, op.simple});
    ++out.ops;
    const bool ok =
        response.find("\"status\":\"ok\"") < 64;  // envelope comes first
    std::string err;
    if (!ok) {
      err = "error response to " + op.text + ": " + response.substr(0, 200);
    } else if (op.checkable && seen[op.name]++ % check_every == 0) {
      if (corrupt_once != nullptr && op.name == "synopsis" &&
          corrupt_once->exchange(false)) {
        corrupt(response);
      }
      ++out.checked;
      err = check_answer(s, op, response);
      if (!err.empty()) err = op.name + ": " + err + " (" + op.text + ")";
    }
    if (!err.empty()) {
      ++out.failed;
      if (out.errors.size() < 5) out.errors.push_back(err);
    }
  }
}

/// Runs one closed-loop client per source for `seconds`.
ClientStats run_clients(Stack& s, const std::vector<OpSource>& sources,
                        double seconds, std::size_t check_every,
                        std::atomic<bool>* corrupt_once) {
  std::atomic<bool> stop{false};
  std::vector<ClientStats> stats(sources.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < sources.size(); ++c) {
    threads.emplace_back([&, c] {
      run_client(s, sources[c], stop, check_every, corrupt_once, stats[c]);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  for (auto& t : threads) t.join();
  ClientStats all;
  for (const auto& st : stats) all.merge(st);
  return all;
}

// --------------------------------------------------------------- op mixes

Json window_json(UnixSeconds begin, UnixSeconds end) {
  Json w = Json::object();
  w["begin"] = begin;
  w["end"] = end;
  return w;
}

Json context_json(UnixSeconds begin, UnixSeconds end,
                  const std::vector<EventType>& types) {
  Json ctx = Json::object();
  ctx["window"] = window_json(begin, end);
  if (!types.empty()) {
    Json arr = Json::array();
    for (auto t : types) arr.push_back(std::string(titanlog::event_id(t)));
    ctx["types"] = std::move(arr);
  }
  return ctx;
}

Json op_json(const char* name) {
  Json j = Json::object();
  j["op"] = name;
  return j;
}

/// Stratified draws in [0, 1): x += alpha (mod 1) from a seeded start.
/// Windows and types spread evenly over the day from the first ops on, so
/// the share of ops that hit the storm or the hotspot is the same in every
/// run and only the exact inputs depend on the seed.
class Stratified {
 public:
  Stratified(hpcla::Rng& rng, double alpha) : x_(rng.uniform()), alpha_(alpha) {}
  double next() {
    x_ += alpha_;
    x_ -= std::floor(x_);
    return x_;
  }

 private:
  double x_;
  double alpha_;
};

/// Per-op-kind draw streams for window start, span, type and type count.
/// Their steps are Roberts' R4 sequence (1/g^i, g^5 = g + 1), so the four
/// are jointly even. With one step for all, each window's length and type
/// would follow from its start and the seed would decide, e.g., whether the
/// windows over the storm are long or short.
struct Draws {
  explicit Draws(hpcla::Rng& rng)
      : start(rng, 0.8566748838545029),
        span(rng, 0.733891856627126),
        type(rng, 0.6287067210378086),
        mix(rng, 0.53859725722361) {}
  Stratified start;
  Stratified span;
  Stratified type;
  Stratified mix;

  EventType pick_type() {
    const auto all = titanlog::all_event_types();
    return all[static_cast<std::size_t>(type.next() *
                                        static_cast<double>(all.size()))];
  }
  /// An hour-aligned one-hour window within the history.
  UnixSeconds hour(std::int64_t hours) {
    return kDay0 +
           static_cast<std::int64_t>(start.next() * static_cast<double>(hours)) *
               kHour;
  }
  /// A window of 1-6 h at second resolution within the history.
  std::pair<UnixSeconds, UnixSeconds> window(std::int64_t hours) {
    const std::int64_t len = std::min<std::int64_t>(
        kHour + static_cast<std::int64_t>(span.next() * 5.0 * kHour),
        hours * kHour);
    const UnixSeconds b =
        kDay0 + static_cast<std::int64_t>(
                    start.next() * static_cast<double>(hours * kHour - len));
    return {b, b + len};
  }
};

/// `lookup`: the frontend's simple ops in a fixed 20-op pattern, plus a 5%
/// share of one-hour, one-type `hourly` analytics so the complex class is
/// measured here too.
OpSource lookup_source(std::uint64_t seed, const Scale& scale) {
  static constexpr char kPattern[] = "SCENJSCENJSCENSCENJH";
  struct State {
    hpcla::Rng rng;
    std::vector<Draws> draws;
    std::size_t i = 0;
  };
  auto st = std::make_shared<State>(State{hpcla::Rng(seed), {}, 0});
  for (int k = 0; k < 6; ++k) st->draws.emplace_back(st->rng);
  st->i = st->rng.next_below(sizeof(kPattern) - 1);
  const std::int64_t hours = scale.history_hours;
  return [st, hours] {
    const char kind = kPattern[st->i++ % (sizeof(kPattern) - 1)];
    Draws& d = st->draws[std::string_view("SNCEJH").find(kind)];
    Json j;
    if (kind == 'S') {
      const auto [b, e] = d.window(hours);
      j = op_json("synopsis");
      j["window"] = window_json(b, e);
    } else if (kind == 'N') {
      j = op_json("nodeinfo");
      j["node"] = static_cast<std::int64_t>(
          d.start.next() * hpcla::topo::TitanGeometry::kTotalNodes);
    } else if (kind == 'C') {
      j = op_json("cql");
      j["query"] = "SELECT * FROM event_by_time WHERE hour = " +
                   std::to_string(d.hour(hours) / kHour) + " AND type = '" +
                   std::string(titanlog::event_id(d.pick_type())) +
                   "' LIMIT 100";
    } else if (kind == 'E') {
      const UnixSeconds h = d.hour(hours);
      j = op_json("events");
      j["limit"] = 100;
      j["context"] = context_json(h, h + kHour, {d.pick_type()});
    } else if (kind == 'J') {
      const UnixSeconds h = d.hour(hours);
      j = op_json("jobs");
      j["context"] = context_json(h, h + kHour, {});
    } else {
      // One type: a job over one partition, so the class's tail is the
      // four clients contending. An all-type storm hour fans out over every
      // worker, and that tail moves with machine load; analytics measures
      // the fan-out.
      const UnixSeconds h = d.hour(hours);
      j = op_json("hourly");
      j["context"] = context_json(h, h + kHour, {d.pick_type()});
    }
    return make_op(std::move(j));
  };
}

/// `analytics`: an analyst's session — a synopsis of a 1-6 h window, then
/// one cold complex op over it, the seven complex ops in turn. Windows are
/// at second resolution, so no query repeats.
OpSource analytics_source(std::uint64_t seed, const Scale& scale) {
  static constexpr const char* kOps[] = {
      "heatmap",          "distribution",      "word_count", "storm_signature",
      "transfer_entropy", "cross_correlation", "hourly"};
  constexpr std::size_t kKinds = std::size(kOps);
  struct State {
    hpcla::Rng rng;
    std::vector<Draws> draws;
    std::size_t i = 0;
    std::optional<Op> pending;
  };
  auto st = std::make_shared<State>(State{hpcla::Rng(seed), {}, 0, {}});
  for (std::size_t k = 0; k < kKinds; ++k) st->draws.emplace_back(st->rng);
  st->i = st->rng.next_below(kKinds);
  const std::int64_t hours = scale.history_hours;
  return [st, hours]() -> Op {
    if (st->pending) {
      Op op = std::move(*st->pending);
      st->pending.reset();
      return op;
    }
    const std::size_t kind = st->i++ % kKinds;
    Draws& d = st->draws[kind];
    const auto [b, e] = d.window(hours);
    // Half the ops name one type, a fifth two, the rest all types.
    std::vector<EventType> types;
    const double r = d.mix.next();
    if (r < 0.5) {
      types = {d.pick_type()};
    } else if (r < 0.7) {
      types = {d.pick_type(), d.pick_type()};
      if (types[0] == types[1]) types.pop_back();
    }
    const std::string name = kOps[kind];
    Json j = op_json(kOps[kind]);
    if (name == "distribution") {
      j["group_by"] = st->i % 2 ? "type" : "cabinet";
    } else if (name == "word_count" || name == "storm_signature") {
      types = {EventType::kLustreError};
      j["top_k"] = 10;
      if (name == "storm_signature") j["bucket_seconds"] = 60;
    } else if (name == "transfer_entropy" || name == "cross_correlation") {
      types.clear();
      j["type_a"] = "HWERR";
      j["type_b"] = "LustreError";
      j["bin_seconds"] = 60;
    }
    j["context"] = context_json(b, e, types);
    st->pending = make_op(std::move(j));
    Json syn = op_json("synopsis");
    syn["window"] = window_json(b, e);
    return make_op(std::move(syn));
  };
}

/// `ingest` dashboard: a fixed set of hour-aligned panels over settled
/// (history) and live (streamed) hours, each refreshed once per round in a
/// seeded order, so the set repeats through the result cache. Only settled
/// panels have a fixed answer.
OpSource dashboard_source(std::uint64_t seed, const Scale& scale) {
  struct State {
    std::vector<Op> panels;
    std::vector<std::size_t> order;
    std::size_t i = 0;
    hpcla::Rng rng;
  };
  auto st = std::make_shared<State>(State{{}, {}, 0, hpcla::Rng(seed)});
  std::vector<Op>* panels = &st->panels;
  const std::int64_t step = std::max<std::int64_t>(1, scale.history_hours / 6);
  std::vector<std::tuple<UnixSeconds, UnixSeconds, bool>> windows;
  for (std::int64_t h = 0; h + 2 <= scale.history_hours; h += step) {
    windows.emplace_back(kDay0 + h * kHour, kDay0 + (h + 2) * kHour, true);
  }
  const UnixSeconds live = kDay0 + scale.history_hours * kHour;
  windows.emplace_back(live, live + kHour, false);
  windows.emplace_back(live + kHour, live + 2 * kHour, false);
  windows.emplace_back(live, live + 2 * kHour, false);
  for (const auto& [b, e, settled] : windows) {
    const EventType hot =
        settled ? EventType::kMachineCheck : EventType::kLustreError;
    Json hm = op_json("heatmap");
    hm["context"] = context_json(b, e, {hot});
    panels->push_back(make_op(std::move(hm), settled));
    Json hourly = op_json("hourly");
    hourly["context"] = context_json(b, e, {});
    panels->push_back(make_op(std::move(hourly), settled));
    Json dist = op_json("distribution");
    dist["group_by"] = "type";
    dist["context"] = context_json(b, e, {});
    panels->push_back(make_op(std::move(dist), settled));
    Json syn = op_json("synopsis");
    syn["window"] = window_json(b, e);
    panels->push_back(make_op(std::move(syn), settled));
    Json ev = op_json("events");
    ev["limit"] = 100;
    ev["context"] = context_json(b, e, {EventType::kLustreError});
    panels->push_back(make_op(std::move(ev), settled));
  }
  for (std::size_t p = 0; p < panels->size(); ++p) st->order.push_back(p);
  return [st] {
    if (st->i % st->order.size() == 0) {  // new round: Fisher-Yates shuffle
      for (std::size_t k = st->order.size() - 1; k > 0; --k) {
        std::swap(st->order[k], st->order[st->rng.next_below(k + 1)]);
      }
    }
    return st->panels[st->order[st->i++ % st->order.size()]];
  };
}

// ------------------------------------------------------------------ stream

/// Outcome of one live + catch-up streaming run.
struct StreamStats {
  double ingest_eps = 0.0;
  double live_begin_us = 0.0;  ///< first live event due
  double live_end_us = 0.0;    ///< last live event landed
  Samples freshness_ms;
  Samples late_ms;
  Samples drain_us;    ///< live process_available calls that drained messages
  Samples produce_us;  ///< Broker::produce, traced runs only
  std::uint64_t backlog_max = 0;
  std::uint64_t published = 0;
  std::uint64_t failed = 0;  ///< events not landed, write/decode failures
  std::vector<std::string> errors;
  bool valid = true;
  /// Registry at the start of the stream, at the end of its live part and
  /// at its end, taken while the broker (whose counters are reported
  /// through a collector) is alive.
  Snap begin;
  Snap live;
  Snap end;
};

/// Publishes `slice` on a fresh topic: the first events open loop at `rate`
/// events/s from their due times (live), then the last `backlog` events in
/// kCatchupBursts equal bursts (catch-up: timed from the first publish
/// until the last event landed). One drain thread runs process_available
/// with the view catalog attached.
StreamStats run_stream(Stack& s, const std::vector<EventRecord>& slice,
                       std::size_t backlog, double rate, SpanLog* spans) {
  StreamStats st;
  hpcla::buslite::Broker broker;
  if (!broker.create_topic(kTopic, {.partitions = 8}).is_ok()) {
    throw std::runtime_error("cannot create topic");
  }
  model::EventPublisher publisher(broker, kTopic);
  model::StreamingIngestor ingestor(s.cluster, s.engine, broker, kTopic);
  ingestor.set_view_catalog(&s.views);
  const std::size_t n = slice.size();
  backlog = std::min(backlog, n);
  std::vector<double> due(n, 0.0);
  std::vector<double> sent(n, 0.0);
  std::atomic<std::size_t> published{0};
  std::uint64_t publish_failures = 0;

  // Publishes event i: through EventPublisher, or (traced runs) the same
  // payload straight to Broker::produce so the append itself is timed.
  const auto publish = [&](std::size_t i) {
    const EventRecord& e = slice[i];
    bool ok = false;
    if (spans == nullptr) {
      ok = publisher.publish(e).is_ok();
    } else {
      std::string payload = e.to_json().dump();
      const double t0 = now_us();
      ok = broker
               .produce(kTopic, hpcla::topo::cname_of(e.node),
                        std::move(payload),
                        static_cast<hpcla::UnixMillis>(e.ts) * 1000)
               .is_ok();
      const double t1 = now_us();
      st.produce_us.add(t1 - t0);
      if (i % 16 == 0) {
        spans->add(SpanRec{0, 0, i, "buslite.produce", t0, t1, false});
      }
    }
    if (!ok) ++publish_failures;
    sent[i] = now_us();
    published.store(i + 1, std::memory_order_release);
  };

  struct Drain {
    double start = 0.0;
    double end = 0.0;
  };
  std::vector<Drain> drains;  // live phase only
  std::uint64_t landed = 0;
  bool live_phase = true;
  const auto drain_once = [&] {
    const std::size_t pub = published.load(std::memory_order_acquire);
    if (live_phase && pub > landed) {
      st.backlog_max = std::max<std::uint64_t>(st.backlog_max, pub - landed);
    }
    const double t0 = now_us();
    const auto report = ingestor.process_available();
    const double t1 = now_us();
    landed += report.messages_in;
    if (report.messages_in == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return;
    }
    if (live_phase) {
      st.drain_us.add(t1 - t0);
      drains.push_back({t0, t1});
    }
    if (spans != nullptr) {
      spans->add(SpanRec{0, 0, landed, "model.process_available", t0, t1,
                         false});
    }
  };

  // Phase 1: live, open loop from each event's due time. It comes first and
  // ends before the slice's first compaction (after about 130k events), so
  // its tail is set by some 35 memtable flushes; a compaction stall inside
  // it (0.3-0.6 s, machine-dependent) would be its p99 alone.
  st.begin = snap(s);
  const std::size_t live = n - backlog;
  const double t_live = now_us();
  for (std::size_t i = 0; i < live; ++i) {
    due[i] = t_live + static_cast<double>(i) * 1e6 / rate;
  }
  std::thread producer([&] {
    for (std::size_t i = 0; i < live;) {
      const double now = now_us();
      while (i < live && due[i] <= now) publish(i++);
      if (i < live && due[i] - now > 100.0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<long>(due[i] - now - 50.0)));
      }
    }
  });
  while (published.load(std::memory_order_acquire) < live || landed < live) {
    drain_once();
  }
  st.live_begin_us = t_live;
  st.live_end_us = now_us();
  producer.join();
  // Freshness: due time -> end of the first drain that started after the
  // event was sent. When no drain started later, the event was taken by the
  // drain that was running when produce() returned.
  std::size_t d = 0;
  for (std::size_t i = 0; i < live; ++i) {
    st.late_ms.add((sent[i] - due[i]) / 1e3);
    while (d < drains.size() && drains[d].start < sent[i]) ++d;
    double readable = 0.0;
    if (d < drains.size()) {
      readable = drains[d].end;
    } else if (d > 0 && drains[d - 1].end >= sent[i]) {
      readable = drains[d - 1].end;
    }
    if (readable == 0.0) {
      ++st.failed;
      if (st.errors.size() < 5) st.errors.push_back("event drained by no drain");
      continue;
    }
    st.freshness_ms.add((readable - due[i]) / 1e3);
  }
  if (live > 0 && st.late_ms.quantile(0.99) > kMaxLateP99Ms) {
    st.valid = false;
    st.errors.push_back("publisher fell behind schedule: late p99 " +
                        std::to_string(st.late_ms.quantile(0.99)) + " ms");
  }

  // Phase 2: catch-up, in bursts: each burst is published at once and
  // drained before the next, so no micro-batch outgrows a burst. It holds
  // the slice's storm and first compactions. The rate is the whole backlog
  // over the whole catch-up, which always holds about the same number of
  // flushes and compactions, while one burst's share of them varies.
  st.live = snap(s);
  live_phase = false;
  const double t_catch = now_us();
  for (int r = 0; r < kCatchupBursts; ++r) {
    const std::size_t first = live + backlog * static_cast<std::size_t>(r) /
                                         static_cast<std::size_t>(kCatchupBursts);
    const std::size_t last = live + backlog * static_cast<std::size_t>(r + 1) /
                                        static_cast<std::size_t>(kCatchupBursts);
    for (std::size_t i = first; i < last; ++i) publish(i);
    while (landed < last) drain_once();
  }
  st.ingest_eps = ratio(static_cast<double>(backlog), (now_us() - t_catch) / 1e6);
  st.published = n;
  st.end = snap(s);

  // Landed check: totals, dead letters, and the rows read back.
  const auto& totals = ingestor.totals();
  st.failed += publish_failures + totals.decode_failures +
               totals.write_failures + totals.quarantined;
  for (int p = 0; p < broker.partition_count(kTopic + std::string(".dlq")).value_or(0);
       ++p) {
    st.failed += static_cast<std::uint64_t>(
        broker.end_offset(kTopic + std::string(".dlq"), p).value_or(0));
  }
  if (totals.messages_in != n) {
    st.failed += n > totals.messages_in ? n - totals.messages_in : 1;
  }
  if (!slice.empty()) {
    hpcla::analytics::Context all;
    all.window = TimeRange{hpcla::hour_bucket(slice.front().ts) * kHour,
                           (hpcla::hour_bucket(slice.back().ts) + 1) * kHour};
    std::map<std::tuple<int, std::int32_t, UnixSeconds>, std::int64_t> want;
    std::map<std::pair<std::int64_t, int>, std::int64_t> want_hourly;
    for (const auto& e : slice) {
      want[{static_cast<int>(e.type), e.node, e.ts}] += e.count;
      want_hourly[{hpcla::hour_bucket(e.ts), static_cast<int>(e.type)}] += e.count;
    }
    std::map<std::tuple<int, std::int32_t, UnixSeconds>, std::int64_t> got;
    for (const auto& e :
         hpcla::analytics::fetch_events(s.engine, s.cluster, all)) {
      got[{static_cast<int>(e.type), e.node, e.ts}] += e.count;
    }
    std::map<std::pair<std::int64_t, int>, std::int64_t> got_hourly;
    for (const auto& row : hpcla::analytics::fetch_synopsis(s.cluster, all.window)) {
      got_hourly[{row.hour, static_cast<int>(row.type)}] += row.count;
    }
    if (got != want || got_hourly != want_hourly) {
      std::uint64_t missing = 0;
      for (const auto& [k, c] : want) {
        const auto it = got.find(k);
        if (it == got.end() || it->second != c) missing += static_cast<std::uint64_t>(c);
      }
      st.failed += std::max<std::uint64_t>(1, missing);
      st.errors.push_back("landed rows differ from the published set (" +
                          std::to_string(missing) + " events)");
    }
  }
  return st;
}

// ------------------------------------------------------------------ result

struct Run {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  bool valid = true;

  void put(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
};

/// Per-layer numbers from the ladder replay of `ops`.
void ladder_metrics(Stack& s, const std::vector<Op>& ops, SpanLog& log,
                    Run& run) {
  double root = 0, parse = 0, dispatch = 0, dump = 0, bytes = 0;
  double server = 0, analytics = 0, collect = 0, select = 0;
  double scan_sum = 0, scan_max = 0, scanned = 0, returned = 0;
  std::uint64_t op_id = 0;
  for (const Op& op : ops) {
    const Ladder L = run_ladder(s, op, ++op_id, log);
    root += L.root_us;
    parse += L.parse_us;
    const double below =
        L.analytics_us >= 0 ? L.analytics_us : std::max(0.0, L.select_us);
    dispatch += std::max(0.0, L.handle_us - below);
    dump += L.dump_us;
    bytes += static_cast<double>(L.response_bytes);
    server += L.server_self;
    analytics += L.analytics_self;
    collect += std::max(0.0, L.collect_us);
    select += std::max(0.0, L.select_us);
    scan_sum += std::max(0.0, L.scan_sum_us);
    scan_max += std::max(0.0, L.scan_max_us);
    if (L.rows_scanned > 0) {
      scanned += static_cast<double>(L.rows_scanned);
      returned += static_cast<double>(L.rows_returned);
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(ops.size()));
  const auto c = static_cast<std::uint64_t>(ops.size());
  run.put("server.parse_us", parse / n, "us", c);
  run.put("server.dispatch_us", dispatch / n, "us", c);
  run.put("server.render_us", dump / n, "us", c);
  run.put("server.response_bytes", bytes / n, "bytes", c);
  run.put("server.share_pct", 100.0 * ratio(server, root), "%", c);
  run.put("analytics.self_us", analytics / n, "us", c);
  run.put("analytics.rows_per_result", ratio(scanned, returned), "ratio", c);
  run.put("sparklite.collect_us", collect / n, "us", c);
  run.put("sparklite.collect_share_pct", 100.0 * ratio(collect, root), "%", c);
  run.put("cassalite.select_us", select / n, "us", c);
  run.put("storage.scan_us", scan_sum / n, "us", c);
  run.put("storage.scan_max_us", scan_max / n, "us", c);
  run.put("storage.rows_scanned", scanned / n, "rows", c);
}

/// trace.overhead_pct: the sampled ops sent back to back untraced, then
/// traced (each request a span recorded into a span log, as the ladder's
/// root is), in 4 rounds of alternating order; the traced passes' total
/// time over the untraced passes', minus 1.
void trace_overhead(Stack& s, const std::vector<Op>& ops, Run& run) {
  SpanLog log;  // the traced passes' spans; not written out
  const auto pass = [&](bool traced) {
    const double t0 = now_us();
    std::uint64_t id = 0;
    for (const Op& op : ops) {
      if (!traced) {
        (void)s.server.handle_text(op.text);
        continue;
      }
      SpanRec rec{0, 0, ++id, "server.handle_text", now_us(), 0.0, false};
      (void)s.server.handle_text(op.text);
      rec.end_us = now_us();
      log.add(std::move(rec));
    }
    return now_us() - t0;
  };
  double plain = 0.0;
  double traced = 0.0;
  for (int r = 0; r < 4; ++r) {
    const bool traced_first = r == 1 || r == 2;  // ABBA order
    if (traced_first) traced += pass(true);
    plain += pass(false);
    if (!traced_first) traced += pass(true);
  }
  run.put("trace.overhead_pct", 100.0 * ratio(traced - plain, plain), "%",
          4 * ops.size());
}

/// Per-layer numbers that come from registry deltas over a query phase.
void query_phase_metrics(const Snap& a, const Snap& b, std::uint64_t queries,
                         Run& run) {
  const double q = std::max<double>(1.0, static_cast<double>(queries));
  const double hits = delta(a, b, "server.cache.hits");
  const double lookups = hits + delta(a, b, "server.cache.misses");
  const double tasks = delta(a, b, "sparklite.tasks");
  const double sst = delta(a, b, "cassalite.storage.sstables_read");
  const double bloom = delta(a, b, "cassalite.storage.bloom_rejections");
  run.put("server.errors", delta(a, b, "server.queries.errors"), "count", queries);
  run.put("cache.lookups", lookups, "count", queries);
  run.put("cache.hit_ratio", ratio(hits, lookups), "ratio", queries);
  run.put("cache.view_ratio",
          ratio(delta(a, b, "server.queries.view_served"), lookups), "ratio",
          queries);
  run.put("cache.invalidations", delta(a, b, "server.cache.invalidations"),
          "count", queries);
  run.put("views.applied", delta(a, b, "model.views.applied"), "count", queries);
  run.put("sparklite.tasks_per_query", tasks / q, "count", queries);
  run.put("sparklite.local_task_ratio",
          ratio(delta(a, b, "sparklite.tasks.local"), tasks), "ratio", queries);
  run.put("sparklite.shuffle_records_per_query",
          delta(a, b, "sparklite.shuffle.records") / q, "count", queries);
  run.put("sparklite.shuffle_map_us", delta(a, b, "sparklite.shuffle.map_us") / q,
          "us", queries);
  run.put("sparklite.shuffle_reduce_us",
          delta(a, b, "sparklite.shuffle.reduce_us") / q, "us", queries);
  run.put("sparklite.stage_p99_us",
          histogram_delta_p99(a, b, "sparklite.stage.us"), "us", queries);
  run.put("sparklite.shuffle_skew", mean_new_skew(a, b), "ratio", queries);
  run.put("sparklite.spill_bytes", delta(a, b, "sparklite.spill.bytes"),
          "bytes", queries);
  run.put("cassalite.reads_per_query", delta(a, b, "cassalite.read.ok") / q,
          "count", queries);
  run.put("storage.sstables_per_read",
          ratio(sst, delta(a, b, "cassalite.storage.snapshot_reads")), "count",
          queries);
  run.put("storage.bloom_reject_ratio", ratio(bloom, bloom + sst), "ratio",
          queries);
  run.put("storage.flushes", delta(a, b, "cassalite.storage.memtable_flushes"),
          "count", queries);
  run.put("storage.compactions", delta(a, b, "cassalite.storage.compactions"),
          "count", queries);
  run.put("storage.compaction_stall_us",
          delta(a, b, "cassalite.storage.compaction_stall_us"), "us", queries);
  run.put("process.cpu_us_per_op", (b.cpu - a.cpu) / q, "us", queries);
}

/// Per-layer numbers of the streaming path.
void stream_phase_metrics(const Snap& a, const Snap& b, const StreamStats& st,
                          Run& run) {
  const double landed = delta(a, b, "ingest.events_written");
  const auto n = st.published;
  run.put("buslite.produce_p50_us", st.produce_us.quantile(0.5), "us",
          st.produce_us.size());
  run.put("buslite.produce_p99_us", st.produce_us.quantile(0.99), "us",
          st.produce_us.size());
  run.put("buslite.produce_contention", delta(a, b, "buslite.produce_contention"),
          "count", n);
  run.put("buslite.msgs_per_fetch",
          ratio(delta(a, b, "buslite.messages_fetched"),
                delta(a, b, "buslite.fetches")),
          "count", n);
  run.put("ingest.drain_p50_us", st.drain_us.quantile(0.5), "us",
          st.drain_us.size());
  run.put("ingest.drain_p99_us", st.drain_us.quantile(0.99), "us",
          st.drain_us.size());
  run.put("ingest.backlog_max", static_cast<double>(st.backlog_max), "count", n);
  run.put("ingest.coalesce_ratio", ratio(delta(a, b, "ingest.messages"), landed),
          "ratio", n);
  run.put("cassalite.writes_per_event",
          ratio(delta(a, b, "cassalite.write.ok"), landed), "count", n);
  run.put("loadgen.late_p99_ms", st.late_ms.quantile(0.99), "ms",
          st.late_ms.size());
}

/// Registry counters that should stay 0 without faults, over every phase
/// of `ops` queries and events.
void fault_metrics(const Snap& a, const Snap& b, std::uint64_t ops, Run& run) {
  run.put("cassalite.read_retries", delta(a, b, "cassalite.read.retries"),
          "count", ops);
  run.put("cassalite.read_repairs", delta(a, b, "cassalite.read.repairs"),
          "count", ops);
  run.put("cassalite.speculative_reads",
          delta(a, b, "cassalite.read.speculative"), "count", ops);
  run.put("cassalite.write_unavailable",
          delta(a, b, "cassalite.write.unavailable"), "count", ops);
}

/// Twin-stack replays: single calls of the write, decode, synopsis and
/// parse paths, timed one by one on a separate cluster so the measured
/// stack is untouched.
void twin_metrics(Stack& s, const std::vector<EventRecord>& slice,
                  SpanLog& log, Run& run) {
  hpcla::cassalite::Cluster twin;
  if (!model::create_data_model(twin).is_ok()) {
    throw std::runtime_error("twin data model failed");
  }
  model::BatchIngestor writer(twin, s.engine);
  model::IngestReport report;
  const std::size_t n = std::min<std::size_t>(2000, slice.size());
  const std::size_t stride = std::max<std::size_t>(1, slice.size() / std::max<std::size_t>(1, n));
  Samples write_us, decode_us, synopsis_us, parse_us;
  std::map<std::pair<std::int64_t, EventType>, model::SynopsisDelta> deltas;
  for (std::size_t i = 0, k = 0; i < slice.size() && k < n; i += stride, ++k) {
    const EventRecord& e = slice[i];
    const std::string payload = e.to_json().dump();
    double t0 = now_us();
    auto parsed = Json::parse(payload);
    const bool decoded = parsed.is_ok() && EventRecord::from_json(parsed.value()).is_ok();
    decode_us.add(now_us() - t0);
    if (!decoded) ++run.failed;
    t0 = now_us();
    writer.write_event(e, report);
    const double t1 = now_us();
    write_us.add(t1 - t0);
    if (k % 64 == 0) log.add(SpanRec{0, 0, k, "twin.write_event", t0, t1, false});
    model::accumulate_synopsis(deltas, e);
    if (deltas.size() >= 8) {
      t0 = now_us();
      writer.apply_synopsis(deltas, report);
      synopsis_us.add(now_us() - t0);
      deltas.clear();
    }
  }
  titanlog::LogParser parser;
  for (const auto& line : s.line_sample) {
    const double t0 = now_us();
    (void)parser.parse_line(line);
    parse_us.add(now_us() - t0);
  }
  run.put("cassalite.write_event_us", write_us.mean(), "us", write_us.size());
  run.put("ingest.decode_us", decode_us.mean(), "us", decode_us.size());
  run.put("ingest.synopsis_us", synopsis_us.mean(), "us", synopsis_us.size());
  run.put("titanlog.parse_us", parse_us.mean(), "us", parse_us.size());
  run.put("etl.lines_per_s", ratio(static_cast<double>(s.lines), s.etl_seconds),
          "1/s", s.lines);
}

std::vector<Op> sample_ops(const OpSource& source, std::size_t n) {
  std::vector<Op> ops;
  for (std::size_t i = 0; i < n; ++i) ops.push_back(source());
  return ops;
}

/// The heatmap ladder's additivity: the span tree's self times, summed,
/// against the request's traced end-to-end time. Rungs are separate
/// replays, so a rung that runs slower than the call around it clamps its
/// parent's self time at 0 and the sum overshoots. The ladder is replayed
/// in whole passes and each span takes its median over the passes, so a
/// change in machine speed hits every rung alike.
void ladder_check(Stack& s, SpanLog& log, Run& run) {
  Json j = op_json("heatmap");
  j["context"] = context_json(kDay0, kDay0 + 4 * kHour, {});
  const Op op = make_op(std::move(j));
  constexpr std::uint64_t kFirstId = 1ull << 40;
  constexpr int kPasses = 9;
  std::vector<std::vector<SpanRec>> passes;
  for (int p = 0; p < kPasses; ++p) {
    (void)run_ladder(s, op, kFirstId + p, log);
    passes.push_back(log.spans_of(kFirstId + p));
  }
  std::vector<SpanRec> median = passes.front();
  for (std::size_t i = 0; i < median.size(); ++i) {
    Samples d;
    for (const auto& pass : passes) {
      if (i < pass.size()) d.add(pass[i].dur());
    }
    median[i].end_us = median[i].start_us + d.quantile(0.5);
  }
  const double root = median.front().dur();
  const double sum = self_sum(median);
  run.put("ladder.request_us", root, "us", kPasses);
  run.put("ladder.self_sum_us", sum, "us", kPasses);
  run.put("ladder.sum_error_pct", 100.0 * std::fabs(sum - root) / root, "%",
          kPasses);
}

[[noreturn]] void run_main(const Args& args) {
#ifndef NDEBUG
  throw std::runtime_error("refusing an unoptimised build (NDEBUG unset)");
#endif
  Json config = Json::object();
  config["workload"] = args.workload;
  config["seed"] = static_cast<std::int64_t>(args.seed);
  config["seconds"] = args.seconds;
  config["trace"] = args.trace;
  config["tiny"] = args.tiny;
  config["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  config["compiler"] = __VERSION__;
  config["hpcla_env"] = pinned_environment();
  const Scale scale = args.tiny ? tiny_scale() : full_scale();

  Run run;
  SpanLog spans;

  // Set-up, several times; the median is setup_s. The last stack carries
  // the workload and the traced replay.
  Samples setup_s;
  std::unique_ptr<Stack> stack;
  const int setups = args.trace ? 1 : scale.setups;
  for (int i = 0; i < setups; ++i) {
    stack.reset();
    const double t0 = now_us();
    stack = build_stack(args.seed, scale);
    setup_s.add((now_us() - t0) / 1e6);
    std::fprintf(stderr, "set-up %d: %.3f s (%zu lines)\n", i + 1,
                 (now_us() - t0) / 1e6, stack->lines);
  }
  Stack& s = *stack;

  // The streamed slice: `--seconds` of live events, then the catch-up
  // backlog.
  const bool ingest = args.workload == "ingest";
  const auto slice = stream_slice(
      args.seed, scale,
      scale.backlog_events +
          static_cast<std::size_t>(scale.live_rate * args.seconds));

  std::atomic<bool> corrupt_once{args.corrupt};
  std::atomic<bool>* const corrupt = args.corrupt ? &corrupt_once : nullptr;
  SpanLog* const stream_spans = args.trace ? &spans : nullptr;
  ClientStats clients;
  StreamStats stream;
  OpSource ladder_source;
  Snap q0, q1;
  double query_begin = 0.0;
  double query_end = 0.0;
  if (ingest) {
    s.server.set_view_catalog(&s.views);
    const OpSource dash = dashboard_source(args.seed * 7 + 1, scale);
    ladder_source = dashboard_source(args.seed * 7 + 2, scale);
    std::atomic<bool> stop{false};
    q0 = snap(s);
    std::thread dashboard([&] {
      run_client(s, dash, stop, scale.check_every, corrupt, clients);
    });
    stream = run_stream(s, slice, scale.backlog_events, scale.live_rate,
                        stream_spans);
    stop = true;
    dashboard.join();
    q1 = snap(s);
    // The dashboard's figures come from the live part, where the write load
    // is fixed. It keeps running, and its answers are checked, through the
    // catch-up, whose length moves with machine speed and decides how many
    // of the costliest refreshes (the storm hour's events, re-read after
    // every landed burst) fall in the tail.
    query_begin = stream.live_begin_us;
    query_end = stream.live_end_us;
  } else {
    const bool lookup = args.workload == "lookup";
    std::vector<OpSource> sources;
    const std::size_t n_clients = lookup ? 4 : 1;
    for (std::size_t c = 0; c < n_clients; ++c) {
      const std::uint64_t cseed = args.seed * 1000 + c;
      sources.push_back(lookup ? lookup_source(cseed, scale)
                               : analytics_source(cseed, scale));
    }
    const std::uint64_t lseed = args.seed * 1000 + 999;
    ladder_source = lookup ? lookup_source(lseed, scale)
                           : analytics_source(lseed, scale);
    q0 = snap(s);
    query_begin = now_us();
    clients = run_clients(s, sources, args.seconds, scale.check_every, corrupt);
    query_end = now_us();
    q1 = snap(s);
    // Reader-free streaming probe: the same ingest path with no clients.
    stream = run_stream(s, slice, scale.backlog_events, scale.live_rate,
                        stream_spans);
  }

  std::fprintf(stderr,
               "stream: catch-up %.0f events/s; %.0f flushes, %.0f of %.0f "
               "compactions in the live part; drain p99 %.0f us, max %.0f "
               "us\n",
               stream.ingest_eps,
               delta(stream.begin, stream.end,
                     "cassalite.storage.memtable_flushes"),
               delta(stream.begin, stream.live, "cassalite.storage.compactions"),
               delta(stream.begin, stream.end, "cassalite.storage.compactions"),
               stream.drain_us.quantile(0.99), stream.drain_us.quantile(1.0));
  run.attempted = clients.ops + stream.published;
  run.failed += clients.failed + stream.failed;
  run.errors = clients.errors;
  run.errors.insert(run.errors.end(), stream.errors.begin(), stream.errors.end());
  run.valid = stream.valid;
  std::fprintf(stderr,
               "%s: %llu queries (%llu checked), %llu events streamed, "
               "%llu failed\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(clients.ops),
               static_cast<unsigned long long>(clients.checked),
               static_cast<unsigned long long>(stream.published),
               static_cast<unsigned long long>(run.failed));

  if (!args.trace) {
    const QueryFigures f = query_figures(clients, query_begin, query_end);
    run.put("setup_s", setup_s.quantile(0.5), "s", setup_s.size());
    run.put("qps", f.qps.quantile(0.5), "1/s", f.simple.size() + f.complex.size());
    run.put("simple_p50_us", f.simple_p50.quantile(0.5), "us", f.simple.size());
    run.put("simple_p99_us", f.simple.quantile(0.99), "us", f.simple.size());
    run.put("complex_p50_us", f.complex_p50.quantile(0.5), "us",
            f.complex.size());
    run.put("complex_p99_us", f.complex.quantile(0.99), "us", f.complex.size());
    run.put("ingest_eps", stream.ingest_eps, "1/s", scale.backlog_events);
    run.put("freshness_p50_ms", stream.freshness_ms.quantile(0.5), "ms",
            stream.freshness_ms.size());
    run.put("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  } else {
    // The live tail over every live event. The longest of some 35 memtable
    // flush stalls decide it, and which are long varies from seed to seed,
    // so it is reported with the layers, where no bound gates it.
    run.put("freshness_p99_ms", stream.freshness_ms.quantile(0.99), "ms",
            stream.freshness_ms.size());
    query_phase_metrics(q0, q1, clients.ops, run);
    stream_phase_metrics(stream.begin, stream.end, stream, run);
    fault_metrics(q0, snap(s), run.attempted, run);
    const std::vector<Op> sample = sample_ops(ladder_source, scale.ladder_ops);
    ladder_metrics(s, sample, spans, run);
    trace_overhead(s, sample, run);
    twin_metrics(s, slice, spans, run);
  }
  if (args.ladder_check) ladder_check(s, spans, run);
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, run.attempted));
  run.put("fail_ratio", static_cast<double>(run.failed) / attempted, "ratio",
          run.attempted);
  run.put("ok_ratio", 1.0 - static_cast<double>(run.failed) / attempted,
          "ratio", run.attempted);
  if (!args.spans.empty() && spans.size() > 0) spans.write(args.spans);

  Json out = Json::object();
  out["config"] = std::move(config);
  out["valid"] = run.valid;
  out["attempted"] = static_cast<std::int64_t>(run.attempted);
  out["failed"] = static_cast<std::int64_t>(run.failed);
  Json errors = Json::array();
  for (const auto& e : run.errors) errors.push_back(e);
  out["errors"] = std::move(errors);
  Json metrics = Json::object();
  for (const auto& [name, m] : run.metrics) {
    Json row = Json::object();
    row["value"] = m.value;
    row["unit"] = m.unit;
    row["samples"] = static_cast<std::int64_t>(m.samples);
    metrics[name] = std::move(row);
  }
  out["metrics"] = std::move(metrics);
  std::cout << out.dump() << std::endl;
  // Freeing the stack (≈2 GiB in small allocations) takes seconds and
  // measures nothing. The client, producer and drain threads are joined and
  // the engine's workers idle, so the process ends without destructors.
  std::fflush(stderr);
  std::_Exit(run.valid && run.failed == 0 ? 0 : 1);
}

}  // namespace
}  // namespace stackbench

int main(int argc, char** argv) {
  try {
    stackbench::run_main(stackbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stackbench: %s\n", e.what());
    return 2;
  }
}
