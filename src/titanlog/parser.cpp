#include "titanlog/parser.hpp"

#include "common/strings.hpp"
#include "topo/cname.hpp"

namespace hpcla::titanlog {

const std::vector<EventPattern>& default_patterns() {
  static const std::vector<EventPattern> kPatterns = [] {
    std::vector<EventPattern> p;
    const auto add = [&p](EventType t, std::string prefilter,
                          const char* regex) {
      p.push_back(EventPattern{t, std::move(prefilter),
                               std::regex(regex, std::regex::optimize)});
    };
    // Order matters where prefilters overlap: GPU DBE (Xid 48) must be
    // tried before the generic GPU Xid pattern.
    add(EventType::kGpuMemoryError, "Xid 48",
        R"(GPU Xid 48: double-bit ECC error)");
    add(EventType::kGpuFailure, "Xid", R"(GPU Xid \d+:)");
    add(EventType::kMachineCheck, "MCE",
        R"(MCE: Machine Check Exception bank \d+)");
    add(EventType::kMemoryEcc, "EDAC", R"(EDAC MC\d+: \d+ CE error)");
    add(EventType::kLustreError, "LustreError", R"(LustreError:)");
    add(EventType::kDvsError, "DVS", R"(DVS: \w+:)");
    add(EventType::kNetworkError, "HWERR", R"(HWERR: Gemini)");
    add(EventType::kKernelPanic, "Kernel panic",
        R"(Kernel panic - not syncing)");
    add(EventType::kAppAbort, "apsched: apid",
        R"(apsched: apid \d+ killed)");
    return p;
  }();
  return kPatterns;
}

Result<ParsedLine> LogParser::parse_line(std::string_view line) const {
  // Layout: 19-char timestamp, space, location token, space, payload.
  if (line.size() < 21) return invalid_argument("line too short");
  const auto ts = parse_timestamp(line.substr(0, 19));
  if (!ts.is_ok()) return ts.status();
  if (line[19] != ' ') return invalid_argument("missing separator after ts");
  std::string_view rest = line.substr(20);
  const auto space = rest.find(' ');
  if (space == std::string_view::npos) {
    return invalid_argument("missing payload");
  }
  const std::string_view location = rest.substr(0, space);
  const std::string_view payload = rest.substr(space + 1);

  if (location == "apsched:") {
    auto job = parse_job(payload);
    if (!job.is_ok()) return job.status();
    return ParsedLine{std::move(job.value())};
  }
  auto event = parse_event(ts.value(), location, payload);
  if (!event.is_ok()) return event.status();
  return ParsedLine{std::move(event.value())};
}

Result<EventRecord> LogParser::parse_event(UnixSeconds ts,
                                           std::string_view cname,
                                           std::string_view payload) const {
  const auto coord = topo::parse_cname(cname);
  if (!coord.is_ok()) return coord.status();
  if (coord->level() != topo::LocationLevel::kNode) {
    return invalid_argument("event location must be node-level: '" +
                            std::string(cname) + "'");
  }
  for (const auto& pat : *patterns_) {
    if (payload.find(pat.prefilter) == std::string_view::npos) continue;
    if (!std::regex_search(payload.begin(), payload.end(), pat.pattern)) {
      continue;
    }
    EventRecord e;
    e.ts = ts;
    e.type = pat.type;
    e.node = topo::node_id(coord.value());
    e.message = std::string(payload);
    return e;
  }
  return not_found("no pattern matched payload");
}

Result<JobRecord> LogParser::parse_job(std::string_view payload) const {
  // key=value tokens: apid user app nids start end exit.
  JobRecord job;
  bool have_apid = false;
  bool have_user = false;
  bool have_app = false;
  bool have_nids = false;
  bool have_start = false;
  bool have_end = false;
  bool have_exit = false;
  for (const auto token : split_whitespace(payload)) {
    const auto eq = token.find('=');
    if (eq == std::string_view::npos) continue;
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    long long num = 0;
    if (key == "apid" && parse_int(value, num)) {
      job.apid = num;
      have_apid = true;
    } else if (key == "user") {
      job.user = std::string(value);
      have_user = !value.empty();
    } else if (key == "app") {
      job.app_name = std::string(value);
      have_app = !value.empty();
    } else if (key == "nids") {
      auto nodes = parse_nid_ranges(value);
      if (!nodes.is_ok()) return nodes.status();
      job.nodes = std::move(nodes.value());
      have_nids = true;
    } else if (key == "start" && parse_int(value, num)) {
      job.start = num;
      have_start = true;
    } else if (key == "end" && parse_int(value, num)) {
      job.end = num;
      have_end = true;
    } else if (key == "exit" && parse_int(value, num)) {
      job.exit_code = static_cast<int>(num);
      have_exit = true;
    }
  }
  if (!(have_apid && have_user && have_app && have_nids && have_start &&
        have_end && have_exit)) {
    return invalid_argument("incomplete apsched record");
  }
  if (job.end < job.start) {
    return invalid_argument("apsched record with end < start");
  }
  if (!job.span_ok()) {
    return invalid_argument("apsched record runs longer than a week");
  }
  return job;
}

void LogParser::parse_batch(const std::vector<LogLine>& lines,
                            std::vector<EventRecord>& events,
                            std::vector<JobRecord>& jobs,
                            ParseStats& stats) const {
  for (const auto& line : lines) {
    ++stats.lines;
    auto parsed = parse_line(line.text);
    if (!parsed.is_ok()) {
      if (parsed.status().code() == StatusCode::kNotFound) {
        ++stats.unmatched;
      } else {
        ++stats.malformed;
      }
      continue;
    }
    if (parsed->is_event()) {
      events.push_back(parsed->event());
      ++stats.events;
    } else {
      jobs.push_back(parsed->job());
      ++stats.jobs;
    }
  }
}

}  // namespace hpcla::titanlog
