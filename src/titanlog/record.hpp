// Normalized records produced by the ETL layer: event occurrences and
// application runs. These are the units the data model stores and the
// analytics layer consumes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "titanlog/events.hpp"
#include "topo/cname.hpp"

namespace hpcla::titanlog {

/// One raw log line as collected from a source stream.
struct LogLine {
  UnixSeconds ts = 0;
  LogSource source = LogSource::kConsole;
  std::string text;  ///< full line including timestamp and location
};

/// A parsed event occurrence (paper §II-B: "occurrence(s) of a certain type
/// reported at a particular timestamp ... associated with the location
/// where it is reported").
struct EventRecord {
  UnixSeconds ts = 0;
  EventType type = EventType::kMachineCheck;
  topo::NodeId node = topo::kInvalidNode;
  /// Free-text payload after timestamp/location extraction. For Lustre
  /// events this carries the message mined by the Fig 7 text analytics.
  std::string message;
  /// Same-second occurrences coalesced into this record (streaming §III-D).
  std::int64_t count = 1;
  /// Uniquifier within (ts, node, type) before coalescing.
  std::int64_t seq = 0;

  [[nodiscard]] Json to_json() const;
  static Result<EventRecord> from_json(const Json& j);

  friend bool operator==(const EventRecord&, const EventRecord&) = default;
};

/// Longest [start, end) a job may claim: a week, well above the
/// generator's 48 h cap. Every hour a job runs costs rows in the
/// hour-keyed application tables, so a longer claim is rejected.
inline constexpr std::int64_t kMaxJobSpanSeconds = 7 * 24 * 3600;

/// A parsed application run (one row of the application tables).
struct JobRecord {
  std::int64_t apid = 0;       ///< ALPS application id
  std::string app_name;
  std::string user;
  UnixSeconds start = 0;
  UnixSeconds end = 0;
  /// Allocated compute nodes (contiguous NID ranges in practice).
  std::vector<topo::NodeId> nodes;
  int exit_code = 0;           ///< 0 = success

  [[nodiscard]] bool failed() const noexcept { return exit_code != 0; }
  [[nodiscard]] std::int64_t duration() const noexcept { return end - start; }
  /// start <= end <= start + kMaxJobSpanSeconds, without signed overflow.
  [[nodiscard]] bool span_ok() const noexcept {
    if (end < start) return false;
    // With end >= start the unsigned difference is the exact span.
    const std::uint64_t span =
        static_cast<std::uint64_t>(end) - static_cast<std::uint64_t>(start);
    return span <= static_cast<std::uint64_t>(kMaxJobSpanSeconds);
  }

  [[nodiscard]] Json to_json() const;
  static Result<JobRecord> from_json(const Json& j);

  friend bool operator==(const JobRecord&, const JobRecord&) = default;
};

/// Compresses a sorted node list into NID ranges: "100-227,300,302-303".
std::string format_nid_ranges(const std::vector<topo::NodeId>& nodes);

/// Inverse of format_nid_ranges. Rejects malformed or out-of-range input.
Result<std::vector<topo::NodeId>> parse_nid_ranges(std::string_view text);

}  // namespace hpcla::titanlog
