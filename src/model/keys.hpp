// Partition-key and column-name conventions of the data model.
//
// Paper Fig 1/Fig 4: event partitions are keyed by (hour, event type) in
// event_by_time and by (hour, location) in event_by_location, so that one
// hour of one type (or one component) is a single time-ordered partition —
// a spatio-temporal slice is a handful of sequential partition reads.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "titanlog/events.hpp"
#include "topo/cname.hpp"

namespace hpcla::model {

// Table names (paper §II-B bullet list; application_by_app covers the
// "by name of application" perspective of Fig 2 — see DESIGN.md).
inline constexpr std::string_view kNodeInfos = "nodeinfos";
inline constexpr std::string_view kEventTypes = "eventtypes";
inline constexpr std::string_view kEventSynopsis = "eventsynopsis";
inline constexpr std::string_view kEventByTime = "event_by_time";
inline constexpr std::string_view kEventByLocation = "event_by_location";
inline constexpr std::string_view kAppByTime = "application_by_time";
inline constexpr std::string_view kAppByUser = "application_by_user";
inline constexpr std::string_view kAppByApp = "application_by_app";
inline constexpr std::string_view kAppByLocation = "application_by_location";

// Column names shared across tables.
inline constexpr std::string_view kColNode = "node";
inline constexpr std::string_view kColType = "type";
inline constexpr std::string_view kColMessage = "message";
inline constexpr std::string_view kColCount = "count";
inline constexpr std::string_view kColFirstTs = "first_ts";
inline constexpr std::string_view kColLastTs = "last_ts";
inline constexpr std::string_view kColApid = "apid";
inline constexpr std::string_view kColApp = "app";
inline constexpr std::string_view kColUser = "user";
inline constexpr std::string_view kColNids = "nids";
inline constexpr std::string_view kColStart = "start";
inline constexpr std::string_view kColEnd = "end";
inline constexpr std::string_view kColExit = "exit";

/// event_by_time partition: "<hour>|<type-id>", e.g. "413185|MCE".
std::string event_time_key(std::int64_t hour, titanlog::EventType type);

/// event_by_location partition: "<hour>|<node-id>", e.g. "413185|1234".
std::string event_location_key(std::int64_t hour, topo::NodeId node);

/// eventsynopsis partition: "<hour>".
std::string synopsis_key(std::int64_t hour);

/// application_by_time partition: "<hour>", one for every hour a job runs.
std::string app_time_key(std::int64_t hour);

/// application_by_user partition: "<user>".
std::string app_user_key(std::string_view user);

/// application_by_app partition: "<app-name>".
std::string app_app_key(std::string_view app);

/// application_by_location partition: "<hour>|<node-id>".
std::string app_location_key(std::int64_t hour, topo::NodeId node);

/// nodeinfos partition: "<node-id>".
std::string nodeinfo_key(topo::NodeId node);

/// eventtypes partition: "<type-id>".
std::string eventtype_key(titanlog::EventType type);

/// Decoded event_by_time key.
struct EventTimeKey {
  std::int64_t hour = 0;
  titanlog::EventType type = titanlog::EventType::kMachineCheck;
};
Result<EventTimeKey> parse_event_time_key(std::string_view key);

/// Decoded event_by_location key.
struct EventLocationKey {
  std::int64_t hour = 0;
  topo::NodeId node = topo::kInvalidNode;
};
Result<EventLocationKey> parse_event_location_key(std::string_view key);

}  // namespace hpcla::model
