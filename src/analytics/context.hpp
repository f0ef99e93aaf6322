// Query contexts (paper §III-B).
//
// "Users interact with the framework by creating a *context*. A context is
//  selected on the basis of event type, application, location, user, time
//  period, or a combination of these, over which the system status is
//  defined and examined."
//
// A Context is the common input to every analytic: empty dimension = no
// restriction. JSON codecs implement the frontend protocol shape.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "titanlog/events.hpp"
#include "topo/cname.hpp"

namespace hpcla::analytics {

/// Longest window a request may ask about, in hour partitions: one leap
/// year. Scans enumerate a window's hours, so without a bound one request
/// could ask for a key list (or a loop of reads) of any length.
inline constexpr std::int64_t kMaxWindowHours = 8784;

/// kInvalidArgument when `window` overlaps more than kMaxWindowHours hours.
Status check_window_span(const TimeRange& window);

struct Context {
  /// Event types of interest; empty = all types.
  std::vector<titanlog::EventType> types;
  /// Location restriction (any level); nullopt = whole system.
  std::optional<topo::Coord> location;
  /// User restriction; empty = all users.
  std::vector<std::string> users;
  /// Application restriction; empty = all applications.
  std::vector<std::string> apps;
  /// Time period (half-open); required.
  TimeRange window;

  [[nodiscard]] bool wants_type(titanlog::EventType t) const noexcept {
    if (types.empty()) return true;
    for (auto x : types) {
      if (x == t) return true;
    }
    return false;
  }

  [[nodiscard]] bool wants_node(topo::NodeId node) const {
    if (!location) return true;
    return topo::contains(*location, topo::coord_of(node));
  }

  [[nodiscard]] bool wants_user(const std::string& user) const noexcept {
    if (users.empty()) return true;
    for (const auto& u : users) {
      if (u == user) return true;
    }
    return false;
  }

  [[nodiscard]] bool wants_app(const std::string& app) const noexcept {
    if (apps.empty()) return true;
    for (const auto& a : apps) {
      if (a == app) return true;
    }
    return false;
  }

  /// JSON shape:
  /// {"window":{"begin":..,"end":..}, "types":["MCE",...],
  ///  "location":"c3-17c1", "users":[...], "apps":[...]}
  [[nodiscard]] Json to_json() const;
  static Result<Context> from_json(const Json& j);
};

}  // namespace hpcla::analytics
