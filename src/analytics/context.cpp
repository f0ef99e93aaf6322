#include "analytics/context.hpp"

namespace hpcla::analytics {

Status check_window_span(const TimeRange& window) {
  if (window.last_hour() - window.first_hour() + 1 > kMaxWindowHours) {
    return invalid_argument("window spans more than " +
                            std::to_string(kMaxWindowHours) + " hours");
  }
  return Status::ok();
}

Json Context::to_json() const {
  Json j = Json::object();
  Json w = Json::object();
  w["begin"] = window.begin;
  w["end"] = window.end;
  j["window"] = std::move(w);
  if (!types.empty()) {
    Json arr = Json::array();
    for (auto t : types) arr.push_back(std::string(titanlog::event_id(t)));
    j["types"] = std::move(arr);
  }
  if (location) j["location"] = topo::format_cname(*location);
  if (!users.empty()) {
    Json arr = Json::array();
    for (const auto& u : users) arr.push_back(u);
    j["users"] = std::move(arr);
  }
  if (!apps.empty()) {
    Json arr = Json::array();
    for (const auto& a : apps) arr.push_back(a);
    j["apps"] = std::move(arr);
  }
  return j;
}

Result<Context> Context::from_json(const Json& j) {
  if (!j.is_object()) return invalid_argument("context must be an object");
  Context ctx;
  const Json& window = j["window"];
  auto begin = window.get_int("begin");
  if (!begin.is_ok()) return begin.status();
  auto end = window.get_int("end");
  if (!end.is_ok()) return end.status();
  ctx.window = TimeRange{begin.value(), end.value()};
  if (ctx.window.empty()) {
    return invalid_argument("context window must be non-empty");
  }
  HPCLA_RETURN_IF_ERROR(check_window_span(ctx.window));

  const Json& types = j["types"];
  if (!types.is_null()) {
    if (!types.is_array()) return invalid_argument("'types' must be an array");
    for (const auto& t : types.as_array()) {
      if (!t.is_string()) return invalid_argument("event type must be string");
      auto parsed = titanlog::event_type_from_id(t.as_string());
      if (!parsed.is_ok()) return parsed.status();
      ctx.types.push_back(parsed.value());
    }
  }

  const Json& location = j["location"];
  if (!location.is_null()) {
    if (!location.is_string()) {
      return invalid_argument("'location' must be a cname string");
    }
    if (location.as_string() != "system") {
      auto coord = topo::parse_cname(location.as_string());
      if (!coord.is_ok()) return coord.status();
      ctx.location = coord.value();
    }
  }

  const auto read_strings = [&](const char* field,
                                std::vector<std::string>& out) -> Status {
    const Json& arr = j[field];
    if (arr.is_null()) return Status::ok();
    if (!arr.is_array()) {
      return invalid_argument(std::string("'") + field + "' must be an array");
    }
    for (const auto& v : arr.as_array()) {
      if (!v.is_string()) {
        return invalid_argument(std::string(field) + " entries must be strings");
      }
      out.push_back(v.as_string());
    }
    return Status::ok();
  };
  HPCLA_RETURN_IF_ERROR(read_strings("users", ctx.users));
  HPCLA_RETURN_IF_ERROR(read_strings("apps", ctx.apps));
  return ctx;
}

}  // namespace hpcla::analytics
