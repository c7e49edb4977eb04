// Minimal JSON emission for bench_e2e: one flat-or-nested object built
// field by field. Doubles are written with all 17 significant digits so a
// deterministic value round-trips exactly and a measured one keeps every
// digit it has.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2e {

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Fields keep insertion order, so the output reads in the order written.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& object(const std::string& key, const JsonObject& v) {
    return raw(key, v.dump());
  }
  JsonObject& numbers(const std::string& key,
                      const std::map<std::string, double>& values) {
    JsonObject o;
    for (const auto& [name, v] : values) o.num(name, v);
    return object(key, o);
  }
  JsonObject& strings(const std::string& key,
                      const std::vector<std::string>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i ? ", " : "") + json_string(values[i]);
    }
    return raw(key, out + "]");
  }

  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i ? ", " : "") + json_string(fields_[i].first) + ": " +
             fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace e2e
