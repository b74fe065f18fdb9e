// Minimal JSON emission helpers shared by the metrics/trace expositions and
// the bench result writers.
//
// Write-only: the repo emits JSON for scripts and dashboards to consume and
// parses none of it, except the flat /tracez lines it wrote itself
// (pb::parse_admin_trace_jsonl). Numbers are emitted with enough precision
// to round-trip int64, and every string goes through json_escape so metric
// keys and user payloads can never break the document.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace zab::json {

/// Escape a string for inclusion inside JSON double quotes (does not add the
/// surrounding quotes).
inline std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `"key":` fragment.
inline std::string key(std::string_view k) {
  return "\"" + escape(k) + "\":";
}

inline std::string str(std::string_view v) { return "\"" + escape(v) + "\""; }

inline std::string num(std::uint64_t v) { return std::to_string(v); }
inline std::string num(std::int64_t v) { return std::to_string(v); }
inline std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace zab::json
