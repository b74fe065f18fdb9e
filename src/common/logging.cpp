#include "common/logging.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>

namespace zab::logging {

std::optional<LogLevel> parse_level(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "trace" || lower == "0") return LogLevel::kTrace;
  if (lower == "debug" || lower == "1") return LogLevel::kDebug;
  if (lower == "info" || lower == "2") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning" || lower == "3") {
    return LogLevel::kWarn;
  }
  if (lower == "error" || lower == "4") return LogLevel::kError;
  if (lower == "off" || lower == "none" || lower == "5") return LogLevel::kOff;
  return std::nullopt;
}

namespace {

std::optional<LogLevel> env_level() {
  // The one setting read from the process environment: every binary and
  // test takes its log level from ZAB_LOG_LEVEL.
  const char* v = std::getenv("ZAB_LOG_LEVEL");
  if (!v) return std::nullopt;
  return parse_level(v);
}

}  // namespace

bool level_set_from_env() {
  static const bool set = env_level().has_value();
  return set;
}

std::atomic<int>& global_level() {
  static std::atomic<int> level{
      static_cast<int>(env_level().value_or(LogLevel::kWarn))};
  return level;
}

namespace {

const char* level_tag(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}

std::string_view basename_of(std::string_view path) {
  const auto pos = path.find_last_of('/');
  return pos == std::string_view::npos ? path : path.substr(pos + 1);
}

std::mutex& emit_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

void emit(LogLevel lvl, std::string_view file, int line, std::string_view msg) {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  tm tm_buf{};
  localtime_r(&ts.tv_sec, &tm_buf);
  char stamp[32];
  std::snprintf(stamp, sizeof(stamp), "%02d:%02d:%02d.%03ld", tm_buf.tm_hour,
                tm_buf.tm_min, tm_buf.tm_sec, ts.tv_nsec / 1000000);
  const auto base = basename_of(file);
  std::lock_guard<std::mutex> lock(emit_mutex());
  std::fprintf(stderr, "%s %s %.*s:%d] %.*s\n", stamp, level_tag(lvl),
               static_cast<int>(base.size()), base.data(), line,
               static_cast<int>(msg.size()), msg.data());
}

}  // namespace zab::logging
