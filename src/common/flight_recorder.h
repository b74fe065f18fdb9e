// Crash post-mortem flight recorder.
//
// The admin plane answers "what is the node doing?" while the process is
// healthy; the flight recorder answers it after the process is gone. Each
// node periodically publishes a pre-serialized post-mortem bundle (one JSON
// line: node state and metrics, pipeline depths, trace tail — built by
// ZabNode::postmortem_bundle() at watchdog cadence) into a double-buffered
// slot. On SIGSEGV/SIGABRT/SIGBUS/SIGTERM — or an explicit dump_now() from
// the stall watchdog — the recorder writes a crash file using only
// async-signal-safe primitives (open/write/fsync/close on pre-copied
// buffers; no allocation, no formatting beyond a hand-rolled itoa).
//
// Crash-file schema (JSONL, one object per line):
//   line 1:  {"event":"postmortem","signal":S,"reason":"...",
//             "git_sha":"...","dumps":D}
//   line 2+: one published bundle per registered slot (newest copy).
//
// Publishing is wait-free for the signal handler: publish() fills the
// inactive buffer, then flips the active index with release ordering; the
// handler reads the index with acquire and writes that buffer. A dump racing
// a publish sees the previous complete bundle, never a torn one.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

namespace zab {

class FlightRecorder {
 public:
  static constexpr std::size_t kMaxSlots = 16;
  /// Per-slot bundle cap; longer bundles are truncated (still valid JSON is
  /// the publisher's concern — ZabNode keeps bundles far below this).
  static constexpr std::size_t kSlotBytes = 256 * 1024;

  FlightRecorder();
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Where dumps go. Must be set before install()/dump_now(); the path is
  /// copied into a fixed buffer so the handler never touches std::string.
  void set_path(const std::string& path);
  [[nodiscard]] std::string path() const;

  /// Claim a bundle slot (one per node). Returns -1 when all kMaxSlots are
  /// taken. Thread-safe.
  int register_slot();

  /// Publish a fresh bundle (one JSON line, no embedded newlines) into a
  /// registered slot. Thread-safe per slot (one publisher per slot — the
  /// node's event loop).
  void publish(int slot, std::string_view bundle);

  /// Install process-wide handlers: SIGSEGV/SIGABRT/SIGBUS dump and then
  /// re-raise with default disposition (the process still dies, core and
  /// all); SIGTERM dumps and then chains to the previously installed
  /// handler, so graceful-shutdown flows keep working. Only one recorder is
  /// installed at a time; install() replaces a previous one.
  void install();
  /// Restore the pre-install() signal dispositions. Safe to call twice;
  /// the destructor calls it for the installed recorder.
  void uninstall();
  [[nodiscard]] bool installed() const;

  /// Write the crash file now (stall watchdog, tests, graceful shutdown).
  /// Uses the signal-safe write path; callable from any thread and from
  /// signal handlers. `signal` is 0 for non-signal dumps.
  void dump_now(const char* reason, int signal = 0);

  /// Dumps written so far (for tests / rate observation).
  [[nodiscard]] std::uint64_t dump_count() const;

 private:
  struct Slot {
    std::unique_ptr<char[]> buf[2];
    std::size_t len[2] = {0, 0};
    std::atomic<int> active{-1};  // -1: nothing published yet
  };

  static void on_fatal(int sig);
  static void on_term(int sig);

  char path_[512] = {0};
  Slot slots_[kMaxSlots];
  std::atomic<int> n_slots_{0};
  std::atomic<std::uint64_t> dumps_{0};
  bool handlers_installed_ = false;
};

}  // namespace zab
