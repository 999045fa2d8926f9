// Minimal leveled logger.
//
// The simulator is quiet by default (benchmarks print their own tables);
// VIM fault traces and IMU state transitions become visible at kDebug,
// which the tests use to assert on behaviour narratives.
#pragma once

#include <functional>
#include <string>
#include <string_view>

namespace vcop {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Returns "DEBUG", "INFO", "WARN" or "ERROR".
std::string_view ToString(LogLevel level);

/// Process-wide logging configuration. Each simulator is
/// single-threaded (one event loop), but fleet runs (sim/fleet.h) emit
/// from several simulators at once, so the contract is: configure
/// (set_sink / set_min_level) only while no fleet is running; emitting
/// is concurrency-safe as long as the sink is — the default sink is a
/// single fprintf per message, which stdio serialises.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, std::string_view)>;

  /// The process-wide instance.
  static Logger& Get();

  /// Messages below `level` are dropped. Default: kWarning.
  void set_min_level(LogLevel level) { min_level_ = level; }
  LogLevel min_level() const { return min_level_; }

  /// Replaces the output sink (default writes to stderr). Tests install
  /// a capturing sink; pass nullptr to restore the default.
  void set_sink(Sink sink);

  /// Emits `message` at `level` if enabled.
  void Log(LogLevel level, std::string_view message);

 private:
  Logger();
  LogLevel min_level_ = LogLevel::kWarning;
  Sink sink_;
};

/// Convenience wrapper: VCOP_LOG(kDebug, "message " + detail); a
/// statement. `msg` is evaluated only when `level` is enabled, so a
/// formatted line on a hot path costs one comparison while it is off.
#define VCOP_LOG(level, msg)                                            \
  do {                                                                  \
    if (::vcop::LogLevel::level >= ::vcop::Logger::Get().min_level()) { \
      ::vcop::Logger::Get().Log(::vcop::LogLevel::level, (msg));        \
    }                                                                   \
  } while (false)

}  // namespace vcop
