#pragma once
// Minimal leveled logger.
//
// The simulator is mostly silent; logging exists for the trace hooks the
// paper inserted into AlarmManager/WakeLock ("to profile each app's behavior
// ... log every alarm's time attributes and hardware usage at runtime") and
// for debugging experiment harnesses. Output goes to an injectable sink so
// tests can capture it.
//
// Each Simulator is single-threaded, but the parallel experiment runner
// executes many simulators at once and they all share this singleton — so
// the level is atomic and the sink is called under a mutex (which also
// keeps concurrent runs' lines from interleaving mid-message).
//
// The SIMTY_LOG macros are lazy: the message expression is evaluated only
// when its level passes the threshold. A disabled SIMTY_DEBUG costs one
// relaxed atomic load and a branch, so hot paths (device state changes,
// deliveries) may log freely without formatting strings nobody reads. The
// flip side: a message argument must not carry side effects the caller
// relies on.

#include <atomic>
#include <functional>
#include <mutex>
#include <string>

#include "common/annotations.hpp"

namespace simty {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-wide, thread-safe logger.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  /// The global instance used by the SIMTY_LOG macros.
  static Logger& instance();

  /// Messages below `level` are dropped. Default: kWarn (quiet benches).
  void set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }

  /// True when a message at `level` would reach the sink. The macros test
  /// this before evaluating their message argument.
  bool enabled(LogLevel level) const {
    const LogLevel threshold = level_.load(std::memory_order_relaxed);
    return threshold != LogLevel::kOff && level >= threshold;
  }

  /// Replaces the output sink (default writes to stderr). Pass nullptr to
  /// restore the default sink. The sink itself is invoked under the logger
  /// mutex, so it need not be reentrant — but a sink installed while
  /// parallel runs are in flight will observe their interleaved messages.
  void set_sink(Sink sink);

  void log(LogLevel level, const std::string& msg);

 private:
  Logger();
  std::atomic<LogLevel> level_{LogLevel::kWarn};
  std::mutex mutex_;
  Sink sink_ SIMTY_GUARDED_BY(mutex_);  // replacement and invocation both lock
};

const char* to_string(LogLevel level);

}  // namespace simty

#define SIMTY_LOG(level, msg)                                     \
  do {                                                            \
    ::simty::Logger& simty_logger_ = ::simty::Logger::instance(); \
    const ::simty::LogLevel simty_log_level_ = (level);           \
    if (simty_logger_.enabled(simty_log_level_)) {                \
      simty_logger_.log(simty_log_level_, (msg));                 \
    }                                                             \
  } while (0)
#define SIMTY_DEBUG(msg) SIMTY_LOG(::simty::LogLevel::kDebug, (msg))
#define SIMTY_INFO(msg) SIMTY_LOG(::simty::LogLevel::kInfo, (msg))
#define SIMTY_WARN(msg) SIMTY_LOG(::simty::LogLevel::kWarn, (msg))
#define SIMTY_ERROR(msg) SIMTY_LOG(::simty::LogLevel::kError, (msg))
