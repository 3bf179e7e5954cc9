#include "common/logging.hpp"

#include <cstdio>

namespace simty {

namespace {
void default_sink(LogLevel level, const std::string& msg) {
  std::fprintf(stderr, "[%s] %s\n", to_string(level), msg.c_str());
}
}  // namespace

Logger::Logger() : sink_(default_sink) {}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_sink(Sink sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = sink ? std::move(sink) : Sink(default_sink);
}

void Logger::log(LogLevel level, const std::string& msg) {
  if (!enabled(level)) return;
  std::lock_guard<std::mutex> lock(mutex_);
  sink_(level, msg);
}

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace simty
