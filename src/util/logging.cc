#include "src/util/logging.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>

namespace firzen {
namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void Log(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < g_min_level.load(std::memory_order_relaxed)) {
    return;
  }
  std::fprintf(stderr, "[%s] %s\n", LevelName(level), message.c_str());
}

void Logf(LogLevel level, const char* fmt, ...) {
  if (static_cast<int>(level) < g_min_level.load(std::memory_order_relaxed)) {
    return;
  }
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  std::fprintf(stderr, "[%s] %s\n", LevelName(level), buf);
}

}  // namespace firzen
