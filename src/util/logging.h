// Minimal leveled logging. Training loops log per-epoch progress at INFO;
// benches silence it via SetLogLevel unless FIRZEN_VERBOSE=1.
#ifndef FIRZEN_UTIL_LOGGING_H_
#define FIRZEN_UTIL_LOGGING_H_

#include <string>

namespace firzen {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

/// Sets the global minimum level that is emitted.
void SetLogLevel(LogLevel level);

/// Emit a log line ("[LEVEL] message") to stderr when level >= the minimum.
void Log(LogLevel level, const std::string& message);

/// printf-style logging convenience.
void Logf(LogLevel level, const char* fmt, ...);

}  // namespace firzen

#endif  // FIRZEN_UTIL_LOGGING_H_
