// Wall-clock stopwatch for the timing experiments (Table VII).
#ifndef FIRZEN_UTIL_STOPWATCH_H_
#define FIRZEN_UTIL_STOPWATCH_H_

#include <chrono>

namespace firzen {

/// Monotonic wall-clock stopwatch. Starts on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Elapsed seconds since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace firzen

#endif  // FIRZEN_UTIL_STOPWATCH_H_
