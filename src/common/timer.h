#ifndef FLASH_COMMON_TIMER_H_
#define FLASH_COMMON_TIMER_H_

#include <chrono>

namespace flash {

/// Monotonic stopwatch measuring wall-clock time in seconds.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed.
  double Millis() const { return Seconds() * 1e3; }

  /// Microseconds elapsed.
  double Micros() const { return Seconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace flash

#endif  // FLASH_COMMON_TIMER_H_
