// Minimal stderr logger with two levels, both always emitted. Emission is
// thread-safe: log_message is called from ParallelExecutor worker threads
// and the coordinator loop as well as the runtime scheduler, so a mutex
// serializes each line (no torn or interleaved output). Ordering remains
// the caller's property: the runtime scheduler is single-threaded and
// deterministic (see src/runtime), so ITS log order is still part of the
// reproducible trace; concurrent callers get whole lines in whatever order
// they reach the lock.
#pragma once

#include <sstream>
#include <string>

namespace drivefi::util {

enum class LogLevel { kWarn, kError };

void log_message(LogLevel level, const std::string& message);

namespace internal {

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

}  // namespace drivefi::util

#define DFI_LOG_WARN ::drivefi::util::internal::LogLine(::drivefi::util::LogLevel::kWarn)
#define DFI_LOG_ERROR ::drivefi::util::internal::LogLine(::drivefi::util::LogLevel::kError)
