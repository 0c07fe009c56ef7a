#include "util/logging.h"

#include <cstdio>
#include <mutex>

namespace drivefi::util {

namespace {
// Serializes emission: executor worker threads and the coordinator
// loop log concurrently, and a torn "[WARN ] ..." line is worse than a
// momentary wait.
std::mutex& emit_mutex() {
  static std::mutex mutex;
  return mutex;
}

const char* level_tag(LogLevel level) {
  return level == LogLevel::kWarn ? "WARN " : "ERROR";
}
}  // namespace

void log_message(LogLevel level, const std::string& message) {
  std::lock_guard<std::mutex> lock(emit_mutex());
  std::fprintf(stderr, "[%s] %s\n", level_tag(level), message.c_str());
}

}  // namespace drivefi::util
