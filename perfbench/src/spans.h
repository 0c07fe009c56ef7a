// In-memory span recorder for the benchmark's traced pass. Spans are
// recorded around calls into each layer's public functions from the
// benchmark's own code (the library itself is not instrumented here), kept
// in memory, and written out as Chrome trace-event JSON when the pass ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One closed (or still open, end_ns < 0) span. Times are nanoseconds since
/// the recorder's epoch; `parent` is the id of the enclosing span or -1.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  std::int64_t parent = -1;
  std::uint32_t thread = 0;
};

/// Per-name aggregate over a recorder's spans.
struct LayerTotals {
  std::size_t count = 0;
  double total_seconds = 0.0;
  /// Duration minus the part of the span's interval its children cover.
  double self_seconds = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::uint64_t run_id);

  /// Disabled recorders record nothing and never read the clock.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  std::uint64_t run_id() const { return run_id_; }

  /// Opens a span under `parent` and returns its id (-1 when disabled).
  std::int64_t open(const char* name, std::int64_t parent);
  void close(std::int64_t id);

  /// Copy of every span recorded so far (index == id).
  std::vector<Span> spans() const;

  /// Totals per span name, self time included.
  std::map<std::string, LayerTotals> totals() const;

  /// Spans whose self time is negative or exceeds their duration, or that
  /// were never closed; 0 for a well-formed trace.
  std::size_t malformed_spans() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  /// Throws std::runtime_error when the file cannot be written.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  std::uint64_t run_id_;
  bool enabled_ = false;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// Innermost span a ScopedSpan holds open on the calling thread (-1: none).
std::int64_t current_span();
void set_current_span(std::int64_t id);

/// RAII span; a no-op when the recorder is disabled. Without an explicit
/// parent it nests under the calling thread's innermost open span; work
/// handed to other threads passes its parent explicitly.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name)
      : ScopedSpan(recorder, name, current_span()) {}
  ScopedSpan(SpanRecorder& recorder, const char* name, std::int64_t parent)
      : recorder_(recorder),
        previous_(current_span()),
        id_(recorder.open(name, parent)) {
    if (id_ >= 0) set_current_span(id_);
  }
  ~ScopedSpan() {
    recorder_.close(id_);
    if (id_ >= 0) set_current_span(previous_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  std::int64_t previous_;
  std::int64_t id_;
};

}  // namespace perfbench
