#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

thread_local std::int64_t t_current = -1;

std::string json_escape(const char* text) {
  std::string out;
  for (const char* c = text; *c; ++c) {
    if (*c == '"' || *c == '\\') out += '\\';
    out += *c;
  }
  return out;
}

/// Per span: its duration minus the union of its children's intervals,
/// clipped to it (children on other threads may overlap each other).
std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans)
    if (span.parent >= 0 && span.end_ns >= 0)
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);

  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.end_ns < 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0, run_end = -1;
    for (const auto& [start, end] : kids) {
      const std::int64_t s = std::max(start, span.start_ns);
      const std::int64_t e = std::min(end, span.end_ns);
      if (e <= s) continue;
      if (s > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = s;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
  }
  return self;
}

}  // namespace

std::int64_t current_span() { return t_current; }
void set_current_span(std::int64_t id) { t_current = id; }

SpanRecorder::SpanRecorder(std::uint64_t run_id)
    : run_id_(run_id), epoch_(Clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::int64_t SpanRecorder::open(const char* name, std::int64_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.thread = thread_index();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    span.start_ns = now_ns();
    spans_.push_back(span);
  }
  return id;
}

void SpanRecorder::close(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, LayerTotals> SpanRecorder::totals() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_seconds(all);
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].end_ns < 0) continue;
    LayerTotals& t = out[all[i].name];
    ++t.count;
    t.total_seconds += static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-9;
    t.self_seconds += self[i];
  }
  return out;
}

std::size_t SpanRecorder::malformed_spans() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_seconds(all);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double duration =
        static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-9;
    if (all[i].end_ns < all[i].start_ns || self[i] < 0.0 || self[i] > duration)
      ++bad;
  }
  return bad;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run_id\":\"" << run_id_
      << "\"},\"traceEvents\":[";
  char buffer[96];
  const char* separator = "\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    if (span.end_ns < 0) continue;
    out << separator;
    separator = ",\n";
    out << "{\"name\":\"" << json_escape(span.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread;
    std::snprintf(buffer, sizeof(buffer), ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(span.start_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    out << buffer << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"run_id\":\"" << run_id_ << "\"}}";
  }
  out << "\n]}\n";
  out.flush();
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
