#include "support/chaos.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "net/frame.h"

namespace drivefi::net {

ChaosPolicy::ChaosPolicy(std::uint64_t seed, std::vector<ChaosEvent> events)
    : events_(std::move(events)), rng_(seed) {
  std::sort(events_.begin(), events_.end(),
            [](const ChaosEvent& a, const ChaosEvent& b) {
              return a.frame < b.frame;
            });
}

std::optional<ChaosEvent> ChaosPolicy::on_send() {
  const std::size_t ordinal = frame_++;
  for (auto it = events_.begin(); it != events_.end(); ++it) {
    if (it->frame == ordinal) {
      const ChaosEvent event = *it;
      events_.erase(it);
      return event;
    }
    if (it->frame > ordinal) break;
  }
  return std::nullopt;
}

std::string ChaosPolicy::garbage(std::size_t n) {
  std::string bytes;
  bytes.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    bytes.push_back(static_cast<char>(rng_.next_u64() & 0xff));
  // A digit-leading prefix could read as a (huge) pending length and park
  // the peer's decoder in "waiting for more"; force an instant FrameError.
  if (!bytes.empty() && bytes[0] >= '0' && bytes[0] <= '9') bytes[0] = '!';
  return bytes;
}

void FaultyConnection::send_line(std::string_view line) {
  const std::optional<ChaosEvent> event =
      policy_ ? policy_->on_send() : std::nullopt;
  if (!event.has_value()) {
    inner_.send_line(line);
    return;
  }
  switch (event->action) {
    case ChaosEvent::Action::kDelay:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(event->delay_seconds));
      inner_.send_line(line);
      return;
    case ChaosEvent::Action::kDropBefore:
      inner_.close();
      throw SocketError("chaos: connection dropped before frame " +
                        std::to_string(event->frame));
    case ChaosEvent::Action::kTruncateAndDrop: {
      const std::string frame = encode_frame(line);
      const std::size_t keep = std::min(event->keep_bytes, frame.size());
      if (keep > 0) inner_.socket().send_all(std::string_view(frame).substr(0, keep));
      inner_.close();
      throw SocketError("chaos: frame " + std::to_string(event->frame) +
                        " torn after " + std::to_string(keep) + " bytes");
    }
    case ChaosEvent::Action::kGarbageAndDrop: {
      const std::string junk = policy_->garbage(64);
      inner_.socket().send_all(junk);
      inner_.close();
      throw SocketError("chaos: garbage injected at frame " +
                        std::to_string(event->frame));
    }
  }
}

}  // namespace drivefi::net
