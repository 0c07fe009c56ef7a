/// \file
/// Deterministic network-fault injection for the fleet protocol: the same
/// treatment the AV stack gets, applied to our own transport. A
/// FaultyConnection decorates the real MessageConnection and consults a
/// seeded ChaosPolicy before every outbound frame; the policy scripts
/// *when* (a global outbound-frame ordinal) and *how* (drop, delay,
/// truncate mid-payload, garbage bytes) the transport misbehaves.
///
/// Determinism contract: a policy is a pure function of its seed and event
/// script. The frame ordinal is global across every connection the policy
/// drives -- including reconnects -- so a scripted storm fires each event
/// exactly once instead of replaying on every fresh connection. An empty
/// (default-constructed) policy is a strict pass-through, asserted
/// equivalent to a bare MessageConnection in tests/net_test.cpp.
///
/// Test support only: CMake builds it as `drivefi_test_support`, linked by
/// chaos_test and net_test. The library keeps just the seam it plugs into,
/// coord::WorkerConfig::decorate_connection.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/socket.h"
#include "util/rng.h"

namespace drivefi::net {

/// One scripted transport fault, keyed to the policy-global ordinal of the
/// outbound frame it fires on (0 = the first frame ever sent through the
/// policy, counting across reconnects).
struct ChaosEvent {
  enum class Action {
    kDropBefore,       ///< close the connection instead of sending the frame
    kTruncateAndDrop,  ///< send only `keep_bytes` of the encoded frame, then close
    kGarbageAndDrop,   ///< send seeded garbage bytes (guaranteed unframeable), then close
    kDelay,            ///< sleep `delay_seconds`, then send the frame normally
  };

  std::size_t frame = 0;
  Action action = Action::kDropBefore;
  double delay_seconds = 0.0;   ///< kDelay only
  std::size_t keep_bytes = 0;   ///< kTruncateAndDrop only; clamped to the frame size
};

/// A seeded, stateful fault script shared (std::shared_ptr) across every
/// connection of one logical peer, so drops on connection k are visible to
/// the reconnect that produces connection k+1.
class ChaosPolicy {
 public:
  /// Empty policy: every frame passes through untouched.
  ChaosPolicy() = default;

  /// Scripted policy. Events may be given in any order; each fires at most
  /// once, on the outbound frame whose global ordinal matches.
  ChaosPolicy(std::uint64_t seed, std::vector<ChaosEvent> events);

  /// Called once per outbound frame (before it is sent). Advances the
  /// global ordinal and returns the event scripted for it, if any.
  std::optional<ChaosEvent> on_send();

  /// `n` seeded garbage bytes whose first byte is never an ASCII digit, so
  /// a peer's FrameDecoder deterministically throws FrameError instead of
  /// waiting on a plausible length prefix.
  std::string garbage(std::size_t n);

  /// Outbound frames observed so far, across all connections.
  std::size_t frames_seen() const { return frame_; }

 private:
  std::vector<ChaosEvent> events_;
  std::size_t frame_ = 0;
  util::Rng rng_{1};
};

/// Connection decorator that injects the policy's faults into the send
/// path. Faults that kill the transport (drop/truncate/garbage) close the
/// inner socket and throw SocketError, exactly what a real transport death
/// looks like to the caller; the peer observes either a clean EOF, a torn
/// frame followed by EOF, or unframeable garbage. The receive path passes
/// through untouched (the peer's chaos is scripted by the peer's policy).
class FaultyConnection : public Connection {
 public:
  FaultyConnection(TcpSocket socket, std::shared_ptr<ChaosPolicy> policy)
      : inner_(std::move(socket)), policy_(std::move(policy)) {}

  void send_line(std::string_view line) override;
  RecvStatus recv_line(std::string* line, double timeout_seconds) override {
    return inner_.recv_line(line, timeout_seconds);
  }
  void close() override { inner_.close(); }

 private:
  MessageConnection inner_;
  std::shared_ptr<ChaosPolicy> policy_;
};

}  // namespace drivefi::net
