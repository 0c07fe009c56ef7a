// Wire-layer tests: the frame codec as a pure byte-stream state machine
// (round trips, torn frames, oversized/garbage prefixes -- all without a
// socket), then the loopback TCP + MessageConnection path. CI runs this
// suite under ASan/UBSan, which is what makes the "rejected without UB"
// half of the contract enforceable rather than aspirational.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "support/chaos.h"
#include "net/frame.h"
#include "net/socket.h"
#include "util/rng.h"

using namespace drivefi;

namespace {

std::string decode_one(const std::string& bytes) {
  net::FrameDecoder decoder;
  decoder.feed(bytes);
  std::string payload;
  EXPECT_TRUE(decoder.next(&payload));
  return payload;
}

TEST(FrameCodec, RoundTripsPayloads) {
  const std::vector<std::string> payloads = {
      "",  // empty payload is legal
      "x",
      R"({"type":"hello","worker":"w1"})",
      std::string("embedded\nnewline\nand\ttabs"),
      std::string("nul\0byte", 8),
      std::string(4096, 'A'),
  };
  for (const std::string& payload : payloads) {
    EXPECT_EQ(decode_one(net::encode_frame(payload)), payload)
        << "payload size " << payload.size();
  }
}

TEST(FrameCodec, EncodeShapeIsLengthNewlinePayloadNewline) {
  EXPECT_EQ(net::encode_frame("abc"), "3\nabc\n");
  EXPECT_EQ(net::encode_frame(""), "0\n\n");
}

TEST(FrameCodec, ByteAtATimeFeedIsNotAnError) {
  const std::string bytes =
      net::encode_frame("first") + net::encode_frame("second");
  net::FrameDecoder decoder;
  std::vector<std::string> out;
  std::string payload;
  for (char byte : bytes) {
    decoder.feed(std::string_view(&byte, 1));
    while (decoder.next(&payload)) out.push_back(payload);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "first");
  EXPECT_EQ(out[1], "second");
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameCodec, TornFrameWaitsForMoreBytes) {
  net::FrameDecoder decoder;
  std::string payload;
  decoder.feed("11\nhello");  // length says 11, only 5 payload bytes here
  EXPECT_FALSE(decoder.next(&payload));
  decoder.feed(" world");
  EXPECT_FALSE(decoder.next(&payload));  // still missing the terminator
  decoder.feed("\n");
  EXPECT_TRUE(decoder.next(&payload));
  EXPECT_EQ(payload, "hello world");
}

TEST(FrameCodec, EncodeRefusesOversizedPayload) {
  EXPECT_THROW(net::encode_frame(std::string(net::kMaxFramePayload + 1, 'x')),
               net::FrameError);
}

TEST(FrameCodec, OversizedLengthThrows) {
  net::FrameDecoder decoder;
  std::string payload;
  decoder.feed(std::to_string(net::kMaxFramePayload + 1) + "\n");
  EXPECT_THROW(decoder.next(&payload), net::FrameError);
}

TEST(FrameCodec, GarbagePrefixThrows) {
  for (const char* garbage : {"abc\n", "-3\nxxx\n", " 3\nabc\n", "3x\nabc\n",
                              "\n\n", "{\"type\":\"hello\"}\n"}) {
    net::FrameDecoder decoder;
    std::string payload;
    decoder.feed(garbage);
    EXPECT_THROW(decoder.next(&payload), net::FrameError) << garbage;
  }
}

TEST(FrameCodec, TooManyLengthDigitsThrowsWithoutWaiting) {
  net::FrameDecoder decoder;
  std::string payload;
  // More digits than kMaxLengthDigits, no newline yet: the prefix alone is
  // already hopeless, so the decoder must not wait for more bytes.
  decoder.feed(std::string(net::kMaxLengthDigits + 1, '9'));
  EXPECT_THROW(decoder.next(&payload), net::FrameError);
}

TEST(FrameCodec, MissingTrailingNewlineThrows) {
  net::FrameDecoder decoder;
  std::string payload;
  decoder.feed("3\nabcX");  // terminator position holds 'X', not '\n'
  EXPECT_THROW(decoder.next(&payload), net::FrameError);
}

TEST(FrameCodec, PoisonedDecoderKeepsThrowing) {
  net::FrameDecoder decoder;
  std::string payload;
  decoder.feed("bogus\n");
  EXPECT_THROW(decoder.next(&payload), net::FrameError);
  // The stream is dead: even feeding perfectly valid bytes throws.
  EXPECT_THROW(decoder.feed(net::encode_frame("valid")), net::FrameError);
  EXPECT_THROW(decoder.next(&payload), net::FrameError);
}

TEST(FrameCodec, ManyFramesOneFeed) {
  std::string bytes;
  for (int i = 0; i < 100; ++i)
    bytes += net::encode_frame("msg" + std::to_string(i));
  net::FrameDecoder decoder;
  decoder.feed(bytes);
  std::string payload;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(decoder.next(&payload));
    EXPECT_EQ(payload, "msg" + std::to_string(i));
  }
  EXPECT_FALSE(decoder.next(&payload));
}

TEST(FrameCodec, SeededByteStormPoisonsOrParsesNeverUB) {
  // Randomized interleavings of valid frames and raw garbage, fed in
  // random-sized chunks. The decoder's whole contract under fire: every
  // frame ahead of the first garbage byte parses bit-exact and in order,
  // the first malformed byte (if reached) poisons the decoder permanently,
  // and nothing in between is UB -- CI runs this under ASan/UBSan.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    util::Rng rng(seed);
    std::string stream;
    std::vector<std::string> expected;  // frames ahead of the first garbage
    bool garbage_injected = false;
    const std::size_t segments = 20 + rng.uniform_index(30);
    for (std::size_t s = 0; s < segments; ++s) {
      if (rng.bernoulli(0.2)) {
        const std::size_t len = 1 + rng.uniform_index(40);
        for (std::size_t i = 0; i < len; ++i)
          stream.push_back(static_cast<char>(rng.next_u64() & 0xff));
        garbage_injected = true;
      } else {
        std::string payload;
        const std::size_t len = rng.uniform_index(60);
        for (std::size_t i = 0; i < len; ++i)
          payload.push_back(static_cast<char>('a' + rng.uniform_index(26)));
        if (!garbage_injected) expected.push_back(payload);
        stream += net::encode_frame(payload);
      }
    }

    net::FrameDecoder decoder;
    std::vector<std::string> parsed;
    bool poisoned = false;
    std::size_t pos = 0;
    while (pos < stream.size() && !poisoned) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.uniform_index(97), stream.size() - pos);
      try {
        decoder.feed(std::string_view(stream).substr(pos, chunk));
        std::string payload;
        while (decoder.next(&payload)) parsed.push_back(payload);
      } catch (const net::FrameError&) {
        poisoned = true;
      }
      pos += chunk;
    }

    if (garbage_injected && poisoned) {
      // Random garbage can itself happen to spell a valid frame, so only
      // the pre-garbage prefix is guaranteed; it must be complete & exact.
      ASSERT_GE(parsed.size(), expected.size()) << "seed " << seed;
    } else if (!garbage_injected) {
      ASSERT_EQ(parsed.size(), expected.size()) << "seed " << seed;
      EXPECT_FALSE(poisoned) << "seed " << seed;
    }
    for (std::size_t i = 0; i < std::min(parsed.size(), expected.size()); ++i)
      EXPECT_EQ(parsed[i], expected[i]) << "seed " << seed << " frame " << i;
    if (poisoned) {
      // Poison is permanent: valid bytes after the fact still throw.
      std::string payload;
      EXPECT_THROW(decoder.next(&payload), net::FrameError);
      EXPECT_THROW(decoder.feed(net::encode_frame("valid")), net::FrameError);
    }
  }
}

// ---- loopback sockets ----------------------------------------------------

TEST(Sockets, LoopbackMessageRoundTrip) {
  net::TcpListener listener("127.0.0.1", 0);
  ASSERT_GT(listener.port(), 0);

  std::thread client_thread([&] {
    net::MessageConnection client(
        net::TcpSocket::connect("127.0.0.1", listener.port(), 5.0));
    client.send_line("ping with payload");
    std::string reply;
    ASSERT_EQ(client.recv_line(&reply, 5.0), net::RecvStatus::kMessage);
    EXPECT_EQ(reply, "pong");
  });

  auto accepted = listener.accept(5.0);
  ASSERT_TRUE(accepted.has_value());
  net::MessageConnection server(std::move(*accepted));
  std::string line;
  ASSERT_EQ(server.recv_line(&line, 5.0), net::RecvStatus::kMessage);
  EXPECT_EQ(line, "ping with payload");
  server.send_line("pong");
  client_thread.join();
}

TEST(Sockets, ZeroDeadlineDrainsOnlyBufferedData) {
  net::TcpListener listener("127.0.0.1", 0);
  net::TcpSocket client =
      net::TcpSocket::connect("127.0.0.1", listener.port(), 5.0);
  auto accepted = listener.accept(5.0);
  ASSERT_TRUE(accepted.has_value());
  net::MessageConnection server(std::move(*accepted));

  // Nothing sent yet: a zero deadline must report timeout immediately.
  std::string line;
  EXPECT_EQ(server.recv_line(&line, 0.0), net::RecvStatus::kTimeout);

  client.send_all(net::encode_frame("arrived"));
  // Give the loopback a moment to deliver, then drain without blocking.
  ASSERT_EQ(server.recv_line(&line, 2.0), net::RecvStatus::kMessage);
  EXPECT_EQ(line, "arrived");
  EXPECT_EQ(server.recv_line(&line, 0.0), net::RecvStatus::kTimeout);
}

TEST(Sockets, PeerCloseSurfacesAsClosed) {
  net::TcpListener listener("127.0.0.1", 0);
  {
    net::TcpSocket client =
        net::TcpSocket::connect("127.0.0.1", listener.port(), 5.0);
    auto accepted = listener.accept(5.0);
    ASSERT_TRUE(accepted.has_value());
    net::MessageConnection server(std::move(*accepted));
    client.close();
    std::string line;
    EXPECT_EQ(server.recv_line(&line, 5.0), net::RecvStatus::kClosed);
  }
}

TEST(Sockets, ConnectToClosedPortThrows) {
  // Bind-then-close to find a port that is very likely unused.
  std::uint16_t dead_port;
  {
    net::TcpListener listener("127.0.0.1", 0);
    dead_port = listener.port();
  }
  EXPECT_THROW(net::TcpSocket::connect("127.0.0.1", dead_port, 2.0),
               net::SocketError);
}

TEST(Sockets, GarbageOnTheWireSurfacesAsFrameError) {
  net::TcpListener listener("127.0.0.1", 0);
  net::TcpSocket client =
      net::TcpSocket::connect("127.0.0.1", listener.port(), 5.0);
  auto accepted = listener.accept(5.0);
  ASSERT_TRUE(accepted.has_value());
  net::MessageConnection server(std::move(*accepted));

  client.send_all("this is not a frame\n");
  std::string line;
  EXPECT_THROW(server.recv_line(&line, 5.0), net::FrameError);
}

TEST(Sockets, SmallSendBufferPartialWritesStillDeliverTheWholeFrame) {
  // Regression for the send path's partial-write loop: shrink SO_SNDBUF to
  // its floor and push a payload hundreds of times larger while the reader
  // deliberately lags, so ::send must return short repeatedly. The frame
  // must still arrive byte-exact.
  net::TcpListener listener("127.0.0.1", 0);
  net::TcpSocket client =
      net::TcpSocket::connect("127.0.0.1", listener.port(), 5.0);
  const int sndbuf = 4096;  // kernel clamps to its minimum (doubled)
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof(sndbuf)),
            0);
  auto accepted = listener.accept(5.0);
  ASSERT_TRUE(accepted.has_value());
  net::MessageConnection server(std::move(*accepted));

  std::string payload(512 * 1024, '\0');
  util::Rng rng(7);
  for (char& c : payload) c = static_cast<char>('A' + rng.uniform_index(26));

  net::MessageConnection sender(std::move(client));
  std::thread writer([&] { sender.send_line(payload); });
  // Let the writer saturate its tiny buffer before we start draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::string line;
  ASSERT_EQ(server.recv_line(&line, 20.0), net::RecvStatus::kMessage);
  writer.join();
  EXPECT_EQ(line, payload);
}

// ---- chaos harness -------------------------------------------------------

TEST(ChaosHarness, EmptyPolicyIsAPassThrough) {
  // A default-constructed ChaosPolicy must be behaviorally identical to a
  // bare MessageConnection, both directions, multiple messages.
  net::TcpListener listener("127.0.0.1", 0);
  net::TcpSocket raw =
      net::TcpSocket::connect("127.0.0.1", listener.port(), 5.0);
  auto policy = std::make_shared<net::ChaosPolicy>();
  net::FaultyConnection client(std::move(raw), policy);
  auto accepted = listener.accept(5.0);
  ASSERT_TRUE(accepted.has_value());
  net::MessageConnection server(std::move(*accepted));

  std::string line;
  for (int i = 0; i < 10; ++i) {
    const std::string msg = "message-" + std::to_string(i);
    client.send_line(msg);
    ASSERT_EQ(server.recv_line(&line, 5.0), net::RecvStatus::kMessage);
    EXPECT_EQ(line, msg);
    server.send_line("ack-" + msg);
    ASSERT_EQ(client.recv_line(&line, 5.0), net::RecvStatus::kMessage);
    EXPECT_EQ(line, "ack-" + msg);
  }
  EXPECT_EQ(policy->frames_seen(), 10u);
}

TEST(ChaosHarness, DropCloseSurfacesAsSocketErrorAndPeerEof) {
  net::TcpListener listener("127.0.0.1", 0);
  net::TcpSocket raw =
      net::TcpSocket::connect("127.0.0.1", listener.port(), 5.0);
  auto policy = std::make_shared<net::ChaosPolicy>(
      /*seed=*/3, std::vector<net::ChaosEvent>{
          {/*frame=*/1, net::ChaosEvent::Action::kDropBefore, 0.0, 0}});
  net::FaultyConnection client(std::move(raw), policy);
  auto accepted = listener.accept(5.0);
  ASSERT_TRUE(accepted.has_value());
  net::MessageConnection server(std::move(*accepted));

  client.send_line("frame zero passes");  // ordinal 0: no event
  std::string line;
  ASSERT_EQ(server.recv_line(&line, 5.0), net::RecvStatus::kMessage);
  EXPECT_EQ(line, "frame zero passes");

  EXPECT_THROW(client.send_line("never sent"), net::SocketError);
  EXPECT_EQ(server.recv_line(&line, 5.0), net::RecvStatus::kClosed);
}

TEST(ChaosHarness, TruncatedFrameLeavesPeerWithTornStreamThenEof) {
  net::TcpListener listener("127.0.0.1", 0);
  net::TcpSocket raw =
      net::TcpSocket::connect("127.0.0.1", listener.port(), 5.0);
  auto policy = std::make_shared<net::ChaosPolicy>(
      /*seed=*/4, std::vector<net::ChaosEvent>{
          {/*frame=*/0, net::ChaosEvent::Action::kTruncateAndDrop, 0.0,
           /*keep_bytes=*/5}});
  net::FaultyConnection client(std::move(raw), policy);
  auto accepted = listener.accept(5.0);
  ASSERT_TRUE(accepted.has_value());
  net::MessageConnection server(std::move(*accepted));

  EXPECT_THROW(client.send_line("a payload that will be torn mid-flight"),
               net::SocketError);
  // The peer buffers the torn prefix (incomplete != error) and then sees
  // the close; exactly what a mid-frame peer death looks like.
  std::string line;
  EXPECT_EQ(server.recv_line(&line, 5.0), net::RecvStatus::kClosed);
}

TEST(ChaosHarness, GarbageBurstPoisonsThePeerDecoder) {
  net::TcpListener listener("127.0.0.1", 0);
  net::TcpSocket raw =
      net::TcpSocket::connect("127.0.0.1", listener.port(), 5.0);
  auto policy = std::make_shared<net::ChaosPolicy>(
      /*seed=*/5, std::vector<net::ChaosEvent>{
          {/*frame=*/0, net::ChaosEvent::Action::kGarbageAndDrop, 0.0, 0}});
  net::FaultyConnection client(std::move(raw), policy);
  auto accepted = listener.accept(5.0);
  ASSERT_TRUE(accepted.has_value());
  net::MessageConnection server(std::move(*accepted));

  EXPECT_THROW(client.send_line("replaced by garbage"), net::SocketError);
  std::string line;
  EXPECT_THROW(server.recv_line(&line, 5.0), net::FrameError);
}

TEST(ChaosHarness, DelayHoldsTheFrameThenDeliversIt) {
  net::TcpListener listener("127.0.0.1", 0);
  net::TcpSocket raw =
      net::TcpSocket::connect("127.0.0.1", listener.port(), 5.0);
  auto policy = std::make_shared<net::ChaosPolicy>(
      /*seed=*/6, std::vector<net::ChaosEvent>{
          {/*frame=*/0, net::ChaosEvent::Action::kDelay,
           /*delay_seconds=*/0.2, 0}});
  net::FaultyConnection client(std::move(raw), policy);
  auto accepted = listener.accept(5.0);
  ASSERT_TRUE(accepted.has_value());
  net::MessageConnection server(std::move(*accepted));

  const auto start = std::chrono::steady_clock::now();
  client.send_line("slow but intact");
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed, 0.15);
  std::string line;
  ASSERT_EQ(server.recv_line(&line, 5.0), net::RecvStatus::kMessage);
  EXPECT_EQ(line, "slow but intact");
}

TEST(ChaosHarness, FrameOrdinalIsGlobalAcrossReconnects) {
  // One policy drives successive connections of the same logical peer: a
  // drop scripted at frame 2 must fire on the SECOND connection after two
  // frames passed on the first -- not replay at each fresh connection.
  net::TcpListener listener("127.0.0.1", 0);
  auto policy = std::make_shared<net::ChaosPolicy>(
      /*seed=*/7, std::vector<net::ChaosEvent>{
          {/*frame=*/2, net::ChaosEvent::Action::kDropBefore, 0.0, 0}});

  {
    net::FaultyConnection first(
        net::TcpSocket::connect("127.0.0.1", listener.port(), 5.0), policy);
    auto accepted = listener.accept(5.0);
    ASSERT_TRUE(accepted.has_value());
    net::MessageConnection server(std::move(*accepted));
    std::string line;
    first.send_line("one");   // ordinal 0
    first.send_line("two");   // ordinal 1
    ASSERT_EQ(server.recv_line(&line, 5.0), net::RecvStatus::kMessage);
    ASSERT_EQ(server.recv_line(&line, 5.0), net::RecvStatus::kMessage);
  }

  net::FaultyConnection second(
      net::TcpSocket::connect("127.0.0.1", listener.port(), 5.0), policy);
  auto accepted = listener.accept(5.0);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_THROW(second.send_line("three"), net::SocketError);  // ordinal 2
  EXPECT_EQ(policy->frames_seen(), 3u);
}

}  // namespace
