/**
 * @file
 * Wire/frame/endpoint contract of the distributed sweep fabric:
 * hostile input must degrade to a clean status — truncated frames,
 * oversized length prefixes, corrupted checksums, stale versions,
 * rogue handshakes and mid-stream disconnects all map to an error
 * code, never a hang, allocation blow-up or UB (the suite runs under
 * ASan/UBSan and TSan in CI). Also pins the backoff schedule and the
 * strict --remote endpoint syntax.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/endpoint.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace fasttrack::net {
namespace {

Frame
sampleFrame()
{
    Frame frame;
    frame.type = MessageType::sweepRequest;
    frame.requestId = 0x1122334455667788ull;
    frame.payload = {1, 2, 3, 4, 5};
    return frame;
}

/** A connected loopback (client, server) socket pair. */
struct SocketPair
{
    Listener listener;
    Socket client;
    Socket server;

    SocketPair()
    {
        std::string error;
        EXPECT_TRUE(listener.open("127.0.0.1", 0, error)) << error;
        client = connectTo("127.0.0.1", listener.boundPort(), 2'000,
                           error);
        EXPECT_TRUE(client.valid()) << error;
        server = listener.accept(2'000);
        EXPECT_TRUE(server.valid());
    }
};

TEST(Wire, RoundTripsEveryFieldType)
{
    WireWriter w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.f64(-1234.5);
    w.str("fasttrack");
    const std::vector<std::uint8_t> bytes = w.take();

    WireReader r(bytes);
    std::uint8_t a = 0;
    std::uint16_t b = 0;
    std::uint32_t c = 0;
    std::uint64_t d = 0;
    double e = 0.0;
    std::string s;
    EXPECT_TRUE(r.u8(a) && r.u16(b) && r.u32(c) && r.u64(d) &&
                r.f64(e) && r.str(s));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(a, 0xab);
    EXPECT_EQ(b, 0xbeef);
    EXPECT_EQ(c, 0xdeadbeefu);
    EXPECT_EQ(d, 0x0123456789abcdefull);
    EXPECT_EQ(e, -1234.5);
    EXPECT_EQ(s, "fasttrack");
}

TEST(Wire, EncodingIsLittleEndianByteForByte)
{
    WireWriter w;
    w.u32(0x11223344u);
    w.u64(0x0102030405060708ull);
    const std::vector<std::uint8_t> expected = {
        0x44, 0x33, 0x22, 0x11, //
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
    EXPECT_EQ(w.buffer(), expected);
}

TEST(Wire, ByteSwapReversesEachWidth)
{
    // The swap a big-endian host applies to every field; no such host
    // runs the suite, so pin it on literals here.
    EXPECT_EQ(byteSwap(std::uint16_t{0x1122}), std::uint16_t{0x2211});
    EXPECT_EQ(byteSwap(std::uint32_t{0x11223344u}), 0x44332211u);
    EXPECT_EQ(byteSwap(std::uint64_t{0x0102030405060708ull}),
              0x0807060504030201ull);
    static_assert(byteSwap(std::uint32_t{0x000000ffu}) == 0xff000000u);
    static_assert(byteSwap(byteSwap(std::uint64_t{0xdeadbeefull})) ==
                  0xdeadbeefull);
}

TEST(Wire, TruncatedReadsFailCleanly)
{
    WireWriter w;
    w.u32(7);
    const std::vector<std::uint8_t> bytes = w.take();
    WireReader r(bytes);
    std::uint64_t v = 0;
    EXPECT_FALSE(r.u64(v)); // only 4 bytes available
}

TEST(Wire, StringLengthPastBufferIsRejectedBeforeAllocating)
{
    // A length prefix of ~4 GiB with a 4-byte buffer: the reader must
    // reject it from the bounds check alone.
    WireWriter w;
    w.u32(0xfffffff0u);
    const std::vector<std::uint8_t> bytes = w.take();
    WireReader r(bytes);
    std::string s;
    EXPECT_FALSE(r.str(s));
    EXPECT_TRUE(s.empty());
}

TEST(Frame, EncodeDecodeRoundTrips)
{
    const Frame frame = sampleFrame();
    Frame decoded;
    ASSERT_EQ(decodeFrame(encodeFrame(frame), decoded),
              FrameStatus::ok);
    EXPECT_EQ(decoded.type, frame.type);
    EXPECT_EQ(decoded.requestId, frame.requestId);
    EXPECT_EQ(decoded.payload, frame.payload);
    EXPECT_FALSE(decoded.partial);

    // The fragmentation flag survives the trip (message chaining).
    Frame fragment = frame;
    fragment.partial = true;
    ASSERT_EQ(decodeFrame(encodeFrame(fragment), decoded),
              FrameStatus::ok);
    EXPECT_TRUE(decoded.partial);
}

TEST(Frame, TruncationAtEveryBoundaryIsDetected)
{
    const std::vector<std::uint8_t> bytes =
        encodeFrame(sampleFrame());
    Frame out;
    // Shorter than a header: truncated. Shorter than the declared
    // payload: truncated. Longer than the frame: malformed.
    for (std::size_t keep : {std::size_t{0}, std::size_t{10},
                             kFrameHeaderBytes, bytes.size() - 1}) {
        std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              keep));
        EXPECT_EQ(decodeFrame(cut, out), FrameStatus::truncated)
            << "kept " << keep;
    }
    std::vector<std::uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_EQ(decodeFrame(padded, out), FrameStatus::malformed);
}

TEST(Frame, HostileHeadersAreRejectedWithoutPayloadReads)
{
    const std::vector<std::uint8_t> good =
        encodeFrame(sampleFrame());
    Frame out;

    std::vector<std::uint8_t> badMagic = good;
    badMagic[0] ^= 0xff;
    EXPECT_EQ(decodeFrame(badMagic, out), FrameStatus::badMagic);

    std::vector<std::uint8_t> staleVersion = good;
    staleVersion[4] = static_cast<std::uint8_t>(kWireVersion + 1);
    EXPECT_EQ(decodeFrame(staleVersion, out),
              FrameStatus::badVersion);

    std::vector<std::uint8_t> flags = good;
    flags[10] = 2; // reserved flag bits (all but kFlagPartial) zero
    EXPECT_EQ(decodeFrame(flags, out), FrameStatus::malformed);
    flags[10] = 0x80;
    EXPECT_EQ(decodeFrame(flags, out), FrameStatus::malformed);
    flags[11] = 1; // high flag byte is entirely reserved
    flags[10] = 0;
    EXPECT_EQ(decodeFrame(flags, out), FrameStatus::malformed);

    // Length prefix beyond kMaxFramePayload: malformed, regardless
    // of how many bytes follow — the length is never trusted.
    std::vector<std::uint8_t> oversized = good;
    oversized[20] = 0xff;
    oversized[21] = 0xff;
    oversized[22] = 0xff;
    oversized[23] = 0xff;
    EXPECT_EQ(decodeFrame(oversized, out), FrameStatus::malformed);
}

TEST(Frame, CorruptedChecksumAndPayloadAreRejected)
{
    const std::vector<std::uint8_t> good =
        encodeFrame(sampleFrame());
    Frame out;

    std::vector<std::uint8_t> corruptTrailer = good;
    corruptTrailer.back() ^= 0x01;
    EXPECT_EQ(decodeFrame(corruptTrailer, out),
              FrameStatus::badChecksum);

    std::vector<std::uint8_t> corruptPayload = good;
    corruptPayload[kFrameHeaderBytes] ^= 0x80;
    EXPECT_EQ(decodeFrame(corruptPayload, out),
              FrameStatus::badChecksum);
}

TEST(Frame, ErrorFrameRoundTrips)
{
    const Frame frame = makeErrorFrame(42, kErrBadSchema, "stale");
    std::uint32_t code = 0;
    std::string message;
    ASSERT_TRUE(parseErrorFrame(frame, code, message));
    EXPECT_EQ(code, kErrBadSchema);
    EXPECT_EQ(message, "stale");

    Frame notError = sampleFrame();
    EXPECT_FALSE(parseErrorFrame(notError, code, message));
}

TEST(FrameSocket, SendRecvRoundTripsOverLoopback)
{
    SocketPair pair;
    const Frame frame = sampleFrame();
    ASSERT_EQ(sendFrame(pair.client, frame, 2'000), FrameStatus::ok);
    Frame received;
    ASSERT_EQ(recvFrame(pair.server, received, 2'000, 2'000),
              FrameStatus::ok);
    EXPECT_EQ(received.payload, frame.payload);
    EXPECT_EQ(received.requestId, frame.requestId);
}

TEST(FrameSocket, MidFrameDisconnectIsTruncatedNotAHang)
{
    SocketPair pair;
    const std::vector<std::uint8_t> bytes =
        encodeFrame(sampleFrame());
    // Send the header plus one payload byte, then vanish.
    ASSERT_EQ(pair.client.sendAll(bytes.data(),
                                  kFrameHeaderBytes + 1, 2'000),
              IoStatus::ok);
    pair.client.close();
    Frame out;
    EXPECT_EQ(recvFrame(pair.server, out, 2'000, 2'000),
              FrameStatus::truncated);
}

TEST(FrameSocket, HeaderOnlyDisconnectIsClosed)
{
    SocketPair pair;
    pair.client.close();
    Frame out;
    EXPECT_EQ(recvFrame(pair.server, out, 2'000, 2'000),
              FrameStatus::closed);
}

TEST(FrameSocket, SilentPeerTimesOutInsteadOfHanging)
{
    SocketPair pair;
    Frame out;
    EXPECT_EQ(recvFrame(pair.server, out, 50, 50),
              FrameStatus::timeout);
}

TEST(FrameSocket, OversizedLengthPrefixRejectedBeforePayload)
{
    SocketPair pair;
    // Hand-build a header whose length prefix is 4 GiB-ish; the
    // receiver must reject it from the header alone (no allocation,
    // no read of the "payload").
    WireWriter w;
    w.u32(kFrameMagic);
    w.u32(kWireVersion);
    w.u16(static_cast<std::uint16_t>(MessageType::sweepRequest));
    w.u16(0);
    w.u64(7);
    w.u32(0xffffff00u);
    ASSERT_EQ(pair.client.sendAll(w.buffer().data(), w.size(), 2'000),
              IoStatus::ok);
    Frame out;
    EXPECT_EQ(recvFrame(pair.server, out, 2'000, 2'000),
              FrameStatus::malformed);
}

TEST(FrameSocket, CorruptChecksumOverTheWireIsRejected)
{
    SocketPair pair;
    std::vector<std::uint8_t> bytes = encodeFrame(sampleFrame());
    bytes.back() ^= 0x40;
    ASSERT_EQ(pair.client.sendAll(bytes.data(), bytes.size(), 2'000),
              IoStatus::ok);
    Frame out;
    EXPECT_EQ(recvFrame(pair.server, out, 2'000, 2'000),
              FrameStatus::badChecksum);
}

TEST(Endpoint, ParsesHostPortAndIpv6Brackets)
{
    Endpoint ep;
    std::string error;
    ASSERT_TRUE(parseEndpoint("node7:9000", ep, error)) << error;
    EXPECT_EQ(ep.host, "node7");
    EXPECT_EQ(ep.port, 9000);
    EXPECT_EQ(ep.label(), "node7:9000");

    ASSERT_TRUE(parseEndpoint("[::1]:7441", ep, error)) << error;
    EXPECT_EQ(ep.host, "::1");
    EXPECT_EQ(ep.port, 7441);
}

TEST(Endpoint, RejectsMalformedSpecs)
{
    Endpoint ep;
    std::string error;
    for (const char *bad :
         {"", "host", ":9000", "host:", "host:0", "host:65536",
          "host:-1", "host:12x", "host:999999999999", "[::1]",
          "[::1]9000"}) {
        EXPECT_FALSE(parseEndpoint(bad, ep, error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(Endpoint, ListParsingIsStrict)
{
    std::vector<Endpoint> endpoints;
    std::string error;
    ASSERT_TRUE(
        parseEndpointList("a:1,b:2,c:65535", endpoints, error))
        << error;
    ASSERT_EQ(endpoints.size(), 3u);
    EXPECT_EQ(endpoints[2].port, 65535);

    for (const char *bad : {"", "a:1,,b:2", "a:1,", ",a:1", "a:0,b:2"})
        EXPECT_FALSE(parseEndpointList(bad, endpoints, error)) << bad;
}

TEST(Endpoint, BackoffScheduleIsExponentialAndCapped)
{
    EXPECT_EQ(backoffDelayMs(0, 50, 2'000), 0);
    EXPECT_EQ(backoffDelayMs(1, 50, 2'000), 50);
    EXPECT_EQ(backoffDelayMs(2, 50, 2'000), 100);
    EXPECT_EQ(backoffDelayMs(3, 50, 2'000), 200);
    EXPECT_EQ(backoffDelayMs(6, 50, 2'000), 1'600);
    EXPECT_EQ(backoffDelayMs(7, 50, 2'000), 2'000);
    EXPECT_EQ(backoffDelayMs(60, 50, 2'000), 2'000); // shift-safe
}

TEST(FrameServer, RejectsRogueHandshakes)
{
    ServerConfig config;
    config.schemaVersion = 5;
    FrameServer server(std::move(config), [] {
        return [](std::vector<Frame> &&) { return std::vector<Frame>{}; };
    });
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    const auto dial = [&] {
        Socket s = connectTo("127.0.0.1", server.boundPort(), 2'000,
                             error);
        EXPECT_TRUE(s.valid()) << error;
        return s;
    };
    const auto expectError = [](Socket &s, std::uint32_t want) {
        Frame reply;
        ASSERT_EQ(recvFrame(s, reply, 2'000, 2'000), FrameStatus::ok);
        ASSERT_EQ(reply.type, MessageType::error);
        std::uint32_t code = 0;
        std::string message;
        ASSERT_TRUE(parseErrorFrame(reply, code, message));
        EXPECT_EQ(code, want);
    };

    {
        // Wrong wire version in the hello payload.
        Socket s = dial();
        Frame hello;
        hello.type = MessageType::hello;
        WireWriter w;
        w.u32(kWireVersion + 9);
        w.u32(5);
        w.u32(8);
        hello.payload = w.take();
        ASSERT_EQ(sendFrame(s, hello, 2'000), FrameStatus::ok);
        expectError(s, kErrBadVersion);
    }
    {
        // Stale sweep schema.
        Socket s = dial();
        Frame hello;
        hello.type = MessageType::hello;
        WireWriter w;
        w.u32(kWireVersion);
        w.u32(4);
        w.u32(8);
        hello.payload = w.take();
        ASSERT_EQ(sendFrame(s, hello, 2'000), FrameStatus::ok);
        expectError(s, kErrBadSchema);
    }
    {
        // First frame is not a hello at all.
        Socket s = dial();
        ASSERT_EQ(sendFrame(s, sampleFrame(), 2'000),
                  FrameStatus::ok);
        expectError(s, kErrBadRequest);
    }

    server.stop();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.protocolErrors, 3u);
    EXPECT_EQ(stats.requestsServed, 0u);
}

TEST(FrameServer, SessionCapCountsLiveSessionsNotLifetimeTotal)
{
    // maxSessions bounds concurrent sessions; a finished session
    // must free its slot. Open far more sequential sessions than the
    // cap — every one must be served.
    ServerConfig config;
    config.schemaVersion = 1;
    config.maxSessions = 2;
    FrameServer server(std::move(config), [] {
        return [](std::vector<Frame> &&) { return std::vector<Frame>{}; };
    });
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    for (int i = 0; i < 5; ++i) {
        Socket s = connectTo("127.0.0.1", server.boundPort(), 2'000,
                             error);
        ASSERT_TRUE(s.valid()) << error;
        Frame hello;
        hello.type = MessageType::hello;
        WireWriter w;
        w.u32(kWireVersion);
        w.u32(1);
        w.u32(1);
        hello.payload = w.take();
        ASSERT_EQ(sendFrame(s, hello, 2'000), FrameStatus::ok) << i;
        Frame ack;
        ASSERT_EQ(recvFrame(s, ack, 2'000, 2'000), FrameStatus::ok)
            << i;
        ASSERT_EQ(ack.type, MessageType::helloAck) << i;
        Frame goodbye;
        goodbye.type = MessageType::goodbye;
        ASSERT_EQ(sendFrame(s, goodbye, 2'000), FrameStatus::ok);
        // Wait for the session to wind down so the next iteration
        // observes a freed slot even on a single-core runner.
        Frame eof;
        recvFrame(s, eof, 2'000, 2'000); // EOF when the server closes
    }
    server.stop();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.sessionsAccepted, 5u);
    EXPECT_EQ(stats.sessionsRejected, 0u);
}

TEST(FrameServer, ServesAnEchoHandlerThroughHandshake)
{
    ServerConfig config;
    config.schemaVersion = 2;
    FrameServer server(std::move(config), [] {
        return [](std::vector<Frame> &&batch) {
            std::vector<Frame> replies;
            for (Frame &frame : batch) {
                Frame reply;
                reply.type = MessageType::sweepResult;
                reply.requestId = frame.requestId;
                reply.payload = std::move(frame.payload);
                replies.push_back(std::move(reply));
            }
            return replies;
        };
    });
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    Socket s =
        connectTo("127.0.0.1", server.boundPort(), 2'000, error);
    ASSERT_TRUE(s.valid()) << error;
    Frame hello;
    hello.type = MessageType::hello;
    WireWriter w;
    w.u32(kWireVersion);
    w.u32(2);
    w.u32(4);
    hello.payload = w.take();
    ASSERT_EQ(sendFrame(s, hello, 2'000), FrameStatus::ok);
    Frame ack;
    ASSERT_EQ(recvFrame(s, ack, 2'000, 2'000), FrameStatus::ok);
    ASSERT_EQ(ack.type, MessageType::helloAck);
    std::uint32_t version = 0, schema = 0, granted = 0;
    WireReader r(ack.payload);
    ASSERT_TRUE(r.u32(version) && r.u32(schema) && r.u32(granted) &&
                r.atEnd());
    EXPECT_EQ(version, kWireVersion);
    EXPECT_EQ(schema, 2u);
    EXPECT_EQ(granted, 4u); // min(requested 4, maxPending)

    for (std::uint64_t id : {7ull, 8ull}) {
        Frame request = sampleFrame();
        request.requestId = id;
        ASSERT_EQ(sendFrame(s, request, 2'000), FrameStatus::ok);
        Frame reply;
        ASSERT_EQ(recvFrame(s, reply, 2'000, 2'000),
                  FrameStatus::ok);
        EXPECT_EQ(reply.requestId, id);
        EXPECT_EQ(reply.payload, sampleFrame().payload);
    }
    Frame goodbye;
    goodbye.type = MessageType::goodbye;
    ASSERT_EQ(sendFrame(s, goodbye, 2'000), FrameStatus::ok);
    server.stop();
    EXPECT_EQ(server.stats().requestsServed, 2u);
}

} // namespace
} // namespace fasttrack::net
