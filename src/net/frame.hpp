/**
 * @file
 * The ftd wire protocol's frame layer: length-prefixed, versioned,
 * checksummed messages over a byte stream (docs/distributed.md has
 * the full layout and failure-semantics table).
 *
 * Frame layout (all fields little-endian, fixed width):
 *
 *   offset  size  field
 *   0       4     magic 'FTNP' (0x504e5446)
 *   4       4     wire version (kWireVersion)
 *   8       2     message type (MessageType)
 *   10      2     flags (kFlagPartial; other bits must be 0)
 *   12      8     request id (echoed by responses)
 *   20      4     payload length (<= kMaxFramePayload)
 *   24      N     payload
 *   24+N    8     FNV-1a over bytes [0, 24+N)
 *
 * Messages larger than one frame (snapshot payloads) travel as a
 * chain of fragments: every fragment but the last carries
 * kFlagPartial and all fragments share the message's type and
 * request id. sendMessage/recvMessage do the splitting/reassembly;
 * recvMessage bounds the reassembled size so a hostile chain of
 * partial frames cannot exhaust memory, and requires every non-final
 * fragment to be non-empty so the chain length (and with it the time
 * one message can pin the receiving thread) is bounded too.
 *
 * Decoding is defensive end to end: the header is validated (magic,
 * version, flags, length bound) *before* the payload is read, so an
 * oversized or forged length prefix can never force an allocation,
 * and the trailing self-check hash rejects corruption. Any failure
 * maps to a FrameStatus — no exceptions, no hangs (all socket reads
 * are timeout-bounded), no UB on hostile input
 * (tests/test_net.cpp, tests/test_sharding.cpp).
 */

#ifndef FT_NET_FRAME_HPP
#define FT_NET_FRAME_HPP

#include <cstdint>
#include <vector>

#include "net/socket.hpp"

namespace fasttrack::net {

/** 'FTNP' — FastTrack Network Protocol. */
inline constexpr std::uint32_t kFrameMagic = 0x504e5446u;

/** Bump on any change to the frame layout or message payloads. A
 *  version mismatch is detected on the first frame of a session and
 *  answered with MessageType::error (code kErrBadVersion).
 *  v2: kFlagPartial fragmentation + snapshotRequest/snapshotResult.
 *  v3: sliceContinuation. */
inline constexpr std::uint32_t kWireVersion = 3;

/** Upper bound on a frame payload. Generous for sweep results (a
 *  SynthResult payload is a few KiB) while keeping a forged length
 *  prefix from looking plausible. Larger messages (snapshots) are
 *  split into partial frames by sendMessage. */
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

/** Default bound on a reassembled multi-frame message. */
inline constexpr std::uint64_t kDefaultMaxMessageBytes = 64ull << 20;

inline constexpr std::size_t kFrameHeaderBytes = 24;
inline constexpr std::size_t kFrameTrailerBytes = 8;

/** Header flag: this frame is a non-final fragment of a message;
 *  the next frame with the same type and request id continues it. */
inline constexpr std::uint16_t kFlagPartial = 0x1;

/** Message types of the ftd session protocol. */
enum class MessageType : std::uint16_t
{
    /** Client -> server session opener: u32 wire version, u32 sweep
     *  schema version, u32 requested pipeline window. */
    hello = 1,
    /** Server -> client accept: u32 wire version, u32 sweep schema,
     *  u32 granted window (the server's per-session queue bound). */
    helloAck = 2,
    /** Client -> server: one sweep point (sim/run_codec.hpp codec). */
    sweepRequest = 3,
    /** Server -> client: one sweep point result. */
    sweepResult = 4,
    /** Server -> client: a MetricsRegistry telemetry epoch (u32
     *  count, then per metric: string name, f64 value). */
    metricsEpoch = 5,
    /** Either direction: u32 error code + string message; the sender
     *  closes the session after sending. */
    error = 6,
    /** Client -> server: orderly session end. */
    goodbye = 7,
    /** Client -> server: one temporal-shard slice (sim/run_codec.hpp
     *  ShardSliceRequest codec; may span multiple partial frames). */
    snapshotRequest = 8,
    /** Server -> client: slice stats + the trimmed handoff snapshot
     *  (ShardSliceResult codec; may span multiple partial frames). */
    snapshotResult = 9,
    /** Client -> server: a later slice of the run whose inputs this
     *  session's snapshotRequest carried: its checkpoint key and the
     *  previous slice's trimmed snapshot (ShardSliceContinuation
     *  codec), answered by a snapshotResult. */
    sliceContinuation = 10,
};

/** Error codes carried by MessageType::error payloads. */
inline constexpr std::uint32_t kErrBadVersion = 1;
inline constexpr std::uint32_t kErrBadSchema = 2;
inline constexpr std::uint32_t kErrBadRequest = 3;
inline constexpr std::uint32_t kErrOverloaded = 4;

/** One decoded frame (or, via sendMessage/recvMessage, one whole
 *  reassembled message — then `partial` is always false). */
struct Frame
{
    MessageType type = MessageType::error;
    std::uint64_t requestId = 0;
    std::vector<std::uint8_t> payload;
    /** Non-final fragment of a multi-frame message. */
    bool partial = false;
};

/** Outcome of a frame decode/receive. */
enum class FrameStatus
{
    ok,
    /** Stream ended cleanly between frames. */
    closed,
    /** Timeout elapsed (idle or mid-frame). */
    timeout,
    /** Stream ended inside a frame. */
    truncated,
    badMagic,
    badVersion,
    /** Length prefix exceeds kMaxFramePayload or flags nonzero. */
    malformed,
    badChecksum,
    /** Underlying socket error. */
    ioError,
};

const char *toString(FrameStatus status);

/** Serialize @p frame (header + payload + trailing hash). */
std::vector<std::uint8_t> encodeFrame(const Frame &frame);

/**
 * Decode one frame from @p bytes (which must contain exactly one
 * frame). Used by tests and by in-memory paths; socket traffic goes
 * through recvFrame.
 */
FrameStatus decodeFrame(const std::vector<std::uint8_t> &bytes,
                        Frame &out);

/**
 * Read one frame. @p idle_timeout_ms bounds the wait for the first
 * header byte; @p io_timeout_ms bounds every subsequent wait, so a
 * peer that stalls mid-frame yields FrameStatus::timeout rather
 * than a hang.
 */
FrameStatus recvFrame(Socket &socket, Frame &out, int idle_timeout_ms,
                      int io_timeout_ms);

/** Write one frame (timeout-bounded). */
FrameStatus sendFrame(Socket &socket, const Frame &frame,
                      int io_timeout_ms);

/**
 * Write one logical message, splitting payloads larger than
 * @p max_fragment into a chain of partial frames (same type and
 * request id; every fragment but the last carries kFlagPartial).
 * @p frame.partial is ignored. An empty payload sends one frame.
 */
FrameStatus sendMessage(Socket &socket, const Frame &frame,
                        int io_timeout_ms,
                        std::size_t max_fragment = kMaxFramePayload);

/**
 * Read one logical message, reassembling partial-frame chains. A
 * continuation fragment whose type or request id differs from the
 * first fragment's, or a reassembled size exceeding
 * @p max_message_bytes, yields FrameStatus::malformed; a stream
 * ending mid-chain yields FrameStatus::truncated. On ok,
 * out.partial is false and out.payload holds the whole message.
 */
FrameStatus recvMessage(Socket &socket, Frame &out, int idle_timeout_ms,
                        int io_timeout_ms,
                        std::uint64_t max_message_bytes =
                            kDefaultMaxMessageBytes);

/** Convenience: build an error frame (u32 code + string message). */
Frame makeErrorFrame(std::uint64_t request_id, std::uint32_t code,
                     const std::string &message);

/** Parse an error payload; false if it does not decode. */
bool parseErrorFrame(const Frame &frame, std::uint32_t &code,
                     std::string &message);

} // namespace fasttrack::net

#endif // FT_NET_FRAME_HPP
