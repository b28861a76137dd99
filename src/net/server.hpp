/**
 * @file
 * Generic framed-protocol server: accept loop, per-session threads,
 * version/schema handshake, bounded per-session request queues with
 * TCP backpressure, and idle timeouts. The simulation-specific
 * request handling (decode sweep points, run them on the local pool,
 * stream results) plugs in as a Handler that a SessionFactory makes
 * for each session — see sim/ftd_server.hpp, which builds the ftd
 * daemon on top of this.
 *
 * Session lifecycle (docs/distributed.md):
 *
 *   accept -> expect hello (validated against kWireVersion and the
 *   configured schema) -> helloAck(granted window) -> make the
 *   session's handler -> serve batches of requests until goodbye /
 *   idle timeout / protocol error / stop() -> free the handler.
 *
 * Backpressure: a session reads at most maxPending requests off the
 * socket before it stops reading and runs the handler; while the
 * handler runs, the kernel's TCP window throttles the client. The
 * pending batch IS the bounded per-session queue — there is no
 * unbounded buffering anywhere on the server side.
 *
 * Failure semantics: malformed, truncated, checksum-failing or
 * stale-version frames terminate only the offending session (after
 * an error frame when the stream is still writable); the server and
 * its other sessions keep running.
 */

#ifndef FT_NET_SERVER_HPP
#define FT_NET_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/counters.hpp"
#include "common/thread_annotations.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace fasttrack::net {

/** Frame-server knobs (defaults suit loopback CI runs). */
struct ServerConfig
{
    /** Bind address; loopback by default (an operator must opt in
     *  to exposure beyond the host). */
    std::string host = "127.0.0.1";
    /** 0 = ephemeral; boundPort() reports the actual port. */
    std::uint16_t port = 0;
    /** Application schema version advertised in helloAck and
     *  required of clients (the sweep-cache schema for ftd). */
    std::uint32_t schemaVersion = 0;
    /** Concurrent session cap; further clients get kErrOverloaded. */
    unsigned maxSessions = 8;
    /** Bounded per-session request queue (pipeline window). */
    std::uint32_t maxPending = 256;
    /** Close a session after this long with no complete frame. */
    int idleTimeoutMs = 30'000;
    /** Per-wait bound once inside a frame or while writing. */
    int ioTimeoutMs = 10'000;
    /** Bound on one reassembled multi-frame message (snapshot
     *  requests); larger chains end the session as malformed. */
    std::uint64_t maxMessageBytes = kDefaultMaxMessageBytes;
    /**
     * Fault injection for tests: when nonzero, hard-close each
     * session after this many response frames, simulating a worker
     * killed mid-sweep. 0 = off.
     */
    std::uint64_t dropAfterFrames = 0;
};

/** Lifetime counters (a counter set, common/counters.hpp). */
struct ServerStats
{
    std::uint64_t sessionsAccepted = 0;
    /** Sessions refused at the cap (kErrOverloaded). */
    std::uint64_t sessionsRejected = 0;
    std::uint64_t framesIn = 0;
    std::uint64_t framesOut = 0;
    /** Sessions ended by malformed/stale/corrupt input. */
    std::uint64_t protocolErrors = 0;
    /** Sessions ended by the idle timeout. */
    std::uint64_t idleTimeouts = 0;
    /** Request frames handed to the handler. */
    std::uint64_t requestsServed = 0;
    /** Sessions hard-closed by dropAfterFrames fault injection. */
    std::uint64_t injectedDrops = 0;

    /** Exported by ftd as ftd.net.sessions_accepted, ... */
    static constexpr CounterField<ServerStats> kCounters[] = {
        {&ServerStats::sessionsAccepted, "sessions_accepted"},
        {&ServerStats::sessionsRejected, "sessions_rejected"},
        {&ServerStats::framesIn, "frames_in"},
        {&ServerStats::framesOut, "frames_out"},
        {&ServerStats::protocolErrors, "protocol_errors"},
        {&ServerStats::idleTimeouts, "idle_timeouts"},
        {&ServerStats::requestsServed, "requests_served"},
        {&ServerStats::injectedDrops, "injected_drops"},
    };
};

class FrameServer
{
  public:
    /**
     * Handler for one batch of request frames (arrival order, size
     * 1..maxPending). Returns the response frames to stream back, in
     * order. Runs on the session's thread; may block (it typically
     * fans out to the work-stealing pool).
     */
    using Handler =
        std::function<std::vector<Frame>(std::vector<Frame> &&)>;
    /**
     * Makes one session's handler once its handshake succeeds. The
     * handler lives exactly as long as its session, so whatever state
     * it captures belongs to that session alone: made when the session
     * starts, freed when it ends, never seen by another session.
     */
    using SessionFactory = std::function<Handler()>;

    FrameServer(ServerConfig config, SessionFactory make_handler);
    ~FrameServer();
    FrameServer(const FrameServer &) = delete;
    FrameServer &operator=(const FrameServer &) = delete;

    /** Bind + listen + start the accept thread. False (with @p error
     *  set) if the bind fails. */
    bool start(std::string &error);

    /** The port actually bound (after start()). */
    std::uint16_t boundPort() const;

    /** Stop accepting, shut every live session's socket, join all
     *  threads. Idempotent. */
    void stop();

    bool running() const
    {
        return running_.load(std::memory_order_acquire);
    }

    ServerStats stats() const { return counters_.snapshot(); }

    const ServerConfig &config() const { return config_; }

  private:
    struct Session
    {
        std::shared_ptr<Socket> socket;
        /** Set by the session thread as its last act. The socket fd
         *  is only closed (by Session destruction) after observing
         *  done and joining, so stop()'s shutdownBoth() never races
         *  a close() — the session thread itself only ever shuts
         *  down, it never closes. */
        std::shared_ptr<std::atomic<bool>> done;
        std::thread thread;
    };

    void acceptLoop();
    void runSession(std::shared_ptr<Socket> socket,
                    std::shared_ptr<std::atomic<bool>> done);
    /** Drop finished sessions from sessions_ (called on accept). */
    void reapSessions();

    ServerConfig config_;
    SessionFactory makeHandler_;
    Listener listener_;
    std::thread acceptThread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    mutable Mutex sessionsMutex_;
    std::vector<Session> sessions_ FT_GUARDED_BY(sessionsMutex_);
    std::atomic<unsigned> activeSessions_{0};

    CounterTally<ServerStats> counters_;
};

} // namespace fasttrack::net

#endif // FT_NET_SERVER_HPP
