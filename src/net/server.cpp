#include "net/server.hpp"

#include <utility>

#include "net/wire.hpp"

namespace fasttrack::net {

namespace {

/** Accept-poll period: bounds how long stop() waits on the accept
 *  thread without requiring a cross-thread listener close. */
constexpr int kAcceptPollMs = 100;

/** Parse a hello payload. */
bool
parseHello(const Frame &frame, std::uint32_t &wire_version,
           std::uint32_t &schema, std::uint32_t &window)
{
    WireReader r(frame.payload);
    return r.u32(wire_version) && r.u32(schema) && r.u32(window) &&
           r.atEnd();
}

} // namespace

FrameServer::FrameServer(ServerConfig config, SessionFactory make_handler)
    : config_(std::move(config)), makeHandler_(std::move(make_handler))
{
}

FrameServer::~FrameServer()
{
    stop();
}

bool
FrameServer::start(std::string &error)
{
    if (running_.load(std::memory_order_acquire)) {
        error = "server already running";
        return false;
    }
    if (!listener_.open(config_.host, config_.port, error))
        return false;
    stopping_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

std::uint16_t
FrameServer::boundPort() const
{
    return listener_.boundPort();
}

void
FrameServer::stop()
{
    if (!running_.exchange(false, std::memory_order_acq_rel))
        return;
    stopping_.store(true, std::memory_order_release);
    if (acceptThread_.joinable())
        acceptThread_.join();
    listener_.close();

    // Shut down live session sockets so blocked reads see EOF, then
    // join. Session threads never close() their socket (only
    // shutdown), so these fds stay valid until the Sessions are
    // destroyed below, after every thread has been joined.
    std::vector<Session> sessions;
    {
        MutexLock lk(sessionsMutex_);
        sessions.swap(sessions_);
    }
    for (Session &s : sessions)
        if (s.socket)
            s.socket->shutdownBoth();
    for (Session &s : sessions)
        if (s.thread.joinable())
            s.thread.join();
}

void
FrameServer::acceptLoop()
{
    while (!stopping_.load(std::memory_order_acquire) &&
           running_.load(std::memory_order_acquire)) {
        Socket accepted = listener_.accept(kAcceptPollMs);
        if (!accepted.valid())
            continue;
        reapSessions();
        if (activeSessions_.load(std::memory_order_acquire) >=
            config_.maxSessions) {
            counters_.bump(&ServerStats::sessionsRejected);
            sendFrame(accepted,
                      makeErrorFrame(0, kErrOverloaded,
                                     "session limit reached"),
                      config_.ioTimeoutMs);
            continue; // destructor closes the socket
        }
        counters_.bump(&ServerStats::sessionsAccepted);
        activeSessions_.fetch_add(1, std::memory_order_acq_rel);
        auto socket = std::make_shared<Socket>(std::move(accepted));
        auto done = std::make_shared<std::atomic<bool>>(false);
        std::thread thread(
            [this, socket, done] { runSession(socket, done); });
        MutexLock lk(sessionsMutex_);
        sessions_.push_back(
            Session{socket, done, std::move(thread)});
    }
}

void
FrameServer::reapSessions()
{
    // Joinable-but-finished threads cannot be detected portably, so
    // reap by the done flag (runSession's last act). Joining before
    // erasing makes the erase — and the Socket close it triggers —
    // single-threaded. stop() joins any stragglers.
    MutexLock lk(sessionsMutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        if (it->done && it->done->load(std::memory_order_acquire)) {
            if (it->thread.joinable())
                it->thread.join();
            it = sessions_.erase(it);
        } else {
            ++it;
        }
    }
}

void
FrameServer::runSession(std::shared_ptr<Socket> socket,
                        std::shared_ptr<std::atomic<bool>> done)
{
    Socket &sock = *socket;
    const int idle_ms = config_.idleTimeoutMs;
    const int io_ms = config_.ioTimeoutMs;
    std::uint64_t responses_sent = 0;

    const auto protocolError = [&](std::uint64_t request_id,
                                   std::uint32_t code,
                                   const std::string &message) {
        counters_.bump(&ServerStats::protocolErrors);
        sendFrame(sock, makeErrorFrame(request_id, code, message),
                  io_ms);
    };

    // --- Handshake -------------------------------------------------
    Frame hello;
    const FrameStatus hs = recvFrame(sock, hello, idle_ms, io_ms);
    bool handshaken = false;
    if (hs == FrameStatus::ok && hello.type == MessageType::hello) {
        std::uint32_t wire_version = 0, schema = 0, window = 0;
        if (!parseHello(hello, wire_version, schema, window)) {
            protocolError(hello.requestId, kErrBadRequest,
                          "malformed hello");
        } else if (wire_version != kWireVersion) {
            protocolError(hello.requestId, kErrBadVersion,
                          "wire version mismatch");
        } else if (schema != config_.schemaVersion) {
            protocolError(hello.requestId, kErrBadSchema,
                          "sweep schema mismatch");
        } else {
            counters_.bump(&ServerStats::framesIn);
            Frame ack;
            ack.type = MessageType::helloAck;
            ack.requestId = hello.requestId;
            WireWriter w;
            w.u32(kWireVersion);
            w.u32(config_.schemaVersion);
            w.u32(window < config_.maxPending ? window
                                              : config_.maxPending);
            ack.payload = w.take();
            if (sendFrame(sock, ack, io_ms) == FrameStatus::ok) {
                counters_.bump(&ServerStats::framesOut);
                handshaken = true;
            }
        }
    } else if (hs == FrameStatus::timeout) {
        counters_.bump(&ServerStats::idleTimeouts);
    } else if (hs != FrameStatus::closed) {
        protocolError(0, kErrBadRequest,
                      std::string("expected hello, got ") +
                          toString(hs));
    }

    // --- Serve batches ---------------------------------------------
    Handler handler = handshaken ? makeHandler_() : Handler{};
    while (handshaken && !stopping_.load(std::memory_order_acquire)) {
        std::vector<Frame> batch;
        bool session_over = false;

        // First frame of the batch: wait up to the idle timeout.
        // Then drain whatever is already pipelined, up to the
        // bounded queue — beyond that, TCP backpressure holds the
        // client until this batch is served.
        while (batch.size() < config_.maxPending) {
            const bool first = batch.empty();
            if (!first && !sock.readable())
                break;
            Frame frame;
            const FrameStatus status =
                recvMessage(sock, frame, first ? idle_ms : io_ms,
                            io_ms, config_.maxMessageBytes);
            if (status == FrameStatus::ok) {
                counters_.bump(&ServerStats::framesIn);
                if (frame.type == MessageType::goodbye) {
                    session_over = true;
                    break;
                }
                if (frame.type != MessageType::sweepRequest &&
                    frame.type != MessageType::snapshotRequest &&
                    frame.type != MessageType::sliceContinuation) {
                    protocolError(frame.requestId, kErrBadRequest,
                                  "unexpected message type");
                    session_over = true;
                    break;
                }
                batch.push_back(std::move(frame));
                continue;
            }
            if (status == FrameStatus::closed && first) {
                session_over = true; // orderly EOF between frames
            } else if (status == FrameStatus::timeout && first) {
                counters_.bump(&ServerStats::idleTimeouts);
                session_over = true;
            } else {
                protocolError(0, kErrBadRequest,
                              std::string("bad frame: ") +
                                  toString(status));
                session_over = true;
            }
            break;
        }

        if (!batch.empty()) {
            counters_.bump(&ServerStats::requestsServed, batch.size());
            std::vector<Frame> responses = handler(std::move(batch));
            for (const Frame &response : responses) {
                if (config_.dropAfterFrames != 0 &&
                    responses_sent >= config_.dropAfterFrames) {
                    counters_.bump(&ServerStats::injectedDrops);
                    sock.shutdownBoth();
                    session_over = true;
                    break;
                }
                // sendMessage so an oversized snapshotResult payload
                // fragments instead of overflowing the frame cap.
                if (sendMessage(sock, response, io_ms) !=
                    FrameStatus::ok) {
                    session_over = true;
                    break;
                }
                ++responses_sent;
                counters_.bump(&ServerStats::framesOut);
            }
        }
        if (session_over)
            break;
    }

    // The session's state goes with it, before its slot is freed.
    handler = nullptr;
    // Shut down (never close) so the peer sees EOF now; the close
    // happens when the Session is erased after join, keeping fd
    // writes out of this thread (stop() may still be poking the fd).
    sock.shutdownBoth();
    // Free the cap slot: maxSessions bounds *live* sessions, so the
    // decrement must happen here, not in reapSessions (which only
    // runs on the next accept and would leak slots until then).
    activeSessions_.fetch_sub(1, std::memory_order_acq_rel);
    done->store(true, std::memory_order_release);
}

} // namespace fasttrack::net
