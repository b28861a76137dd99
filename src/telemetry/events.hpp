/**
 * @file
 * Telemetry event vocabulary: the compact POD records the simulators
 * emit into per-thread ring buffers (see sink.hpp). The telemetry
 * layer sits *below* the NoC libraries (it depends only on
 * common/types), so port numbers travel as raw bytes here and are
 * named by the exporters; the numbering matches noc/routing.hpp's
 * OutPort/InPort enums and is pinned by tests/test_telemetry.cpp.
 */

#ifndef FT_TELEMETRY_EVENTS_HPP
#define FT_TELEMETRY_EVENTS_HPP

#include <cstdint>

#include "common/types.hpp"

namespace fasttrack::telemetry {

/** What happened. Values index dense counter arrays; append only. */
enum class EventKind : std::uint8_t
{
    /** A PE offer won injection into the network. */
    inject = 0,
    /** A packet traversed a short link (port = OutPort,
     *  aux = the packet's deflections so far). */
    route = 1,
    /** A packet traversed an express link (port = OutPort,
     *  aux = the packet's deflections so far). */
    expressHop = 2,
    /** Arbitration handed an input a non-preferred output
     *  (port = InPort, aux = deflections this cycle at that port). */
    deflect = 3,
    /** A packet exited to its destination client
     *  (aux = total latency in cycles, saturated to 16 bits). */
    eject = 4,
    /** A pending PE offer was refused this cycle (backlog stall). */
    backlogStall = 5,
};

inline constexpr std::size_t kNumEventKinds = 6;

/** Stable display name of @p kind (exporters and tests). */
const char *toString(EventKind kind);

/** Sentinel for "no port" in TraceEvent::port. */
inline constexpr std::uint8_t kNoPort = 0xff;

/**
 * One trace record: 24 bytes, trivially copyable, written on the
 * simulator hot path only in the telemetry-enabled stepping-core
 * instantiation (see Network::stepImpl).
 */
struct TraceEvent
{
    /** Simulated cycle of the event. */
    Cycle cycle = 0;
    /** Packet id, or 0 for aggregate events (deflect). */
    std::uint64_t packet = 0;
    /** Router/PE node the event occurred at. */
    NodeId node = kInvalidNode;
    /** Kind-dependent payload (latency, deflection delta, ...). */
    std::uint16_t aux = 0;
    EventKind kind = EventKind::inject;
    /** OutPort (route/expressHop), InPort (deflect), or kNoPort. */
    std::uint8_t port = kNoPort;
};

static_assert(sizeof(TraceEvent) == 24, "TraceEvent grew unexpectedly");

} // namespace fasttrack::telemetry

#endif // FT_TELEMETRY_EVENTS_HPP
