#include "sim/run_codec.hpp"

#include <cmath>
#include <utility>

#include "net/codec.hpp"
#include "sim/sweep_cache.hpp"

namespace fasttrack {

namespace {

/** Side cap of a NoC or trace arriving on the wire: bounds what one
 *  frame can make a daemon allocate or step. */
constexpr std::uint32_t kMaxWireSide = 1024;

// Wire checks: a daemon rejects hostile inputs instead of aborting.

bool
wireAccepts(const NocConfig &c)
{
    return c.n <= kMaxWireSide && c.validationError().empty();
}

/** @p w on a NoC of side @p n; the caller checks the NoC first. */
bool
wireAccepts(const SyntheticWorkload &w, std::uint32_t n)
{
    if (!std::isfinite(w.injectionRate) || w.injectionRate <= 0.0 ||
        w.injectionRate > 1.0)
        return false;
    if (w.packetsPerPe < 1 || w.packetsPerPe > (1u << 20))
        return false;
    if (w.pattern == TrafficPattern::local && w.localRadius > 1024)
        return false;
    return patternValidationError(w.pattern, n, w.localRadius).empty();
}

/** Cap on a trace name on the wire (names label, never shape). */
constexpr std::size_t kMaxTraceNameBytes = 4096;

/** A trace's messages as the count, then per message its id, its
 *  fields and its dependencies. A trace whose messages grew without
 *  add() writes fewer records than its count, so it never decodes. */
void
putTrace(net::WireWriter &w, const Trace &trace)
{
    w.str(trace.name);
    put(w, trace.n);
    put(w, static_cast<std::uint64_t>(trace.messages.size()));
    trace.forEachMessage(
        [&w](const auto &...record) { (put(w, record), ...); });
}

/** Decode a trace and check it with Trace::validationError (never
 *  Trace::validate, which exits), plus the wire's own caps. A record
 *  whose id is not its index is refused as it is read. */
bool
getTrace(net::WireReader &r, Trace &trace)
{
    // A record takes at least its id, its fields and a zero count.
    const std::size_t min_record =
        sizeof(std::uint64_t) + net::minWireBytes<TraceMessage>() +
        net::minWireBytes<std::vector<std::uint64_t>>();
    std::uint64_t count = 0;
    if (!r.str(trace.name) || trace.name.size() > kMaxTraceNameBytes ||
        !get(r, trace.n) || trace.n > kMaxWireSide || !get(r, count) ||
        count > r.remaining() / min_record)
        return false;
    trace.reserve(count, 0);
    std::vector<std::uint64_t> deps;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t id = 0;
        TraceMessage m;
        if (!get(r, id) || id != i || !get(r, m) || !get(r, deps))
            return false;
        trace.add(m, deps);
    }
    return trace.validationError().empty();
}

void
putEmbeddedSnapshot(net::WireWriter &w, const Snapshot &snap)
{
    const std::vector<std::uint8_t> bytes = encodeSnapshot(snap);
    put(w, static_cast<std::uint64_t>(bytes.size()));
    w.bytes(bytes.data(), bytes.size());
}

/** Length-prefixed embedded snapshot, of any kind. */
bool
getEmbeddedSnapshot(net::WireReader &r, Snapshot &out)
{
    std::uint64_t bytes = 0;
    if (!get(r, bytes) || bytes > r.remaining())
        return false;
    std::vector<std::uint8_t> raw(static_cast<std::size_t>(bytes));
    if (!r.bytes(raw.data(), raw.size()))
        return false;
    return decodeSnapshot(raw, out);
}

} // namespace

std::vector<std::uint8_t>
encodeSweepRequestPayload(const SweepRequest &request)
{
    net::WireWriter w;
    put(w, request.pointIndex);
    put(w, request.config);
    put(w, request.channels);
    put(w, request.workload);
    put(w, request.maxCycles);
    return w.take();
}

bool
decodeSweepRequestPayload(const std::vector<std::uint8_t> &payload,
                          SweepRequest &out)
{
    SweepRequest request;
    net::WireReader r(payload);
    const bool ok =
        get(r, request.pointIndex) && get(r, request.config) &&
        get(r, request.channels) && get(r, request.workload) &&
        get(r, request.maxCycles) && r.atEnd() &&
        wireAccepts(request.config) && request.channels >= 1 &&
        request.channels <= 64 &&
        wireAccepts(request.workload, request.config.n) &&
        request.maxCycles >= 1;
    if (!ok)
        return false;
    out = request;
    return true;
}

std::vector<std::uint8_t>
encodeSweepResultPayload(std::uint32_t point_index, bool cache_hit,
                         const std::vector<std::uint8_t> &result_payload)
{
    net::WireWriter w;
    put(w, point_index);
    put(w, cache_hit);
    put(w, static_cast<std::uint32_t>(result_payload.size()));
    w.bytes(result_payload.data(), result_payload.size());
    return w.take();
}

bool
decodeSweepResultPayload(const std::vector<std::uint8_t> &payload,
                         std::uint32_t &point_index, bool &cache_hit,
                         SynthResult &out)
{
    net::WireReader r(payload);
    std::uint32_t resultBytes = 0;
    if (!get(r, point_index) || !get(r, cache_hit) ||
        !get(r, resultBytes) || resultBytes == 0 ||
        r.remaining() != resultBytes)
        return false;
    std::vector<std::uint8_t> resultPayload(resultBytes);
    if (!r.bytes(resultPayload.data(), resultPayload.size()))
        return false;
    return decodeSynthResult(resultPayload, out);
}

std::vector<std::uint8_t>
encodeMetricsPayload(const std::map<std::string, double> &values)
{
    net::WireWriter w;
    put(w, static_cast<std::uint32_t>(values.size()));
    for (const auto &[name, value] : values) {
        w.str(name);
        put(w, value);
    }
    return w.take();
}

bool
decodeMetricsPayload(const std::vector<std::uint8_t> &payload,
                     std::map<std::string, double> &out)
{
    std::map<std::string, double> values;
    net::WireReader r(payload);
    std::uint32_t count = 0;
    if (!get(r, count))
        return false;
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string name;
        double value = 0.0;
        if (!r.str(name) || !get(r, value))
            return false;
        values[name] = value;
    }
    if (!r.atEnd())
        return false;
    out = std::move(values);
    return true;
}

std::vector<std::uint8_t>
encodeShardSliceRequestPayload(const ShardSliceRequest &request)
{
    net::WireWriter w;
    put(w, request.kind);
    put(w, request.config);
    put(w, request.channels);
    if (request.kind == SnapshotKind::synthetic)
        put(w, request.workload);
    else
        putTrace(w, request.trace);
    put(w, request.sliceCycles);
    put(w, request.runMaxCycles);
    put(w, request.key);
    put(w, request.hasSnapshot);
    if (request.hasSnapshot)
        putEmbeddedSnapshot(w, request.snapshot);
    return w.take();
}

bool
decodeShardSliceRequestPayload(const std::vector<std::uint8_t> &payload,
                               ShardSliceRequest &out)
{
    ShardSliceRequest request;
    net::WireReader r(payload);
    if (!get(r, request.kind) || !get(r, request.config) ||
        !wireAccepts(request.config))
        return false;
    // Slice execution resumes/captures engine state, which only
    // single-channel devices support — reject, never FT_FATAL in the
    // driver's snapshot-knob check on a daemon.
    if (!get(r, request.channels) || request.channels != 1)
        return false;
    if (request.kind == SnapshotKind::synthetic) {
        if (!get(r, request.workload) ||
            !wireAccepts(request.workload, request.config.n))
            return false;
    } else {
        if (!getTrace(r, request.trace))
            return false;
    }
    if (!get(r, request.sliceCycles) || !get(r, request.runMaxCycles) ||
        !get(r, request.key) || !get(r, request.hasSnapshot))
        return false;
    // The slice budget bounds what one frame can make a daemon
    // compute (the slice runs synchronously in the frame handler), so
    // an unbounded value is hostile by definition.
    if (request.sliceCycles < 1 ||
        request.sliceCycles > kMaxSliceCycles ||
        request.runMaxCycles < 1)
        return false;
    if (request.hasSnapshot &&
        (!getEmbeddedSnapshot(r, request.snapshot) ||
         request.snapshot.kind != request.kind))
        return false;
    if (!r.atEnd())
        return false;
    out = std::move(request);
    return true;
}

std::vector<std::uint8_t>
encodeShardSliceContinuationPayload(const ShardSliceContinuation &next)
{
    net::WireWriter w;
    put(w, next.key);
    putEmbeddedSnapshot(w, next.snapshot);
    return w.take();
}

bool
decodeShardSliceContinuationPayload(
    const std::vector<std::uint8_t> &payload, ShardSliceContinuation &out)
{
    ShardSliceContinuation next;
    net::WireReader r(payload);
    if (!get(r, next.key) || !getEmbeddedSnapshot(r, next.snapshot) ||
        !r.atEnd())
        return false;
    out = std::move(next);
    return true;
}

std::vector<std::uint8_t>
encodeShardSliceResultPayload(const ShardSliceResult &result)
{
    net::WireWriter w;
    put(w, result.kind);
    put(w, result.done);
    if (result.kind == SnapshotKind::synthetic) {
        const std::vector<std::uint8_t> synth =
            encodeSynthResult(result.synth);
        put(w, static_cast<std::uint32_t>(synth.size()));
        w.bytes(synth.data(), synth.size());
    } else {
        put(w, result.trace);
    }
    put(w, result.hasSnapshot);
    if (result.hasSnapshot)
        putEmbeddedSnapshot(w, result.snapshot);
    return w.take();
}

bool
decodeShardSliceResultPayload(const std::vector<std::uint8_t> &payload,
                              ShardSliceResult &out)
{
    ShardSliceResult result;
    net::WireReader r(payload);
    if (!get(r, result.kind) || !get(r, result.done))
        return false;
    if (result.kind == SnapshotKind::synthetic) {
        std::uint32_t bytes = 0;
        if (!get(r, bytes) || bytes == 0 || bytes > r.remaining())
            return false;
        std::vector<std::uint8_t> raw(bytes);
        if (!r.bytes(raw.data(), raw.size()) ||
            !decodeSynthResult(raw, result.synth))
            return false;
    } else if (!get(r, result.trace)) {
        return false;
    }
    if (!get(r, result.hasSnapshot))
        return false;
    // An unfinished slice must hand the continuation over; a finished
    // one must not — anything else is a lying peer.
    if (result.hasSnapshot == result.done)
        return false;
    if (result.hasSnapshot &&
        (!getEmbeddedSnapshot(r, result.snapshot) ||
         result.snapshot.kind != result.kind))
        return false;
    if (!r.atEnd())
        return false;
    out = std::move(result);
    return true;
}

} // namespace fasttrack
