#include "sim/run_codec.hpp"

#include <cmath>
#include <utility>

#include "net/wire.hpp"
#include "noc/engine_state.hpp"
#include "sim/sweep_cache.hpp"

namespace fasttrack {

namespace {

/** Side cap of a NoC or trace arriving on the wire: bounds what one
 *  frame can make a daemon allocate or step. */
constexpr std::uint32_t kMaxWireSide = 1024;

/** Highest value of each enum that travels on the wire; a decoder
 *  rejects anything past it. */
constexpr NocVariant
lastValue(NocVariant)
{
    return NocVariant::ftInject;
}

constexpr TrafficPattern
lastValue(TrafficPattern)
{
    return TrafficPattern::transpose;
}

/** Write @p in as wire words (see the header's file comment). */
template <typename T>
void
put(net::WireWriter &w, const T &in)
{
    if constexpr (std::is_same_v<T, bool>) {
        w.u8(in ? 1 : 0);
    } else if constexpr (std::is_enum_v<T> ||
                         std::is_same_v<T, std::uint32_t>) {
        w.u32(static_cast<std::uint32_t>(in));
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        w.u64(in);
    } else if constexpr (std::is_same_v<T, double>) {
        w.f64(in);
    } else if constexpr (std::ranges::sized_range<T>) {
        w.u32(static_cast<std::uint32_t>(in.size()));
        for (const auto &item : in)
            put(w, item);
    } else {
        visitFields(in, [&w](const auto &...fields) {
            (put(w, fields), ...);
        });
    }
}

/** Fewest wire bytes any T takes — the encoding of a default T, whose
 *  vectors are empty. A decoder bounds a count of Ts by the bytes left
 *  divided by this before it allocates. */
template <typename T>
std::size_t
minWireBytes()
{
    static const std::size_t bytes = [] {
        net::WireWriter w;
        put(w, T{});
        return w.size();
    }();
    return bytes;
}

/** Read @p out as wire words; false when truncated or out of range.
 *  A bool byte reads as != 0, an enum past its last value is refused,
 *  and a count is bounded by the bytes left before it allocates. */
template <typename T>
bool
get(net::WireReader &r, T &out)
{
    if constexpr (std::is_same_v<T, bool>) {
        std::uint8_t byte = 0;
        if (!r.u8(byte))
            return false;
        out = byte != 0;
        return true;
    } else if constexpr (std::is_enum_v<T>) {
        std::uint32_t raw = 0;
        if (!r.u32(raw) ||
            raw > static_cast<std::uint32_t>(lastValue(out)))
            return false;
        out = static_cast<T>(raw);
        return true;
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
        return r.u32(out);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        return r.u64(out);
    } else if constexpr (std::is_same_v<T, double>) {
        return r.f64(out);
    } else if constexpr (std::ranges::sized_range<T>) {
        std::uint32_t count = 0;
        if (!r.u32(count) ||
            count > r.remaining() /
                        minWireBytes<std::ranges::range_value_t<T>>())
            return false;
        out.resize(count);
        for (auto &item : out) {
            if (!get(r, item))
                return false;
        }
        return true;
    } else {
        return visitFields(out, [&r](auto &...fields) {
            return (get(r, fields) && ...);
        });
    }
}

// Wire checks: a daemon rejects hostile inputs instead of aborting.

bool
wireAccepts(const NocConfig &c)
{
    return c.n <= kMaxWireSide && c.validationError().empty();
}

bool
wireAccepts(const SyntheticWorkload &w)
{
    if (!std::isfinite(w.injectionRate) || w.injectionRate <= 0.0 ||
        w.injectionRate > 1.0)
        return false;
    if (w.packetsPerPe < 1 || w.packetsPerPe > (1u << 20))
        return false;
    if (w.pattern == TrafficPattern::local &&
        (w.localRadius < 1 || w.localRadius > 1024))
        return false;
    return true;
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
    w.u32(trace.n);
    w.u64(trace.messages.size());
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
    const std::size_t min_record = sizeof(std::uint64_t) +
                                   minWireBytes<TraceMessage>() +
                                   minWireBytes<std::vector<std::uint64_t>>();
    std::uint64_t count = 0;
    if (!r.str(trace.name) || trace.name.size() > kMaxTraceNameBytes ||
        !r.u32(trace.n) || trace.n > kMaxWireSide || !r.u64(count) ||
        count > r.remaining() / min_record)
        return false;
    trace.reserve(count, 0);
    std::vector<std::uint64_t> deps;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t id = 0;
        TraceMessage m;
        if (!r.u64(id) || id != i || !get(r, m) || !get(r, deps))
            return false;
        trace.add(m, deps);
    }
    return trace.validationError().empty();
}

bool
getKind(net::WireReader &r, SnapshotKind &kind)
{
    std::uint8_t raw = 0;
    if (!r.u8(raw) ||
        (raw != static_cast<std::uint8_t>(SnapshotKind::synthetic) &&
         raw != static_cast<std::uint8_t>(SnapshotKind::trace)))
        return false;
    kind = static_cast<SnapshotKind>(raw);
    return true;
}

/** Read a flag byte that must be exactly 0 or 1. */
bool
getStrictBool(net::WireReader &r, bool &out)
{
    std::uint8_t raw = 0;
    if (!r.u8(raw) || raw > 1)
        return false;
    out = raw != 0;
    return true;
}

void
putEmbeddedSnapshot(net::WireWriter &w, const Snapshot &snap)
{
    const std::vector<std::uint8_t> bytes = encodeSnapshot(snap);
    w.u64(bytes.size());
    w.bytes(bytes.data(), bytes.size());
}

/** Length-prefixed embedded snapshot; kind must match @p kind. */
bool
getEmbeddedSnapshot(net::WireReader &r, SnapshotKind kind,
                    Snapshot &out)
{
    std::uint64_t bytes = 0;
    if (!r.u64(bytes) || bytes > r.remaining())
        return false;
    std::vector<std::uint8_t> raw(static_cast<std::size_t>(bytes));
    if (!r.bytes(raw.data(), raw.size()))
        return false;
    return decodeSnapshot(raw, out) && out.kind == kind;
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
        request.channels <= 64 && wireAccepts(request.workload) &&
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
    w.u32(point_index);
    w.u8(cache_hit ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(result_payload.size()));
    w.bytes(result_payload.data(), result_payload.size());
    return w.take();
}

bool
decodeSweepResultPayload(const std::vector<std::uint8_t> &payload,
                         std::uint32_t &point_index, bool &cache_hit,
                         SynthResult &out)
{
    net::WireReader r(payload);
    std::uint8_t hit = 0;
    std::uint32_t resultBytes = 0;
    if (!r.u32(point_index) || !r.u8(hit) || !r.u32(resultBytes) ||
        resultBytes == 0 || r.remaining() != resultBytes)
        return false;
    std::vector<std::uint8_t> resultPayload(resultBytes);
    if (!r.bytes(resultPayload.data(), resultPayload.size()))
        return false;
    cache_hit = hit != 0;
    return decodeSynthResult(resultPayload, out);
}

std::vector<std::uint8_t>
encodeMetricsPayload(const std::map<std::string, double> &values)
{
    net::WireWriter w;
    w.u32(static_cast<std::uint32_t>(values.size()));
    for (const auto &[name, value] : values) {
        w.str(name);
        w.f64(value);
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
    if (!r.u32(count))
        return false;
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string name;
        double value = 0.0;
        if (!r.str(name) || !r.f64(value))
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
    w.u8(static_cast<std::uint8_t>(request.kind));
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
    if (!getKind(r, request.kind) || !get(r, request.config) ||
        !wireAccepts(request.config))
        return false;
    // Slice execution resumes/captures engine state, which only
    // single-channel devices support — reject, never FT_FATAL in the
    // driver's snapshot-knob check on a daemon.
    if (!get(r, request.channels) || request.channels != 1)
        return false;
    if (request.kind == SnapshotKind::synthetic) {
        if (!get(r, request.workload) ||
            !wireAccepts(request.workload))
            return false;
    } else {
        if (!getTrace(r, request.trace))
            return false;
    }
    if (!get(r, request.sliceCycles) || !get(r, request.runMaxCycles) ||
        !get(r, request.key) || !getStrictBool(r, request.hasSnapshot))
        return false;
    // The slice budget bounds what one frame can make a daemon
    // compute (the slice runs synchronously in the frame handler), so
    // an unbounded value is hostile by definition.
    if (request.sliceCycles < 1 ||
        request.sliceCycles > kMaxSliceCycles ||
        request.runMaxCycles < 1)
        return false;
    if (request.hasSnapshot &&
        !getEmbeddedSnapshot(r, request.kind, request.snapshot))
        return false;
    if (!r.atEnd())
        return false;
    out = std::move(request);
    return true;
}

std::vector<std::uint8_t>
encodeShardSliceResultPayload(const ShardSliceResult &result)
{
    net::WireWriter w;
    w.u8(static_cast<std::uint8_t>(result.kind));
    w.u8(result.done ? 1 : 0);
    if (result.kind == SnapshotKind::synthetic) {
        const std::vector<std::uint8_t> synth =
            encodeSynthResult(result.synth);
        w.u32(static_cast<std::uint32_t>(synth.size()));
        w.bytes(synth.data(), synth.size());
    } else {
        encodeNocStats(w, result.trace.stats);
        w.u64(result.trace.completion);
        w.u32(result.trace.pes);
        w.u8(result.trace.completed ? 1 : 0);
    }
    w.u8(result.hasSnapshot ? 1 : 0);
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
    if (!getKind(r, result.kind) || !getStrictBool(r, result.done))
        return false;
    if (result.kind == SnapshotKind::synthetic) {
        std::uint32_t bytes = 0;
        if (!r.u32(bytes) || bytes == 0 || bytes > r.remaining())
            return false;
        std::vector<std::uint8_t> raw(bytes);
        if (!r.bytes(raw.data(), raw.size()) ||
            !decodeSynthResult(raw, result.synth))
            return false;
    } else {
        if (!decodeNocStats(r, result.trace.stats) ||
            !r.u64(result.trace.completion) ||
            !r.u32(result.trace.pes) ||
            !getStrictBool(r, result.trace.completed))
            return false;
    }
    if (!getStrictBool(r, result.hasSnapshot))
        return false;
    // An unfinished slice must hand the continuation over; a finished
    // one must not — anything else is a lying peer.
    if (result.hasSnapshot == result.done)
        return false;
    if (result.hasSnapshot &&
        !getEmbeddedSnapshot(r, result.kind, result.snapshot))
        return false;
    if (!r.atEnd())
        return false;
    out = std::move(result);
    return true;
}

} // namespace fasttrack
