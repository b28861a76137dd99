#include "sim/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <limits>
#include <unistd.h>

#include "common/fnv1a.hpp"
#include "common/logging.hpp"
#include "sim/run_codec.hpp"

namespace fasttrack {

namespace {

namespace fs = std::filesystem;

constexpr char kSnapPrefix[] = "ft-snap-";
constexpr char kSnapSuffix[] = ".ftcp";
/** Fixed-width cycle field: u64 max is 20 decimal digits, so names
 *  sort identically as strings and as numbers. */
constexpr std::size_t kCycleDigits = 20;
// The "string order == cycle order" invariant (and the name-length
// filter in findLatestSnapshot) holds only while every possible
// Cycle fits the fixed width. If Cycle ever widens, this is the one
// place that must grow with it.
static_assert(std::numeric_limits<Cycle>::digits10 + 1 <=
                  kCycleDigits,
              "kCycleDigits cannot represent every Cycle value");

void
encodeInjectorState(net::WireWriter &w, const InjectorState &st)
{
    for (std::uint64_t word : st.rng)
        w.u64(word);
    w.u32(static_cast<std::uint32_t>(st.remaining.size()));
    for (std::uint32_t v : st.remaining)
        w.u32(v);
    w.u32(static_cast<std::uint32_t>(st.queues.size()));
    for (const auto &q : st.queues) {
        w.u32(static_cast<std::uint32_t>(q.size()));
        for (const PendingPacket &rec : q) {
            w.u64(rec.id);
            w.u64(rec.created);
            w.u32(rec.dst);
        }
    }
    w.u64(st.nextId);
    w.u64(st.generatedTotal);
}

bool
decodeInjectorState(net::WireReader &r, InjectorState &st)
{
    st = InjectorState{};
    for (std::uint64_t &word : st.rng) {
        if (!r.u64(word))
            return false;
    }
    std::uint32_t nodes = 0;
    if (!r.u32(nodes) || nodes > r.remaining() / 4)
        return false;
    st.remaining.resize(nodes);
    for (std::uint32_t &v : st.remaining) {
        if (!r.u32(v))
            return false;
    }
    std::uint32_t queue_count = 0;
    if (!r.u32(queue_count) || queue_count != nodes)
        return false;
    st.queues.resize(queue_count);
    for (auto &q : st.queues) {
        std::uint32_t len = 0;
        // Each record is 20 encoded bytes; reject a hostile length
        // before allocating for it.
        if (!r.u32(len) || len > r.remaining() / 20)
            return false;
        q.resize(len);
        for (PendingPacket &rec : q) {
            if (!r.u64(rec.id) || !r.u64(rec.created) ||
                !r.u32(rec.dst))
                return false;
        }
    }
    return r.u64(st.nextId) && r.u64(st.generatedTotal);
}

void
encodeTraceReplayState(net::WireWriter &w, const TraceReplayState &st)
{
    w.u32(static_cast<std::uint32_t>(st.pendingDeps.size()));
    for (std::uint32_t v : st.pendingDeps)
        w.u32(v);
    w.u32(static_cast<std::uint32_t>(st.ready.size()));
    for (const auto &[cycle, id] : st.ready) {
        w.u64(cycle);
        w.u64(id);
    }
    w.u32(static_cast<std::uint32_t>(st.sourceQueues.size()));
    for (const auto &q : st.sourceQueues) {
        w.u32(static_cast<std::uint32_t>(q.size()));
        for (std::uint64_t id : q)
            w.u64(id);
    }
    w.u64(st.deliveredCount);
    w.u64(st.injectedCount);
    w.u64(st.lastDelivery);
}

bool
decodeTraceReplayState(net::WireReader &r, TraceReplayState &st)
{
    st = TraceReplayState{};
    std::uint32_t messages = 0;
    if (!r.u32(messages) || messages > r.remaining() / 4)
        return false;
    st.pendingDeps.resize(messages);
    for (std::uint32_t &v : st.pendingDeps) {
        if (!r.u32(v))
            return false;
    }
    std::uint32_t ready_count = 0;
    if (!r.u32(ready_count) || ready_count > r.remaining() / 16)
        return false;
    st.ready.resize(ready_count);
    for (auto &[cycle, id] : st.ready) {
        if (!r.u64(cycle) || !r.u64(id) || id >= messages)
            return false;
    }
    std::uint32_t source_count = 0;
    if (!r.u32(source_count) || source_count > r.remaining() / 4)
        return false;
    st.sourceQueues.resize(source_count);
    for (auto &q : st.sourceQueues) {
        std::uint32_t len = 0;
        if (!r.u32(len) || len > r.remaining() / 8)
            return false;
        q.resize(len);
        for (std::uint64_t &id : q) {
            if (!r.u64(id) || id >= messages)
                return false;
        }
    }
    return r.u64(st.deliveredCount) && r.u64(st.injectedCount) &&
           r.u64(st.lastDelivery);
}

} // namespace

const char *
toString(SnapshotStatus s)
{
    switch (s) {
    case SnapshotStatus::ok:
        return "ok";
    case SnapshotStatus::ioError:
        return "io-error";
    case SnapshotStatus::truncated:
        return "truncated";
    case SnapshotStatus::badMagic:
        return "bad-magic";
    case SnapshotStatus::badSchema:
        return "bad-schema";
    case SnapshotStatus::badKey:
        return "bad-key";
    case SnapshotStatus::badChecksum:
        return "bad-checksum";
    case SnapshotStatus::malformed:
        return "malformed";
    }
    return "unknown";
}

std::uint64_t
checkpointKey(const NocConfig &config, std::uint32_t channels,
              const SyntheticWorkload &workload)
{
    return contentKey(kCheckpointSchema, SnapshotKind::synthetic, config,
                      channels, workload);
}

std::uint64_t
checkpointKey(const NocConfig &config, std::uint32_t channels,
              const Trace &trace)
{
    Fnv1a h;
    const auto add = [&h](const auto &...in) { (addKeyWords(h, in), ...); };
    // The messages key as a vector of {id, fields, deps} records:
    // the count, then each record.
    add(kCheckpointSchema, SnapshotKind::trace, config, channels, trace.n,
        trace.messages.size());
    trace.forEachMessage(add);
    return h.value();
}

std::vector<std::uint8_t>
encodeSnapshot(const Snapshot &snap)
{
    net::WireWriter w;
    w.u8(static_cast<std::uint8_t>(snap.kind));
    w.u64(snap.runStart);
    encodeEngineState(w, snap.engine);
    if (snap.kind == SnapshotKind::synthetic)
        encodeInjectorState(w, snap.injector);
    else
        encodeTraceReplayState(w, snap.replay);
    return w.take();
}

bool
decodeSnapshot(const std::vector<std::uint8_t> &payload, Snapshot &out)
{
    out = Snapshot{};
    net::WireReader r(payload);
    std::uint8_t kind = 0;
    if (!r.u8(kind) ||
        (kind != static_cast<std::uint8_t>(SnapshotKind::synthetic) &&
         kind != static_cast<std::uint8_t>(SnapshotKind::trace)))
        return false;
    out.kind = static_cast<SnapshotKind>(kind);
    if (!r.u64(out.runStart) || !decodeEngineState(r, out.engine))
        return false;
    if (out.kind == SnapshotKind::synthetic) {
        if (!decodeInjectorState(r, out.injector))
            return false;
    } else {
        if (!decodeTraceReplayState(r, out.replay))
            return false;
    }
    return r.atEnd();
}

std::string
snapshotFileName(Cycle cycle)
{
    std::string digits = std::to_string(cycle);
    // Statically impossible while the static_assert above holds, but
    // a silent wider-than-field name would break the lexicographic
    // ordering contract and be skipped by findLatestSnapshot's
    // length filter — refuse rather than emit a broken name.
    if (digits.size() > kCycleDigits)
        return std::string();
    return kSnapPrefix +
           std::string(kCycleDigits - digits.size(), '0') + digits +
           kSnapSuffix;
}

SnapshotStatus
writeSnapshotFile(const std::string &dir, std::uint64_t key,
                  const Snapshot &snap, std::string *path_out)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        return SnapshotStatus::ioError;

    const std::vector<std::uint8_t> payload = encodeSnapshot(snap);
    Fnv1a check;
    check.addBytes(payload.data(), payload.size());

    net::WireWriter w;
    w.u32(kCheckpointMagic);
    w.u32(kCheckpointSchema);
    w.u64(key);
    w.u64(payload.size());
    w.bytes(payload.data(), payload.size());
    w.u64(check.value());

    const std::string name = snapshotFileName(snap.cycle());
    if (name.empty())
        return SnapshotStatus::ioError;
    const std::string path = (fs::path(dir) / name).string();
    // Temp-then-rename so a reader never sees a half-written file.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return SnapshotStatus::ioError;
        os.write(reinterpret_cast<const char *>(w.buffer().data()),
                 static_cast<std::streamsize>(w.size()));
        os.close();
        if (!os) {
            fs::remove(tmp, ec);
            return SnapshotStatus::ioError;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return SnapshotStatus::ioError;
    }
    if (path_out)
        *path_out = path;
    return SnapshotStatus::ok;
}

SnapshotStatus
readSnapshotFile(const std::string &path, std::uint64_t expected_key,
                 Snapshot &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return SnapshotStatus::ioError;
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    if (is.bad())
        return SnapshotStatus::ioError;

    net::WireReader r(bytes);
    std::uint32_t magic = 0, schema = 0;
    std::uint64_t key = 0, payload_bytes = 0;
    if (!r.u32(magic))
        return SnapshotStatus::truncated;
    if (magic != kCheckpointMagic)
        return SnapshotStatus::badMagic;
    if (!r.u32(schema))
        return SnapshotStatus::truncated;
    if (schema != kCheckpointSchema)
        return SnapshotStatus::badSchema;
    if (!r.u64(key))
        return SnapshotStatus::truncated;
    if (key != expected_key)
        return SnapshotStatus::badKey;
    if (!r.u64(payload_bytes))
        return SnapshotStatus::truncated;
    if (r.remaining() < payload_bytes + 8)
        return SnapshotStatus::truncated;
    if (r.remaining() != payload_bytes + 8)
        return SnapshotStatus::malformed; // trailing garbage

    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(payload_bytes));
    if (!r.bytes(payload.data(), payload.size()))
        return SnapshotStatus::truncated;
    std::uint64_t stored_check = 0;
    if (!r.u64(stored_check))
        return SnapshotStatus::truncated;
    Fnv1a check;
    check.addBytes(payload.data(), payload.size());
    if (check.value() != stored_check)
        return SnapshotStatus::badChecksum;

    if (!decodeSnapshot(payload, out))
        return SnapshotStatus::malformed;
    return SnapshotStatus::ok;
}

std::string
findLatestSnapshot(const std::string &dir)
{
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec)
        return "";
    std::string best_name;
    fs::path best_path;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() !=
                sizeof(kSnapPrefix) - 1 + kCycleDigits +
                    sizeof(kSnapSuffix) - 1 ||
            name.rfind(kSnapPrefix, 0) != 0 ||
            name.find(kSnapSuffix,
                      name.size() - (sizeof(kSnapSuffix) - 1)) ==
                std::string::npos)
            continue;
        bool digits_ok = true;
        for (std::size_t i = sizeof(kSnapPrefix) - 1;
             i < sizeof(kSnapPrefix) - 1 + kCycleDigits; ++i)
            digits_ok = digits_ok && name[i] >= '0' && name[i] <= '9';
        if (!digits_ok)
            continue;
        // Fixed-width zero-padded cycle: string order == cycle order.
        if (best_name.empty() || name > best_name) {
            best_name = name;
            best_path = entry.path();
        }
    }
    return best_name.empty() ? "" : best_path.string();
}

} // namespace fasttrack
