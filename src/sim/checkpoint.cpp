#include "sim/checkpoint.hpp"

#include <filesystem>
#include <limits>

#include "common/fnv1a.hpp"
#include "common/logging.hpp"
#include "net/codec.hpp"
#include "sim/run_codec.hpp"

namespace fasttrack {

namespace {

namespace fs = std::filesystem;

constexpr sched::KeyedFileFormat kSnapshotFormat{kCheckpointMagic,
                                                 kCheckpointSchema};
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

/** What a decoded injector state must hold beyond its field ranges:
 *  one source queue per node. */
bool
wellFormed(const InjectorState &st)
{
    return st.queues.size() == st.remaining.size();
}

/** What a decoded replay state must hold beyond its field ranges:
 *  every message id it names is below the message count. */
bool
wellFormed(const TraceReplayState &st)
{
    const std::size_t messages = st.pendingDeps.size();
    for (const auto &[cycle, id] : st.ready) {
        if (id >= messages)
            return false;
    }
    for (const auto &queue : st.sourceQueues) {
        for (std::uint64_t id : queue) {
            if (id >= messages)
                return false;
        }
    }
    return true;
}

} // namespace

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
    put(w, snap.kind);
    put(w, snap.runStart);
    encodeEngineState(w, snap.engine);
    if (snap.kind == SnapshotKind::synthetic)
        put(w, snap.injector);
    else
        put(w, snap.replay);
    return w.take();
}

bool
decodeSnapshot(const std::vector<std::uint8_t> &payload, Snapshot &out)
{
    out = Snapshot{};
    net::WireReader r(payload);
    if (!get(r, out.kind) || !get(r, out.runStart) ||
        !decodeEngineState(r, out.engine))
        return false;
    const bool driver = out.kind == SnapshotKind::synthetic
                            ? get(r, out.injector) && wellFormed(out.injector)
                            : get(r, out.replay) && wellFormed(out.replay);
    return driver && r.atEnd();
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

sched::KeyedFileStatus
writeSnapshotFile(const std::string &dir, std::uint64_t key,
                  const Snapshot &snap, std::string *path_out)
{
    const std::string name = snapshotFileName(snap.cycle());
    if (name.empty())
        return sched::KeyedFileStatus::ioError;
    const std::string path = (fs::path(dir) / name).string();
    const sched::KeyedFileStatus status = sched::writeKeyedFile(
        path, kSnapshotFormat, key, encodeSnapshot(snap));
    if (status == sched::KeyedFileStatus::ok && path_out)
        *path_out = path;
    return status;
}

sched::KeyedFileStatus
readSnapshotFile(const std::string &path, std::uint64_t expected_key,
                 Snapshot &out)
{
    std::vector<std::uint8_t> payload;
    const sched::KeyedFileStatus status =
        sched::readKeyedFile(path, kSnapshotFormat, expected_key, payload);
    if (status == sched::KeyedFileStatus::ok && !decodeSnapshot(payload, out))
        return sched::KeyedFileStatus::malformed;
    return status;
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
