/**
 * @file
 * The one keyed-file container, shared by the result cache's entries
 * (sched/blob_cache.hpp, 'FTRC') and the snapshot files
 * (sim/checkpoint.hpp, 'FTCP'). Every field is explicit little-endian
 * (net/wire.hpp), so a file written on one host validates on any
 * other:
 *
 *   u32 magic   u32 schemaVersion   u64 key
 *   u64 payloadBytes   payload...   u64 fnv1a(payload)
 *
 * A read re-validates magic, schema, key, length and the trailing
 * self-check hash and reports the first failure as a typed status; it
 * never allocates from a length field, only for bytes the file holds.
 * A write goes to a per-process temp file renamed into place, so a
 * reader (or a crash mid-write) never sees a half-written file, and a
 * failed write or rename removes the temp file.
 */

#ifndef FT_SCHED_KEYED_FILE_HPP
#define FT_SCHED_KEYED_FILE_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fasttrack::sched {

/** Which store a keyed file belongs to. */
struct KeyedFileFormat
{
    std::uint32_t magic = 0;
    std::uint32_t schema = 0;
};

/** Bytes the container adds around a payload. */
inline constexpr std::size_t kKeyedFileOverheadBytes = 32;

/** Typed verdict of a keyed-file read or write. */
enum class KeyedFileStatus
{
    ok,
    /** File missing or unreadable, or the write failed. */
    ioError,
    /** Shorter than the header + declared payload + trailer. */
    truncated,
    badMagic,
    badSchema,
    /** The file is for a different key (different run inputs). */
    badKey,
    /** Payload self-check hash mismatch (corruption). */
    badChecksum,
    /** Bytes past the trailer, or (reported by the store) a payload
     *  that passed the container checks but does not decode. */
    malformed,
};

const char *toString(KeyedFileStatus status);

/** Write @p payload under @p key to @p path, creating its directory. */
KeyedFileStatus writeKeyedFile(const std::string &path,
                               const KeyedFileFormat &format,
                               std::uint64_t key,
                               const std::vector<std::uint8_t> &payload);

/** Read and validate @p path; on ok, @p payload holds its payload. */
KeyedFileStatus readKeyedFile(const std::string &path,
                              const KeyedFileFormat &format,
                              std::uint64_t key,
                              std::vector<std::uint8_t> &payload);

} // namespace fasttrack::sched

#endif // FT_SCHED_KEYED_FILE_HPP
