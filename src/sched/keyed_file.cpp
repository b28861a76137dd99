#include "sched/keyed_file.hpp"

#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "common/fnv1a.hpp"
#include "net/wire.hpp"

namespace fasttrack::sched {

namespace fs = std::filesystem;

const char *
toString(KeyedFileStatus status)
{
    switch (status) {
    case KeyedFileStatus::ok:
        return "ok";
    case KeyedFileStatus::ioError:
        return "io-error";
    case KeyedFileStatus::truncated:
        return "truncated";
    case KeyedFileStatus::badMagic:
        return "bad-magic";
    case KeyedFileStatus::badSchema:
        return "bad-schema";
    case KeyedFileStatus::badKey:
        return "bad-key";
    case KeyedFileStatus::badChecksum:
        return "bad-checksum";
    case KeyedFileStatus::malformed:
        return "malformed";
    }
    return "unknown";
}

KeyedFileStatus
writeKeyedFile(const std::string &path, const KeyedFileFormat &format,
               std::uint64_t key, const std::vector<std::uint8_t> &payload)
{
    std::error_code ec;
    const fs::path dir = fs::path(path).parent_path();
    if (!dir.empty()) {
        fs::create_directories(dir, ec);
        if (ec)
            return KeyedFileStatus::ioError;
    }

    net::WireWriter w;
    w.u32(format.magic);
    w.u32(format.schema);
    w.u64(key);
    w.u64(payload.size());
    w.bytes(payload.data(), payload.size());
    Fnv1a check;
    check.addBytes(payload.data(), payload.size());
    w.u64(check.value());

    // The temp name is per process, so two processes sharing a store
    // never interleave their writes.
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return KeyedFileStatus::ioError;
        os.write(reinterpret_cast<const char *>(w.buffer().data()),
                 static_cast<std::streamsize>(w.size()));
        os.close();
        if (!os) {
            fs::remove(tmp, ec);
            return KeyedFileStatus::ioError;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return KeyedFileStatus::ioError;
    }
    return KeyedFileStatus::ok;
}

KeyedFileStatus
readKeyedFile(const std::string &path, const KeyedFileFormat &format,
              std::uint64_t key, std::vector<std::uint8_t> &payload)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return KeyedFileStatus::ioError;
    // Size the read by the file itself; a directory or special file
    // has no size and reads as empty.
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(path, ec);
    std::vector<std::uint8_t> bytes(ec ? 0 : static_cast<std::size_t>(size));
    is.read(reinterpret_cast<char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    bytes.resize(static_cast<std::size_t>(is.gcount()));

    net::WireReader r(bytes);
    std::uint32_t magic = 0, schema = 0;
    std::uint64_t stored_key = 0, length = 0;
    if (!r.u32(magic))
        return KeyedFileStatus::truncated;
    if (magic != format.magic)
        return KeyedFileStatus::badMagic;
    if (!r.u32(schema))
        return KeyedFileStatus::truncated;
    if (schema != format.schema)
        return KeyedFileStatus::badSchema;
    if (!r.u64(stored_key))
        return KeyedFileStatus::truncated;
    if (stored_key != key)
        return KeyedFileStatus::badKey;
    if (!r.u64(length))
        return KeyedFileStatus::truncated;
    if (length > r.remaining() || r.remaining() - length < 8)
        return KeyedFileStatus::truncated;
    if (r.remaining() - length != 8)
        return KeyedFileStatus::malformed; // trailing garbage

    const std::uint8_t *start = bytes.data() + r.pos();
    const auto end = start + static_cast<std::size_t>(length);
    std::uint64_t recorded = 0;
    net::WireReader(end, 8).u64(recorded);
    Fnv1a check;
    check.addBytes(start, static_cast<std::size_t>(length));
    if (check.value() != recorded)
        return KeyedFileStatus::badChecksum;
    payload.assign(start, end);
    return KeyedFileStatus::ok;
}

} // namespace fasttrack::sched
