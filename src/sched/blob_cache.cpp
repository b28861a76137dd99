#include "sched/blob_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "sched/keyed_file.hpp"

namespace fasttrack::sched {

namespace {

constexpr std::uint32_t kMagic = 0x43525446u; // "FTRC" little-endian

std::string
hexKey(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

bool
isEntryFile(const std::filesystem::directory_entry &entry)
{
    if (!entry.is_regular_file())
        return false;
    const std::string name = entry.path().filename().string();
    return name.size() == 24 && name.rfind("ft-", 0) == 0 &&
           name.compare(name.size() - 5, 5, ".ftrc") == 0;
}

} // namespace

BlobCache::BlobCache(std::string name, std::uint32_t schemaVersion)
    : name_(std::move(name)), schema_(schemaVersion)
{
}

void
BlobCache::setDir(std::string dir)
{
    MutexLock lk(mutex_);
    if (dir != dir_) {
        dir_ = std::move(dir);
        diskScanned_ = false;
        diskBytes_ = 0;
    }
}

std::string
BlobCache::dir() const
{
    MutexLock lk(mutex_);
    return dir_;
}

void
BlobCache::setMaxDiskBytes(std::uint64_t max_bytes)
{
    MutexLock lk(mutex_);
    maxDiskBytes_ = max_bytes;
}

std::uint64_t
BlobCache::diskBytes() const
{
    MutexLock lk(mutex_);
    if (dir_.empty())
        return 0;
    ensureDiskScanned();
    return diskBytes_;
}

void
BlobCache::ensureDiskScanned() const
{
    if (diskScanned_ || dir_.empty())
        return;
    diskScanned_ = true;
    diskBytes_ = 0;
    // A not-yet-created directory iterates as empty (ec set).
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (!isEntryFile(entry))
            continue;
        std::error_code sec;
        const auto size = entry.file_size(sec);
        if (!sec)
            diskBytes_ += size;
    }
}

std::uint64_t
BlobCache::memoryBytes() const
{
    MutexLock lk(mutex_);
    return memBytes_;
}

std::string
BlobCache::entryPath(std::uint64_t key) const
{
    MutexLock lk(mutex_);
    if (dir_.empty())
        return {};
    return dir_ + "/ft-" + hexKey(key) + ".ftrc";
}

std::optional<std::vector<std::uint8_t>>
BlobCache::lookup(std::uint64_t key)
{
    {
        MutexLock lk(mutex_);
        auto it = mem_.find(key);
        if (it != mem_.end()) {
            counters_.bump(&Stats::hits);
            return it->second.payload;
        }
    }
    if (auto fromDisk = loadDiskEntry(key)) {
        counters_.bump(&Stats::hits);
        counters_.bump(&Stats::diskHits);
        MutexLock lk(mutex_);
        insertMemory(key, *fromDisk);
        return fromDisk;
    }
    counters_.bump(&Stats::misses);
    return std::nullopt;
}

void
BlobCache::store(std::uint64_t key, std::vector<std::uint8_t> payload)
{
    counters_.bump(&Stats::stores);
    std::string dir;
    {
        MutexLock lk(mutex_);
        dir = dir_;
        insertMemory(key, payload);
    }
    if (!dir.empty())
        writeDiskEntry(key, payload);
}

void
BlobCache::insertMemory(std::uint64_t key,
                        std::vector<std::uint8_t> payload)
{
    memBytes_ += payload.size();
    auto [it, fresh] = mem_.try_emplace(key);
    if (fresh) {
        it->second.order = memOrder_.insert(memOrder_.end(), key);
    } else {
        memBytes_ -= it->second.payload.size();
        memOrder_.splice(memOrder_.end(), memOrder_, it->second.order);
    }
    it->second.payload = std::move(payload);
    // The newest entry is last in the order, so it is never reached.
    while (memBytes_ > kMemoryBudgetBytes && memOrder_.size() > 1) {
        auto victim = mem_.find(memOrder_.front());
        memBytes_ -= victim->second.payload.size();
        mem_.erase(victim);
        memOrder_.pop_front();
        counters_.bump(&Stats::memoryEvictions);
    }
}

void
BlobCache::clearMemory()
{
    MutexLock lk(mutex_);
    mem_.clear();
    memOrder_.clear();
    memBytes_ = 0;
}

std::optional<std::vector<std::uint8_t>>
BlobCache::loadDiskEntry(std::uint64_t key)
{
    const std::string path = entryPath(key);
    if (path.empty())
        return std::nullopt;
    std::vector<std::uint8_t> payload;
    const KeyedFileStatus status =
        readKeyedFile(path, {kMagic, schema_}, key, payload);
    if (status == KeyedFileStatus::ok)
        return payload;
    // An absent entry is a plain miss; any other failure is corrupt.
    if (status != KeyedFileStatus::ioError)
        counters_.bump(&Stats::corrupt);
    return std::nullopt;
}

void
BlobCache::writeDiskEntry(std::uint64_t key,
                          const std::vector<std::uint8_t> &payload)
{
    const std::string path = entryPath(key);
    if (path.empty())
        return;
    // The size of the entry this write replaces, or 0 when none.
    std::error_code ec;
    std::uint64_t replaced = std::filesystem::file_size(path, ec);
    if (ec)
        replaced = 0;
    // An unwritable store degrades the cache to memory-only.
    if (writeKeyedFile(path, {kMagic, schema_}, key, payload) !=
        KeyedFileStatus::ok)
        return;
    counters_.bump(&Stats::diskWrites);

    bool over_cap = false;
    {
        MutexLock lk(mutex_);
        if (diskScanned_) {
            diskBytes_ += payload.size() + kKeyedFileOverheadBytes;
            diskBytes_ -= std::min(diskBytes_, replaced);
        } else {
            ensureDiskScanned(); // the scan already sees this entry
        }
        over_cap = maxDiskBytes_ != 0 && diskBytes_ > maxDiskBytes_;
    }
    if (over_cap)
        evictOverCap(path);
}

void
BlobCache::evictOverCap(const std::string &keep_path)
{
    // Snapshot the store (oldest write first), then delete under the
    // mutex so two overflowing writers do not double-count.
    std::string dir;
    std::uint64_t cap = 0;
    {
        MutexLock lk(mutex_);
        dir = dir_;
        cap = maxDiskBytes_;
    }
    if (dir.empty() || cap == 0)
        return;

    struct DiskEntry
    {
        std::filesystem::path path;
        std::uint64_t size = 0;
        std::filesystem::file_time_type mtime;
    };
    std::vector<DiskEntry> entries;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!isEntryFile(entry))
            continue;
        std::error_code sec;
        DiskEntry de;
        de.path = entry.path();
        de.size = entry.file_size(sec);
        if (sec)
            continue;
        de.mtime = entry.last_write_time(sec);
        if (sec)
            continue;
        entries.push_back(std::move(de));
    }
    if (ec)
        return;
    std::sort(entries.begin(), entries.end(),
              [](const DiskEntry &a, const DiskEntry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path; // tie-break: stable order
              });

    MutexLock lk(mutex_);
    // Recompute from the snapshot: sizes may have drifted while
    // unlocked (another process sharing the store).
    std::uint64_t total = 0;
    for (const DiskEntry &entry : entries)
        total += entry.size;
    diskBytes_ = total;
    for (const DiskEntry &entry : entries) {
        if (diskBytes_ <= maxDiskBytes_)
            break;
        if (entry.path == keep_path)
            continue; // never evict the entry just written
        std::error_code rec;
        if (std::filesystem::remove(entry.path, rec) && !rec) {
            diskBytes_ -= entry.size;
            counters_.bump(&Stats::evictions);
        }
    }
}

void
BlobCache::reportTo(telemetry::MetricsRegistry &metrics) const
{
    telemetry::exportCounters(metrics, name_ + ".", stats());
    metrics.gauge(name_ + ".disk_bytes") =
        static_cast<double>(diskBytes());
    metrics.gauge(name_ + ".memory_bytes") =
        static_cast<double>(memoryBytes());
}

} // namespace fasttrack::sched
