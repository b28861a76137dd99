#include "traffic/chunked_queue.hpp"

#include "common/logging.hpp"

namespace fasttrack {

void
ChunkArena::grow()
{
    FT_ASSERT(slotBytes_ <= kBlockBytes, "arena slot larger than block");
    void *b = std::aligned_alloc(kBlockBytes, kBlockBytes);
    FT_ASSERT(b != nullptr, "arena block allocation failed");
    blocks_.push_back(b);
    bump_ = static_cast<char *>(b);
    remaining_ = kBlockBytes;
}

} // namespace fasttrack
