/**
 * @file
 * Per-source FIFOs for the traffic drivers: ChunkedQueue keeps its
 * entries in fixed-size chunks that a ChunkArena hands out and
 * recycles, so a queue that empties and refills allocates nothing
 * after warm-up.
 */

#ifndef FT_TRAFFIC_CHUNKED_QUEUE_HPP
#define FT_TRAFFIC_CHUNKED_QUEUE_HPP

#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace fasttrack {

/**
 * Fixed-slot-size allocator carving chunk storage out of 2 MiB
 * blocks, with a free list shared by every queue using the arena.
 * Blocks are not hugepage-advised: that measured no faster even on
 * BM_NetworkStep's unbounded backlogs, and with transparent huge
 * pages in madvise mode it kept a whole 2 MiB resident for every live
 * sweep injector, whose backlog touches a fraction of one block.
 */
class ChunkArena
{
  public:
    explicit ChunkArena(std::size_t slot_bytes)
        : slotBytes_((slot_bytes + 63) & ~std::size_t{63})
    {
    }
    ~ChunkArena()
    {
        for (void *b : blocks_)
            std::free(b);
    }
    ChunkArena(const ChunkArena &) = delete;
    ChunkArena &operator=(const ChunkArena &) = delete;

    void *allocate()
    {
        if (!freeSlots_.empty()) {
            void *p = freeSlots_.back();
            freeSlots_.pop_back();
            return p;
        }
        if (remaining_ < slotBytes_)
            grow();
        void *p = bump_;
        bump_ += slotBytes_;
        remaining_ -= slotBytes_;
        return p;
    }

    void release(void *p) { freeSlots_.push_back(p); }

  private:
    static constexpr std::size_t kBlockBytes = std::size_t{2} << 20;

    void grow();

    std::size_t slotBytes_;
    std::vector<void *> blocks_;
    std::vector<void *> freeSlots_;
    char *bump_ = nullptr;
    std::size_t remaining_ = 0;
};

/**
 * Unbounded FIFO stored in fixed-size chunks: the per-source backlog
 * of the synthetic injector and of the trace replayer. Pushes are
 * sequential writes into a large chunk (one allocation per kChunk
 * entries, recycled through the arena's shared free list), pops are
 * an index bump, and — unlike a head-indexed vector — entries are
 * never moved when the queue grows.
 *
 * Chunk storage is raw bytes that push_back constructs entries into:
 * allocating a chunk initialises nothing. That matters at low
 * injection rates, where a queue empties after almost every packet
 * and so takes and recycles a whole chunk per packet.
 */
template <typename T>
class ChunkedQueue
{
  public:
    /** @param arena chunk storage provider; must outlive the queue. */
    explicit ChunkedQueue(ChunkArena &arena) : arena_(&arena) {}
    ChunkedQueue(ChunkedQueue &&other) noexcept
        : arena_(other.arena_),
          chunks_(std::move(other.chunks_)),
          headChunk_(other.headChunk_),
          headOff_(other.headOff_),
          tailOff_(other.tailOff_),
          count_(other.count_)
    {
        other.chunks_.clear();
        other.headChunk_ = 0;
        other.headOff_ = 0;
        other.tailOff_ = kChunk;
        other.count_ = 0;
    }
    ChunkedQueue(const ChunkedQueue &) = delete;
    ChunkedQueue &operator=(const ChunkedQueue &) = delete;
    ~ChunkedQueue()
    {
        for (Chunk *c : chunks_) {
            if (c)
                freeChunk(c);
        }
    }

    /** Slot size an arena serving this queue type must be built with. */
    static constexpr std::size_t chunkBytes()
    {
        return sizeof(Chunk);
    }

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    const T &front() const { return chunks_[headChunk_]->entry(headOff_); }

    /** Visit every queued entry front to back without consuming it
     *  (checkpoint capture walks the backlog this way). */
    template <typename F>
    void forEach(F &&fn) const
    {
        std::size_t left = count_;
        std::size_t off = headOff_;
        for (std::size_t ci = headChunk_; left > 0; ++ci, off = 0) {
            const Chunk &c = *chunks_[ci];
            const std::size_t end = off + left < kChunk ? off + left
                                                        : kChunk;
            for (std::size_t i = off; i < end; ++i, --left)
                fn(c.entry(i));
        }
    }

    void push_back(const T &v)
    {
        if (tailOff_ == kChunk) {
            chunks_.push_back(newChunk());
            tailOff_ = 0;
        }
        ::new (chunks_.back()->bytes + tailOff_++ * sizeof(T)) T(v);
        ++count_;
    }

    void pop_front()
    {
        ++headOff_;
        --count_;
        if (count_ == 0) {
            // Fully drained: only the back chunk is still live (any
            // consumed predecessors were already recycled).
            freeChunk(chunks_.back());
            chunks_.clear();
            headChunk_ = 0;
            headOff_ = 0;
            tailOff_ = kChunk;
            return;
        }
        if (headOff_ == kChunk) {
            freeChunk(chunks_[headChunk_]);
            chunks_[headChunk_] = nullptr;
            ++headChunk_;
            headOff_ = 0;
            if (headChunk_ >= 64) {
                // Compact the consumed chunk-pointer prefix (pointer
                // moves only; entry storage never relocates).
                chunks_.erase(chunks_.begin(),
                              chunks_.begin() +
                                  static_cast<std::ptrdiff_t>(headChunk_));
                headChunk_ = 0;
            }
        }
    }

  private:
    static constexpr std::size_t kChunk = 512;

    struct Chunk
    {
        alignas(T) unsigned char bytes[kChunk * sizeof(T)];

        /** Entry @p i, which push_back must already have built. */
        const T &entry(std::size_t i) const
        {
            return *std::launder(reinterpret_cast<const T *>(bytes) + i);
        }
    };
    // The guard on chunk allocation: default-initialising a Chunk
    // must compile to nothing, or every chunk taken from the arena is
    // a kChunk-entry fill before its first push.
    static_assert(std::is_trivially_default_constructible_v<Chunk>,
                  "allocating a chunk must not initialise its entries");
    // Chunks are recycled with their entries still in them.
    static_assert(std::is_trivially_destructible_v<T>,
                  "queued entries are never destroyed one by one");

    Chunk *newChunk() { return ::new (arena_->allocate()) Chunk; }

    void freeChunk(Chunk *c) { arena_->release(c); }

    ChunkArena *arena_;
    std::vector<Chunk *> chunks_;
    std::size_t headChunk_ = 0;
    std::size_t headOff_ = 0;
    std::size_t tailOff_ = kChunk;
    std::size_t count_ = 0;
};

} // namespace fasttrack

#endif // FT_TRAFFIC_CHUNKED_QUEUE_HPP
