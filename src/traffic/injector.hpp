/**
 * @file
 * Synthetic open/closed-loop traffic injection: every PE generates a
 * fixed budget of packets (the paper uses 1K packets/PE) as a
 * Bernoulli process at a configured injection rate, queues them at the
 * source, and offers them to the NoC.
 */

#ifndef FT_TRAFFIC_INJECTOR_HPP
#define FT_TRAFFIC_INJECTOR_HPP

#include <array>
#include <concepts>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <vector>

#include "noc/noc_device.hpp"
#include "traffic/pattern.hpp"

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
 * Unbounded FIFO stored in fixed-size chunks. Source queues are
 * touched for every node on every cycle, so this is sized for the
 * injector's access pattern: pushes are sequential writes into a large
 * chunk (one allocation per kChunk entries, recycled through the
 * arena's shared free list), pops are an index bump, and — unlike a
 * head-indexed vector — entries are never moved when the queue grows.
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
    ChunkedQueue() = default;
    /** @param arena chunk storage provider; must outlive the queue.
     *  Without one, chunks come from the global heap. */
    explicit ChunkedQueue(ChunkArena *arena) : arena_(arena) {}
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

    Chunk *newChunk()
    {
        void *mem = arena_ ? arena_->allocate()
                           : ::operator new(sizeof(Chunk));
        return ::new (mem) Chunk;
    }

    void freeChunk(Chunk *c)
    {
        if (arena_)
            arena_->release(c);
        else
            ::operator delete(c);
    }

    ChunkArena *arena_ = nullptr;
    std::vector<Chunk *> chunks_;
    std::size_t headChunk_ = 0;
    std::size_t headOff_ = 0;
    std::size_t tailOff_ = kChunk;
    std::size_t count_ = 0;
};

/**
 * Compact queued-packet record of the injector backlogs. Only
 * identity, destination and the creation stamp exist before
 * injection; materializing the full Packet lazily at offer time
 * halves the memory traffic of a deep source backlog.
 */
struct PendingPacket
{
    std::uint64_t id = 0;
    Cycle created = 0;
    NodeId dst = kInvalidNode;
};

/** Parameters of one synthetic run. */
struct SyntheticWorkload
{
    TrafficPattern pattern = TrafficPattern::random;
    /** Packet-generation probability per PE per cycle (0..1]. */
    double injectionRate = 0.1;
    /** Closed-workload budget per PE (paper: 1024). */
    std::uint32_t packetsPerPe = 1024;
    /** LOCAL pattern neighbourhood radius. */
    std::uint32_t localRadius = 2;
    std::uint64_t seed = 1;
};

/** Hand every SyntheticWorkload field to @p f, in declaration order
 *  (see visitFields(NocConfig) in noc/config.hpp). */
template <typename Workload, typename F>
    requires std::same_as<std::remove_const_t<Workload>,
                          SyntheticWorkload>
decltype(auto)
visitFields(Workload &workload, F &&f)
{
    auto &[pattern, injectionRate, packetsPerPe, localRadius, seed] =
        workload;
    return f(pattern, injectionRate, packetsPerPe, localRadius, seed);
}

/**
 * Serializable state of one SyntheticInjector (sim/checkpoint.hpp):
 * the RNG stream, per-node generation budgets and source backlogs,
 * and the id/generation counters. Everything else the injector holds
 * is re-derived from the workload at construction.
 */
struct InjectorState
{
    /** xoshiro256** generator words. */
    std::array<std::uint64_t, 4> rng{};
    /** Per-node packets still to generate. */
    std::vector<std::uint32_t> remaining;
    /** Per-node source backlog, front first. */
    std::vector<std::vector<PendingPacket>> queues;
    std::uint64_t nextId = 1;
    std::uint64_t generatedTotal = 0;
};

/**
 * Drives a NocDevice with a SyntheticWorkload. Call tick() once per
 * cycle *before* the device's step(); poll done() to finish.
 */
class SyntheticInjector
{
  public:
    SyntheticInjector(NocDevice &noc, const SyntheticWorkload &workload);

    /** Generate this cycle's packets and top up per-node offers. */
    void tick();

    /** All packets generated, offered, injected and delivered. */
    bool done() const;

    /** Packets still waiting in source queues (not yet offered). */
    std::uint64_t queued() const { return queuedTotal_; }
    std::uint64_t generated() const { return generatedTotal_; }
    std::uint64_t budget() const { return budgetTotal_; }

    /** Capture the injector's complete dynamic state (always
     *  succeeds; the bool mirrors the device-side convention). */
    bool captureState(InjectorState &out) const;
    /** Replay a captured state; false when the node count does not
     *  match this injector's device. Generation then continues
     *  bit-identically with the uninterrupted run. */
    bool restoreState(const InjectorState &st);

  private:
    using Pending = PendingPacket;

    NocDevice &noc_;
    SyntheticWorkload workload_;
    DestinationGenerator destGen_;
    /** Rng::bernoulliThreshold of the injection rate. */
    std::uint64_t injectThreshold_;
    Rng rng_;
    std::vector<std::uint32_t> remaining_;
    /** Declared before queues_ so every queue dies first. */
    ChunkArena chunkArena_{ChunkedQueue<Pending>::chunkBytes()};
    std::vector<ChunkedQueue<Pending>> queues_;
    std::uint64_t nextId_ = 1;
    std::uint64_t generatedTotal_ = 0;
    std::uint64_t queuedTotal_ = 0;
    std::uint64_t budgetTotal_ = 0;
};

} // namespace fasttrack

#endif // FT_TRAFFIC_INJECTOR_HPP
