/**
 * @file
 * Shared FNV-1a hashing of NocStats for golden-equivalence tests.
 *
 * Used by test_golden_stats.cpp (fixed-seed pins of the engine) and
 * the checkpoint/sharding resume-equivalence tests. The hash covers
 * every NocStats counter and histogram.
 */

#ifndef FT_TESTS_GOLDEN_HASH_HPP
#define FT_TESTS_GOLDEN_HASH_HPP

#include <cstdint>

#include "noc/noc_stats.hpp"

namespace fasttrack {

/** FNV-1a over a stream of 64-bit words. */
class StatHash
{
  public:
    void add(std::uint64_t word)
    {
        hash_ ^= word;
        hash_ *= 0x100000001b3ull;
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

inline std::uint64_t
hashStats(const NocStats &s)
{
    StatHash h;
    h.add(s.injected);
    h.add(s.delivered);
    h.add(s.selfDelivered);
    h.add(s.shortHopTraversals);
    h.add(s.expressHopTraversals);
    for (std::uint64_t v : s.deflectionsByPort)
        h.add(v);
    for (std::uint64_t v : s.misroutesByPort)
        h.add(v);
    h.add(s.laneDeflections);
    h.add(s.exitBlocked);
    h.add(s.injectionBlockedCycles);
    for (const Histogram *hist :
         {&s.totalLatency, &s.networkLatency, &s.hopCount,
          &s.deflectionCount}) {
        h.add(hist->count());
        for (const auto &[value, count] : hist->bins()) {
            h.add(value);
            h.add(count);
        }
    }
    return h.value();
}

} // namespace fasttrack

#endif // FT_TESTS_GOLDEN_HASH_HPP
