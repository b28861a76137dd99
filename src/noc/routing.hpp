/**
 * @file
 * Routing policy of Hoplite and FastTrack routers (Sections IV-C/D),
 * expressed as pure functions from packet state to an *ordered
 * candidate list* of output ports. Arbitration walks these lists in
 * input-priority order, taking each packet's first free output.
 * CandidateTable runs that walk once per site kind, for every input
 * state, and the router (router.hpp's routeCore) looks the outcome up.
 *
 * Policy summary implemented here:
 *  - Dimension-ordered routing: X (East) before Y (South).
 *  - A packet rides an express lane only when it can reach its
 *    turn/exit column entirely within the express network
 *    (delta >= D and delta % D == 0, at an express-capable router).
 *  - Express -> short transitions only at turns: W_EX -> S_SH and
 *    N_EX -> E_SH.
 *  - Turn traffic beats ring traffic (W before N) for livelock
 *    avoidance; deflected N packets may take either E port.
 *  - Deflections onto an express lane are only *preferred* when the
 *    wraparound keeps the packet aligned (D | N); otherwise they are
 *    last-resort moves whose recovery paths are also encoded here
 *    (early-turn escape for W_EX, sanctioned E_SH escape for N_EX).
 */

#ifndef FT_NOC_ROUTING_HPP
#define FT_NOC_ROUTING_HPP

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/annotations.hpp"
#include "common/logging.hpp"
#include "noc/config.hpp"

namespace fasttrack {

/** Router input ports in descending arbitration priority (when the
 *  paper's turn-priority rule is active). */
enum class InPort : std::uint8_t
{
    wEx = 0, ///< West express (incoming X express link)
    nEx = 1, ///< North express (incoming Y express link)
    wSh = 2, ///< West short
    nSh = 3, ///< North short
    pe = 4,  ///< Client injection
};

/** Router output ports. */
enum class OutPort : std::uint8_t
{
    eEx = 0, ///< East express
    eSh = 1, ///< East short
    sEx = 2, ///< South express
    sSh = 3, ///< South short (shared with the client exit)
    none = 4,
};

inline constexpr std::size_t kNumInPorts = 5;
inline constexpr std::size_t kNumOutPorts = 4;

const char *toString(InPort p);
const char *toString(OutPort p);

inline bool
isExpress(OutPort p)
{
    return p == OutPort::eEx || p == OutPort::sEx;
}

inline bool
isExpress(InPort p)
{
    return p == InPort::wEx || p == InPort::nEx;
}

/** One routing option: an output port, possibly meaning "exit to the
 *  client here" when the packet is at its destination. */
struct Candidate
{
    OutPort out = OutPort::none;
    bool exit = false;
};

/** Small fixed-capacity ordered candidate list. */
class CandidateList
{
  public:
    void push(OutPort out, bool exit = false)
    {
        // Duplicate (port, exit) pairs are dropped, but an exit entry
        // does not shadow a later plain-forwarding entry on the same
        // port: when the client exit is unavailable the packet must
        // still be able to continue through that port.
        for (std::size_t i = 0; i < size_; ++i) {
            if (v_[i].out == out && v_[i].exit == exit)
                return;
        }
        FT_ASSERT(size_ < v_.size(), "candidate list overflow");
        v_[size_++] = Candidate{out, exit};
    }

    bool contains(OutPort out) const
    {
        for (std::size_t i = 0; i < size_; ++i) {
            if (v_[i].out == out)
                return true;
        }
        return false;
    }

    std::size_t size() const { return size_; }
    const Candidate &operator[](std::size_t i) const { return v_[i]; }

  private:
    std::array<Candidate, 8> v_{};
    std::size_t size_ = 0;
};

/** Static facts about one router needed by the policy. */
struct RouterSite
{
    std::uint32_t n = 0;
    std::uint32_t d = 0;
    NocVariant variant = NocVariant::hoplite;
    bool hasEx = false;       ///< X-dimension express ports exist here
    bool hasEy = false;       ///< Y-dimension express ports exist here
    bool wrapAligned = false; ///< D divides N
    bool allowExpressTurn = true;
    bool allowUpgrade = true;
};

/** Whether the hardware mux structure lets @p in drive @p out at this
 *  router (variant- and depopulation-aware). */
inline bool
physicallyReachable(const RouterSite &site, InPort in, OutPort out)
{
    // Port existence from depopulation.
    if ((out == OutPort::eEx && !site.hasEx) ||
        (out == OutPort::sEx && !site.hasEy)) {
        return false;
    }
    if ((in == InPort::wEx && !site.hasEx) ||
        (in == InPort::nEx && !site.hasEy)) {
        return false;
    }

    switch (site.variant) {
      case NocVariant::hoplite:
        return !isExpress(in) && !isExpress(out);

      case NocVariant::ftFull:
        switch (in) {
          case InPort::wEx:
            // Express continues E, or leaves at the turn (S_SH shared
            // exit) or stays express through the turn (S_EX).
            return out == OutPort::eEx || out == OutPort::sSh ||
                   out == OutPort::sEx;
          case InPort::nEx:
            // Express continues S (also the express exit tap), or
            // leaves/deflects East on either lane (N_EX -> E_SH is the
            // sanctioned transition; E_EX is the express deflection).
            return out == OutPort::sEx || out == OutPort::eSh ||
                   out == OutPort::eEx;
          case InPort::wSh:
          case InPort::nSh:
          case InPort::pe:
            return true; // full lane-change freedom
        }
        return false;

      case NocVariant::ftInject:
        // No lane crossing: express stays express, short stays short;
        // the PE can inject into either class.
        if (in == InPort::pe)
            return true;
        return isExpress(in) == isExpress(out);
    }
    return false;
}

/**
 * True when the packet can enter an express lane in the given
 * dimension: express ports present, and the remaining distance is an
 * exact multiple of D (so the ride ends exactly at the turn/exit).
 */
inline bool
expressEligible(const RouterSite &site, bool x_dim, std::uint32_t delta)
{
    const bool ports = x_dim ? site.hasEx : site.hasEy;
    return ports && site.d > 0 && delta >= site.d &&
           delta % site.d == 0;
}

namespace routing_detail {

/** Deflecting East onto the express lane keeps the packet aligned with
 *  the express network (it will return as a high-priority W_EX). */
inline bool
deflectExpressOk(const RouterSite &site, std::uint32_t dx)
{
    return site.hasEx && site.wrapAligned && site.d > 0 &&
           dx % site.d == 0;
}

/** Append every physically reachable output as a terminal fallback so
 *  the bufferless router can always forward. Short lanes first: they
 *  never break express alignment. */
inline void
appendPhysicalTail(const RouterSite &site, InPort in, CandidateList &c)
{
    static constexpr OutPort tail_order[] = {
        OutPort::eSh, OutPort::sSh, OutPort::eEx, OutPort::sEx};
    for (OutPort out : tail_order) {
        if (physicallyReachable(site, in, out))
            c.push(out);
    }
}

inline CandidateList
hopliteCandidates(InPort in, std::uint32_t dx, std::uint32_t dy)
{
    CandidateList c;
    if (dx > 0) {
        c.push(OutPort::eSh);
    } else if (dy > 0) {
        c.push(OutPort::sSh);
        c.push(OutPort::eSh); // classic N/W deflection East
    } else {
        c.push(OutPort::sSh, /*exit=*/true); // shared exit on S
        c.push(OutPort::eSh);
    }
    (void)in;
    return c;
}
// Note: the terminal physical tail is appended uniformly by
// routeCandidates so even exit-gated packets can always forward.

inline CandidateList
fullCandidates(const RouterSite &site, InPort in, std::uint32_t dx,
               std::uint32_t dy)
{
    const std::uint32_t d = site.d;
    CandidateList c;
    switch (in) {
      case InPort::wEx:
        if (dx >= d) {
            // Ride on (misaligned packets keep riding until the last
            // possible hop, then escape below).
            c.push(OutPort::eEx);
        } else if (dx > 0) {
            // Misaligned escape: early turn through the W_EX -> S_SH
            // mux; the packet re-enters the X ring from the N port.
            c.push(OutPort::sSh);
        } else if (dy == 0) {
            c.push(OutPort::sSh, /*exit=*/true);
        } else {
            if (site.allowExpressTurn && expressEligible(site, false, dy))
                c.push(OutPort::sEx);
            c.push(OutPort::sSh);
        }
        break;

      case InPort::nEx:
        if (dx > 0) {
            // Fallback-placed packet that still needs X progress:
            // rejoin the X ring (N_EX -> E_SH is the sanctioned turn).
            if (expressEligible(site, true, dx))
                c.push(OutPort::eEx);
            c.push(OutPort::eSh);
        } else if (dy == 0) {
            // Express exit tap shares the S_EX port.
            c.push(OutPort::sEx, /*exit=*/true);
            if (deflectExpressOk(site, dx))
                c.push(OutPort::eEx);
            c.push(OutPort::eSh);
        } else if (dy >= d && dy % d == 0) {
            c.push(OutPort::sEx);
            if (deflectExpressOk(site, dx))
                c.push(OutPort::eEx);
            c.push(OutPort::eSh);
        } else {
            // Misaligned or short remainder: sanctioned escape East on
            // the short lane, realign, and come back.
            c.push(OutPort::eSh);
        }
        break;

      case InPort::wSh:
        if (dx > 0) {
            if (site.allowUpgrade && expressEligible(site, true, dx))
                c.push(OutPort::eEx);
            c.push(OutPort::eSh);
        } else if (dy > 0) {
            if (site.allowUpgrade && expressEligible(site, false, dy))
                c.push(OutPort::sEx);
            c.push(OutPort::sSh);
            // Deflected turning W_SH may use E_EX and return as a
            // high-priority W_EX (paper Section IV-D).
            if (deflectExpressOk(site, dx))
                c.push(OutPort::eEx);
            c.push(OutPort::eSh);
        } else {
            c.push(OutPort::sSh, /*exit=*/true);
            if (deflectExpressOk(site, dx))
                c.push(OutPort::eEx);
            c.push(OutPort::eSh);
        }
        break;

      case InPort::nSh:
        if (dx > 0) {
            if (site.allowUpgrade && expressEligible(site, true, dx))
                c.push(OutPort::eEx);
            c.push(OutPort::eSh);
        } else if (dy > 0) {
            if (site.allowUpgrade && expressEligible(site, false, dy))
                c.push(OutPort::sEx);
            c.push(OutPort::sSh);
            c.push(OutPort::eSh); // classic N deflection East
        } else {
            c.push(OutPort::sSh, /*exit=*/true);
            c.push(OutPort::eSh);
        }
        break;

      case InPort::pe:
        FT_PANIC("PE handled by injectCandidates");
    }
    return c;
}

inline CandidateList
injectVariantCandidates(const RouterSite &site, InPort in,
                        std::uint32_t dx, std::uint32_t dy)
{
    const std::uint32_t d = site.d;
    CandidateList c;
    switch (in) {
      case InPort::wEx:
        if (dx >= d) {
            c.push(OutPort::eEx);
        } else if (dy == 0 && dx == 0) {
            c.push(OutPort::sEx, /*exit=*/true); // express exit tap
        } else if (site.hasEy) {
            c.push(OutPort::sEx); // turn within the express network
        }
        break;
      case InPort::nEx:
        // The East express deflection exists only where the router
        // actually has X express ports (depopulated sites do not).
        if (dx > 0) {
            // Pushed off its X ride onto the turn (only the ring-first
            // ablation order lets N_EX take E_EX from W_EX): rejoin
            // the X express ring. This router is not the packet's
            // destination, so the S_EX exit tap must not fire.
            if (site.hasEx)
                c.push(OutPort::eEx);
            c.push(OutPort::sEx);
        } else if (dy >= d && dy % d == 0) {
            c.push(OutPort::sEx);
            if (site.hasEx)
                c.push(OutPort::eEx);
        } else {
            c.push(OutPort::sEx, /*exit=*/dy == 0);
            if (site.hasEx)
                c.push(OutPort::eEx);
        }
        break;
      case InPort::wSh:
        if (dx > 0) {
            c.push(OutPort::eSh);
        } else if (dy > 0) {
            c.push(OutPort::sSh);
        } else {
            c.push(OutPort::sSh, /*exit=*/true);
            c.push(OutPort::eSh);
        }
        break;
      case InPort::nSh:
        if (dx > 0) {
            c.push(OutPort::eSh);
        } else if (dy > 0) {
            c.push(OutPort::sSh);
            c.push(OutPort::eSh);
        } else {
            c.push(OutPort::sSh, /*exit=*/true);
            c.push(OutPort::eSh);
        }
        break;
      case InPort::pe:
        FT_PANIC("PE handled by injectCandidates");
    }
    return c;
}

} // namespace routing_detail

/**
 * Ordered candidates for an in-flight packet on @p in with remaining
 * ring distances @p dx / @p dy. The list always ends with every
 * physically reachable output, so a bufferless router can forward the
 * packet no matter what higher-priority traffic took.
 * @param express_class inject-variant lane class of the packet.
 */
inline CandidateList
routeCandidates(const RouterSite &site, InPort in, std::uint32_t dx,
                std::uint32_t dy, bool express_class)
{
    FT_ASSERT(in != InPort::pe, "use injectCandidates for PE");
    CandidateList c;
    switch (site.variant) {
      case NocVariant::hoplite:
        c = routing_detail::hopliteCandidates(in, dx, dy);
        break;
      case NocVariant::ftFull:
        c = routing_detail::fullCandidates(site, in, dx, dy);
        break;
      case NocVariant::ftInject:
        (void)express_class;
        c = routing_detail::injectVariantCandidates(site, in, dx, dy);
        break;
    }
    routing_detail::appendPhysicalTail(site, in, c);
    return c;
}

/**
 * Ordered *productive* candidates for PE injection (no deflection
 * entries: Hoplite blocks injection rather than deflecting it).
 * @param[out] express_class set when the inject variant admits the
 *             packet to the express class.
 */
inline CandidateList
injectCandidates(const RouterSite &site, std::uint32_t dx,
                 std::uint32_t dy, bool &express_class)
{
    CandidateList c;
    express_class = false;
    FT_ASSERT(dx > 0 || dy > 0, "self-addressed packets bypass the NoC");

    switch (site.variant) {
      case NocVariant::hoplite:
        c.push(dx > 0 ? OutPort::eSh : OutPort::sSh);
        break;

      case NocVariant::ftFull:
        if (dx > 0) {
            if (expressEligible(site, true, dx))
                c.push(OutPort::eEx);
            c.push(OutPort::eSh);
        } else {
            if (expressEligible(site, false, dy))
                c.push(OutPort::sEx);
            c.push(OutPort::sSh);
        }
        break;

      case NocVariant::ftInject: {
        // Express only when the whole journey, including the exit tap,
        // stays inside the express network: both distances multiples
        // of D, and the source row carries Y express links (the turn
        // and exit rows inherit alignment because R | D).
        const bool ok_x = dx == 0 || (site.hasEx && dx % site.d == 0);
        const bool ok_y = dy % site.d == 0;
        const bool whole_trip = site.hasEy && ok_x && ok_y;
        if (whole_trip) {
            express_class = true;
            c.push(dx > 0 ? OutPort::eEx : OutPort::sEx);
        } else {
            c.push(dx > 0 ? OutPort::eSh : OutPort::sSh);
        }
        break;
      }
    }
    return c;
}

/**
 * Arbitration decisions of one router site kind, precomputed.
 *
 * Every candidate builder above depends on a ring distance only
 * through four *distance classes* (zero, short-of-D, aligned
 * multiple-of-D, misaligned beyond-D), never through the raw value,
 * and never on N or on D itself. So the whole per-packet outcome of
 * the greedy walk is a pure function of (input port, dx class, dy
 * class, taken-outputs mask), exactly as the router is a few LUTs in
 * the FPGA (Table I). The table stores that function: one decision
 * byte per (row, taken mask), where a row is (input port, dx class,
 * dy class), plus each row's exit port and a (dx class, dy class,
 * taken mask) table for PE injection. routeCore does one lookup per
 * packet instead of walking a candidate list.
 *
 * A table depends only on the site's variant and five booleans
 * (kindOf), so each of the at most kKinds tables is built once per
 * process, from canonical class representatives, and shared by every
 * router of every device (forSite). The lookups that depend on N and
 * D, from a destination to its classes, belong to the device
 * (RingClasses in router.hpp).
 */
class CandidateTable
{
  public:
    /** Decision byte: the winning output port... */
    static constexpr std::uint8_t kPortMask = 0x03;
    /** ...whether it was not the first candidate (a deflection)... */
    static constexpr std::uint8_t kDeflect = 0x04;
    /** ...an express first choice that got a short lane... */
    static constexpr std::uint8_t kLane = 0x08;
    /** ...a direction that makes no DOR progress... */
    static constexpr std::uint8_t kMisroute = 0x10;
    /** ...an express output... */
    static constexpr std::uint8_t kExpress = 0x20;
    /** ...(injection) admission to the inject variant's express
     *  class... */
    static constexpr std::uint8_t kExpressClass = 0x40;
    /** ...or: every candidate's output is taken. */
    static constexpr std::uint8_t kNone = 0x80;

    /** Distinct tables: 3 variants x 2^5 site booleans. */
    static constexpr std::size_t kKinds = 96;

    /** Distance class of @p delta for express spacing @p d. */
    static std::uint8_t classOf(std::uint32_t delta, std::uint32_t d)
    {
        if (delta == 0)
            return 0;
        if (d == 0 || delta < d)
            return 1;
        return delta % d == 0 ? 2 : 3;
    }

    /** Table index of @p site: its variant and the five booleans. */
    static std::size_t kindOf(const RouterSite &site);

    /** The process-wide table of @p site's kind, built on first use
     *  (thread-safe) and never freed. */
    static const CandidateTable &forSite(const RouterSite &site);

    /** Row of an in-flight packet on input @p in. */
    FT_HOT static std::size_t row(std::size_t in, std::uint8_t dx_cls,
                                  std::uint8_t dy_cls)
    {
        return (in * 4 + dx_cls) * 4 + dy_cls;
    }

    /** The row's client-exit candidate, or OutPort::none. An exit is
     *  always a list's first entry; the router tries it before the
     *  decision byte, which then covers the entries after it. */
    FT_HOT OutPort exitPort(std::size_t row) const { return exit_[row]; }

    /** Decision for the row's packet given the taken outputs (bit i =
     *  OutPort i). */
    FT_HOT std::uint8_t route(std::size_t row, unsigned taken) const
    {
        return route_[row * 16 + taken];
    }

    /** Decision for a PE injection (no exit, no deflection entries). */
    FT_HOT std::uint8_t inject(std::uint8_t dx_cls, std::uint8_t dy_cls,
                               unsigned taken) const
    {
        return inject_[(static_cast<std::size_t>(dx_cls) * 4 + dy_cls) *
                           16 +
                       taken];
    }

  private:
    /** Build every entry for @p site from class representatives. */
    explicit CandidateTable(const RouterSite &site);

    std::array<std::uint8_t, 4 * 4 * 4 * 16> route_{};
    std::array<OutPort, 4 * 4 * 4> exit_{};
    std::array<std::uint8_t, 4 * 4 * 16> inject_{};
};

} // namespace fasttrack

#endif // FT_NOC_ROUTING_HPP
