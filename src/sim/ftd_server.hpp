/**
 * @file
 * The ftd daemon's sweep service: a net::FrameServer whose handler
 * turns sweepRequest frames into SynthResults.
 *
 * Each drained batch is answered in arrival order — one sweepResult
 * (or error) frame per request — followed by exactly one
 * metricsEpoch frame carrying the daemon's current telemetry
 * (sweep-cache, pool and ftd counters), so clients can aggregate
 * fleet health without a separate monitoring channel.
 *
 * Requests are validated before they touch the simulator: a frame
 * that decodes but carries an invalid NocConfig/workload gets a
 * kErrBadRequest error frame, never a daemon abort. Valid points that
 * miss the blob cache run as one work-stealing-pool item each, in
 * arrival order, through computePoints — the same pool and cache
 * local sweeps use, with no second probe of the key the pre-pass
 * missed. A warm daemon answers straight from its cache, flagged via
 * the response's cache-hit bit.
 *
 * snapshotRequest frames carry one temporal-shard slice of a long
 * run (docs/distributed.md, "Temporal sharding"): the daemon resumes
 * from the embedded trimmed snapshot, advances sliceCycles, and
 * answers with the slice's stats plus the next trimmed snapshot. The
 * session then keeps that request's inputs, key checked once, and
 * serves each later sliceContinuation (key + snapshot) of the same
 * run from them. Nothing outlives the session, so the daemon is
 * stateless across sessions and any daemon of the fleet can serve
 * any slice.
 */

#ifndef FT_SIM_FTD_SERVER_HPP
#define FT_SIM_FTD_SERVER_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/counters.hpp"
#include "net/server.hpp"
#include "telemetry/metrics.hpp"

namespace fasttrack {

struct ShardSliceRequest;

class FtdServer
{
  public:
    /** @p config.schemaVersion is overwritten with the sweep-cache
     *  schema: a daemon always speaks the schema it was built with. */
    explicit FtdServer(net::ServerConfig config = {});

    /** Bind and start serving; false (with @p error) on failure. */
    bool start(std::string &error);
    void stop();

    /** Actual bound port (after start; useful with port 0). */
    std::uint16_t boundPort() const;

    /** Sweep-service counters (a counter set, common/counters.hpp;
     *  frame-level ones via netStats). */
    struct Stats
    {
        /** Points answered with a sweepResult frame. */
        std::uint64_t pointsServed = 0;
        /** Of those, answered from the blob cache. */
        std::uint64_t cacheHits = 0;
        /** Requests rejected as malformed or invalid. */
        std::uint64_t badRequests = 0;
        /** Temporal-shard slices answered with a snapshotResult. */
        std::uint64_t slicesServed = 0;

        /** Exported as ftd.points_served, ... */
        static constexpr CounterField<Stats> kCounters[] = {
            {&Stats::pointsServed, "points_served"},
            {&Stats::cacheHits, "cache_hits"},
            {&Stats::badRequests, "bad_requests"},
            {&Stats::slicesServed, "slices_served"},
        };
    };
    Stats stats() const { return counters_.snapshot(); }
    net::ServerStats netStats() const { return server_.stats(); }

    /** Publish ftd.* and ftd.net.* counters plus cache + pool metrics
     *  (the same registry snapshot streamed as metricsEpoch). */
    void reportTo(telemetry::MetricsRegistry &metrics) const;

  private:
    /** What a session holds between its slices: the inputs of the run
     *  its last key-checked snapshotRequest carried. */
    using SessionRun = std::optional<ShardSliceRequest>;

    std::vector<net::Frame> handle(std::vector<net::Frame> batch,
                                   SessionRun &run);
    /** Take one temporal-shard slice (snapshotRequest frame) with the
     *  run's inputs: check its key, keep the inputs as the session's
     *  run, and serve it. */
    net::Frame handleSlice(const net::Frame &frame, SessionRun &run);
    /** Serve a later slice of the session's run (sliceContinuation
     *  frame) once its key and snapshot kind are the run's. */
    net::Frame handleContinuation(const net::Frame &frame,
                                  SessionRun &run);
    /** Check @p request's snapshot range, run it through runSlice, and
     *  answer with the slice's stats + next snapshot. */
    net::Frame serveSlice(const ShardSliceRequest &request,
                          std::uint64_t request_id);
    /** A kErrBadRequest answer to @p request_id, counted. */
    net::Frame reject(std::uint64_t request_id, const char *why);

    /** Before server_, so it outlives the sessions that bump it. */
    CounterTally<Stats> counters_;
    net::FrameServer server_;
};

} // namespace fasttrack

#endif // FT_SIM_FTD_SERVER_HPP
