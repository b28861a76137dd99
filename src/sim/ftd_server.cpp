#include "sim/ftd_server.hpp"

#include <utility>

#include "sched/work_stealing_pool.hpp"
#include "sim/remote.hpp"
#include "sim/run_codec.hpp"
#include "sim/sweep_cache.hpp"

namespace fasttrack {

namespace {

net::ServerConfig
withSweepSchema(net::ServerConfig config)
{
    config.schemaVersion = kSweepCacheSchema;
    return config;
}

} // namespace

FtdServer::FtdServer(net::ServerConfig config)
    : server_(withSweepSchema(std::move(config)), [this] {
          return [this, run = SessionRun{}](
                     std::vector<net::Frame> &&batch) mutable {
              return handle(std::move(batch), run);
          };
      })
{
}

bool
FtdServer::start(std::string &error)
{
    return server_.start(error);
}

void
FtdServer::stop()
{
    server_.stop();
}

std::uint16_t
FtdServer::boundPort() const
{
    return server_.boundPort();
}

void
FtdServer::reportTo(telemetry::MetricsRegistry &metrics) const
{
    telemetry::exportCounters(metrics, "ftd.", stats());
    telemetry::exportCounters(metrics, "ftd.net.", netStats());
    sweepCache().reportTo(metrics);
    sched::ensureGlobalPool().reportTo(metrics);
}

std::vector<net::Frame>
FtdServer::handle(std::vector<net::Frame> batch, SessionRun &run)
{
    struct Item
    {
        std::uint64_t requestId = 0;
        SweepRequest request;
        /** Sweep key, probed in the pre-pass. */
        std::uint64_t key = 0;
        /** Blob-cache payload when the pre-pass hit. */
        std::vector<std::uint8_t> cached;
        bool hit = false;
        bool bad = false;
        /** Temporal-shard slice (snapshotRequest or
         *  sliceContinuation); handled apart from the sweep points,
         *  in arrival order, response pre-built. */
        bool slice = false;
        net::Frame sliceResponse;
    };
    std::vector<Item> items(batch.size());

    // Decode + validate + cache pre-pass. The pre-pass both supplies
    // the response's cache-hit flag and lets hits skip the simulator
    // entirely (their payload bytes are spliced straight through).
    for (std::size_t i = 0; i < batch.size(); ++i) {
        Item &item = items[i];
        item.requestId = batch[i].requestId;
        if (batch[i].type == net::MessageType::snapshotRequest) {
            item.slice = true;
            item.sliceResponse = handleSlice(batch[i], run);
            continue;
        }
        if (batch[i].type == net::MessageType::sliceContinuation) {
            item.slice = true;
            item.sliceResponse = handleContinuation(batch[i], run);
            continue;
        }
        if (!decodeSweepRequestPayload(batch[i].payload,
                                       item.request)) {
            item.bad = true;
            counters_.bump(&Stats::badRequests);
            continue;
        }
        item.key = sweepKey(item.request);
        SynthResult decoded;
        if (auto payload = probeSweepCache(item.key, decoded)) {
            item.cached = std::move(*payload);
            item.hit = true;
        }
    }

    // Cache misses run as one pool item per request, in arrival
    // order, without a second probe. computePoints, not runPoints: a
    // handler must never re-enter remote dispatch, even when this
    // process also has remote endpoints configured (in-process
    // daemons in tests).
    std::vector<RunPoint> misses;
    std::vector<std::uint64_t> missKeys;
    for (const Item &item : items) {
        if (!item.bad && !item.hit && !item.slice) {
            misses.push_back(item.request);
            missKeys.push_back(item.key);
        }
    }
    const std::vector<SynthResult> computed =
        computePoints(misses, &missKeys);

    // Answer in arrival order, then append the telemetry epoch.
    std::vector<net::Frame> responses;
    responses.reserve(items.size() + 1);
    std::size_t next_miss = 0;
    for (Item &item : items) {
        if (item.slice) {
            responses.push_back(std::move(item.sliceResponse));
            continue;
        }
        if (item.bad) {
            responses.push_back(net::makeErrorFrame(
                item.requestId, net::kErrBadRequest,
                "malformed or invalid sweep request"));
            continue;
        }
        counters_.bump(&Stats::pointsServed);
        if (item.hit)
            counters_.bump(&Stats::cacheHits);
        net::Frame frame;
        frame.type = net::MessageType::sweepResult;
        frame.requestId = item.requestId;
        frame.payload = encodeSweepResultPayload(
            item.request.pointIndex, item.hit,
            item.hit ? std::move(item.cached)
                     : encodeSynthResult(computed[next_miss++]));
        responses.push_back(std::move(frame));
    }

    telemetry::MetricsRegistry registry;
    reportTo(registry);
    registry.snapshot(0);
    net::Frame epoch;
    epoch.type = net::MessageType::metricsEpoch;
    epoch.payload =
        encodeMetricsPayload(registry.epochs().back().values);
    responses.push_back(std::move(epoch));
    return responses;
}

net::Frame
FtdServer::reject(std::uint64_t request_id, const char *why)
{
    counters_.bump(&Stats::badRequests);
    return net::makeErrorFrame(request_id, net::kErrBadRequest, why);
}

net::Frame
FtdServer::handleSlice(const net::Frame &frame, SessionRun &run)
{
    ShardSliceRequest request;
    if (!decodeShardSliceRequestPayload(frame.payload, request))
        return reject(frame.requestId,
                      "malformed or invalid slice request");

    // Re-derive the checkpoint key from the inputs that actually
    // arrived: a snapshot may only continue exactly this run, so a
    // confused (or hostile) client gets a typed rejection instead of
    // a silently wrong continuation. The session keeps inputs only
    // once their key checks out, and never re-derives it.
    if (request.inputKey() != request.key)
        return reject(frame.requestId, "slice key mismatch");
    run = std::move(request);
    return serveSlice(*run, frame.requestId);
}

net::Frame
FtdServer::handleContinuation(const net::Frame &frame, SessionRun &run)
{
    if (!run)
        return reject(frame.requestId,
                      "slice continuation before the run's inputs");
    ShardSliceContinuation next;
    if (!decodeShardSliceContinuationPayload(frame.payload, next))
        return reject(frame.requestId, "malformed slice continuation");
    if (next.key != run->key)
        return reject(frame.requestId,
                      "slice continuation key is not its session's");
    if (next.snapshot.kind != run->kind)
        return reject(frame.requestId,
                      "slice continuation snapshot kind mismatch");
    run->hasSnapshot = true;
    run->snapshot = std::move(next.snapshot);
    return serveSlice(*run, frame.requestId);
}

net::Frame
FtdServer::serveSlice(const ShardSliceRequest &request,
                      std::uint64_t request_id)
{
    if (request.hasSnapshot &&
        request.snapshot.cycle() < request.snapshot.runStart)
        return reject(request_id,
                      "slice snapshot predates its run start");
    if (request.consumed() >= request.runMaxCycles)
        return reject(request_id, "slice starts at or past runMaxCycles");

    ShardSliceResult result;
    switch (runSlice(request, result)) {
    case SliceStatus::notResumed:
        return reject(request_id, "slice snapshot was not restorable");
    case SliceStatus::notCaptured:
        return reject(request_id, "slice state capture failed");
    case SliceStatus::ok:
        break;
    }
    counters_.bump(&Stats::slicesServed);

    net::Frame response;
    response.type = net::MessageType::snapshotResult;
    response.requestId = request_id;
    response.payload = encodeShardSliceResultPayload(result);
    return response;
}

} // namespace fasttrack
