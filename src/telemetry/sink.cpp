#include "telemetry/sink.hpp"

#include <chrono>

#include "common/logging.hpp"

namespace fasttrack::telemetry {

const char *
toString(EventKind kind)
{
    switch (kind) {
    case EventKind::inject:
        return "inject";
    case EventKind::route:
        return "route";
    case EventKind::expressHop:
        return "express_hop";
    case EventKind::deflect:
        return "deflect";
    case EventKind::eject:
        return "eject";
    case EventKind::backlogStall:
        return "backlog_stall";
    }
    return "unknown";
}

namespace {

std::atomic<TraceSink *> g_sink{nullptr};
std::atomic<std::uint64_t> g_sinkEpoch{1};

std::uint64_t
wallMicros()
{
    // Host profiling only: phase spans are presentation artifacts and
    // never feed simulated results (see docs/observability.md).
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() // ft-lint: allow(ft-nondeterminism)
                .time_since_epoch())
            .count());
}

} // namespace

TraceSink::TraceSink(TelemetryConfig config)
    : config_(std::move(config)),
      epochId_(g_sinkEpoch.fetch_add(1, std::memory_order_relaxed)),
      startUs_(wallMicros())
{
    FT_ASSERT(config_.ringCapacity >= 2, "telemetry ring too small");
    FT_ASSERT(config_.epoch >= 1, "telemetry epoch must be positive");
}

TraceSink::~TraceSink()
{
    if (installed() == this)
        uninstall(this);
}

ThreadLog &
TraceSink::local()
{
    thread_local std::uint64_t bound_epoch = 0;
    thread_local ThreadLog *bound_log = nullptr;
    if (bound_epoch != epochId_) {
        MutexLock lock(mutex_);
        logs_.push_back(std::make_unique<ThreadLog>(
            static_cast<std::uint32_t>(logs_.size()),
            config_.ringCapacity, config_.traceEvents));
        bound_log = logs_.back().get();
        bound_epoch = epochId_;
    }
    return *bound_log;
}

void
TraceSink::recordPhase(const std::string &name, std::uint64_t start_us,
                       std::uint64_t duration_us)
{
    MutexLock lock(mutex_);
    phases_.push_back(PhaseSpan{name, start_us, duration_us, 0});
}

std::uint64_t
TraceSink::hostNowUs() const
{
    return wallMicros() - startUs_;
}

std::size_t
TraceSink::threadCount() const
{
    MutexLock lock(mutex_);
    return logs_.size();
}

const ThreadLog &
TraceSink::threadLog(std::size_t i) const
{
    MutexLock lock(mutex_);
    FT_ASSERT(i < logs_.size(), "bad thread-log index");
    return *logs_[i];
}

ThreadLog &
TraceSink::threadLog(std::size_t i)
{
    MutexLock lock(mutex_);
    FT_ASSERT(i < logs_.size(), "bad thread-log index");
    return *logs_[i];
}

std::vector<std::uint64_t>
TraceSink::totalLinkCounts() const
{
    MutexLock lock(mutex_);
    std::vector<std::uint64_t> total;
    for (const auto &log : logs_) {
        const auto &counts = log->linkCounts();
        if (counts.size() > total.size())
            total.resize(counts.size(), 0);
        for (std::size_t i = 0; i < counts.size(); ++i)
            total[i] += counts[i];
    }
    return total;
}

std::uint64_t
TraceSink::totalDropped() const
{
    MutexLock lock(mutex_);
    std::uint64_t total = 0;
    for (const auto &log : logs_)
        total += log->ring().dropped();
    return total;
}

std::vector<TraceSink::PhaseSpan>
TraceSink::phases() const
{
    MutexLock lock(mutex_);
    return phases_;
}

void
install(TraceSink *sink)
{
    FT_ASSERT(sink != nullptr, "cannot install a null telemetry sink");
    TraceSink *expected = nullptr;
    const bool ok = g_sink.compare_exchange_strong(
        expected, sink, std::memory_order_release,
        std::memory_order_relaxed);
    FT_ASSERT(ok, "a telemetry sink is already installed; "
                  "sessions must not overlap");
}

void
uninstall(TraceSink *sink)
{
    TraceSink *expected = sink;
    const bool ok = g_sink.compare_exchange_strong(
        expected, nullptr, std::memory_order_release,
        std::memory_order_relaxed);
    FT_ASSERT(ok, "uninstalling a telemetry sink that is not installed");
}

TraceSink *
installed()
{
    return g_sink.load(std::memory_order_acquire);
}

} // namespace fasttrack::telemetry
