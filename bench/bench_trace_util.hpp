/**
 * @file
 * Shared machinery for the Fig 15 accelerator-trace benches: run a
 * trace on baseline Hoplite and on each candidate FastTrack topology,
 * and report the best-FastTrack speedup, as the paper does.
 */

#ifndef FT_BENCH_BENCH_TRACE_UTIL_HPP
#define FT_BENCH_BENCH_TRACE_UTIL_HPP

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "sim/simulation.hpp"

namespace fasttrack::bench {

/** FastTrack configurations the paper would sweep for a given size. */
inline std::vector<NocConfig>
fastTrackCandidates(std::uint32_t n)
{
    std::vector<NocConfig> configs;
    if (n < 4) {
        configs.push_back(NocConfig::fastTrack(n, 1, 1));
        return configs;
    }
    configs.push_back(NocConfig::fastTrack(n, 2, 1));
    configs.push_back(NocConfig::fastTrack(n, 2, 2));
    if (n >= 8)
        configs.push_back(NocConfig::fastTrack(n, 3, 1));
    if (n >= 16)
        configs.push_back(NocConfig::fastTrack(n, 4, 1));
    return configs;
}

/** Outcome of one benchmark x PE-count cell. */
struct TraceSpeedup
{
    Cycle hopliteCycles = 0;
    Cycle bestFtCycles = 0;
    std::string bestConfig;

    double speedup() const
    {
        return bestFtCycles
                   ? static_cast<double>(hopliteCycles) /
                         static_cast<double>(bestFtCycles)
                   : 0.0;
    }
};

/** Rows of the flags traceSpeedup reads: --snapshot-every,
 *  --snapshot-dir, --resume and --shard-cycles. */
inline FlagTable
traceReplayFlags()
{
    HarnessFlags &values = harnessFlags();
    return {
        integerFlag("--snapshot-every", "N",
                    "checkpoint each trace replay every N cycles; see "
                    "docs/checkpoint.md",
                    values.snapshotEvery, 1)
            .needing("--snapshot-dir"),
        textFlag("--snapshot-dir", "DIR",
                 "root directory snapshot files are written under (one "
                 "subdirectory per run)",
                 values.snapshotDir),
        textFlag("--resume", "DIR",
                 "resume runs from the latest matching snapshot under "
                 "DIR (corrupt or missing snapshots fall back to a "
                 "fresh run)",
                 values.resumeDir),
        integerFlag("--shard-cycles", "N",
                    "run each trace replay as N-cycle temporal shards "
                    "across the --remote fleet; see docs/distributed.md",
                    values.shardCycles, 1, kMaxSliceCycles)
            .needing("--remote")
            .excluding({"--snapshot-every", "--resume"}),
    };
}

/** Replay @p trace on Hoplite and all FastTrack candidates (each
 *  candidate on its own core). Honours the --snapshot-every /
 *  --snapshot-dir / --resume harness flags: each (trace, config)
 *  replay checkpoints into — and resumes from — its own
 *  subdirectory, named from the trace and config labels. With
 *  --shard-cycles (which the flag table refuses beside the checkpoint
 *  flags) each replay instead runs as temporal shards across the
 *  --remote fleet — bit-identical to the local replay
 *  (docs/distributed.md). */
inline TraceSpeedup
traceSpeedup(const Trace &trace, Cycle max_cycles = 50'000'000)
{
    std::vector<NocConfig> configs{NocConfig::hoplite(trace.n)};
    for (const NocConfig &cfg : fastTrackCandidates(trace.n))
        configs.push_back(cfg);

    const HarnessFlags &flags = harnessFlags();
    const bool sharded = flags.shardCycles != 0 && remoteConfigured();
    const std::vector<Cycle> cycles = parallelMap(
        configs,
        [&](const NocConfig &cfg) {
            if (sharded) {
                RunRequest run;
                run.config = &cfg;
                run.trace = &trace;
                run.sim.maxCycles = max_cycles;
                return runShardedSim(run, flags.shardCycles)
                    .trace.completion;
            }
            const std::string run =
                fileSafeLabel(trace.name + "_" + cfg.describe());
            SimConfig sim{.maxCycles = max_cycles};
            if (flags.snapshotEvery != 0) {
                sim.snapshotEveryCycles = flags.snapshotEvery;
                sim.snapshotDir = flags.snapshotDir + "/" + run;
            }
            if (!flags.resumeDir.empty())
                sim.resumeFrom = flags.resumeDir + "/" + run;
            return runSim({.config = &cfg,
                           .trace = &trace,
                           .sim = sim})
                .trace.completion;
        },
        /*threads=*/0, "traceSpeedup");

    TraceSpeedup out;
    out.hopliteCycles = cycles[0];
    for (std::size_t i = 1; i < configs.size(); ++i) {
        if (out.bestFtCycles == 0 || cycles[i] < out.bestFtCycles) {
            out.bestFtCycles = cycles[i];
            out.bestConfig = configs[i].describe();
        }
    }
    return out;
}

} // namespace fasttrack::bench

#endif // FT_BENCH_BENCH_TRACE_UTIL_HPP
