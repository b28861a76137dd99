/**
 * @file
 * Config-file experiment runner: describe a NoC and a synthetic
 * workload in a key=value file and get the full measurement row --
 * scripting without recompilation.
 *
 * Run: ./run_experiment <config-file>
 *
 * Example config:
 *
 *     # 8x8 FastTrack under random traffic
 *     noc      = ft-full     # hoplite | ft-full | ft-inject
 *     n        = 8
 *     d        = 2
 *     r        = 1
 *     channels = 1
 *     pattern  = RANDOM      # RANDOM | LOCAL | BITCOMPL | TRANSPOSE
 *     rate     = 0.5
 *     packets  = 1024
 *     seed     = 1
 *     width    = 256         # datapath bits for the cost models
 *     short_stages   = 0     # extra link pipeline registers
 *     express_stages = 0
 */

#include <iostream>
#include <limits>
#include <string>

#include "common/config_file.hpp"
#include "common/flags.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "fpga/power_model.hpp"
#include "sim/remote.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep_cache.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    SimConfig sim;
    Cycle shard_cycles = 0;
    const FlagTable flags = {
        toggleFlag("--csv", "emit the table as CSV (for scripting)",
                   [] { Table::setCsvMode(true); }),
        remoteFlag("run the point on ftd daemons (unreachable workers "
                   "fall back to local execution)"),
        integerFlag("--shard-cycles", "N",
                    "run as N-cycle temporal shards across the --remote "
                    "fleet",
                    shard_cycles, 1, kMaxSliceCycles)
            .needing("--remote")
            .excluding({"--snapshot-every", "--resume"}),
        integerFlag("--snapshot-every", "N",
                    "write a snapshot every N cycles",
                    sim.snapshotEveryCycles, 1)
            .needing("--snapshot-dir"),
        textFlag("--snapshot-dir", "DIR", "directory snapshots go to",
                 sim.snapshotDir),
        textFlag("--resume", "DIR",
                 "resume from the latest snapshot in DIR, or from a "
                 "snapshot file",
                 sim.resumeFrom),
        integerFlag("--max-cycles", "N", "whole-run cycle guard",
                    sim.maxCycles, 1),
    };
    if (argc < 2) {
        std::cerr << flagUsage(argv[0], flags, "<config-file>");
        return 2;
    }
    parseFlagsOrExit(flags, argc, argv, 2, "<config-file>");
    const KeyValueFile kv = KeyValueFile::parseFile(argv[1]);

    // Numbers follow the flag table's decimal rule, in the range the
    // library accepts; a bad value exits 2 naming its key.
    const auto n = kv.number<std::uint32_t>("n", 8, 2, kMaxTraceSide);
    const std::string kind = kv.getString("noc", "ft-full");
    NocConfig cfg = NocConfig::hoplite(n);
    if (kind == "ft-full" || kind == "ft-inject") {
        const NocVariant variant = kind == "ft-inject"
                                       ? NocVariant::ftInject
                                       : NocVariant::ftFull;
        const auto d = kv.number<std::uint32_t>("d", 2, 1, n / 2);
        const auto r = kv.number<std::uint32_t>("r", 1, 1, n / 2);
        // At R = 1 only the rules on D apply.
        kv.check("d", NocConfig{.n = n, .d = d, .r = 1, .variant = variant}
                          .validationError());
        kv.check("r", NocConfig{.n = n, .d = d, .r = r, .variant = variant}
                          .validationError());
        cfg = NocConfig::fastTrack(n, d, r, variant);
    } else if (kind != "hoplite") {
        FT_FATAL("unknown noc kind: ", kind);
    }
    cfg.shortLinkStages = kv.number<std::uint32_t>("short_stages", 0, 0, 8);
    cfg.expressLinkStages =
        kv.number<std::uint32_t>("express_stages", 0, 0, 8);

    SyntheticWorkload workload;
    workload.pattern =
        patternFromString(kv.getString("pattern", "RANDOM"));
    workload.injectionRate = kv.number<double>("rate", 0.5, 0.001, 1.0);
    workload.packetsPerPe = kv.number<std::uint32_t>(
        "packets", 1024, 1, std::numeric_limits<std::uint32_t>::max());
    workload.seed = kv.number<std::uint64_t>(
        "seed", 1, 0, std::numeric_limits<std::uint64_t>::max());

    // The wire carries at most 64 channels (sim/run_codec.cpp).
    const auto channels = kv.number<std::uint32_t>("channels", 1, 1, 64);
    const auto width = kv.number<std::uint32_t>(
        "width", 256, 1, std::numeric_limits<std::uint32_t>::max());

    const bool checkpointing =
        sim.snapshotEveryCycles != 0 || !sim.resumeFrom.empty();
    if (shard_cycles != 0 && channels != 1) {
        std::cerr << "run_experiment: --shard-cycles needs channels = 1\n";
        return 2;
    }

    auto noc = makeNoc(cfg, channels);
    SynthResult res;
    if (shard_cycles != 0) {
        // Temporal sharding: the run travels as checkpoint slices
        // across the --remote daemons; merged stats are bit-identical
        // to the uninterrupted local run (docs/distributed.md).
        RunRequest run;
        run.config = &cfg;
        run.channels = channels;
        run.workload = &workload;
        run.sim.maxCycles = sim.maxCycles;
        res = runShardedSim(run, shard_cycles).synth;
        const RemoteStats rs = remoteStats();
        std::cerr << "shard: " << rs.slicesRemote << " slice(s) remote, "
                  << rs.slicesFallback << " local\n";
    } else if (checkpointing) {
        // The checkpoint path runs the point directly (the sweep
        // cache would bypass anyway) so snapshots are written and a
        // --resume continues bit-identically where the last one left
        // off (docs/checkpoint.md).
        const RunResult run = runSim({.config = &cfg,
                                      .channels = channels,
                                      .workload = &workload,
                                      .sim = sim});
        res = run.synth;
        if (run.resumed)
            std::cerr << "checkpoint: resumed at cycle "
                      << run.resumedAtCycle << "\n";
        std::cerr << "checkpoint: wrote " << run.snapshotsWritten
                  << " snapshot(s)\n";
    } else {
        // runPoints computes the identical result (bit for bit)
        // whether it runs here, on the pool, or on a --remote daemon.
        res = runPoints({{cfg, channels, workload, sim.maxCycles}})
                  .front();
    }

    AreaModel area;
    PowerModel power(area);
    const NocSpec spec = cfg.toSpec(width, channels);
    const NocCost cost = area.nocCost(spec);
    const double activity =
        res.stats.linkActivity(noc->linkCount(), res.cycles);

    Table table(cfg.describe() + (channels > 1 ? " x" +
                    std::to_string(channels) : "") +
                ", " + toString(workload.pattern) + " @" +
                Table::num(workload.injectionRate, 2));
    table.setHeader({"metric", "value"});
    table.addRow({"completed", res.completed ? "yes" : "NO"});
    table.addRow({"cycles", Table::num(res.cycles)});
    table.addRow({"sustained rate (pkt/cyc/PE)",
                  Table::num(res.sustainedRate(), 4)});
    table.addRow({"avg latency (cyc)", Table::num(res.avgLatency(), 1)});
    table.addRow({"p99 latency",
                  Table::num(res.stats.totalLatency.percentile(99))});
    table.addRow({"worst latency", Table::num(res.worstLatency())});
    table.addRow({"misroutes", Table::num(res.stats.totalMisroutes())});
    table.addRow({"express hop share %",
                  Table::num(
                      res.stats.shortHopTraversals +
                              res.stats.expressHopTraversals
                          ? 100.0 *
                                static_cast<double>(
                                    res.stats.expressHopTraversals) /
                                static_cast<double>(
                                    res.stats.shortHopTraversals +
                                    res.stats.expressHopTraversals)
                          : 0.0, 1)});
    table.addRow({"LUTs", Table::num(cost.luts)});
    table.addRow({"FFs", Table::num(cost.ffs)});
    table.addRow({"clock (MHz)", Table::num(cost.frequencyMhz, 0)});
    table.addRow({"bandwidth (Mpkts/s)",
                  Table::num(res.sustainedRate() * cfg.pes() *
                                 cost.frequencyMhz, 1)});
    table.addRow({"power (W)",
                  Table::num(power.dynamicPowerW(spec, activity), 2)});
    table.addRow({"energy (mJ)",
                  Table::num(power.energyJ(spec,
                                           static_cast<double>(
                                               res.cycles),
                                           activity) * 1e3, 3)});
    table.print(std::cout);
    return res.completed ? 0 : 1;
}
