/**
 * @file
 * Config-file experiment runner: describe a NoC and a synthetic
 * workload in a key=value file and get the full measurement row --
 * scripting without recompilation. The keys are rows of a flag table
 * (common/flags.hpp), so an unknown key or a bad value exits 2 naming
 * it.
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
#include <string>

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

    // The config file's keys are rows of a flag table: a value takes
    // its row's parse and range check, and an unknown key, a malformed
    // line or a bad value exits 2 naming it.
    NocConfig want{.variant = NocVariant::ftFull};
    SyntheticWorkload workload{.injectionRate = 0.5};
    std::uint32_t channels = 1, width = 256;
    // Store a name's lookup, or say the name is unknown.
    const auto named = [](auto &dst, auto known, const std::string &text) {
        if (known)
            dst = *known;
        return known ? std::string()
                     : detail::concat("unknown name '", text, "'");
    };
    const FlagTable keys = {
        integerFlag("n", "N", "torus side", want.n, 2, kMaxTraceSide),
        textFlag("noc", "KIND", "hoplite | ft-full | ft-inject",
                 [&](const std::string &text) {
                     return named(want.variant, variantFromString(text),
                                  text);
                 }),
        // Checked against n below, for FastTrack NoCs.
        integerFlag("d", "D", "express length", want.d, 1,
                    kMaxTraceSide / 2),
        integerFlag("r", "R", "depopulation", want.r, 1,
                    kMaxTraceSide / 2),
        integerFlag("short_stages", "N", "short-link registers",
                    want.shortLinkStages, 0, 8),
        integerFlag("express_stages", "N", "express-link registers",
                    want.expressLinkStages, 0, 8),
        textFlag("pattern", "NAME", "RANDOM | LOCAL | BITCOMPL | TRANSPOSE",
                 [&](const std::string &text) {
                     return named(workload.pattern,
                                  patternFromString(text), text);
                 }),
        textFlag("rate", "R", "injection rate",
                 [&](const std::string &text) {
                     return readDecimal(text, 0.001, 1.0,
                                        workload.injectionRate)
                                ? detail::concat("must be a decimal in "
                                                 "[0.001, 1], got '",
                                                 text, "'")
                                : std::string();
                 }),
        integerFlag("packets", "N", "packets per PE",
                    workload.packetsPerPe, 1),
        integerFlag("seed", "N", "workload seed", workload.seed, 0),
        // The wire carries at most 64 channels (sim/run_codec.cpp).
        integerFlag("channels", "N", "parallel NoCs", channels, 1, 64),
        integerFlag("width", "BITS", "datapath bits", width, 1),
    };
    if (const auto failed = parseConfigFile(keys, argv[1]))
        exitWithUsage(argv[0], failed->message, "");
    const auto check = [&](const char *key, const std::string &rule) {
        if (!rule.empty())
            exitWithUsage(argv[0],
                          detail::concat("config key '", key, "': ", rule),
                          "");
    };

    NocConfig cfg = NocConfig::hoplite(want.n);
    if (want.isFastTrack()) {
        // At R = 1 only the rules on D apply.
        check("d", NocConfig{.n = want.n, .d = want.d, .r = 1,
                             .variant = want.variant}
                       .validationError());
        check("r", want.validationError());
        cfg = NocConfig::fastTrack(want.n, want.d, want.r, want.variant);
    }
    cfg.shortLinkStages = want.shortLinkStages;
    cfg.expressLinkStages = want.expressLinkStages;
    check("pattern", patternValidationError(workload.pattern, want.n,
                                            workload.localRadius));

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
