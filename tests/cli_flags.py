#!/usr/bin/env python3
"""Command-line contract of the tools that share the flag table.

Runs bench_all, a Fig 15 bench, run_experiment, ftd and ftd_client
with malformed, out-of-range and rule-breaking flags. Each must exit 2
(never abort with 134) and print one error line that names the flag;
the Fig 15 bench and run_experiment must refuse --shard-cycles beside
--snapshot-every or --resume.
bench_all must also refuse the telemetry, checkpoint and sharding
flags, which only the benches that read them accept. trace_tool gen
must refuse a side <n> that is not a decimal in [2, 65535] the same
way, naming <n>, and trace_tool replay a malformed <D>; trace_tool
info and replay a missing or malformed trace file, naming the path or
the line. The examples
that take positional numbers (quickstart, dataflow_engine,
spmv_accelerator, design_space_explorer, packet_tracer, noc_heatmap,
topology_viewer) must refuse a malformed or out-of-range one the same
way, naming it. They and trace_tool replay must also refuse a side, D
or R that a NoC they build cannot take (NocConfig's rules), naming the
argument. run_experiment must refuse a config-file number that is not a
decimal in the range the library accepts, or a d or r its NoC cannot
take, the same way, naming the key; also an unknown key, a bad noc or
pattern name, a pattern its NoC cannot carry, a line that is not
`key = value` and an unreadable file, naming the key, line or path.
ftd_client must refuse a NoC that NocConfig refuses, naming --n, --d
or --r; noc_heatmap a bad or unusable pattern, naming [pattern]; and
topology_viewer a fourth word other than `inject`, naming [inject].
Also checks that `ftd --host 127.0.0.1 --port 0` still prints the
`ftd: listening on HOST:PORT` line that scripts parse for the port.

Usage:
  cli_flags.py --bench-all PATH --fig15-bench PATH \\
               --run-experiment PATH --ftd PATH --ftd-client PATH \\
               --trace-tool PATH --quickstart PATH \\
               --dataflow-engine PATH --spmv-accelerator PATH \\
               --design-space-explorer PATH --packet-tracer PATH \\
               --noc-heatmap PATH --topology-viewer PATH

Exit 0 when every case holds, 1 otherwise.
"""

import argparse
import os
import select
import signal
import subprocess
import sys
import tempfile

TIMEOUT_S = 30


def expect_usage_error(failures, cmd, flag):
    """Run @cmd; require exit 2 and a first stderr line naming @flag."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failures.append(f'{" ".join(cmd[1:])}: still running after '
                        f'{TIMEOUT_S} s (want exit 2 naming {flag})')
        return
    first = p.stderr.splitlines()[0] if p.stderr else ''
    if p.returncode != 2 or flag not in first:
        failures.append(f'{" ".join(cmd[1:])}: exit {p.returncode}, '
                        f'stderr {first!r} (want exit 2 naming {flag})')


def expect_listening(failures, ftd):
    """ftd on an ephemeral loopback port announces where it listens."""
    d = subprocess.Popen([ftd, '--host', '127.0.0.1', '--port', '0'],
                         stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([d.stdout], [], [], TIMEOUT_S)
        banner = d.stdout.readline().strip() if ready else ''
        if not banner.startswith('ftd: listening on 127.0.0.1:'):
            failures.append(f'ftd banner {banner!r}')
    finally:
        d.send_signal(signal.SIGTERM)
        try:
            d.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            d.kill()
            d.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--bench-all', required=True)
    parser.add_argument('--fig15-bench', required=True)
    parser.add_argument('--run-experiment', required=True)
    parser.add_argument('--ftd', required=True)
    parser.add_argument('--ftd-client', required=True)
    parser.add_argument('--trace-tool', required=True)
    parser.add_argument('--quickstart', required=True)
    parser.add_argument('--dataflow-engine', required=True)
    parser.add_argument('--spmv-accelerator', required=True)
    parser.add_argument('--design-space-explorer', required=True)
    parser.add_argument('--packet-tracer', required=True)
    parser.add_argument('--noc-heatmap', required=True)
    parser.add_argument('--topology-viewer', required=True)
    args = parser.parse_args()

    bench = [args.bench_all]
    fig15 = [args.fig15_bench]
    # Flags are parsed before the config file is read, so the file
    # need not exist for these cases.
    run = [args.run_experiment, 'no-such.cfg']
    # An ephemeral port, so a build that accepted the flag would not
    # collide with a running daemon while it serves until the timeout.
    ftd = [args.ftd, '--port', '0']
    client = [args.ftd_client, '--remote', '127.0.0.1:1']
    # A tool that accepted the side would write its trace here.
    scratch = tempfile.TemporaryDirectory()
    gen = [args.trace_tool, 'gen']
    trace_file = os.path.join(scratch.name, 'trace.txt')
    # An 8x8 trace for the replay cases that need a readable file.
    trace8 = os.path.join(scratch.name, 'trace8.txt')
    subprocess.run(gen + ['dataflow', '8', trace8], check=True,
                   stdout=subprocess.DEVNULL, timeout=TIMEOUT_S)
    # Trace files trace_tool cannot read: one missing, one malformed.
    no_trace = os.path.join(scratch.name, 'no.trace')
    garbage = os.path.join(scratch.name, 'garbage.trace')
    with open(garbage, 'w') as f:
        f.write('garbage\n')

    def config(name, text):
        """A run_experiment command on a config file holding @text."""
        path = os.path.join(scratch.name, name + '.cfg')
        with open(path, 'w') as f:
            f.write(text + '\n')
        return [args.run_experiment, path]

    cases = [
        (bench + ['--threads', 'abc'], '--threads'),
        (bench + ['--threads', '4294967297'], '--threads'),
        (bench + ['--result-cache'], '--result-cache'),
        (bench + ['--remote', 'nohost'], '--remote'),
        (bench + ['--smoke', '--bogus'], '--bogus'),
        # bench_all reads none of these, so it must refuse them.
        (bench + ['--telemetry-dir', 'd'], '--telemetry-dir'),
        (bench + ['--telemetry-epoch', '5'], '--telemetry-epoch'),
        (bench + ['--snapshot-every', '5', '--snapshot-dir', 'd'],
         '--snapshot-every'),
        (bench + ['--snapshot-dir', 'd'], '--snapshot-dir'),
        (bench + ['--resume', 'd'], '--resume'),
        (bench + ['--shard-cycles', '5', '--remote', '127.0.0.1:1'],
         '--shard-cycles'),
        (fig15 + ['--telemetry-epoch', '5x'], '--telemetry-epoch'),
        (fig15 + ['--snapshot-dir', ''], '--snapshot-dir'),
        (fig15 + ['--snapshot-every', '5'], '--snapshot-dir'),
        (fig15 + ['--shard-cycles', '5'], '--remote'),
        # Temporal shards cannot also checkpoint or resume.
        (fig15 + ['--remote', '127.0.0.1:1', '--shard-cycles', '5',
                  '--resume', 'no-such-dir'], '--shard-cycles'),
        (fig15 + ['--remote', '127.0.0.1:1', '--shard-cycles', '5',
                  '--snapshot-every', '100000000', '--snapshot-dir', 'd'],
         '--shard-cycles'),
        (run + ['--max-cycles', 'abc'], '--max-cycles'),
        (run + ['--max-cycles', '99999999999999999999999'],
         '--max-cycles'),
        (run + ['--shard-cycles', '-'], '--shard-cycles'),
        (run + ['--snapshot-every', '5x'], '--snapshot-every'),
        (run + ['--snapshot-every', '5'], '--snapshot-dir'),
        (run + ['--shard-cycles', '5'], '--remote'),
        (run + ['--remote', '127.0.0.1:1', '--shard-cycles', '5',
                '--resume', 'no-such-dir'], '--shard-cycles'),
        (run + ['--remote', '127.0.0.1:1', '--shard-cycles', '5',
                '--snapshot-every', '100000000', '--snapshot-dir', 'd'],
         '--shard-cycles'),
        (ftd + ['--idle-timeout-ms', '3000000000'], '--idle-timeout-ms'),
        ([args.ftd, '--port', '65536'], '--port'),
        (ftd + ['--threads', '0'], '--threads'),
        # A test-only fault hook, set in-process through ServerConfig.
        (ftd + ['--drop-after-frames', '2'], '--drop-after-frames'),
        (client + ['--n', '4294967298'], '--n'),
        (client + ['--seed', ''], '--seed'),
        ([args.ftd_client, '--n', '4'], '--remote'),
        # n * n wraps to 0 in 32 bits.
        (gen + ['dataflow', '65536', trace_file], '<n>'),
        (gen + ['spmv', '0', trace_file], '<n>'),
        (gen + ['spmv', 'x', trace_file], '<n>'),
        # n * n wraps to a smaller PE count.
        (gen + ['spmv', '70000', trace_file], '<n>'),
        # Parsed before the trace file is opened.
        ([args.trace_tool, 'replay', trace_file, 'ft-full', 'abc'],
         '<D>'),
        # Each used to abort on a library assertion.
        ([args.quickstart, '8', 'x'], '<injection-rate>'),
        ([args.dataflow_engine, '0'], '<ops>'),
        ([args.dataflow_engine, '10', '0'], '<noc-side>'),
        ([args.spmv_accelerator, '0'], '<rows>'),
        ([args.design_space_explorer, '8', '0'], '<datawidth>'),
        ([args.packet_tracer, '8', '2', '1', '9', '9', '0', '0'],
         '<src-x>'),
        # In range, but a NoC they build cannot take it: each used to
        # exit 1 through NocConfig::validate.
        ([args.quickstart, '3'], '<N>'),  # D = 2 > N/2
        ([args.quickstart, '5'], '<N>'),  # R = 2 does not divide N
        ([args.dataflow_engine, '8', '3'], '<noc-side>'),
        ([args.spmv_accelerator, '1500', '5'], '<noc-side>'),
        ([args.noc_heatmap, 'TRANSPOSE', '8', '3', '2'], '<R>'),
        ([args.topology_viewer, '8', '3', '2'], '<R>'),
        ([args.topology_viewer, '8', '3', '1', 'inject'], '<D>'),
        ([args.packet_tracer, '8', '3', '2'], '<R>'),
        ([args.trace_tool, 'replay', trace8, 'ft-full', '3', '2'], '<R>'),
        # Trace files: each used to exit 1.
        ([args.trace_tool, 'info', no_trace], no_trace),
        ([args.trace_tool, 'replay', no_trace, 'hoplite'], no_trace),
        ([args.trace_tool, 'info', garbage], 'malformed trace line: garbage'),
        ([args.trace_tool, 'replay', garbage, 'hoplite'],
         'malformed trace line: garbage'),
        # Config-file numbers: the first three used to abort (134), the
        # fourth ran and printed a table.
        (config('n', 'n = -8'), "config key 'n'"),
        (config('rate', 'rate = 7'), "config key 'rate'"),
        (config('width', 'width = 0'), "config key 'width'"),
        (config('channels', 'channels = 0'), "config key 'channels'"),
        (config('r', 'd = 3\nr = 2'), "config key 'r'"),
        # Config-file keys and lines: the first ran with the default
        # packet count, each of the others exited 1.
        (config('packet', 'packet = 16'), "config key 'packet'"),
        (config('noc', 'noc = bogus'), "config key 'noc'"),
        (config('pattern', 'pattern = bogus'), "config key 'pattern'"),
        (config('line', 'n 8'), 'config line 1'),
        ([args.run_experiment, os.path.join(scratch.name, 'no.cfg')],
         os.path.join(scratch.name, 'no.cfg')),
        # BITCOMPL needs a power-of-two PE count.
        (config('bitcompl', 'noc = hoplite\nn = 6\npattern = BITCOMPL'),
         "config key 'pattern'"),
        # A NoC NocConfig refuses: each used to exit 1.
        (client + ['--d', '3', '--r', '2'], '--r'),  # R does not divide D
        (client + ['--n', '1'], '--n'),
        (client + ['--n', '3'], '--d'),  # the default D = 2 > N/2
        # Words: noc_heatmap exited 1 on both, topology_viewer drew
        # FT-Full.
        ([args.noc_heatmap, 'FOO'], '[pattern]'),
        ([args.noc_heatmap, 'BITCOMPL', '6', '0', '1'], '[pattern]'),
        ([args.topology_viewer, '8', '2', '2', 'bogus'], '[inject]'),
    ]
    failures = []
    for cmd, flag in cases:
        expect_usage_error(failures, cmd, flag)
    expect_listening(failures, args.ftd)
    scratch.cleanup()

    for failure in failures:
        print(f'FAIL {failure}')
    print(f'{len(cases) + 1 - len(failures)}/{len(cases) + 1} '
          'CLI cases hold')
    return 1 if failures else 0


if __name__ == '__main__':
    sys.exit(main())
