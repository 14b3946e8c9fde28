#!/usr/bin/env python3
"""rsqg benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; rsqg is imported from ./src.
The workload's operations run one after another in whole rounds until
the next round would not fit in --seconds.  The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`:

* --trace 0: the end-to-end metrics `setup_s` (median over fresh
  processes, started between rounds, that import rsqg, build the seeded
  inputs and warm up, timed from spawn to ready), `wall_s` (one
  round: the sum over operations of each operation's median time) and
  `peak_rss_mib` (this process, read before output checking);
* --trace 1: the per-layer metrics of perfbench/tracing.py, per round,
  and the spans written to perfbench/traces/.

The first round's outputs are checked by the independent oracles; later
rounds must reproduce them exactly.  An operation fails when it raises
or the CLI exits with code 2; a wrong output makes `correct` false.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 8
PROBES_PER_ROUND = 2
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("certify", "eliminate", "wedge", "tensor")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def set_up(args):
    """Import rsqg from the checkout, build the seeded operations, warm up."""
    if not (SRC / "rsqg" / "__init__.py").is_file():
        raise SystemExit(f"rsqg sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    ops = workloads.build(args.workload, args.seed)
    workloads.warm_up()
    return ops


class SetupProbe:
    """Times set-up in fresh interpreters: spawn to the child's 'ready'.

    Probes run between rounds, so the samples spread over the whole run
    instead of one short stretch of host speed."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(HERE / "run.py"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", "0", "--setup-probe"]
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        self.samples.append(elapsed)

    def median(self):
        while len(self.samples) < SETUP_PROBES:
            self.sample()
        return statistics.median(self.samples)


def run_op(op):
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # an operation that raises counts as failed
        dt = time.perf_counter() - t0
        return dt, None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if op.failed(out):
        return dt, out, f"exit code {out.rc}: {out.stderr.strip()}"
    return dt, out, None


def run_rounds(ops, seconds, tracer, probe):
    """Whole rounds until the next would overrun; returns per-op times,
    first-round outputs, round count, failures and mismatch messages.
    Set-up probes, when given, run between rounds outside the op timings."""
    times = [[] for _ in ops]
    first = [None] * len(ops)
    failures = 0
    problems = []
    rounds = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, op in enumerate(ops):
            dt, out, err = run_op(op)
            times[i].append(dt)
            if tracer is not None and out is not None and hasattr(out, "stdout"):
                tracer.add_output_bytes(len(out.stdout))
            if err is not None:
                failures += 1
                if rounds == 0:
                    problems.append(("failed", op.label, err))
                continue
            if rounds == 0:
                first[i] = out
            elif first[i] is None or op.canon(out) != op.canon(first[i]):
                problems.append(("wrong", op.label,
                                 f"round {rounds + 1} output differs from round 1"))
        rounds += 1
        if probe is not None:
            for _ in range(PROBES_PER_ROUND):
                probe.sample()
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return times, first, rounds, failures, problems


def check_outputs(ops, first, problems):
    for op, out in zip(ops, first):
        if out is None:
            continue
        try:
            op.check(out)
        except Exception as exc:  # any exception in a check is a wrong output
            problems.append(("wrong", op.label, f"{type(exc).__name__}: {exc}"))


def main(argv=None):
    args = parse_args(argv)
    ops = set_up(args)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    tracer = probe = None
    if not args.trace:
        probe = SetupProbe(args)
    else:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        times, first, rounds, failures, problems = run_rounds(
            ops, args.seconds, tracer, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = sum(statistics.median(t) for t in times)
    check_outputs(ops, first, problems)

    for kind, label, msg in problems:
        print(f"{kind}: {label}: {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} "
          f"operations, round wall {wall_s:.4f} s", file=sys.stderr)
    for op, t in zip(ops, times):
        print(f"  {statistics.median(t):9.4f} s  {op.label}", file=sys.stderr)

    if tracer is not None:
        metrics = tracer.metrics(rounds)
        for name in tracer.missing:
            print(f"trace: {name} not found; its metrics are absent",
                  file=sys.stderr)
        tracer.write(HERE / "traces" / f"{args.workload}-seed{args.seed}.json.gz",
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": rounds, "traced_wall_s": wall_s})
    else:
        metrics = {
            "setup_s": {"value": probe.median(), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    result = {"correct": not any(k == "wrong" for k, _, _ in problems),
              "attempted": rounds * len(ops), "failed": failures,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
