"""Benchmark of the betascenery pipeline: one workload, one seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The run sets up (imports, writes its inputs), then
repeats whole rounds of the workload's operations for about S seconds, each
a call of ``betascenery.cli.main`` in this process or a library call, and
checks every output.  The last line of standard output is one JSON object:
the end-to-end metrics with --trace 0 (times scaled to a reference host
speed, see ``ref_loop``), the per-layer metrics of a traced run with
--trace 1.  Outputs go under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# set-up probes run before and again after the rounds, so that their median
# samples the host at both ends of the run
SETUP_PROBES = 3

# On a shared host the same operation's wall time swings by half within a
# minute, with CPU time tracking wall time.  A fixed pure-Python loop timed
# just before and just after each timed step slows down with it, so the
# end-to-end times are wall times scaled to the host speed at which that
# loop takes REF_S seconds (its typical time on the box the bounds were set
# on).  Wall times are printed too.
REF_ITERS = 200_000
REF_S = 0.015


def ref_loop() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_ITERS):
        x += i * i
    return time.perf_counter() - t0


def timed(fn):
    """(result or None if fn raised, wall seconds, host-scaled seconds)."""
    before = ref_loop()
    t0 = time.perf_counter()
    try:
        res = fn()
    except Exception:
        res = None
        traceback.print_exc()
    wall = time.perf_counter() - t0
    return res, wall, _scaled(wall, before, ref_loop())


def _scaled(wall: float, ref_before: float, ref_after: float) -> float:
    return wall * REF_S / ((ref_before + ref_after) / 2)


def _cli_call(cli, out_dir: Path, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["--out-dir", str(out_dir)] + list(argv))
    return rc, str(out_dir)


def setup(workload: str, seed: int, out: Path):
    """Import the package from the checkout, finish its lazy imports where
    the workload needs them, and write the inputs."""
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("betascenery")
    if Path(lib.__file__).resolve().parent != SRC / "betascenery":
        raise SystemExit(f"error: imported betascenery from {lib.__file__}, "
                         f"not from {SRC}")
    cli = importlib.import_module("betascenery.cli")
    if workload in workloads.NEEDS_WARMUP:
        rc, _ = _cli_call(cli, out / "warmup", ["pisot", "golden"])
        if rc != 0:
            raise SystemExit(f"error: warm-up `pisot golden` exited {rc}")
    ops = workloads.build(workload, seed, str(out / "inputs"), lib)
    return lib, cli, ops


def probe_setup(args, out: Path) -> float:
    """Host-scaled seconds from starting a fresh interpreter until it
    reports its set-up done."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--setup-probe", str(out)]
    before = ref_loop()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=str(ROOT)) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait()
    if rc != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe exited {rc}")
    return _scaled(wall, before, ref_loop())


def run_rounds(ops, cli, seconds: float, out: Path, tracer=None):
    """Whole rounds of the workload's operations until another round would
    pass `seconds`.  Returns per-operation wall and host-scaled times,
    counts and the problems the checks found."""
    times = [[] for _ in ops]
    scaled = [[] for _ in ops]
    first = [None] * len(ops)
    problems = []
    attempted = failed = rounds = 0
    longest = 0.0
    t_begin = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for i, op in enumerate(ops):
            attempted += 1
            op_dir = out / f"op{i:02d}"

            def call(op=op, op_dir=op_dir):
                sid = tracer.open("cli") if tracer and op.argv else None
                try:
                    return (_cli_call(cli, op_dir, op.argv) if op.argv
                            else op.call())
                finally:
                    if sid is not None:
                        tracer.close(sid)

            res, wall, host_s = timed(call)
            # exit code 1: the CLI refused or broke; 2 (a tolerance check
            # failed) is an answer, which the op's check rejects
            if res is None or (op.argv and res[0] not in (0, 2)):
                failed += 1
                print(f"operation {op.label!r} failed", file=sys.stderr)
                continue
            times[i].append(wall)
            scaled[i].append(host_s)
            snap = _snapshot(op_dir) if op.argv else res.digits
            if first[i] is None:
                first[i] = snap
                bad = op.check(res)
            else:
                bad = [] if snap == first[i] else \
                    ["output differs from the first round's"]
            problems += [f"{op.label}: {b}" for b in bad]
        rounds += 1
        longest = max(longest, time.perf_counter() - t_round)
        if time.perf_counter() - t_begin + longest > seconds:
            break
    return times, scaled, attempted, failed, rounds, problems


def _snapshot(op_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(op_dir.iterdir())}


def _rates(ops, med):
    """Items per second of each kind of operation, e.g.
    normality_digits_per_s."""
    items, secs = {}, {}
    for op, t in zip(ops, med):
        if op.rate and t is not None:
            items[op.rate] = items.get(op.rate, 0) + op.items
            secs[op.rate] = secs.get(op.rate, 0.0) + t
    return {k: items[k] / secs[k] for k in items}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "betascenery" / "__init__.py").is_file():
        print(f"error: no betascenery package under {SRC}", file=sys.stderr)
        return 1

    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    lib, cli, ops = setup(args.workload, args.seed, out)

    tracer = None
    probes = []
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    else:
        probes += [probe_setup(args, out / f"probe{k}")
                   for k in range(SETUP_PROBES)]
    try:
        times, scaled, attempted, failed, rounds, problems = run_rounds(
            ops, cli, args.seconds, out, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    if not args.trace:
        probes += [probe_setup(args, out / f"probe{k}")
                   for k in range(SETUP_PROBES, 2 * SETUP_PROBES)]

    items = sum(op.items for op in ops)

    def totals(per_op):
        """Per-op medians over the rounds; their sum (one round); items per
        second of the item-producing ops."""
        med = [statistics.median(t) if t else None for t in per_op]
        item_s = sum(t for op, t in zip(ops, med) if op.items and t is not None)
        return (med, sum(t for t in med if t is not None),
                items / item_s if item_s else 0.0)

    wall_med, wall_run_s, _ = totals(times)
    med, run_s, items_per_s = totals(scaled)
    for op, t, h in zip(ops, times, scaled):
        print(f"op {op.label}: wall " + " ".join(f"{x:.4f}" for x in t) +
              " scaled " + " ".join(f"{x:.4f}" for x in h), file=sys.stderr)
    wall_rates = _rates(ops, wall_med)
    for name, rate in _rates(ops, med).items():
        print(f"info {name} {rate:.6g} wall {wall_rates[name]:.6g}")
    print(f"info rounds {rounds} run_s {run_s:.6g} wall {wall_run_s:.6g}")
    for prob in problems:
        print(f"problem: {prob}", file=sys.stderr)

    if tracer:
        layer = tracing.layer_metrics(tracer, rounds, SRC)
        tracer.write(out / f"spans-seed{args.seed}.csv")
        for name in tracer.absent:
            print(f"absent: {name}", file=sys.stderr)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "items_per_s": {"value": items_per_s, "unit": "items/s"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
