#!/usr/bin/env python3
"""Layered benchmark of besselhr.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload signvec-routes|kernel-grid|hankel-fe \
        --seed N --seconds S --trace 0|1

One single-threaded process runs whole rounds of the workload's fixed inputs
until S seconds have passed, evaluates a few items once more for the repeat
check, then checks every output (outside the timed region) and prints, as
its last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the
end-to-end ones (BENCHMARK.json `end_to_end`); with --trace 1 the layer
wrappers of layers.py are installed and the per-layer metrics are printed
instead.  Details of the run go to perfbench/out/.

The package is imported from src/ of the checkout; without it the benchmark
exits with code 2.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one thread: numpy's BLAS would otherwise spread np.dot over the cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BESSELHR_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
# set-up probes are timed against this process, in turn, so that host speed
# divides out; its median time on the machine the reference figures come
# from sets the scale
REFERENCE_PROCESS = "import numpy, mpmath; print('ready', flush=True)"
REFERENCE_PROCESS_S = 0.2
# stop starting rounds once this much time has gone, so a run ends within 180 s
ROUND_DEADLINE_S = 100.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_ms.p50": "ms",
    "item_ms.p90": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("signvec-routes", "kernel-grid", "hankel-fe"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # import and build inputs, then exit
    return p.parse_args(argv)


def build(workload, workdir):
    import workloads

    make_items, check = workloads.WORKLOADS[workload]
    return make_items(workdir), check


def _until_ready(cmd):
    """Seconds from starting `cmd` until it prints its first line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        code = proc.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe {cmd[1:]} failed with exit code {code}")
    return ready - t0


def setup_seconds(args):
    """Median time from a fresh process's start to its first possible timed call.

    Each probe runs between two reference processes, which start the
    interpreter and import numpy and mpmath but nothing of the package.
    They see the host speed the probe sees, so the probe's time is counted
    as REFERENCE_PROCESS_S times its ratio to the mean of the two.
    """
    probe = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--setup-probe"]
    reference = [sys.executable, "-c", REFERENCE_PROCESS]
    samples = []
    before = _until_ready(reference)
    for _ in range(SETUP_PROBES):
        probe_s = _until_ready(probe)
        after = _until_ready(reference)
        samples.append(probe_s / (0.5 * (before + after)) * REFERENCE_PROCESS_S)
        before = after
    return statistics.median(samples), samples


def evaluate(item):
    """Runs every route of an item; an exception becomes the route's output."""
    res = {}
    for route, op in item.ops.items():
        try:
            res[route] = op()
        except Exception as exc:  # counted as a failed operation
            res[route] = exc
    return res


def run_rounds(items, seconds, rng, tracer, clock):
    """Whole rounds until `seconds` have passed; returns per-round records.

    Times are read from `clock`: perf_counter for traced runs, the
    reference-speed clock of speed.SpeedProbe otherwise.
    """
    rounds = []
    start = time.perf_counter()
    blocks = {}
    for i, item in enumerate(items):
        blocks.setdefault(item.block, []).append(i)
    blocks = list(blocks.values())
    while True:
        rng.shuffle(blocks)
        order = [i for block in blocks for i in block]
        outs = {}
        item_s = {}
        measured_s = {}
        if tracer:
            tracer.recording = True
        t0 = clock()
        for i in order:
            ti, mi = clock(), time.perf_counter()
            outs[i] = evaluate(items[i])
            item_s[i] = clock() - ti
            measured_s[i] = time.perf_counter() - mi
        wall = clock() - t0
        if tracer:
            tracer.recording = False
        rounds.append({"wall_s": wall, "item_s": item_s, "measured_s": measured_s, "outs": outs})
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + wall > ROUND_DEADLINE_S:
            return rounds


def rerun(items, keys):
    """Evaluates the items named by `keys` once more, untimed, for the repeat check."""
    picked = {i: item for i, item in enumerate(items) if item.key in keys}
    if len(picked) != len(keys):
        raise KeyError(f"repeat keys not among the items: {set(keys) - {it.key for it in items}}")
    return {i: evaluate(item) for i, item in picked.items()}


def check_rounds(items, rounds, check, repeats=None):
    """Check every output of every round.

    `repeats` holds the outputs of `rerun`, which must equal the first
    round's bit for bit.  Returns the checker, the operations attempted and
    failed, and the errors raised.  An operation fails when it raised or
    failed a check.  Every failed check makes the run incorrect, and so does
    every exception except the known faults of workloads.KNOWN_FAULTS.
    """
    import checks
    import workloads

    checker = checks.Checker()
    refs = {}
    errors = []
    attempted = failed = 0
    for r_index, rnd in enumerate(rounds):
        for i, outs in rnd["outs"].items():
            key = items[i].key
            bad = set(check(items[i], outs, checker, refs))
            for route, out in outs.items():
                attempted += 1
                label = f"{key}/{route}"
                if isinstance(out, BaseException):
                    bad.add(route)
                    errors.append(f"{label}: {out!r}")
                    if not isinstance(out, workloads.KNOWN_FAULTS.get((key, route), ())):
                        checker.record("raised", math.inf, label)
                elif r_index == 0 and repeats and i in repeats and not checker.record(
                    "repeat", checks.repeat(out, repeats[i][route]), label
                ):
                    bad.add(route)
            failed += len(bad)
    return checker, attempted, failed, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "besselhr" / "__init__.py").is_file():
        print(f"perfbench: no besselhr package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.setup_probe:
        build(args.workload, HERE)
        print("ready", flush=True)
        return 0

    setup = setup_seconds(args) if not args.trace else None

    import besselhr
    import besselhr._backend
    import layers
    import mpmath
    import speed
    import workloads

    if not Path(besselhr.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: besselhr imported from {besselhr.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        tracer = None
        if args.trace:
            tracer = layers.Tracer()
            layers.install_all(tracer)
        items, check = build(args.workload, workdir)
        probe = None if args.trace else speed.SpeedProbe()
        if probe:
            probe.start()
        t_rounds = time.perf_counter()
        try:
            clock = probe.now if probe else time.perf_counter
            rounds = run_rounds(items, args.seconds, random.Random(args.seed), tracer, clock)
        finally:
            if probe:
                probe.stop()
        measured_s = time.perf_counter() - t_rounds
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        repeats = rerun(items, workloads.REPEAT_KEYS[args.workload])
        checker, attempted, failed, errors = check_rounds(items, rounds, check, repeats)
        bytes_out = sum(
            workloads.output_bytes(outs) for rnd in rounds for outs in rnd["outs"].values()
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [r["wall_s"] for r in rounds]
    item_ms = [1e3 * t for r in rounds for t in r["item_s"].values()]
    if args.trace:
        values = layers.layer_metrics(tracer, len(rounds), bytes_out)
        units = {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
    else:
        values = {
            "setup_s": setup[0],
            "wall_s": statistics.median(walls),
            "item_ms.p50": statistics.median(item_ms),
            "item_ms.p90": statistics.quantiles(item_ms, n=10, method="inclusive")[8],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": besselhr._backend.BACKEND,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "python": sys.version.split()[0],
        "rounds": len(rounds),
        "items_per_round": len(items),
        "calibration_s": (
            statistics.quantiles(probe.samples, n=10, method="inclusive") if probe else None
        ),
        "calibrations": len(probe.samples) if probe else 0,
        "calibration_total_s": sum(probe.samples) if probe else 0.0,
        "round_wall_s": walls,
        "round_wall_s_measured": measured_s,
        "item_ms": {items[i].key: 1e3 * t for i, t in rounds[0]["item_s"].items()},
        "item_ms_measured": {items[i].key: 1e3 * t for i, t in rounds[0]["measured_s"].items()},
        "setup_samples_s": setup[1] if setup else None,
        "accuracy": checker.summary(),
        "failures": [list(map(str, f)) for f in checker.failures[:50]],
        "errors": errors[:50],
        "metrics": values,
    }
    if tracer:
        detail["missing_wrappers"] = tracer.missing
        layers.write_spans(tracer, OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"# {args.workload}: {len(rounds)} round(s) of {len(items)} items, "
          f"round walls {', '.join(f'{w:.3f}' for w in walls)} s"
          + (" at reference speed" if probe else ""))
    for fam, acc in checker.summary().items():
        print(f"# accuracy {fam}: worst |diff|/budget {acc['worst_ratio']:.3g} "
              f"over {acc['checks']} checks")
    for fam, label, ratio in checker.failures[:10]:
        print(f"# FAILED {fam} {label}: {ratio}")
    for err in errors[:10]:
        print(f"# ERROR {err}")
    result = {
        "correct": checker.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
