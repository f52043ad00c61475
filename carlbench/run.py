"""Benchmark of carl: one workload, timed end to end, or traced layer by layer.

    python3 carlbench/run.py --workload {curves,thresholds,dynamics} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; carl is imported from its ``src``. The run

1. starts fresh interpreters one after another, each importing carl.cli and
   building the workload's inputs (``setup_s`` is their median);
2. builds the inputs in this process and runs one warm-up pass;
3. repeats the pass for ``--seconds`` (tracing off) and reports the median
   pass time and the peak resident memory;
4. checks the outputs of the operations, outside the timed region.

Pass times are scaled to a nominal machine speed by a reference kernel
timed just before and after each stretch of work (see ``speed.py``); the
times as measured are printed beside them. Set-up times are not scaled.

With ``--trace 1`` it runs half the time untraced and half with spans
around every call into carl's layers (see ``spans.py``), and reports the
per-layer figures of one pass instead; the ``setup`` layer comes from
``python -X importtime`` in fresh processes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_STARTS = 11  # fresh processes per run; one start alone did not repeat
MIN_PASSES = 5
SEGMENT_S = 0.1  # timed stretch between two runs of the reference kernel

PER_LAYER = [
    "setup.interpreter_s", "setup.numpy_import_s", "setup.carl_import_s",
    "cli.main.self_s", "cli.self_s", "cli.emit_plot_script.self_s",
    "params.from_product.calls", "params.from_product.self_s", "params.self_s",
    "cubic.solve_cubic.calls", "cubic.solve_cubic.self_s", "cubic.classify.calls", "cubic.classify.self_s", "cubic.self_s",
    "spectrum.eigen_spectrum.calls", "spectrum.eigen_spectrum.self_s", "spectrum.threads",
    "spectrum.threshold_lhs.calls", "spectrum.threshold_lhs.self_s", "spectrum.critical_alpha_beta.self_s",
    "spectrum.critical_delta21.self_s", "spectrum.self_s",
    "sweep.gain_curve.self_s", "sweep.mass_study.self_s", "sweep.write_sweep_csv.self_s", "sweep.write_sweep_json.self_s",
    "sweep.threshold_map.self_s", "sweep.write_polylines_csv.self_s", "sweep.validate_sweep.self_s", "sweep.self_s",
    "dynamics.evolve.calls", "dynamics.evolve.steps", "dynamics.evolve.self_s", "dynamics.evolve.steps_per_s",
    "dynamics.fit_growth_rate.self_s", "dynamics.write_trajectory_csv.self_s", "dynamics.self_s",
]


def _probe(workload: str, seed: int, workdir: str, importtime: bool):
    """Start one fresh interpreter; return (spawn, script start, inputs built) and its stderr."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), os.path.join(HERE, "probe.py"),
           workload, str(seed), workdir]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=HERE, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh-process start failed: {proc.stderr.strip()[-2000:]}")
    started, built = map(float, proc.stdout.split())
    return (spawned, started, built), proc.stderr


def _import_times(stderr: str):
    """numpy and carl import times (s) from ``-X importtime`` output.

    Children are listed before their parent, one indent deeper. numpy is
    first imported from inside carl, so its time is taken out of carl's.
    """
    rows = []
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line and "cumulative" not in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip())) // 2
            rows.append((int(cumulative), depth, name.strip()))
    numpy_us = carl_us = 0
    for i, (cum, depth, name) in enumerate(rows):
        top = next((r for r in rows[i:] if r[1] == 0), None)
        if name == "numpy":
            numpy_us = cum
            if top is not None and top[2].split(".")[0] == "carl":
                carl_us -= cum
        if depth == 0 and name.split(".")[0] == "carl":
            carl_us += cum
    return numpy_us / 1e6, carl_us / 1e6


def measure_setup(workload: str, seed: int, workdir: str, importtime: bool):
    _probe(workload, seed, workdir, False)  # the first start in a checkout compiles bytecode
    starts = [_probe(workload, seed, workdir, importtime) for _ in range(SETUP_STARTS)]
    if not importtime:
        # Not scaled by the reference kernel: a start did not follow the kernel's
        # times, neither start by start nor run by run (see README.md).
        return {"setup_s": statistics.median(b - s for (s, _, b), _ in starts)}
    times = [_import_times(err) for _, err in starts]
    return {
        "setup.interpreter_s": statistics.median(st - s for (s, st, _), _ in starts),
        "setup.numpy_import_s": statistics.median(n for n, _ in times),
        "setup.carl_import_s": statistics.median(c for _, c in times),
    }


def run_pass(ops):
    """Run the operations once; return the pass time as measured, at the nominal speed, and the results.

    The reference kernel runs before the first operation and after each
    stretch of operations that took ``SEGMENT_S`` or more; each stretch is
    scaled by the kernel times at its two ends (``speed.scaled``). The
    kernel runs outside the timed stretches.
    """
    results = []
    raw = nominal = stretch = 0.0
    before = speed.reference()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            results.append(op.run())
        except Exception as exc:  # an operation that raises counts as failed
            results.append(exc)
        stretch += time.perf_counter() - t0
        if stretch >= SEGMENT_S or i == len(ops) - 1:
            after = speed.reference()
            raw += stretch
            nominal += speed.scaled(stretch, before, after)
            before, stretch = after, 0.0
    return raw, nominal, results


def collect(ops, results):
    records = {}
    for op, res in zip(ops, results):
        records[op.name] = {"error": repr(res)} if isinstance(res, Exception) else op.collect(res)
    prints = {name: hashlib.sha1(pickle.dumps(rec)).hexdigest() for name, rec in records.items()}
    return records, prints


def passes(ops, seconds: float, tracer=None, carl=None):
    """Run whole passes for ``seconds``; return their times as measured and at the nominal speed,
    output prints, last records and span summaries."""
    times, nominal, prints, summaries = [], [], [], []
    end = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() < end:
        if tracer is not None:
            tracer.install(carl)
        try:
            dt, dt_nominal, results = run_pass(ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
        times.append(dt)
        nominal.append(dt_nominal)
        if tracer is not None:
            summaries.append(spans.summarize(tracer.take()))
        records, fp = collect(ops, results)
        prints.append(fp)
    return times, nominal, prints, records, summaries


def check(ops, records):
    verdicts = {}
    for op in ops:
        rec = records[op.name]
        if "error" in rec:
            verdicts[op.name] = f"raised {rec['error']}"
            continue
        try:
            op.check(records)
            verdicts[op.name] = None
        except Exception as exc:  # a check that cannot read the output fails too
            verdicts[op.name] = f"{type(exc).__name__}: {exc}"
    return verdicts


def tail(times):
    """Highest percentile of pass time with at least ten samples beyond it, for reference only.

    Under forty passes it sits below the upper quartile and is no tail.
    """
    n = len(times)
    if n <= 10:
        return f"none: {n} passes"
    q = (100 * (n - 10)) // n
    note = "" if n >= 40 else "; under 40 passes this is no tail"
    return f"p{q} {sorted(times)[n - 11]:.6f} s over {n} passes, 10 beyond{note}"


def layer_metrics(summaries, setup):
    def one(s, name):
        if name == "spectrum.threads":
            return s.get("spectrum.eigen_spectrum.threads", 0)
        if name == "dynamics.evolve.steps_per_s":
            total = s.get("dynamics.evolve.total_s", 0.0)
            return s.get("dynamics.evolve.steps", 0) / total if total else 0.0
        return s.get(name, 0)

    out = {}
    for name in PER_LAYER:
        if name in setup:
            value = setup[name]
        else:
            value = statistics.median(one(s, name) for s in summaries)
        unit = "count" if name.endswith((".calls", ".steps", ".threads")) else "1/s" if name.endswith("_per_s") else "s"
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("curves", "thresholds", "dynamics"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "carl", "__init__.py")):
        print(f"carlbench: no carl package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, workdir: str) -> int:
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir)
    setup = measure_setup(args.workload, args.seed, probe_dir, importtime=bool(args.trace))

    sys.path.insert(0, SRC)
    import carl.cli  # noqa: F401
    import workloads

    carl = sys.modules["carl"]
    if not os.path.abspath(carl.__file__).startswith(SRC + os.sep):
        print(f"carlbench: carl was imported from {carl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload](args.seed, workdir, carl)
    _, _, warm = run_pass(ops)
    _, reference = collect(ops, warm)

    if args.trace:
        _, times, prints, records, _ = passes(ops, args.seconds / 2)
        _, traced, tprints, records, summaries = passes(ops, args.seconds / 2, spans.Tracer(), carl)
        overhead = statistics.median(traced) - statistics.median(times)
        print(f"tracing overhead: {overhead:.6f} s per pass at the nominal speed "
              f"({statistics.median(traced):.6f} traced, {statistics.median(times):.6f} untraced)")
        prints += tprints
        metrics = layer_metrics(summaries, setup)
    else:
        times, nominal, prints, records, _ = passes(ops, args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"pass_s: median {statistics.median(times):.6f} s as measured; tail: {tail(times)}; "
              f"passes (ms): {' '.join(f'{t * 1e3:.0f}' for t in times)}")
        print(f"pass_s: median {statistics.median(nominal):.6f} s at the nominal speed; tail: {tail(nominal)}; "
              f"passes (ms): {' '.join(f'{t * 1e3:.0f}' for t in nominal)}")
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "pass_s": {"value": statistics.median(nominal), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }

    verdicts = check(ops, records)
    failed = 0
    correct = True
    for op in ops:
        bad = [p for p in prints if p[op.name] != reference[op.name]]
        if verdicts[op.name] is not None:
            failed += len(prints)
            print(f"FAILED {op.name}" + (f" [{op.known_fault}]" if op.known_fault else "") + f": {verdicts[op.name]}")
            correct = correct and op.known_fault is not None
        elif bad:
            failed += len(bad)
            print(f"FAILED {op.name}: output changed between passes in {len(bad)} of {len(prints)}")
            correct = False
    attempted = len(ops) * len(prints)
    print(f"{args.workload}: {attempted} operations attempted, {failed} failed")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
