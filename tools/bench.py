"""Run carlbench on a base commit and on this tree in alternating pairs, and compare the two.

Run from the root of the repository:

    python3 tools/bench.py --pairs N [--base REV] [--seed S] [--seconds T] [-o FILE]

The committed files of ``--base`` (default ``HEAD``) are written by
``git archive`` to a temporary directory, removed on exit; "this tree" is
the working tree as it stands, uncommitted changes included. For each
workload of ``BENCHMARK.json``, each pair runs ``carlbench/run.py``,
unchanged, once on each side, with the same ``--seed`` and ``--seconds``
(by default the benchmark's ``run_seconds``); the side that runs first
alternates from pair to pair. A run whose summary
does not report correct outputs and no failed operation stops the script.

For each workload and end-to-end metric it prints both sides' medians and
quartiles, the pairs the change wins (ties count for neither side), whether
the gain rule holds (the change wins at least nine tenths of the pairs and
its median is better by more than the distance between the base's
quartiles) and whether the change's median is worse than the base's by more
than the metric's bound in ``BENCHMARK.json``. It also prints each side's
size: the ``wc -l`` total of ``src/carl/*.py`` and the code lines that
``tools/loc.py`` counts. ``-o FILE`` writes the same as JSON, with the
platform, the Python and numpy versions, both commits and
``PYTHONDONTWRITEBYTECODE``. Only the standard library is used.
"""

import argparse
import glob
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import zipfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def extract(rev: str, into: str) -> None:
    """Write the committed files of ``rev`` under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=zip", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with zipfile.ZipFile(io.BytesIO(archive)) as z:
        z.extractall(into)


def run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one carlbench run in ``tree``, after checking that it was correct."""
    cmd = [sys.executable, "carlbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if summary is None or summary["correct"] is not True or summary["failed"] != 0:
        raise SystemExit(f"bench: {workload} in {tree} did not run correctly:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: metric["value"] for name, metric in summary["metrics"].items()}


def size(tree: str) -> dict:
    """The library's size in ``tree``: the ``wc -l`` total of ``src/carl/*.py``, and the code lines ``tools/loc.py`` counts."""
    lines = 0
    for path in glob.glob(os.path.join(tree, "src", "carl", "*.py")):
        with open(path, "rb") as f:
            lines += f.read().count(b"\n")
    loc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "loc.py")], cwd=tree, check=True, capture_output=True, text=True)
    return {"lines": lines, "code_lines": int(loc.stdout.splitlines()[-1].split()[0])}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(base: list, change: list, better: str, bound: float) -> dict:
    """One metric of one workload: both sides, the pairs the change wins, the gain rule and the bound."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (b - c) for b, c in zip(base, change)]  # positive where the change is better
    row = {"base": spread(base), "change": spread(change), "wins": sum(g > 0 for g in gains), "pairs": len(gains)}
    gap = sign * (row["base"]["median"] - row["change"]["median"])
    row["gain"] = row["wins"] >= 0.9 * len(gains) and gap > row["base"]["q3"] - row["base"]["q1"]
    row["over_bound"] = -gap > bound * abs(row["base"]["median"])
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pairs", type=int, required=True, help="pairs of runs per workload (at least 2)")
    ap.add_argument("--base", default="HEAD", help="the commit this tree is compared with (default HEAD)")
    ap.add_argument("--seed", type=int, default=1, help="workload seed of every run (default 1)")
    ap.add_argument("--seconds", type=float, help="timed seconds of every run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("-o", "--output", help="JSON file for the table and the machine")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = args.seconds or declared["run_seconds"]
    metrics = {m["name"]: m for m in declared["end_to_end"]}

    values = {(side, w): [] for side in ("base", "change") for w in workloads}
    with tempfile.TemporaryDirectory(prefix="carl-bench-") as base_tree:
        extract(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        sizes = {side: size(tree) for side, tree in trees.items()}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for w in workloads:
                for side in order:
                    values[side, w].append(run(trees[side], w, args.seed, seconds))
            print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr, flush=True)

    table = {
        w: {name: compare([r[name] for r in values["base", w]], [r[name] for r in values["change", w]], m["better"], m["bound"])
            for name, m in metrics.items()}
        for w in workloads
    }
    line = "{:<11} {:<12} {:<33} {:<33} {:>6} {:<5} {}".format
    side = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
    print(line("workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins", "gain", "over bound"))
    for w, rows in table.items():
        for name, row in rows.items():
            print(line(w, name, side(row["base"]), side(row["change"]), f"{row['wins']}/{row['pairs']}",
                       "yes" if row["gain"] else "no", "YES" if row["over_bound"] else "no"))
    print("src/carl: " + ", ".join(f"{s} {n['lines']} lines, {n['code_lines']} code lines" for s, n in sizes.items()))
    if args.output:
        numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True)
        doc = {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.stdout.strip() or None,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "base": git("rev-parse", args.base),
            "head": git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no")),
            "pairs": args.pairs,
            "seed": args.seed,
            "seconds": seconds,
            "size": sizes,
            "workloads": table,
        }
        with open(args.output, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    return 0


if __name__ == "__main__":
    # a terminated run still removes its temporary tree: SIGTERM unwinds like SystemExit
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    raise SystemExit(main())
