"""Print one SHA-256 per carlbench operation, over everything the operation gave back.

Run from the root of the repository:

    python3 tools/digests.py [--workload {curves,thresholds,dynamics} ...] [--seed N ...]

Every operation of each chosen workload (default all three) and seed
(default 1) runs once, with carl imported from ``src/`` and the operations
from ``carlbench/``, in a temporary directory made for that workload and
seed. An operation's digest covers its return value (the exit code and the
stdout of a CLI run, the value of a library query, or the exception it
raised) and the bytes of every file it wrote (new, or with new contents),
with the temporary directory's name masked. Two checkouts that
behave alike print the same lines, so ``diff`` of their outputs shows every
operation whose results changed.
"""

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "carlbench")]

import carl.cli  # noqa: E402  (the workloads reach carl.spectrum and the rest through it)
import workloads  # noqa: E402


def exact(value) -> str:
    """``repr``, with a numpy array given as its dtype, shape and bytes, so no bit is lost."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(exact, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{key!r}: {exact(item)}" for key, item in value.items()) + "}"
    if hasattr(value, "tobytes"):
        return f"{value.dtype}{value.shape}:{value.tobytes().hex()}"
    return repr(value)


def snapshot(top: str) -> dict:
    """The bytes of each file under ``top``."""
    files = {}
    for folder, _, names in os.walk(top):
        for name in names:
            with open(os.path.join(folder, name), "rb") as f:
                files[f.name] = f.read()
    return files


def digests(workload: str, seed: int):
    """``(operation name, SHA-256)`` of each operation of one workload and seed, in order."""
    with tempfile.TemporaryDirectory(prefix="carl-digests-") as workdir:
        mask = lambda data: data.replace(os.fsencode(workdir), b"<workdir>")
        ops = workloads.WORKLOADS[workload](seed, workdir, sys.modules["carl"])
        before = snapshot(workdir)
        for op in ops:
            try:
                result = exact(op.run())
            except Exception as exc:  # an operation that raises is digested by its exception
                result = repr(exc)
            after = snapshot(workdir)
            h = hashlib.sha256()
            parts = [result.encode()]
            for path in sorted(p for p in after if after[p] != before.get(p)):
                parts += [path.encode(), after[path]]
            for part in map(mask, parts):
                h.update(b"%d:" % len(part) + part)
            before = after
            yield mask(op.name.encode()).decode(), h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(workloads.WORKLOADS), default=list(workloads.WORKLOADS))
    parser.add_argument("--seed", nargs="+", type=int, default=[1])
    args = parser.parse_args(argv)
    for workload in args.workload:
        for seed in args.seed:
            for name, digest in digests(workload, seed):
                print(digest, workload, seed, name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
