"""Check both spellings of carl's float kernel against CPython's, value by value.

Run from the root of the repository:

    python3 tools/spelling.py [--values N] [--seed S]

The CSV writers spell a float as ``'%.17g' % x`` and the sweep JSON as
``float.__repr__`` (``NaN``, ``Infinity`` and ``-Infinity`` where not
finite, as the json module writes them); the row writer of ``carl._io``
makes both from whole arrays. This spells ``N`` seeded values (default
10**6) both ways, a quarter each from raw bit patterns (the whole double
range, nan and inf included), from magnitudes log-uniform in [1e-8, 1e18]
(the fast paths and past their ends), from decimal grids (integers below
10**12 scaled by 10**-d) and from signed zeros (one value in three ±0.0,
the rest raw bits or log-uniform, so that the row writer's blocks spell
their zeros from the sign bit), and compares every one with CPython's own
spelling. It prints, per source and spelling, how many values the fast path
spelled, how many were zeros and how many went to the fallback (for the
shortest spelling also how many of the fast path's spellings have each
number of digits), and exits 1 on any mismatch.
"""

import argparse
import json
import os
import sys
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from carl._io import _mantissas, csv_rows  # noqa: E402

CHUNK = 10**5  # values spelled and compared at a time, so memory stays small


def raw_bits(rng, n):
    return rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)


def log_uniform(rng, n):
    values = 10.0 ** rng.uniform(-8.0, 18.0, n)
    return np.where(rng.random(n) < 0.5, -values, values)


def decimal_grid(rng, n):
    return rng.integers(-10**12, 10**12, n).astype(np.float64) / 10.0 ** rng.integers(0, 13, n)


def signed_zeros(rng, n):
    values = np.where(rng.random(n) < 0.5, raw_bits(rng, n), log_uniform(rng, n))
    zero = rng.integers(0, 3, n) == 0
    values[zero] = np.where(rng.random(np.count_nonzero(zero)) < 0.5, -0.0, 0.0)
    return values


SOURCES = {"raw bits": raw_bits, "log-uniform": log_uniform, "decimal grid": decimal_grid, "signed zeros": signed_zeros}


SPELLINGS = {"'%.17g'": (False, lambda v: "%.17g" % v), "float.__repr__": (True, json.dumps)}


def digits(text: str) -> int:
    """The significant digits of a positional or exponential spelling."""
    return len(text.split("e")[0].lstrip("-").replace(".", "").strip("0"))


def check(x: np.ndarray, shortest: bool, reference, counts: Counter) -> int:
    """Spell ``x`` with the row writer, one value a row, count its paths and return the mismatches with CPython."""
    _, _, other = _mantissas(x, shortest)
    zero = x == 0.0
    counts["fast"] += int(np.count_nonzero(~other))
    counts["zeros"] += int(np.count_nonzero(zero))
    counts["fallback"] += int(np.count_nonzero(other & ~zero))
    got = "".join(csv_rows([x], len(x), as_json=shortest)).split("\n")[:-1]
    want = list(map(reference, x.tolist()))
    if shortest:
        counts.update(digits(text) for text, fast in zip(got, (~other).tolist()) if fast)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    for w, g in bad[:5]:
        print(f"  mismatch: CPython {w}, kernel {g}")
    return len(bad) + abs(len(got) - len(want))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    mismatches = 0
    for k, (source, draw) in enumerate(SOURCES.items()):
        n = args.values // len(SOURCES) + (k < args.values % len(SOURCES))
        for name, (shortest, reference) in SPELLINGS.items():
            rng = np.random.default_rng([args.seed, k])  # the same values for both spellings
            counts, bad = Counter(), 0
            for start in range(0, n, CHUNK):
                bad += check(draw(rng, min(CHUNK, n - start)), shortest, reference, counts)
            paths = ", ".join(f"{key} {counts.pop(key)}" for key in ("fast", "zeros", "fallback"))
            lengths = f"; digits {' '.join(f'{key}:{counts[key]}' for key in sorted(counts))}" if counts else ""
            print(f"{source:<12} {name:<14} {n} values: {paths}{lengths}; {bad} mismatches")
            mismatches += bad
    print(f"total mismatches: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
