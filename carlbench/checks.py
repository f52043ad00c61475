"""Output checks of the three workloads, with parsers for carl's output files.

Each check raises :class:`CheckFailed` with a message naming what was wrong.
The references come from :mod:`oracle` (numpy and the stdlib, never carl) or
from properties the method must have. ``selftest.py`` feeds every check a
deliberately wrong value and requires it to fail.
"""

from __future__ import annotations

import csv
import json
import re
from typing import Dict, List, Sequence

import numpy as np

import oracle

REGIMES = {"RAO": 0, "WAO": 1}
GAMMA_TOL = 1e-9  # absolute, on the root scale; carl agrees to ~1e-14 today
IDENTITY_TOL = 1e-10  # mass-study identity; ~1e-16 today
NEAR_DOUBLE = 1e-5  # rows whose closest root pair is nearer than this share of the root scale are skipped


class CheckFailed(AssertionError):
    pass


def fail_unless(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------


def _data_lines(text: str) -> List[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def parse_sweep_csv(text: str) -> List[Dict]:
    rows = list(csv.DictReader(_data_lines(text)))
    for r in rows:
        r["axis_value"] = float(r["axis_value"])
        r["gamma"] = float(r["gamma"])
    return rows


def parse_sweep_json(text: str) -> List[Dict]:
    return json.loads(text)["records"]


def parse_polylines(text: str) -> Dict[int, np.ndarray]:
    branches: Dict[int, List] = {}
    for r in csv.DictReader(_data_lines(text)):
        branches.setdefault(int(r["branch_id"]), []).append((float(r["delta21"]), float(r["alpha_beta"])))
    return {k: np.array(v) for k, v in branches.items()}


def parse_trajectory(text: str) -> Dict:
    """Final state and linearity flag of a trajectory CSV."""
    flag = None
    for line in text.splitlines():
        if line.startswith("# linearity_flag_tau:"):
            raw = line.split(":", 1)[1].strip()
            flag = None if raw == "none" else float(raw)
    last = [float(x) for x in _data_lines(text)[-1].split(",")]
    tau, ra, ia, _, rb, ib, _, rd, idot = last
    return {"tau": tau, "y": np.array([complex(ra, ia), complex(rb, ib), complex(rd, idot)]), "flag": flag}


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def check_sweep_rows(rows: Sequence[Dict], fixed: float, *, ratio: float = 1.0) -> int:
    """Every row's gamma and case against numpy.roots, and RAO rows against the closed form.

    ``fixed`` is the control that is not swept. A mass-study row at ratio
    ``s`` holds the spectrum at ``(s delta21, alpha_beta s^2)`` divided by
    ``s``. Rows at a near-repeated root, where the class is not numerically
    meaningful, are skipped (the files carry no boundary flag). Returns the
    number of rows checked.
    """
    fail_unless(len(rows) > 0, "no rows")
    checked = 0
    for r in rows:
        eta = REGIMES[r["regime"]]
        if r["axis_name"] == "delta21":
            d, ab = r["axis_value"], fixed
        else:
            d, ab = fixed, r["axis_value"]
        d, ab = ratio * d, ab * ratio * ratio
        x = oracle.roots(d, ab, eta)
        gamma, unstable, scale = oracle.rate_of_roots(x)
        if min(abs(x[i] - x[j]) for i, j in ((0, 1), (0, 2), (1, 2))) <= NEAR_DOUBLE * scale:
            continue
        where = f"{r['regime']} delta21={d!r} alpha_beta={ab!r}"
        fail_unless(r["case"] == ("II" if unstable else "I"), f"{where}: case {r['case']}, numpy.roots says {'II' if unstable else 'I'}")
        got = r["gamma"] * ratio
        fail_unless(abs(got - gamma) <= GAMMA_TOL * scale, f"{where}: gamma {got!r}, numpy.roots gives {gamma!r}")
        checked += 1
    fail_unless(checked > 0, "every row was skipped")
    check_rao_closed_form(rows, fixed, ratio=ratio)
    return checked


def check_rao_closed_form(rows: Sequence[Dict], fixed: float, *, ratio: float = 1.0) -> None:
    """RAO rows against the closed-form rate (same row layout as :func:`check_sweep_rows`)."""
    for r in rows:
        if r["regime"] != "RAO":
            continue
        d, ab = (r["axis_value"], fixed) if r["axis_name"] == "delta21" else (fixed, r["axis_value"])
        d, ab = ratio * d, ab * ratio * ratio
        ref = float(oracle.rao_rate(d, ab))
        got = r["gamma"] * ratio
        fail_unless(abs(got - ref) <= GAMMA_TOL * max(1.0, abs(d), abs(ab) ** (1.0 / 3.0)),
                    f"RAO delta21={d!r} alpha_beta={ab!r}: gamma {got!r}, closed form gives {ref!r}")


def check_mass_identity(mass_rows: Sequence[Dict], plain_rows: Sequence[Dict], ratio: float) -> None:
    """The RAO curve at mass ratio s equals the plain RAO gain curve at alpha_beta/s."""
    a = [r for r in mass_rows if r["regime"] == "RAO"]
    b = [r for r in plain_rows if r["regime"] == "RAO"]
    fail_unless(len(a) == len(b) and len(a) > 0, f"ratio {ratio}: {len(a)} RAO rows against {len(b)}")
    for ra, rb in zip(a, b):
        fail_unless(ra["axis_value"] == rb["axis_value"], f"ratio {ratio}: grids differ at {ra['axis_value']!r}")
        diff = abs(ra["gamma"] - rb["gamma"])
        fail_unless(
            diff <= IDENTITY_TOL * max(1.0, abs(rb["gamma"])),
            f"ratio {ratio}, delta21={ra['axis_value']!r}: mass-study RAO gamma {ra['gamma']!r}, "
            f"plain curve at alpha_beta/{ratio:g} gives {rb['gamma']!r}",
        )


def wao_rao_gap(rows: Sequence[Dict]) -> float:
    rao = {r["axis_value"]: r["gamma"] for r in rows if r["regime"] == "RAO"}
    wao = {r["axis_value"]: r["gamma"] for r in rows if r["regime"] == "WAO"}
    return max(abs(wao[k] - rao[k]) for k in rao)


def check_gap_shrinks(gaps: Dict[float, float]) -> None:
    """The largest WAO-RAO gap must shrink as the mass ratio grows."""
    ordered = [gaps[s] for s in sorted(gaps)]
    fail_unless(
        all(x > y for x, y in zip(ordered, ordered[1:])),
        f"WAO-RAO gap does not shrink with mass ratio: {dict(sorted(gaps.items()))}",
    )


def check_identical(a: str, b: str, what: str) -> None:
    fail_unless(a == b, f"{what}: outputs differ")


def check_plot_script(text: str, files: Dict[str, Sequence[str]]) -> None:
    """One plot clause per file and regime that the file holds, and no other."""
    clauses = re.findall(r"'([^']*)' using 2:\(strcol\(3\) eq '(\w+)'", text)
    expected = sorted((path, reg) for path, regs in files.items() for reg in regs)
    fail_unless(sorted(clauses) == expected, f"plot clauses {sorted(clauses)}, expected {expected}")


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def expected_branches(eta: int, d_range, ab_range) -> int:
    """Pieces of the boundary curve alpha_beta = critical(delta21) inside the window."""
    grid = np.linspace(d_range[0], d_range[1], 20001)
    ac = np.array([oracle.critical_alpha_beta(float(d), eta) for d in grid])
    inside = (ac > ab_range[0]) & (ac < ab_range[1])
    return int(inside[0]) + int(np.count_nonzero(inside[1:] & ~inside[:-1]))


def check_polylines(branches: Dict[int, np.ndarray], eta: int, d_range, ab_range, refine_tol: float) -> int:
    """Every vertex lies on the boundary, with the stable side below it and the unstable side above.

    A vertex is refined along a grid edge in either delta21 or alpha_beta,
    so its distance from the curve in alpha_beta is at most
    ``refine_tol * (1 + |slope|)``. RAO vertices are also checked against
    ``alpha_beta = 4 delta21^3 / 27``. Returns the number of vertices.
    """
    want = expected_branches(eta, d_range, ab_range)
    fail_unless(len(branches) == want, f"eta={eta}: {len(branches)} branches, the boundary has {want} in the window")
    n = 0
    for bid, line in branches.items():
        fail_unless(len(line) >= 2, f"eta={eta}: branch {bid} has {len(line)} vertex")
        for d, ab in line:
            d, ab = float(d), float(ab)
            slope = abs(oracle.critical_alpha_beta_slope(d, eta))
            tol = refine_tol * (1.0 + slope) + 1e-12 * (1.0 + ab)
            ref = oracle.critical_alpha_beta(d, eta)
            where = f"eta={eta} vertex ({d!r}, {ab!r})"
            fail_unless(abs(ab - ref) <= tol, f"{where}: off the boundary alpha_beta={ref!r} by {ab - ref:.3g}")
            if eta == 0:
                fail_unless(d > 0.0, f"{where}: RAO boundary has delta21 > 0")
                rao = 4.0 * d**3 / 27.0
                fail_unless(abs(ab - rao) <= tol, f"{where}: off 4 delta21^3/27 = {rao!r}")
            h = 1e-5 * ab
            below, above = oracle.rate(d, ab - h, eta)[1], oracle.rate(d, ab + h, eta)[1]
            fail_unless(not below and above, f"{where}: numpy.roots gives unstable={below} below, {above} above")
            n += 1
    return n


def check_critical_alpha_beta(delta21: float, eta: int, value, rel_tol: float = 1e-6) -> None:
    ref = oracle.critical_alpha_beta(delta21, eta)
    where = f"critical_alpha_beta({delta21!r}, eta={eta})"
    if ref == 0.0:
        fail_unless(value is None, f"{where} = {value!r}; unstable for every alpha_beta > 0, so None")
        return
    fail_unless(value is not None, f"{where} = None; the discriminant's root is {ref!r}")
    fail_unless(abs(value - ref) <= rel_tol * ref, f"{where} = {value!r}; the discriminant's root is {ref!r}")


def check_critical_delta21(alpha_beta: float, eta: int, window, edges, step: float = 2e-5) -> None:
    """The class flips across every edge, and every sign change of the discriminant has an edge."""
    where = f"critical_delta21({alpha_beta!r}, eta={eta}, window={tuple(window)})"
    changes = oracle.sign_changes(alpha_beta, eta, window, step)
    fail_unless(
        len(edges) == len(changes),
        f"{where} = {list(edges)}; the discriminant changes sign in {[round(lo, 6) for lo, _ in changes]}",
    )
    fail_unless(list(edges) == sorted(edges), f"{where}: edges not ascending")
    for e, (lo, hi) in zip(edges, changes):
        fail_unless(lo - 1e-9 <= e <= hi + 1e-9, f"{where}: edge {e!r} outside the sign change in [{lo!r}, {hi!r}]")
        h = 1e-6 * max(1.0, abs(e))
        left, right = oracle.rate(e - h, alpha_beta, eta)[1], oracle.rate(e + h, alpha_beta, eta)[1]
        fail_unless(left != right, f"{where}: class does not flip across {e!r}")


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def check_final_state(params: Dict, y0, traj: Dict, tau_end: float, dt: float) -> None:
    """The final state equals exp(tau M) y0 within the RK4 error bound."""
    fail_unless(abs(traj["tau"] - tau_end) <= 1e-9 * tau_end, f"final tau {traj['tau']!r}, expected {tau_end!r}")
    m = oracle.system_matrix(params["delta21"], params["alpha"], params["beta"], params["eta"])
    exact = oracle.propagate(m, y0, traj["tau"])
    rel = float(np.linalg.norm(traj["y"] - exact) / np.linalg.norm(exact))
    tol = oracle.rk4_tolerance(m, tau_end, dt)
    fail_unless(rel <= tol, f"final state off exp(tau M) y0 by {rel:.3g} (bound {tol:.3g})")


def check_linearity_flag(params: Dict, y0, flag, dt: float, expect_crossing: bool) -> None:
    """The flag is the first step at which the exact |B| exceeds 1, or absent if it never does."""
    if not expect_crossing:
        fail_unless(flag is None, f"linearity flag {flag!r} on a run whose |B| stays below 1")
        return
    fail_unless(flag is not None, "no linearity flag on a run whose |B| crosses 1")
    m = oracle.system_matrix(params["delta21"], params["alpha"], params["beta"], params["eta"])
    b_at = abs(oracle.propagate(m, y0, flag)[1])
    b_before = abs(oracle.propagate(m, y0, flag - dt)[1])
    fail_unless(b_at > 1.0 - 1e-6 and b_before <= 1.0 + 1e-6, f"|B| is {b_before:.9g} one step before the flag {flag!r} and {b_at:.9g} at it")


def check_fit_raised(outcome: Dict) -> None:
    fail_unless(outcome["raised"], f"fit of a below-threshold run returned a rate {outcome.get('rate')!r}")


def check_validate(report: Dict, fixed: float, samples: int, rate_tol: float = 0.01) -> None:
    """No mismatch; each spectral gamma matches numpy.roots; each fitted rate lies within rate_tol of it."""
    entries = report["entries"]
    fail_unless(len(entries) == samples, f"{len(entries)} entries for {samples} samples")
    for e in entries:
        eta = REGIMES[e["regime"]]
        where = f"validate {e['regime']} delta21={e['axis_value']!r}"
        fail_unless(e["status"] not in ("mismatch", "inconsistent"), f"{where}: status {e['status']}")
        gamma, _, scale = oracle.rate(e["axis_value"], fixed, eta)
        fail_unless(abs(e["gamma_spectrum"] - gamma) <= GAMMA_TOL * scale, f"{where}: spectral gamma {e['gamma_spectrum']!r}, numpy.roots gives {gamma!r}")
        if e["status"] == "ok":
            fail_unless(
                abs(e["gamma_fit"] - gamma) <= rate_tol * gamma,
                f"{where}: fitted rate {e['gamma_fit']!r} is not within {rate_tol} of {gamma!r}",
            )
        else:
            fail_unless(e["status"] == "consistent_stable" and gamma == 0.0, f"{where}: status {e['status']} at gamma {gamma!r}")
