"""Self-test of the output checks: each must pass on right values and fail on wrong ones.

    python3 carlbench/selftest.py

The right values are built here from :mod:`oracle`, without carl; each wrong
value is one of them moved by a small amount (a gamma off by one part in
10^6, a vertex moved off the boundary, a perturbed final state...). Exits
with 1 if a check rejects a right value or accepts a wrong one, so that no
check can pass vacuously.
"""

from __future__ import annotations

import copy
import math
import sys

import numpy as np

import checks
import oracle
import workloads

results = []


def expect(name: str, should_pass: bool, fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
        passed, why = True, ""
    except checks.CheckFailed as exc:
        passed, why = False, str(exc)
    ok = passed == should_pass
    results.append(ok)
    verdict = "passes" if passed else "fails"
    print(f"{'ok  ' if ok else 'BAD '} {name}: {verdict}" + (f" ({why[:100]})" if why and not ok else ""))


def sweep_rows(fixed, eta_axis="delta21", ratio=1.0, points=81):
    rows = []
    for regime, eta in checks.REGIMES.items():
        for v in np.linspace(-2.0, 6.0, points) if eta_axis == "delta21" else np.linspace(0.01, 5.0, points):
            d, ab = (v, fixed) if eta_axis == "delta21" else (fixed, v)
            gamma, unstable, _ = oracle.rate(ratio * d, ab * ratio * ratio, eta)
            rows.append({"axis_name": eta_axis, "axis_value": float(v), "regime": regime,
                         "gamma": gamma / ratio, "case": "II" if unstable else "I"})
    return rows


def nudge(rows, key, factor, regime=None):
    """Copy of rows with the first unstable row (of ``regime``) scaled in ``key``."""
    out = copy.deepcopy(rows)
    row = next(r for r in out if r["gamma"] > 0.1 and (regime is None or r["regime"] == regime))
    row[key] *= factor
    return out


def curves():
    rows = sweep_rows(1.3)
    expect("sweep rows, right", True, checks.check_sweep_rows, rows, 1.3)
    expect("sweep rows, gamma off by 1e-6", False, checks.check_sweep_rows, nudge(rows, "gamma", 1 + 1e-6, "WAO"), 1.3)
    flipped = copy.deepcopy(rows)
    flipped[-1]["case"] = "I" if flipped[-1]["case"] == "II" else "II"
    expect("sweep rows, case flipped", False, checks.check_sweep_rows, flipped, 1.3)
    ab_rows = sweep_rows(0.7, "alpha_beta")
    expect("alpha_beta rows, right", True, checks.check_sweep_rows, ab_rows, 0.7)
    expect("alpha_beta rows, gamma off by 1e-6", False, checks.check_sweep_rows, nudge(ab_rows, "gamma", 1 + 1e-6), 0.7)
    expect("RAO closed form, right", True, checks.check_rao_closed_form, rows, 1.3)
    expect("RAO closed form, gamma off by 1e-6", False, checks.check_rao_closed_form, nudge(rows, "gamma", 1 + 1e-6, "RAO"), 1.3)

    mass = sweep_rows(2.0, ratio=10.0)  # the spectrum at (10 d, 200), rates divided by 10
    plain = sweep_rows(0.2)
    expect("mass-study rows, right", True, checks.check_sweep_rows, mass, 2.0, ratio=10.0)
    expect("mass-study rows, gamma off by 1e-6", False, checks.check_sweep_rows, nudge(mass, "gamma", 1 + 1e-6), 2.0, ratio=10.0)
    expect("mass identity, right", True, checks.check_mass_identity, mass, plain, 10.0)
    expect("mass identity, gamma off by 1e-6", False, checks.check_mass_identity, nudge(mass, "gamma", 1 + 1e-6, "RAO"), plain, 10.0)
    expect("gap shrinks, right", True, checks.check_gap_shrinks, {1.0: 0.82, 10.0: 0.047, 100.0: 7.1e-4})
    expect("gap shrinks, gap grows at 100", False, checks.check_gap_shrinks, {1.0: 0.82, 10.0: 0.047, 100.0: 0.05})
    expect("byte identity, right", True, checks.check_identical, "a,b\n1,2\n", "a,b\n1,2\n", "x")
    expect("byte identity, one digit", False, checks.check_identical, "a,b\n1,2\n", "a,b\n1,3\n", "x")

    files = {"a.csv": ("RAO", "WAO"), "b.csv": ("RAO", "WAO")}
    clause = "  '{}' using 2:(strcol(3) eq '{}') ? column(4) : NaN) with lines title 'x'"
    script = "plot \\\n" + ", \\\n".join(clause.format(f, r) for f in files for r in files[f]) + "\n"
    expect("plot script, right", True, checks.check_plot_script, script, files)
    expect("plot script, clause missing", False, checks.check_plot_script, script.replace("'b.csv' using 2:(strcol(3) eq 'WAO'", ""), files)
    expect("plot script, clause doubled", False, checks.check_plot_script, script + clause.format("a.csv", "RAO"), files)


def boundary(eta, d_range, ab_range):
    """Polylines on the boundary, one per piece inside the window, vertices on grid nodes."""
    branches, line = {}, []
    for d in np.linspace(d_range[0], d_range[1], 401):
        ab = oracle.critical_alpha_beta(float(d), eta)
        if ab_range[0] < ab < ab_range[1]:
            line.append((float(d), ab))
        elif line:
            branches[len(branches)], line = np.array(line), []
    if line:
        branches[len(branches)] = np.array(line)
    return branches


def thresholds():
    d_range, ab_range = workloads.THRESHOLD_WINDOW
    tol = workloads.REFINE_TOL
    for eta in (0, 1):
        lines = boundary(eta, d_range, ab_range)
        expect(f"polylines eta={eta}, right", True, checks.check_polylines, lines, eta, d_range, ab_range, tol)
        moved = copy.deepcopy(lines)
        moved[0][len(moved[0]) // 2, 1] *= 1 + 1e-6
        expect(f"polylines eta={eta}, vertex moved 1e-6 off", False, checks.check_polylines, moved, eta, d_range, ab_range, tol)
        extra = {**lines, len(lines): lines[0][:3]}
        expect(f"polylines eta={eta}, extra branch", False, checks.check_polylines, extra, eta, d_range, ab_range, tol)
    rao_only = {0: np.array([(d, 4 * d**3 / 27 * (1 + 1e-6)) for d in np.linspace(1.0, 5.0, 50)])}
    expect("polylines eta=0, RAO vertices off 4d^3/27", False, checks.check_polylines, rao_only, 0, d_range, ab_range, tol)

    for d, eta in ((0.5, 1), (-2.0, 1), (2.0, 0)):
        ref = oracle.critical_alpha_beta(d, eta)
        expect(f"critical_alpha_beta({d}, {eta}), right", True, checks.check_critical_alpha_beta, d, eta, ref)
        expect(f"critical_alpha_beta({d}, {eta}), off by 1e-5", False, checks.check_critical_alpha_beta, d, eta, ref * (1 + 1e-5))
        expect(f"critical_alpha_beta({d}, {eta}), None", False, checks.check_critical_alpha_beta, d, eta, None)
    expect("critical_alpha_beta(-1, 0), right None", True, checks.check_critical_alpha_beta, -1.0, 0, None)
    expect("critical_alpha_beta(-1, 0), a value", False, checks.check_critical_alpha_beta, -1.0, 0, 1e-3)

    window = workloads.CD21_WINDOW
    for ab, eta in ((1e-3, 1), (2.0, 1), (2.0, 0)):
        edges = [bisect_edge(ab, eta, lo, hi) for lo, hi in oracle.sign_changes(ab, eta, window, 1e-3)]
        expect(f"critical_delta21({ab}, {eta}), right", True, checks.check_critical_delta21, ab, eta, window, edges)
        expect(f"critical_delta21({ab}, {eta}), edge dropped", False, checks.check_critical_delta21, ab, eta, window, edges[1:])
        expect(f"critical_delta21({ab}, {eta}), edge moved 1e-4", False, checks.check_critical_delta21, ab, eta, window,
               [edges[0] + 1e-4] + edges[1:])


def bisect_edge(ab, eta, lo, hi):
    neg_lo = oracle.discriminant(lo, ab, eta) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (oracle.discriminant(mid, ab, eta) < 0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dynamics():
    y0 = [1e-6, 0.0, 0.0]
    for label, run, crossing in (("above", dict(workloads.ABOVE, delta21=0.5), True),
                                 ("below", dict(workloads.BELOW, delta21=2.5), False)):
        m = oracle.system_matrix(run["delta21"], run["alpha"], run["beta"], run["eta"])
        tau = run["tau_end"]
        traj = {"tau": tau, "y": oracle.propagate(m, y0, tau)}
        expect(f"final state {label}, right", True, checks.check_final_state, run, y0, traj, tau, run["dt"])
        bad = dict(traj, y=traj["y"] * (1 + 1e-6))
        expect(f"final state {label}, perturbed by 1e-6", False, checks.check_final_state, run, y0, bad, tau, run["dt"])
        flag = first_crossing(m, y0, run["dt"], tau)
        expect(f"linearity flag {label}, right", True, checks.check_linearity_flag, run, y0, flag, run["dt"], crossing)
        wrong = None if crossing else 10.0
        expect(f"linearity flag {label}, {wrong}", False, checks.check_linearity_flag, run, y0, wrong, run["dt"], crossing)
        if crossing:
            expect("linearity flag above, 10 steps late", False, checks.check_linearity_flag, run, y0, flag + 10 * run["dt"],
                   run["dt"], crossing)
    expect("fit raised, right", True, checks.check_fit_raised, {"raised": True})
    expect("fit raised, returned a rate", False, checks.check_fit_raised, {"raised": False, "rate": 0.01})

    v = workloads.VALIDATE
    entries = []
    for i, d in enumerate(np.linspace(v["from"], v["to"], v["samples"])):
        regime = ("RAO", "WAO")[i % 2]
        gamma = oracle.rate(float(d), v["alpha_beta"], checks.REGIMES[regime])[0]
        entries.append({"axis_value": float(d), "regime": regime, "gamma_spectrum": gamma,
                        "gamma_fit": gamma * (1 + 1e-3), "status": "ok", "rel_err": 1e-3})
    report = {"entries": entries}
    expect("validate, right", True, checks.check_validate, report, v["alpha_beta"], v["samples"])
    for key, value, label in (("gamma_fit", 1.02, "fitted rate off by 2%"), ("gamma_spectrum", 1 + 1e-6, "spectral gamma off by 1e-6")):
        bad = copy.deepcopy(report)
        bad["entries"][3][key] *= value
        expect(f"validate, {label}", False, checks.check_validate, bad, v["alpha_beta"], v["samples"])
    bad = copy.deepcopy(report)
    bad["entries"][2]["status"] = "mismatch"
    expect("validate, a mismatch", False, checks.check_validate, bad, v["alpha_beta"], v["samples"])
    expect("validate, a sample missing", False, checks.check_validate, {"entries": entries[1:]}, v["alpha_beta"], v["samples"])


def first_crossing(m, y0, dt, tau_end):
    """First step time at which the exact |B| exceeds 1, or None."""
    w, vecs = np.linalg.eig(m)
    coef = np.linalg.solve(vecs, np.asarray(y0, dtype=complex))
    taus = dt * np.arange(1, int(math.floor(tau_end / dt + 1e-9)) + 1)
    b = np.abs((vecs[1] * coef) @ np.exp(np.outer(w, taus)))
    above = np.nonzero(b > 1.0)[0]
    return float(taus[above[0]]) if len(above) else None


if __name__ == "__main__":
    curves()
    thresholds()
    dynamics()
    bad = results.count(False)
    print(f"{len(results)} cases, {bad} wrong")
    sys.exit(1 if bad else 0)
