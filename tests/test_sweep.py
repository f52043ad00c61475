"""Sweep engine tests: gain curves, mass study, threshold map, validation, serialization."""

import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import carl
from carl import (
    RAO,
    WAO,
    ScaledParams,
    SweepResult,
    SweepSpec,
    gain_curve,
    mass_study,
    spectrum_arrays,
    threshold_lhs,
    threshold_map,
    validate_sweep,
    write_polylines_csv,
    write_sweep_csv,
    write_sweep_json,
)

WAO_ZERO_DETUNING_THRESHOLD = 0.38490017945975051


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="bogus", start=0.0, stop=1.0, num_points=10, fixed=1.0)
        with pytest.raises(ValueError):
            SweepSpec(axis="delta21", start=1.0, stop=0.0, num_points=10, fixed=1.0)
        with pytest.raises(ValueError):
            SweepSpec(axis="delta21", start=0.0, stop=1.0, num_points=1, fixed=1.0)
        with pytest.raises(ValueError):
            SweepSpec(axis="delta21", start=0.0, stop=1.0, num_points=10, fixed=1.0, regimes=("XAO",))
        with pytest.raises(ValueError):
            SweepSpec(axis="delta21", start=0.0, stop=1.0, num_points=10, fixed=-1.0)

    @pytest.mark.parametrize(
        "axis, start, stop, fixed",
        [("delta21", -math.inf, 1.0, 1.0), ("delta21", 0.0, math.inf, 1.0), ("delta21", -1e308, 1e308, 1.0),
         ("delta21", 0.0, 1.0, math.inf), ("alpha_beta", 0.0, 1.0, -math.inf)],
    )
    def test_rejects_values_past_the_float_range(self, axis, start, stop, fixed):
        # np.linspace would fill the grid with NaN, and a mass study would scale an infinite base
        message = f"start ({start}), stop ({stop}), stop - start and fixed ({fixed}) must be finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepSpec(axis=axis, start=start, stop=stop, num_points=10, fixed=fixed)

    def test_point_construction(self):
        spec = SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=5, fixed=1.5)
        p = ScaledParams.from_product(*spec.controls(0.5), WAO)
        assert spec.controls(0.5) == (0.5, 1.5)
        assert p.delta21 == 0.5 and p.alpha_beta == 1.5 and p.eta == WAO
        spec2 = SweepSpec(axis="alpha_beta", start=0.1, stop=2.0, num_points=5, fixed=0.5)
        p2 = ScaledParams.from_product(*spec2.controls(1.0), RAO)
        assert spec2.controls(1.0) == (0.5, 1.0)
        assert p2.delta21 == 0.5 and p2.alpha_beta == 1.0 and p2.eta == RAO
        # and a whole grid at once
        grid = spec2.grid()
        assert spec2.controls(grid)[0] == 0.5 and spec2.controls(grid)[1] is grid
        assert spec.controls(grid)[0] is grid and spec.controls(grid)[1] == 1.5


class TestGainCurve:
    def test_record_count_and_ordering(self):
        spec = SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=11, fixed=1.0)
        result = gain_curve(spec)
        columns = (result.axis, result.regime, result.gamma, result.case, result.lambdas, result.boundary)
        assert [len(column) for column in columns] == [22] * 6 and result.lambdas.shape == (22, 3)
        assert result.regime[:11].tolist() == ["RAO"] * 11
        assert result.regime[11:].tolist() == ["WAO"] * 11
        axis = result.axis[:11].tolist()
        assert axis == sorted(axis)
        assert (result.gamma >= 0.0).all()

    def test_matches_pointwise_spectra(self):
        spec = SweepSpec(axis="alpha_beta", start=0.1, stop=5.0, num_points=7, fixed=0.5)
        result = gain_curve(spec)
        lambdas, gamma, case, _ = spectrum_arrays(0.5, result.axis, np.where(result.regime == "RAO", RAO, WAO))
        assert result.gamma.tolist() == gamma.tolist()
        assert result.case.tolist() == case.tolist()
        assert result.lambdas.tolist() == lambdas.tolist()

    def test_rao_gain_band_edge(self):
        # RAO curve positive below (27/4)^(1/3), zero beyond
        spec = SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=801, fixed=1.0, regimes=("RAO",))
        result = gain_curve(spec)
        edge = (27.0 / 4.0) ** (1.0 / 3.0)
        assert (result.gamma[result.axis < edge - 1e-6] > 0.0).all()
        assert (result.gamma[result.axis > edge + 1e-6] == 0.0).all()

    def test_wao_band_small_ab(self):
        spec = SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=801, fixed=0.1, regimes=("WAO",))
        result = gain_curve(spec)
        by_axis = dict(zip(result.axis.tolist(), result.gamma.tolist()))
        assert by_axis[0.0] == 0.0
        grid = np.array(sorted(by_axis))
        gammas = np.array([by_axis[v] for v in grid])
        peak = grid[gammas.argmax()]
        assert gammas.max() > 0.0
        assert 0.5 < peak < 1.5

    def test_rao_gain_for_every_positive_ab_at_zero_detuning(self):
        # classical model has no density threshold at zero detuning
        spec = SweepSpec(axis="alpha_beta", start=1e-4, stop=1.0, num_points=50, fixed=0.0, regimes=("RAO",))
        result = gain_curve(spec)
        assert (result.gamma > 0.0).all()
        # and the rate follows (sqrt(3)/2) * ab^(1/3) -> 0 as ab -> 0
        assert result.gamma[0] == pytest.approx(np.sqrt(3.0) / 2.0 * result.axis[0] ** (1.0 / 3.0), rel=1e-10)


class TestMassStudy:
    def test_ratio_one_reproduces_gain_curve(self):
        results = mass_study(5.0, [1.0], num_points=101)
        spec = SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=101, fixed=5.0)
        direct = gain_curve(spec)
        assert len(results) == 1
        got = results[0]
        assert got.axis.tolist() == direct.axis.tolist()
        assert got.gamma.tolist() == direct.gamma.tolist()
        assert got.lambdas.tolist() == direct.lambdas.tolist()

    def test_rao_unit_mapping_self_consistency(self):
        # converted RAO curve at ratio s == plain RAO curve at alpha_beta/s
        s = 10.0
        results = mass_study(5.0, [s], num_points=401)
        converted = results[0].gamma[results[0].regime == "RAO"]
        spec = SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=401, fixed=5.0 / s, regimes=("RAO",))
        direct = gain_curve(spec).gamma
        worst = np.max(np.abs(converted - direct))
        assert worst <= 1e-12
        # make sure the check actually exercises unstable points
        assert direct.max() > 0.1

    def test_convergence_with_mass(self):
        results = mass_study(5.0, [1.0, 10.0, 100.0], num_points=401)
        gaps = []
        for r in results:
            gw = r.gamma[r.regime == "WAO"]
            gr = r.gamma[r.regime == "RAO"]
            gaps.append(float(np.max(np.abs(gw - gr)) / gr.max()))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_meta_carries_ratio(self):
        results = mass_study(2.0, [3.0], num_points=21)
        meta = results[0].meta
        assert meta["mass_ratio"] == 3.0
        assert meta["alpha_beta_base"] == 2.0
        assert meta["spec"]["fixed"] == 2.0 * 9.0
        spec = {"axis": "delta21", "start": -2.0, "stop": 6.0, "num_points": 21, "fixed": 18.0, "regimes": ["RAO", "WAO"]}
        assert meta["spec"] == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            mass_study(-1.0, [1.0])
        with pytest.raises(ValueError):
            mass_study(1.0, [])
        with pytest.raises(ValueError):
            mass_study(1.0, [0.0])
        with pytest.raises(ValueError, match=r"start \(6.0\) must be < stop \(-2.0\)"):
            mass_study(1.0, [1.0], delta21_range=(6.0, -2.0))
        with pytest.raises(ValueError, match=r"start \(1.0\) must be < stop \(1.0\)"):
            mass_study(1.0, [1.0], delta21_range=(1.0, 1.0))
        for points in (0, 1):
            with pytest.raises(ValueError, match=f"num_points must be >= 2, got {points}"):
                mass_study(1.0, [1.0], num_points=points)

    def test_rejects_unknown_regimes(self):
        with pytest.raises(ValueError, match="regimes"):
            mass_study(1.0, [1.0], regimes=("XAO",))

    @pytest.mark.parametrize(
        "base, ratio, d_range",
        [(1.0, 1e200, (-2.0, 6.0)), (0.0, 1e308, (-1.0, 6.0)), (1e-300, 1e300, (-1e10, 1.0))],
        ids=["alpha_beta", "delta21-stop", "delta21-start"],
    )
    def test_rejects_ratio_past_the_float_range(self, base, ratio, d_range):
        # (s*delta21, alpha_beta_base*s**2) overflows at ratio s; the error names s, the base and the limit
        message = f"mass ratio {ratio!r} takes the control point (s*delta21, alpha_beta_base*s**2) past the float range " \
            f"at alpha_beta_base = {base!r}, delta21 in [{d_range[0]!r}, {d_range[1]!r}]: both must stay within {sys.float_info.max!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            mass_study(base, [1.0, ratio], delta21_range=d_range, num_points=5)


def same_bytes(got, want):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, want, strict=True))


class TestOneSpectrumCall:
    """The one stacked spectrum_arrays call of a command gives, byte for byte, its per-regime calls.

    The grids mix the solver's branches: order-1 rows on both sides of the
    threshold, rows whose dominant root is deflated, rows rescaled by a power
    of two (huge and tiny coefficients) and boundary rows (RAO at ab = 0).
    """

    SPECS = [
        SweepSpec(axis="delta21", start=-3.0, stop=6.0, num_points=301, fixed=1.0),
        SweepSpec(axis="delta21", start=-1e12, stop=1e12, num_points=301, fixed=1.0),
        SweepSpec(axis="alpha_beta", start=0.0, stop=1e60, num_points=301, fixed=-2.0),
        SweepSpec(axis="alpha_beta", start=0.0, stop=1e-45, num_points=301, fixed=1e-50, regimes=("RAO",)),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=["order_one", "deflated", "huge", "tiny"])
    def test_gain_curve_equals_per_regime_calls(self, spec):
        result = gain_curve(spec)
        grid, n = spec.grid(), spec.num_points
        for k, regime in enumerate(spec.regimes):
            block = slice(k * n, (k + 1) * n)
            got = (result.lambdas[block], result.gamma[block], result.case[block], result.boundary[block])
            assert same_bytes(got, spectrum_arrays(*spec.controls(grid), {"RAO": RAO, "WAO": WAO}[regime]))

    def test_grids_cover_the_branches(self):
        results = [gain_curve(spec) for spec in self.SPECS]
        case = np.concatenate([r.case for r in results])
        assert {"I", "II"} <= set(case.tolist()) and any(r.boundary.any() for r in results)

    @pytest.mark.parametrize(
        "base, ratios, d_range",
        [(0.8, [1.0, 7.5, 1000.0], (-3.0, 6.0)), (1e-40, [1, 31.6, 1000], (-1e10, 1e10)), (3.0, [2.0], (-2.0, 6.0))],
        ids=["order_one", "mixed_scales", "one_ratio"],
    )
    @pytest.mark.parametrize("regimes", [("RAO", "WAO"), ("WAO",)])
    def test_mass_study_equals_per_ratio_and_regime_calls(self, base, ratios, d_range, regimes):
        results = mass_study(base, ratios, delta21_range=d_range, num_points=201, regimes=regimes)
        grid = np.linspace(*d_range, 201)
        for ratio, result in zip(ratios, results, strict=True):
            for k, regime in enumerate(regimes):
                lam, gamma, case, boundary = spectrum_arrays(ratio * grid, base * ratio * ratio, {"RAO": RAO, "WAO": WAO}[regime])
                # lambdas / ratio, each part as Python's complex / float forms it
                scaled = np.empty_like(lam)
                scaled.real = (lam.real + lam.imag * 0.0) / ratio
                scaled.imag = (lam.imag - lam.real * 0.0) / ratio
                block = slice(k * 201, (k + 1) * 201)
                got = (result.lambdas[block], result.gamma[block], result.case[block], result.boundary[block])
                assert same_bytes(got, (scaled, gamma / ratio, case, boundary))


class TestThresholdMap:
    def test_rao_boundary_is_cubic_law(self):
        lines = threshold_map((-2.0, 6.0), (0.01, 10.0), RAO, resolution=128)
        assert len(lines) == 1
        curve = lines[0]
        resid = np.max(np.abs(curve[:, 1] - 4.0 * curve[:, 0] ** 3 / 27.0))
        assert resid <= 1e-6  # refined vertices sit on the analytic law

    def test_wao_boundary_passes_zero_detuning_threshold(self):
        lines = threshold_map((-2.0, 6.0), (0.01, 10.0), WAO, resolution=128)
        assert lines
        best = min(
            float(np.hypot(l[:, 0], l[:, 1] - WAO_ZERO_DETUNING_THRESHOLD).min()) for l in lines
        )
        # nearest refined vertex within a cell of the known crossing
        assert best <= 0.1

    def test_wao_branch_tips_approach_recoil_resonance(self):
        lines = threshold_map((-2.0, 6.0), (0.001, 2.0), WAO, resolution=256)
        low = np.vstack([l[l[:, 1] < 0.01] for l in lines if np.any(l[:, 1] < 0.01)])
        assert len(low) >= 2
        assert np.all(np.abs(low[:, 0] - 1.0) < 0.2)

    def test_vertices_lie_on_zero_level(self):
        lines = threshold_map((-2.0, 6.0), (0.05, 5.0), WAO, resolution=64)
        for l in lines:
            values = np.abs(threshold_lhs(l[:, 0], l[:, 1], WAO))
            # bisected to 1e-8 along one axis; lhs gradient is O(1..10) here
            assert float(values.max()) <= 1e-5

    def test_sub_cell_branches_beside_recoil_resonance(self):
        # both pieces of the curve inside the window are narrower than a cell
        lines = threshold_map((-2.0, 6.0), (1e-6, 1e-4), WAO, resolution=16)
        assert len(lines) == 2
        left, right = lines
        assert np.all(left[:, 0] < 1.0) and np.all(right[:, 0] > 1.0)
        assert np.all(np.abs(np.concatenate(lines)[:, 0] - 1.0) < 0.02)

    def test_vertices_satisfy_unfactored_lhs(self):
        for eta, ab_range in ((RAO, (0.01, 10.0)), (WAO, (0.01, 10.0)), (WAO, (1e-6, 40.0))):
            for l in threshold_map((-4.0, 6.0), ab_range, eta, resolution=128):
                d, ab = l[:, 0], l[:, 1]
                u = d / 3.0
                lhs = (ab / 2.0) ** 2 + ab * u * (eta - u * u) - eta * (1.0 - 9.0 * u * u) ** 2 / 27.0
                assert np.all(np.abs(lhs) <= 1e-12 * (1.0 + ab * ab))

    def test_empty_window(self):
        # deep inside the stable region: no boundary
        lines = threshold_map((4.0, 6.0), (0.01, 0.1), RAO, resolution=32)
        assert lines == []

    def test_validation(self):
        with pytest.raises(ValueError):
            threshold_map((0.0, 1.0), (0.0, 1.0), RAO, resolution=8)
        with pytest.raises(ValueError):
            threshold_map((1.0, 0.0), (0.0, 1.0), RAO)
        with pytest.raises(ValueError):
            threshold_map((0.0, 1.0), (0.0, 1.0), 2)


class TestValidateSweep:
    def test_consistency_statuses(self):
        spec = SweepSpec(axis="delta21", start=-2.0, stop=3.0, num_points=101, fixed=1.0)
        report = validate_sweep(spec, 10, seed=3)
        counts = report.counts()
        assert len(report.entries) == 10
        assert report.mismatches() == []
        assert counts.get("ok", 0) > 0
        assert counts.get("consistent_stable", 0) > 0

    def test_deterministic_under_seed(self):
        spec = SweepSpec(axis="alpha_beta", start=0.2, stop=3.0, num_points=51, fixed=0.0)
        a = validate_sweep(spec, 6, seed=9)
        b = validate_sweep(spec, 6, seed=9)
        assert a == b

    def test_boundary_points_skipped(self):
        # alpha_beta = 0 grid edge gives a triple root: boundary-flagged
        spec = SweepSpec(axis="alpha_beta", start=0.0, stop=1.0, num_points=2, fixed=0.0, regimes=("RAO",))
        report = validate_sweep(spec, 8, seed=0)
        assert report.counts().get("skipped_boundary", 0) > 0

    def test_validation(self):
        spec = SweepSpec(axis="delta21", start=0.0, stop=1.0, num_points=5, fixed=1.0)
        with pytest.raises(ValueError):
            validate_sweep(spec, 0)

    # WAO at delta21 near 0: alpha_beta 1 is above threshold (gamma about 0.56), 0.1 below it
    @pytest.mark.parametrize(
        "fixed, fit, status",
        [
            (1.0, lambda window: 1.5 * 60.0 / window[1], "mismatch"),  # above threshold window[1] = 60 / gamma
            (1.0, None, "inconsistent"),
            (0.1, lambda window: 0.25, "inconsistent"),
        ],
        ids=["mismatch", "inconsistent-above", "inconsistent-below"],
    )
    def test_statuses_of_a_wrong_fit(self, monkeypatch, fixed, fit, status):
        windows = []

        def fake_fit(traj, window):
            assert traj.tau[-1] == window[1]  # each sample is evolved to the end of its window
            windows.append(window)
            if fit is None:
                raise carl.NonExponentialFitError(residual=0.5, bound=1e-2)
            return fit(window)

        monkeypatch.setattr(carl.sweep, "fit_growth_rate", fake_fit)
        spec = SweepSpec(axis="delta21", start=-0.1, stop=0.1, num_points=3, fixed=fixed, regimes=("WAO",))
        report = validate_sweep(spec, 3, seed=0)
        assert len(windows) == 3 and [e.status for e in report.entries] == [status] * 3
        assert report.mismatches() == list(report.entries)
        for entry, window in zip(report.entries, windows):
            assert entry.gamma_fit == (None if fit is None else fit(window))
            if fixed == 1.0:
                assert entry.gamma_spectrum > 0.05 and window == (30.0 / entry.gamma_spectrum, 60.0 / entry.gamma_spectrum)
                assert entry.rel_err == (None if fit is None else pytest.approx(0.5))
            else:
                assert (entry.gamma_spectrum, window, entry.rel_err) == (0.0, (20.0, 60.0), None)


class TestSerialization:
    def spec(self):
        return SweepSpec(axis="delta21", start=-1.0, stop=2.0, num_points=31, fixed=1.0)

    def test_csv_schema(self):
        result = gain_curve(self.spec())
        buf = io.StringIO()
        write_sweep_csv(result, buf)
        lines = buf.getvalue().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "axis_name,axis_value,regime,gamma,case,re_l1,im_l1,re_l2,im_l2,re_l3,im_l3"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 62
        cells = data[0].split(",")
        assert cells[0] == "delta21" and cells[2] == "RAO"
        assert cells[4] in ("I", "II")
        float(cells[1]), float(cells[3]), [float(c) for c in cells[5:]]

    def test_json_mirrors_csv(self):
        result = gain_curve(self.spec())
        cbuf, jbuf = io.StringIO(), io.StringIO()
        write_sweep_csv(result, cbuf)
        write_sweep_json(result, jbuf)
        doc = json.loads(jbuf.getvalue())
        data = [l for l in cbuf.getvalue().splitlines() if not l.startswith("#")][1:]
        assert len(doc["records"]) == len(data)
        first_csv = data[0].split(",")
        first_json = doc["records"][0]
        assert first_json["axis_name"] == first_csv[0]
        assert first_json["axis_value"] == float(first_csv[1])
        assert first_json["regime"] == first_csv[2]
        assert first_json["gamma"] == float(first_csv[3])
        assert first_json["case"] == first_csv[4]
        assert first_json["im_l3"] == float(first_csv[10])
        assert doc["meta"]["spec"]["axis"] == "delta21"

    def test_byte_identical_reruns(self):
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_sweep_csv(gain_curve(self.spec()), buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        jbufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_sweep_json(gain_curve(self.spec()), buf)
            jbufs.append(buf.getvalue())
        assert jbufs[0] == jbufs[1]

    def test_polylines_csv(self):
        lines = threshold_map((-2.0, 6.0), (0.05, 5.0), WAO, resolution=32)
        buf = io.StringIO()
        write_polylines_csv(lines, buf, meta={"eta": 1})
        text = buf.getvalue().splitlines()
        assert text[0] == "# eta: 1"
        assert text[1] == "branch_id,delta21,alpha_beta"
        rows = [l.split(",") for l in text[2:]]
        assert all(len(r) == 3 for r in rows)
        branch_ids = sorted({int(r[0]) for r in rows})
        assert branch_ids == list(range(len(lines)))

    @staticmethod
    def reference_json(result):
        # the reference: one dict per row, the whole document through json.dumps
        keys = "axis_name,axis_value,regime,gamma,case,re_l1,im_l1,re_l2,im_l2,re_l3,im_l3".split(",")
        axis_name = result.meta.get("spec", {}).get("axis", "axis")
        columns = (result.axis, result.regime, result.gamma, result.case, result.lambdas)
        rows = [
            [axis_name, a, r, g, c, *(part for l in lam for part in (l.real, l.imag))]
            for a, r, g, c, lam in zip(*(column.tolist() for column in columns))
        ]
        doc = {"meta": result.meta, "records": [dict(zip(keys, row)) for row in rows]}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: [gain_curve(SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=201, fixed=1.7))],
            lambda: [gain_curve(SweepSpec(axis="alpha_beta", start=0.01, stop=5.0, num_points=201, fixed=0.3))],
            lambda: [gain_curve(SweepSpec(axis="delta21", start=-1.0, stop=3.0, num_points=51, fixed=0.5, regimes=("WAO",)))],
            lambda: mass_study(2.5, [1.0, 10.0, 100.0], num_points=101),
        ],
        ids=["delta21", "alpha_beta", "wao_only", "mass_study"],
    )
    def test_json_bytes_match_one_dict_per_row(self, make):
        results = make()
        for result in results:
            buf = io.StringIO()
            write_sweep_json(result, buf)
            assert buf.getvalue() == self.reference_json(result)
        if "mass_ratio" in results[0].meta:
            # the signed zeros of the converted eigenvalues reach the file
            assert any('": -0.0' in self.reference_json(r) for r in results)

    def test_json_bytes_non_finite_and_empty(self):
        lam = np.array([[complex(np.nan, 1.0), complex(np.inf, -np.inf), 0j]])
        one = lambda v, dt=float: np.array([v], dtype=dt)
        rows = SweepResult(one(np.inf), one("RAO", str), one(np.nan), one("II", str), lam, one(False, bool), {"spec": {"axis": "delta21"}})
        empty = SweepResult(np.zeros(0), np.zeros(0, str), np.zeros(0), np.zeros(0, str), np.zeros((0, 3), complex), np.zeros(0, bool), {})
        for result in (rows, empty):
            buf = io.StringIO()
            write_sweep_json(result, buf)
            assert buf.getvalue() == self.reference_json(result)

    @pytest.mark.parametrize("points, regimes", [(1023, ("RAO",)), (1024, ("WAO",)), (1025, ("RAO",)), (1500, ("RAO", "WAO"))])
    def test_json_bytes_across_blocks(self, points, regimes):
        result = gain_curve(SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=points, fixed=1.3, regimes=regimes))
        buf = io.StringIO()
        write_sweep_json(result, buf)
        assert buf.getvalue() == self.reference_json(result)

    def test_json_bytes_non_finite_in_a_later_block(self):
        result = gain_curve(SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=1300, fixed=1.3))
        result.gamma[2100] = math.nan
        result.lambdas[2100] = [complex(math.nan, 1.0), complex(math.inf, -math.inf), 0j]
        result.axis[2500] = -math.inf
        buf = io.StringIO()
        write_sweep_json(result, buf)
        assert buf.getvalue() == self.reference_json(result)
        assert "NaN" in buf.getvalue() and "-Infinity" in buf.getvalue()

    def test_json_axis_name_with_escapes(self):
        result = gain_curve(SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=41, fixed=1.7))
        result.meta["spec"]["axis"] = 'x"\\é'  # a quote, a backslash and a letter outside ASCII
        buf = io.StringIO()
        write_sweep_json(result, buf)
        assert buf.getvalue() == self.reference_json(result)
        assert r'"axis_name": "x\"\\\u00e9"' in buf.getvalue()

    def test_json_bytes_all_floats_zero(self):
        # every row stable (case I) at gamma 0 with roots 0, the signs of zero mixed
        n = 1500
        zeros = np.where(np.arange(n) % 5 == 0, -0.0, 0.0)
        lambdas = (zeros + 1j * zeros[::-1])[:, None] * np.array([1.0, -1.0, 1.0])
        result = SweepResult(zeros, np.repeat(["RAO", "WAO"], n // 2), -zeros, np.full(n, "I"), lambdas, np.zeros(n, bool), {"spec": {"axis": "delta21"}})
        buf = io.StringIO()
        write_sweep_json(result, buf)
        assert buf.getvalue() == self.reference_json(result)
        assert '"gamma": -0.0' in buf.getvalue() and '"im_l2": 0.0' in buf.getvalue()

    def test_json_memory_stays_bounded(self, tmp_path):
        n = 50_000  # 10**5 rows, both regimes
        result = gain_curve(SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=n, fixed=1.0))
        path = str(tmp_path / "big.json")
        write_sweep_json(gain_curve(SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=11, fixed=1.0)), path)  # the numpy loops load
        tracemalloc.start()
        try:
            write_sweep_json(result, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the records are written in blocks of rows; the file is about 33 MB
        assert peak < 4e6 and os.path.getsize(path) > 3e7

    @pytest.mark.parametrize("eta", [RAO, WAO])
    def test_polylines_bytes_match_per_vertex_format(self, eta):
        for lines in (threshold_map((-4.0, 6.0), (1e-6, 40.0), eta, resolution=64), []):
            buf = io.StringIO()
            write_polylines_csv(lines, buf, meta={"eta": eta, "window": [-4.0, 6.0]})
            want = f'# eta: {eta}\n# window: [-4.0, 6.0]\nbranch_id,delta21,alpha_beta\n' + "".join(
                f"{branch},{format(x, '.17g')},{format(y, '.17g')}\n" for branch, line in enumerate(lines) for x, y in line
            )
            assert buf.getvalue() == want

    def test_records_spot_check_invariants(self):
        # every record satisfies the spectrum Vieta identities (1% spot check)
        result = gain_curve(SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=801, fixed=2.0))
        rng = np.random.default_rng(1)
        picks = rng.choice(len(result.axis), size=max(1, len(result.axis) // 100), replace=False)
        for k in picks:
            axis_value = float(result.axis[k])
            eta = RAO if result.regime[k] == "RAO" else WAO
            l1, l2, l3 = result.lambdas[k].tolist()
            assert abs((l1 + l2 + l3) - 1j * axis_value) <= 1e-10
            assert abs(l1 * l2 * l3 - 1j * (2.0 + eta * axis_value)) <= 1e-10



def test_cli_import_loads_no_thread_pool():
    # sweeps run serially: a fresh interpreter importing the CLI must not load
    # the thread-pool machinery (numpy alone does not import it)
    src = os.path.dirname(os.path.dirname(os.path.abspath(carl.__file__)))
    code = "import sys, carl.cli; sys.exit('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
