"""Sweep engine tests: gain curves, mass study, threshold map, validation, serialization."""

import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import carl
from carl import (
    RAO,
    WAO,
    ScaledParams,
    SweepSpec,
    eigen_spectrum,
    gain_curve,
    mass_study,
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

    def test_point_construction(self):
        spec = SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=5, fixed=1.5)
        p = spec.point(0.5, "WAO")
        assert p.delta21 == 0.5 and p.alpha_beta == 1.5 and p.eta == WAO
        spec2 = SweepSpec(axis="alpha_beta", start=0.1, stop=2.0, num_points=5, fixed=0.5)
        p2 = spec2.point(1.0, "RAO")
        assert p2.delta21 == 0.5 and p2.alpha_beta == 1.0 and p2.eta == RAO


class TestGainCurve:
    def test_record_count_and_ordering(self):
        spec = SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=11, fixed=1.0)
        result = gain_curve(spec)
        assert len(result.records) == 22
        assert [r.regime for r in result.records[:11]] == ["RAO"] * 11
        assert [r.regime for r in result.records[11:]] == ["WAO"] * 11
        axis = [r.axis_value for r in result.records[:11]]
        assert axis == sorted(axis)
        assert all(r.gamma >= 0.0 for r in result.records)

    def test_matches_pointwise_spectra(self):
        spec = SweepSpec(axis="alpha_beta", start=0.1, stop=5.0, num_points=7, fixed=0.5)
        result = gain_curve(spec)
        for rec in result.records:
            eta = RAO if rec.regime == "RAO" else WAO
            sp = eigen_spectrum(ScaledParams.from_product(0.5, rec.axis_value, eta))
            assert rec.gamma == sp.gamma
            assert rec.case == sp.case.value
            assert rec.lambdas == sp.lambdas

    def test_rao_gain_band_edge(self):
        # RAO curve positive below (27/4)^(1/3), zero beyond
        spec = SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=801, fixed=1.0, regimes=("RAO",))
        result = gain_curve(spec)
        edge = (27.0 / 4.0) ** (1.0 / 3.0)
        for rec in result.records:
            if rec.axis_value < edge - 1e-6:
                assert rec.gamma > 0.0
            elif rec.axis_value > edge + 1e-6:
                assert rec.gamma == 0.0

    def test_wao_band_small_ab(self):
        spec = SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=801, fixed=0.1, regimes=("WAO",))
        result = gain_curve(spec)
        by_axis = {r.axis_value: r.gamma for r in result.records}
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
        assert all(r.gamma > 0.0 for r in result.records)
        # and the rate follows (sqrt(3)/2) * ab^(1/3) -> 0 as ab -> 0
        smallest = result.records[0]
        assert smallest.gamma == pytest.approx(np.sqrt(3.0) / 2.0 * smallest.axis_value ** (1.0 / 3.0), rel=1e-10)


class TestMassStudy:
    def test_ratio_one_reproduces_gain_curve(self):
        results = mass_study(5.0, [1.0], num_points=101)
        spec = SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=101, fixed=5.0)
        direct = gain_curve(spec)
        assert len(results) == 1
        got = results[0]
        for a, b in zip(got.records, direct.records):
            assert a.axis_value == b.axis_value
            assert a.gamma == b.gamma
            assert a.lambdas == b.lambdas

    def test_rao_unit_mapping_self_consistency(self):
        # converted RAO curve at ratio s == plain RAO curve at alpha_beta/s
        s = 10.0
        results = mass_study(5.0, [s], num_points=401)
        converted = results[0].filtered("RAO")
        spec = SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=401, fixed=5.0 / s, regimes=("RAO",))
        direct = gain_curve(spec).filtered("RAO")
        worst = max(abs(a.gamma - b.gamma) for a, b in zip(converted, direct))
        assert worst <= 1e-12
        # make sure the check actually exercises unstable points
        assert max(r.gamma for r in direct) > 0.1

    def test_convergence_with_mass(self):
        results = mass_study(5.0, [1.0, 10.0, 100.0], num_points=401)
        gaps = []
        for r in results:
            gw = r.gamma_array("WAO")
            gr = r.gamma_array("RAO")
            gaps.append(float(np.max(np.abs(gw - gr)) / gr.max()))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_meta_carries_ratio(self):
        results = mass_study(2.0, [3.0], num_points=21)
        meta = results[0].meta
        assert meta["mass_ratio"] == 3.0
        assert meta["alpha_beta_base"] == 2.0
        assert meta["spec"]["fixed"] == 2.0 * 9.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mass_study(-1.0, [1.0])
        with pytest.raises(ValueError):
            mass_study(1.0, [])
        with pytest.raises(ValueError):
            mass_study(1.0, [0.0])

    def test_rejects_unknown_regimes(self):
        with pytest.raises(ValueError, match="regimes"):
            mass_study(1.0, [1.0], regimes=("XAO",))


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

    def test_timestamp_only_when_requested(self):
        buf = io.StringIO()
        write_sweep_csv(gain_curve(self.spec()), buf)
        assert "timestamp" not in buf.getvalue()
        buf2 = io.StringIO()
        write_sweep_csv(gain_curve(self.spec(), timestamp="2026-08-10T00:00:00Z"), buf2)
        assert '# timestamp: "2026-08-10T00:00:00Z"' in buf2.getvalue()

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

    def test_records_spot_check_invariants(self):
        # every record satisfies the spectrum Vieta identities (1% spot check)
        result = gain_curve(SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=801, fixed=2.0))
        rng = np.random.default_rng(1)
        picks = rng.choice(len(result.records), size=max(1, len(result.records) // 100), replace=False)
        for k in picks:
            rec = result.records[int(k)]
            eta = RAO if rec.regime == "RAO" else WAO
            l1, l2, l3 = rec.lambdas
            assert abs((l1 + l2 + l3) - 1j * rec.axis_value) <= 1e-10
            assert abs(l1 * l2 * l3 - 1j * (2.0 + eta * rec.axis_value)) <= 1e-10



def test_cli_import_loads_no_thread_pool():
    # sweeps run serially: a fresh interpreter importing the CLI must not load
    # the thread-pool machinery (numpy alone does not import it)
    src = os.path.dirname(os.path.dirname(os.path.abspath(carl.__file__)))
    code = "import sys, carl.cli; sys.exit('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
