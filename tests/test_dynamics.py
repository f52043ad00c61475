"""Time-domain integration tests against analytic limits and the propagator oracle.

The oracle, ``propagator``, is itself checked against a ``decimal``
reference of ``exp(tau*M)`` next to the threshold, where two eigenvalues
nearly coincide.
"""

import io
import math
import re
import struct
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carl import (
    RAO,
    WAO,
    NonExponentialFitError,
    ScaledParams,
    StepSizeRejection,
    Trajectory,
    TrajectoryState,
    critical_alpha_beta,
    evolve,
    fit_growth_rate,
    propagator,
    spectrum_arrays,
    system_matrix,
    write_trajectory_csv,
)
from carl.dynamics import _BLOCK, _rk4_step_matrix
from carl.dynamics import _CHUNK, NonFiniteStateError

SEED_STATE = TrajectoryState(tau=0.0, A1=1e-6 + 0j, B=0j, Bdot=0j)


def growth_rate(p):
    """The growth rate of the spectrum at ``p``, as a Python float."""
    return spectrum_arrays(p.delta21, p.alpha_beta, p.eta)[1].item()


def decoupled(eta):
    return ScaledParams(delta21=0.0, alpha=0.0, beta=0.0, eta=eta)


def decimal_expm(m, tau, digits=50):
    """exp(tau*m) of a complex 3x3 array: a scaled Taylor series on (re, im) pairs of Decimals at ``digits`` digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        a = [[(Decimal(z.real) * Decimal(tau), Decimal(z.imag) * Decimal(tau)) for z in row] for row in m.tolist()]
        squarings = 0
        while max(sum(abs(x) + abs(y) for x, y in row) for row in a) > Decimal("0.5"):
            a = [[(x / 2, y / 2) for x, y in row] for row in a]
            squarings += 1

        def product(p, q):
            return [[(sum(p[i][k][0] * q[k][j][0] - p[i][k][1] * q[k][j][1] for k in range(3)),
                      sum(p[i][k][0] * q[k][j][1] + p[i][k][1] * q[k][j][0] for k in range(3))) for j in range(3)] for i in range(3)]

        result = term = [[(Decimal(int(i == j)), Decimal(0)) for j in range(3)] for i in range(3)]
        k = 0
        while max(abs(x) + abs(y) for row in term for x, y in row) >= Decimal(10) ** -digits:
            k += 1
            term = [[(x / k, y / k) for x, y in row] for row in product(term, a)]
            result = [[(x + u, y + v) for (x, y), (u, v) in zip(r, t)] for r, t in zip(result, term)]
        for _ in range(squarings):
            result = product(result, result)
        return np.array([[complex(float(x), float(y)) for x, y in row] for row in result])


class TestAnalyticLimits:
    def test_wao_bunching_is_harmonic_oscillator(self):
        # alpha=beta=0, eta=1, B(0)=1: B(tau) = cos(tau)
        traj = evolve(decoupled(WAO), TrajectoryState(0.0, 0j, 1.0 + 0j, 0j), tau_end=20.0, dt=1e-3)
        worst = max(abs(s.B - np.cos(s.tau)) for s in traj.samples)
        assert worst <= 1e-8

    def test_rao_bunching_is_free_particle(self):
        # alpha=beta=0, eta=0, dB/dtau(0)=1: B(tau) = tau
        traj = evolve(decoupled(RAO), TrajectoryState(0.0, 0j, 0j, 1.0 + 0j), tau_end=20.0, dt=1e-3)
        worst = max(abs(s.B - s.tau) for s in traj.samples)
        assert worst <= 1e-8

    def test_decoupled_probe_phase_rotation(self):
        d0 = 0.7
        p = ScaledParams(delta21=d0, alpha=0.0, beta=0.0, eta=WAO)
        traj = evolve(p, TrajectoryState(0.0, 1.0 + 0j, 0j, 0j), tau_end=20.0, dt=1e-3)
        worst = max(abs(s.A1 - np.exp(1j * d0 * s.tau)) for s in traj.samples)
        assert worst <= 1e-8
        mags = traj.probe_magnitudes()
        assert np.max(np.abs(mags - 1.0)) <= 1e-8


class TestEvolveMechanics:
    def test_validation(self):
        p = ScaledParams.from_product(0.0, 1.0, WAO)
        with pytest.raises(ValueError):
            evolve(p, SEED_STATE, tau_end=0.0)
        with pytest.raises(ValueError):
            evolve(p, SEED_STATE, tau_end=1.0, dt=-1e-3)
        with pytest.raises(ValueError):
            evolve(p, SEED_STATE, tau_end=1.0, output_stride=0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"dt must be positive and finite, got {bad}"):
                evolve(p, SEED_STATE, tau_end=1.0, dt=bad)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"tau_end must be finite, got {bad}"):
                evolve(p, SEED_STATE, tau_end=bad)
        with pytest.raises(ValueError, match="initial tau must be finite, got -inf"):
            evolve(p, TrajectoryState(-math.inf, SEED_STATE.A1, 0j, 0j), tau_end=1.0)

    def test_taus_strictly_increasing_and_stride(self):
        p = ScaledParams.from_product(0.0, 1.0, WAO)
        traj = evolve(p, SEED_STATE, tau_end=2.0, dt=1e-3, output_stride=250)
        taus = traj.tau
        assert np.all(np.diff(taus) > 0.0)
        # initial + every 250 steps + final
        assert taus[0] == 0.0 and taus[-1] == pytest.approx(2.0, abs=1e-12)
        assert taus[1] == pytest.approx(0.25, abs=1e-12)

    def test_non_integer_span_lands_on_tau_end(self):
        p = ScaledParams.from_product(0.0, 1.0, WAO)
        traj = evolve(p, SEED_STATE, tau_end=1.0005, dt=1e-3)
        assert traj.samples[-1].tau == pytest.approx(1.0005, abs=1e-12)
        # short final step agrees with the propagator
        exact = propagator(p, 1.0005) @ SEED_STATE.as_vector()
        got = traj.samples[-1].as_vector()
        assert np.linalg.norm(got - exact) / np.linalg.norm(exact) < 1e-9

    def test_step_rejection_raises_with_guidance(self):
        p = ScaledParams.from_product(1.0, 5.0, WAO)
        with pytest.raises(StepSizeRejection, match="reduce dt"):
            evolve(p, SEED_STATE, tau_end=10.0, dt=0.8)

    def test_linearity_flag_set_when_bunching_saturates(self):
        p = ScaledParams.from_product(0.0, 1.0, WAO)
        g = growth_rate(p)
        traj = evolve(p, TrajectoryState(0.0, 1.0 + 0j, 0j, 0j), tau_end=40.0, dt=1e-3)
        assert traj.linearity_flag is not None
        # |B| crosses 1 roughly when the seed has grown by that factor
        assert 0.0 < traj.linearity_flag < 40.0
        before = [s for s in traj.samples if s.tau < traj.linearity_flag]
        assert all(abs(s.B) <= 1.0 + 1e-9 for s in before)

    def test_linearity_flag_none_in_stable_regime(self):
        traj = evolve(ScaledParams.from_product(0.0, 0.1, WAO), SEED_STATE, tau_end=50.0, dt=5e-3)
        assert traj.linearity_flag is None


class TestPropagatorOracle:
    def test_identity_at_tau_zero(self):
        p = ScaledParams.from_product(1.0, 1.0, WAO)
        assert np.allclose(propagator(p, 0.0), np.eye(3), atol=1e-12)

    def test_negative_tau_is_refused(self):
        with pytest.raises(ValueError, match=re.escape("tau must be >= 0, got -1.0")):
            propagator(ScaledParams.from_product(1.0, 1.0, WAO), -1.0)
        for tau in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=re.escape(f"tau must be finite, got {tau}")):
                propagator(ScaledParams.from_product(1.0, 1.0, WAO), tau)

    def test_overflow_is_a_named_error(self):
        # gamma * tau = 800: exp(tau*M) has entries past the float range; evolve raises NonFiniteStateError there
        with pytest.raises(OverflowError, match=re.escape("exp(tau*M) overflows the float range at tau = 1422.8")):
            propagator(ScaledParams.from_product(0.0, 1.0, WAO), 1422.8)
        assert np.isfinite(propagator(ScaledParams.from_product(0.0, 1.0, WAO), 700.0)).all()

    @pytest.mark.parametrize("eta", [RAO, WAO])
    @pytest.mark.parametrize("offset", [-1e-3, 1e-3, -1e-7, 1e-7, -1e-11, 1e-11, 0.0])
    def test_matches_decimal_reference_next_to_threshold(self, eta, offset):
        # at alpha*beta = critical * (1 + offset) two eigenvalues nearly coincide (a gap of 3.1e-6 at
        # WAO, delta21 = 2, offset -1e-11), where an eigenbasis is ill conditioned
        for d in (0.5, 2.0, 5.0):
            p = ScaledParams.from_product(d, critical_alpha_beta(d, eta) * (1.0 + offset), eta)
            ref = decimal_expm(system_matrix(p), 10.0)
            assert np.abs(propagator(p, 10.0) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_characteristic_polynomial_matches_dispersion_cubic(self):
        # det(M - lam I) = -(lam^3 - i d lam^2 + eta lam - i(ab + eta d))
        rng = np.random.default_rng(21)
        for _ in range(100):
            d = rng.uniform(-5, 10)
            a = rng.uniform(0, 5)
            b = rng.uniform(0, 4)
            eta = int(rng.integers(0, 2))
            m = system_matrix(ScaledParams(delta21=d, alpha=a, beta=b, eta=eta))
            lam = complex(rng.normal(), rng.normal())
            det = np.linalg.det(m - lam * np.eye(3))
            poly = lam**3 - 1j * d * lam**2 + eta * lam - 1j * (a * b + eta * d)
            assert det == pytest.approx(-poly, rel=1e-10, abs=1e-10)

    def test_evolve_matches_propagator(self):
        p = ScaledParams(delta21=1.0, alpha=1.0, beta=1.0, eta=WAO)
        traj = evolve(p, SEED_STATE, tau_end=10.0, dt=1e-3)
        exact = propagator(p, 10.0) @ SEED_STATE.as_vector()
        got = traj.samples[-1].as_vector()
        assert np.linalg.norm(got - exact) / np.linalg.norm(exact) <= 1e-6

    def test_degenerate_fallback_free_particle(self):
        # alpha=beta=0, eta=0: nilpotent generator, triple eigenvalue 0
        p = decoupled(RAO)
        expected = np.eye(3, dtype=complex)
        expected[1, 2] = 7.5  # exp of the nilpotent block
        assert np.allclose(propagator(p, 7.5), expected, atol=1e-12)

    def test_fourth_order_convergence(self):
        p = ScaledParams(delta21=1.0, alpha=1.0, beta=1.0, eta=WAO)
        y0 = SEED_STATE.as_vector()
        exact = propagator(p, 10.0) @ y0

        def final_error(dt):
            traj = evolve(p, SEED_STATE, tau_end=10.0, dt=dt)
            got = traj.samples[-1].as_vector()
            return np.linalg.norm(got - exact) / np.linalg.norm(exact)

        ratio = final_error(0.05) / final_error(0.025)
        assert 11.0 <= ratio <= 22.0  # ~16x for a fourth-order scheme


class TestFitGrowthRate:
    def test_wao_rate_recovered(self):
        p = ScaledParams.from_product(0.0, 1.0, WAO)
        g = growth_rate(p)
        traj = evolve(p, SEED_STATE, tau_end=60.0 / g, dt=5e-3, output_stride=20)
        fitted = fit_growth_rate(traj, (30.0 / g, 60.0 / g))
        assert abs(fitted - g) / g <= 0.01
        assert fitted == pytest.approx(0.56227951206230124, rel=1e-4)

    def test_rao_rate_recovered(self):
        p = ScaledParams.from_product(0.0, 1.0, RAO)
        g = growth_rate(p)
        traj = evolve(p, SEED_STATE, tau_end=60.0 / g, dt=5e-3, output_stride=20)
        fitted = fit_growth_rate(traj, (30.0 / g, 60.0 / g))
        assert abs(fitted - g) / g <= 0.01
        assert fitted == pytest.approx(0.86602540378443865, rel=1e-4)

    def test_below_threshold_is_non_exponential(self):
        p = ScaledParams.from_product(0.0, 0.1, WAO)  # 0.1 < 2/(3 sqrt 3)
        traj = evolve(p, SEED_STATE, tau_end=60.0, dt=5e-3, output_stride=20)
        with pytest.raises(NonExponentialFitError) as excinfo:
            fit_growth_rate(traj, (20.0, 60.0))
        assert excinfo.value.residual > 1e-2

    def test_window_validation(self):
        p = ScaledParams.from_product(0.0, 1.0, WAO)
        traj = evolve(p, SEED_STATE, tau_end=10.0, dt=5e-3, output_stride=20)
        with pytest.raises(ValueError):
            fit_growth_rate(traj, (5.0, 15.0))  # beyond the trajectory
        with pytest.raises(ValueError):
            fit_growth_rate(traj, (5.0, 5.0))
        with pytest.raises(ValueError):
            fit_growth_rate(traj, (5.0, 5.1))  # fewer than 5 samples

    @pytest.mark.parametrize("eta", [RAO, WAO])
    def test_vanishing_probe_is_refused(self, eta):
        # decoupled, the probe never leaves A1 = 0, so ln|A1| has no slope
        traj = evolve(decoupled(eta), TrajectoryState(0.0, 0j, 0.5 + 0j, 0.1 + 0j), tau_end=10.0, dt=5e-3, output_stride=20)
        assert not traj.probe_magnitudes().any()
        with pytest.raises(ValueError, match=re.escape("|A1| vanishes inside the window; growth rate undefined")):
            fit_growth_rate(traj, (2.0, 8.0))

    def test_rate_converges_with_later_windows(self):
        p = ScaledParams.from_product(0.5, 2.0, WAO)
        g = growth_rate(p)
        traj = evolve(p, SEED_STATE, tau_end=60.0 / g, dt=5e-3, output_stride=20)
        errors = [
            abs(fit_growth_rate(traj, (t0 / g, 2.0 * t0 / g)) - g) / g for t0 in (10.0, 20.0, 30.0)
        ]
        assert errors[-1] <= 0.01
        assert errors[2] <= errors[0]


class TestStableBound:
    def test_no_secular_growth_below_threshold(self):
        # |A1(tau)| <= sum_k |V[0,k] (V^-1 y0)_k| for purely imaginary spectra
        p = ScaledParams.from_product(2.5, 0.4, WAO)
        assert growth_rate(p) == 0.0
        m = system_matrix(p)
        eigvals, v = np.linalg.eig(m)
        y0 = SEED_STATE.as_vector()
        weights = np.linalg.solve(v, y0)
        bound = float(np.sum(np.abs(v[0, :] * weights)))
        traj = evolve(p, SEED_STATE, tau_end=100.0, dt=5e-3, output_stride=10)
        assert float(traj.probe_magnitudes().max()) <= bound * (1.0 + 1e-3)


class TestTrajectoryCsv:
    def test_schema_and_metadata(self):
        p = ScaledParams.from_product(0.0, 1.0, WAO)
        traj = evolve(p, SEED_STATE, tau_end=1.0, dt=1e-3, output_stride=500)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        lines = buf.getvalue().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any("dt: 0.001" in l for l in comments)
        assert any("abs_A1=1e-06" in l for l in comments)
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "tau,re_A1,im_A1,abs_A1,re_B,im_B,abs_B,re_Bdot,im_Bdot"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == len(traj.samples)
        first = data[0].split(",")
        assert len(first) == 9
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(1e-6)

    def test_round_trips_to_file(self, tmp_path):
        p = ScaledParams.from_product(0.0, 1.0, WAO)
        traj = evolve(p, SEED_STATE, tau_end=0.5, dt=1e-3)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(path))
        lines = path.read_text().splitlines()
        n_meta = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        # genfromtxt takes names from the first line after skip_header, even a
        # "#" line, so the metadata block must be skipped explicitly
        rows = np.genfromtxt(path, delimiter=",", names=True, comments="#", skip_header=n_meta)
        assert ",".join(rows.dtype.names) == lines[n_meta]
        assert len(rows) == len(traj.samples)
        assert rows["tau"][-1] == pytest.approx(0.5)


def reference_evolve(s, init, tau_end, dt, output_stride, error_tol=1e-6):
    """Step-by-step RK4, one matrix product per step.

    Returns the sample taus, the sample states, the linearity flag and every
    step's step-doubling error estimate.
    """
    span = tau_end - init.tau
    n_full = int(math.floor(span / dt + 1e-9))
    remainder = span - n_full * dt
    steps = [(dt, init.tau + i * dt) for i in range(1, n_full + 1)]
    if remainder >= 1e-9 * dt or not n_full:
        steps.append((remainder, tau_end))
    m = system_matrix(s)
    mats = {h: (_rk4_step_matrix(m, h), np.linalg.matrix_power(_rk4_step_matrix(m, h / 2.0), 2)) for h, _ in steps}
    y = init.as_vector()
    taus, states, errs = [init.tau], [y], []
    flag = None if abs(init.B) <= 1.0 else init.tau
    for i, (h, tau) in enumerate(steps, 1):
        full, half2 = mats[h]
        y_full = full @ y
        errs.append(float(np.linalg.norm(y_full - half2 @ y)) / max(float(np.linalg.norm(y_full)), 1e-300))
        if errs[-1] > error_tol:
            raise StepSizeRejection(f"local error estimate {errs[-1]:.3g} exceeds {error_tol:.3g} at tau = {tau:.6g}")
        if flag is None and abs(y_full[1]) > 1.0:
            flag = tau
        y = y_full
        if i % output_stride == 0 or i == len(steps):
            taus.append(tau)
            states.append(y)
    return taus, np.array(states), flag, errs


def rejection_tau(excinfo):
    return float(re.search(r"at tau = (\S+)", str(excinfo.value)).group(1))


class TestBlockStepperMatchesStepByStep:
    # n_full below the block length, an exact multiple of it, and a
    # non-integer span of more than 1000 steps
    SPANS = {"short": (100, 1e-3), "blocks": (3 * _BLOCK, 1e-3), "non_integer": (2500.5, 1e-3)}

    @pytest.mark.parametrize("stride", [1, 7, 100, 1000])
    @pytest.mark.parametrize("span", sorted(SPANS))
    def test_samples_states_and_flag(self, span, stride):
        steps, dt = self.SPANS[span]
        p = ScaledParams.from_product(0.5, 1.0, WAO)
        init = TrajectoryState(0.0, 1e-3 + 0j, 0j, 0j)
        traj = evolve(p, init, tau_end=steps * dt, dt=dt, output_stride=stride)
        taus, states, flag, errs = reference_evolve(p, init, steps * dt, dt, stride)
        assert [s.tau for s in traj.samples] == taus
        got = np.array([s.as_vector() for s in traj.samples])
        rel = np.linalg.norm(got - states, axis=1) / np.linalg.norm(states, axis=1)
        assert rel.max() <= 1e-12
        assert traj.linearity_flag == flag
        assert traj.steps == len(errs)
        assert traj.max_step_error == pytest.approx(max(errs), rel=1e-9)

    def test_linearity_flag_crossing_in_later_block(self):
        p = ScaledParams.from_product(0.0, 1.0, WAO)
        init = TrajectoryState(0.0, 1.0 + 0j, 0j, 0j)
        traj = evolve(p, init, tau_end=3.0, dt=1e-3, output_stride=100)
        _, _, flag, _ = reference_evolve(p, init, 3.0, 1e-3, 100)
        assert flag is not None and flag > 2 * _BLOCK * 1e-3
        assert traj.linearity_flag == flag

    def test_rejection_after_first_block_at_reference_tau(self):
        # stable WAO point: the estimate reaches new maxima only in the
        # second block, so a tolerance between the running maximum and the
        # next new maximum is first exceeded there
        p = ScaledParams.from_product(2.5, 0.4, WAO)
        dt, tau_end = 0.02, 40.0
        _, _, _, errs = reference_evolve(p, SEED_STATE, tau_end, dt, 100, error_tol=math.inf)
        running = np.maximum.accumulate(errs)
        j = next(j for j in range(_BLOCK, len(errs)) if errs[j] > running[j - 1] * (1.0 + 1e-6))
        tol = 0.5 * (running[j - 1] + errs[j])
        with pytest.raises(StepSizeRejection) as ref:
            reference_evolve(p, SEED_STATE, tau_end, dt, 100, error_tol=tol)
        with pytest.raises(StepSizeRejection, match="reduce dt") as got:
            evolve(p, SEED_STATE, tau_end=tau_end, dt=dt, error_tol=tol)
        assert rejection_tau(got) == rejection_tau(ref) == pytest.approx((j + 1) * dt)


class TestEvolveObservability:
    def test_steps_and_max_step_error_with_remainder(self):
        p = ScaledParams.from_product(0.0, 1.0, WAO)
        traj = evolve(p, SEED_STATE, tau_end=1.0005, dt=1e-3, error_tol=1e-6)
        assert traj.steps == 1000 + 1
        assert 0.0 < traj.max_step_error <= 1e-6

    def test_max_step_error_found_in_later_block(self):
        # the estimate of this stable point peaks after the first block
        p = ScaledParams.from_product(2.5, 0.4, WAO)
        _, _, _, errs = reference_evolve(p, SEED_STATE, 40.0, 0.02, 100, error_tol=math.inf)
        assert int(np.argmax(errs)) >= _BLOCK
        traj = evolve(p, SEED_STATE, tau_end=40.0, dt=0.02, error_tol=math.inf)
        assert traj.max_step_error == pytest.approx(max(errs), rel=1e-9)

    def test_shortened_final_step_is_checked(self):
        # a span shorter than dt is one shortened step, too long for the tolerance
        p = ScaledParams.from_product(1.0, 5.0, WAO)
        with pytest.raises(StepSizeRejection) as ref:
            reference_evolve(p, SEED_STATE, 0.5, 0.8, 100)
        with pytest.raises(StepSizeRejection, match="reduce dt") as got:
            evolve(p, SEED_STATE, tau_end=0.5, dt=0.8)
        assert rejection_tau(got) == rejection_tau(ref) == 0.5
        # both the step taken and the step asked for
        assert "the shortened final step 0.5 of dt = 0.8;" in str(got.value)

    def test_defaults_keep_old_constructor(self):
        traj = Trajectory(tau=np.array([SEED_STATE.tau]), y=np.array([[SEED_STATE.A1, SEED_STATE.B, SEED_STATE.Bdot]]), params=decoupled(WAO), dt=1e-3)
        assert traj.steps == 0 and traj.max_step_error == 0.0


class TestChunkEdges:
    # exactly one chunk, one chunk and one step, three chunks and a shortened step
    SPANS = {"one_chunk": (_CHUNK, 1e-3), "one_chunk_plus_one": (_CHUNK + 1, 1e-3), "three_chunks_short": (3 * _CHUNK + 0.5, 1e-3)}

    @pytest.mark.parametrize("stride", [1, 7, 1000])
    @pytest.mark.parametrize("span", sorted(SPANS))
    def test_samples_states_and_flag(self, span, stride):
        steps, dt = self.SPANS[span]
        p = ScaledParams.from_product(0.5, 1.0, WAO)
        init = TrajectoryState(0.0, 1e-3 + 0j, 0j, 0j)
        traj = evolve(p, init, tau_end=steps * dt, dt=dt, output_stride=stride)
        taus, states, flag, errs = reference_evolve(p, init, steps * dt, dt, stride)
        assert [s.tau for s in traj.samples] == taus
        got = np.array([s.as_vector() for s in traj.samples])
        rel = np.linalg.norm(got - states, axis=1) / np.linalg.norm(states, axis=1)
        assert rel.max() <= 1e-12
        assert traj.linearity_flag == flag
        assert traj.steps == len(errs)
        assert traj.max_step_error == pytest.approx(max(errs), rel=1e-9)

    def test_rejection_first_reached_in_second_chunk(self):
        p = ScaledParams.from_product(2.5, 0.4, WAO)
        dt, tau_end = 0.02, 100.0
        _, _, _, errs = reference_evolve(p, SEED_STATE, tau_end, dt, 100, error_tol=math.inf)
        running = np.maximum.accumulate(errs)
        j = next(j for j in range(_CHUNK, len(errs)) if errs[j] > running[j - 1] * (1.0 + 1e-6))
        assert j < 2 * _CHUNK
        tol = 0.5 * (running[j - 1] + errs[j])
        with pytest.raises(StepSizeRejection) as ref:
            reference_evolve(p, SEED_STATE, tau_end, dt, 100, error_tol=tol)
        with pytest.raises(StepSizeRejection, match="reduce dt") as got:
            evolve(p, SEED_STATE, tau_end=tau_end, dt=dt, error_tol=tol)
        assert rejection_tau(got) == rejection_tau(ref) == pytest.approx((j + 1) * dt)

    def test_linearity_flag_crossing_in_later_chunk(self):
        p = ScaledParams.from_product(0.0, 1.0, WAO)
        init = TrajectoryState(0.0, 1e-2 + 0j, 0j, 0j)
        traj = evolve(p, init, tau_end=12.0, dt=1e-3, output_stride=100)
        _, _, flag, _ = reference_evolve(p, init, 12.0, 1e-3, 100)
        assert flag is not None and flag > 3 * _CHUNK * 1e-3
        assert traj.linearity_flag == flag

    def test_memory_follows_the_chunk_not_the_span(self):
        # 10^6 steps of a harmonic oscillator; the states of the whole span would take 48 MB
        tracemalloc = pytest.importorskip("tracemalloc")
        tracemalloc.start()
        try:
            traj = evolve(decoupled(WAO), TrajectoryState(0.0, 0j, 1.0 + 0j, 0j), tau_end=1000.0, dt=1e-3, output_stride=10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.steps == 10**6 and len(traj.samples) == 11
        assert peak < 2 * 2**20


class TestChunkChecks:
    # each chunk compares its largest estimate with the tolerance and searches
    # the steps only when that fails; it searches for |B| > 1 only when its
    # largest |y|^2 reaches 0.99

    @pytest.mark.parametrize("delta21, eta", [(2.5, WAO), (3.0, RAO)])
    def test_tolerance_at_the_largest_estimate(self, delta21, eta):
        # stable points whose largest estimate comes in the third chunk
        p = ScaledParams.from_product(delta21, 0.4, eta)
        dt, tau_end = 0.02, 120.0
        largest = evolve(p, SEED_STATE, tau_end, dt, error_tol=math.inf).max_step_error
        assert evolve(p, SEED_STATE, tau_end, dt, error_tol=largest).max_step_error == largest
        _, _, _, errs = reference_evolve(p, SEED_STATE, tau_end, dt, 100, error_tol=math.inf)
        j = int(np.argmax(errs))
        assert j >= 2 * _CHUNK
        with pytest.raises(StepSizeRejection) as ref:
            reference_evolve(p, SEED_STATE, tau_end, dt, 100, error_tol=math.nextafter(max(errs), 0.0))
        with pytest.raises(StepSizeRejection, match="reduce dt") as got:
            evolve(p, SEED_STATE, tau_end, dt, error_tol=math.nextafter(largest, 0.0))
        assert rejection_tau(got) == rejection_tau(ref) == pytest.approx((j + 1) * dt)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(r=st.floats(0.99, 1.01), phase=st.floats(0.0, 1.0), a1=st.floats(0.0, 0.1))
    def test_flag_where_the_states_straddle_the_bound(self, r, phase, a1):
        # B = r cos(tau - phase) and A1 = a1 stay put, so |y|^2 = a1^2 + r^2,
        # and |B| peaks at r; ties with 1 are left out
        init = TrajectoryState(0.0, a1 + 0j, r * math.cos(phase) + 0j, r * math.sin(phase) + 0j)
        _, states, flag, _ = reference_evolve(decoupled(WAO), init, 1.0, 1e-3, 1)
        assume(np.all(np.abs(np.abs(states[:, 1]) - 1.0) > 1e-12))
        assert evolve(decoupled(WAO), init, tau_end=1.0, dt=1e-3).linearity_flag == flag

    def test_large_probe_with_small_bunching_has_no_flag(self):
        # |A1|^2 = 1e6 opens the search in every chunk, and it finds nothing
        init = TrajectoryState(0.0, 1e3 + 0j, 0.9 + 0j, 0j)
        _, _, flag, _ = reference_evolve(decoupled(WAO), init, 10.0, 1e-3, 100)
        traj = evolve(decoupled(WAO), init, tau_end=10.0, dt=1e-3)
        assert flag is None and traj.linearity_flag is None
        assert np.abs(traj.y[:, 0]).min() > 999.0 and traj.steps > 4 * _CHUNK


@pytest.mark.filterwarnings("error")
class TestFloatRange:
    P = ScaledParams.from_product(0.5, 1.0, WAO)  # gamma = 0.56, above threshold

    @pytest.mark.parametrize("a1, tau_end", [(1e-6, 700.0), (2.0**600, 10.0)])
    def test_steps_past_squares_overflow_are_checked(self, a1, tau_end):
        # |y|^2 overflows past |y| = 1e154; the estimate is scale-free, so a
        # twin started 2^-900 (or 2^-700) smaller, which the same steps scale
        # exactly, gives the same estimates and rejects at the same step
        shift = 2.0**-900 if a1 < 1.0 else 2.0**-700
        traj = evolve(self.P, TrajectoryState(0.0, a1 + 0j, 0j, 0j), tau_end, dt=0.01, output_stride=1000)
        twin = evolve(self.P, TrajectoryState(0.0, a1 * shift + 0j, 0j, 0j), tau_end, dt=0.01, output_stride=1000)
        assert 1e154 < abs(traj.samples[-1].A1) < math.inf
        assert traj.max_step_error == twin.max_step_error > 0.0
        tol = traj.max_step_error * (1.0 - 1e-9)
        with pytest.raises(StepSizeRejection) as got:
            evolve(self.P, TrajectoryState(0.0, a1 + 0j, 0j, 0j), tau_end, dt=0.01, error_tol=tol)
        with pytest.raises(StepSizeRejection) as ref:
            evolve(self.P, TrajectoryState(0.0, a1 * shift + 0j, 0j, 0j), tau_end, dt=0.01, error_tol=tol)
        assert rejection_tau(got) == rejection_tau(ref)

    def test_overflow_is_a_named_error_at_its_tau(self):
        with pytest.raises(NonFiniteStateError, match="float range at tau = ") as excinfo:
            evolve(self.P, SEED_STATE, tau_end=1500.0, dt=0.01, output_stride=1000)
        tau = excinfo.value.tau
        assert 1000.0 < tau < 1500.0
        # one step fewer ends on a finite state
        last = evolve(self.P, SEED_STATE, tau_end=tau - 0.01, dt=0.01, output_stride=1000).samples[-1]
        assert np.all(np.isfinite(last.as_vector()))
        with pytest.raises(NonFiniteStateError):
            evolve(self.P, SEED_STATE, tau_end=tau, dt=0.01, output_stride=1000)

    @pytest.mark.parametrize("delta21", [1e60, 1e80, 1e100])
    def test_overflowing_step_matrix_is_a_step_size_error(self, delta21):
        # dt*M is of order 1e57 to 1e97: F or F - H^2 overflows, the state of 1e-6 does not
        p = ScaledParams.from_product(delta21, 1.0, WAO)
        with pytest.raises(StepSizeRejection, match="reduce dt") as excinfo:
            evolve(p, SEED_STATE, tau_end=1.0, dt=1e-3)
        assert "step matrix overflows the float range for dt = 0.001," in str(excinfo.value)
        assert "nan" not in str(excinfo.value)


class TestColumns:
    P = ScaledParams.from_product(0.5, 1.0, WAO)

    def test_columns_shapes_and_order(self):
        traj = evolve(self.P, SEED_STATE, tau_end=1.0005, dt=1e-3, output_stride=250)
        assert traj.tau.shape == (6,) and traj.y.shape == (6, 3) and traj.y.dtype == complex
        assert traj.tau.tolist() == [s.tau for s in traj.samples] == [0.0, 0.25, 0.5, 0.75, 1.0, 1.0005]
        assert traj.y.tolist() == [[s.A1, s.B, s.Bdot] for s in traj.samples]
        for column in (traj.tau, traj.y):
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_span_below_the_step_takes_one_short_step(self):
        init = TrajectoryState(0.25, 1e-3 + 2e-3j, 0.5 + 0j, -0.5j)
        traj = evolve(self.P, init, tau_end=0.25 + 1e-13, dt=1e-3)
        taus, states, _, errs = reference_evolve(self.P, init, 0.25 + 1e-13, 1e-3, 100)
        assert traj.steps == len(errs) == 1 and traj.tau.tolist() == taus == [0.25, 0.25 + 1e-13]
        assert traj.samples[0] == init and traj.samples[1] != init
        assert np.linalg.norm(traj.y - states, axis=1).max() <= 1e-12 * np.linalg.norm(states[1])

    def test_samples_view(self):
        states = tuple(TrajectoryState(0.5 * k, complex(k, -k), complex(0.0, k), complex(-k, 1.0)) for k in range(5))
        tau, y = np.array([s.tau for s in states]), np.array([[s.A1, s.B, s.Bdot] for s in states])
        traj = Trajectory(tau=tau, y=y, params=self.P, dt=0.5)
        view = traj.samples
        assert len(view) == 5
        assert view[-1] == states[-1] and view[0] == states[0] and view[2] == states[2]
        assert isinstance(view[-1].tau, float) and isinstance(view[-1].A1, complex)
        assert view[1:3] == states[1:3] and view[::-2] == states[::-2] and view[4:1] == ()
        assert list(view) == list(states) and list(reversed(view)) == list(states[::-1])
        assert states[3] in view and view.index(states[3]) == 3
        with pytest.raises(IndexError):
            view[5]

    def test_probe_magnitudes_are_python_abs_bit_for_bit(self):
        values = [
            complex(5e-324, 0.0), complex(-5e-324, 5e-324), complex(3e-310, -2e-310), complex(0.0, -0.0),
            complex(-0.0, 0.0), complex(math.inf, 1.0), complex(1.0, -math.inf), complex(math.inf, math.nan),
            complex(math.nan, -math.inf), complex(math.nan, 1.0), complex(-math.nan, 1.0), complex(1.0, math.nan),
            complex(1e308, 1e308), complex(-1e300, 3e300), complex(3.0, 4.0), complex(0.1, 0.2),
        ]
        y = np.zeros((len(values), 3), dtype=complex)
        y[:, 0] = values
        traj = Trajectory(tau=np.arange(len(values), dtype=float), y=y, params=self.P, dt=1.0)
        expected = b"".join(struct.pack("d", abs(s.A1)) for s in traj.samples)
        assert traj.probe_magnitudes().tobytes() == expected

    def test_evolve_memory_stays_bounded(self):
        # 10**6 steps at stride 2048: the columns of 490 samples, and one chunk's temporaries
        p, init = ScaledParams.from_product(2.5, 0.4, WAO), SEED_STATE
        evolve(p, init, tau_end=10.0, dt=5e-3)  # first call: the numpy loops load
        tracemalloc.start()
        try:
            traj = evolve(p, init, tau_end=5000.0, dt=5e-3, output_stride=2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.steps == 10**6 and len(traj.samples) == 490
        assert peak <= 1e6
