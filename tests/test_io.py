"""The float kernel: exact '%.17g' and float.__repr__ over whole arrays, the row writer and the writers built on it."""

import io
import json
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carl import (
    RAO,
    WAO,
    ScaledParams,
    SweepResult,
    SweepSpec,
    Trajectory,
    TrajectoryState,
    evolve,
    gain_curve,
    mass_study,
    threshold_map,
    write_polylines_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from carl._io import _BLOCK, csv_rows


def spelled(values):
    """Each value as csv_rows spells it, from one call over all of them."""
    x = np.asarray(values, dtype=float)
    return "".join(csv_rows([x], len(x))).split("\n")[:-1]


def bits(b):
    return struct.unpack("<d", struct.pack("<Q", b))[0]


def neighbours(v):
    return [float(np.nextafter(v, 0.0)), v, float(np.nextafter(v, math.inf))]


EDGES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 99999999999999992.0,
    *neighbours(1e-6), *neighbours(1e-4), *neighbours(1e17), *neighbours(1e-28), *neighbours(1e-14), *neighbours(1e16), *neighbours(1.0),
]


class TestExactG17:
    # |x| spread log-uniformly over the whole double range, with every mantissa
    magnitudes = st.tuples(st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1024), st.booleans()).map(
        lambda t: math.copysign(math.ldexp(t[0], t[1]), -1.0 if t[2] else 1.0)
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(magnitudes, min_size=1, max_size=64))
    @example(EDGES)
    def test_log_uniform_magnitudes(self, values):
        assert spelled(values) == ["%.17g" % v for v in values]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1).map(bits), min_size=1, max_size=64))
    def test_raw_bit_patterns(self, values):
        assert spelled(values) == ["%.17g" % v for v in values]

    @pytest.mark.parametrize("value", EDGES)
    def test_edges_alone(self, value):
        assert spelled([value]) == ["%.17g" % value]

    def test_powers_of_ten_and_neighbours(self):
        values = [v for k in range(-30, 19) for v in neighbours(float(10**k) if k >= 0 else 1 / 10**-k)]
        assert spelled(values) == ["%.17g" % v for v in values]

    def test_carry_into_the_exponent(self):
        # the double 1e-14 lies 1.2e-18 of itself below 10**-14: its 17 digits round up to 10**17
        assert spelled([1e-14, -1e-14, 99999999999999992.0]) == ["1e-14", "-1e-14", "1e+17"]

    def test_exact_ties_round_half_to_even(self):
        assert spelled([1000000000000000.25, 1000000000000000.75, 1000000000000001.25]) == [
            "1000000000000000.2", "1000000000000000.8", "1000000000000001.2",
        ]

    def test_ties_below_1e_minus_6(self):
        # m * 2**-24 has 18 significant digits for odd m: the 17-digit rounding is an exact tie
        values = [m * 2.0**-24 for m in range(1, 40)] + [m * 2.0**-25 for m in range(1, 80)]
        values += [v for x in values for v in neighbours(x)]
        assert spelled(values) == ["%.17g" % v for v in values]

    def test_dyadic_and_decade_sweeps(self):
        rng = np.random.default_rng(3)
        values = np.ldexp(rng.integers(1, 2**53, 20000).astype(float), -rng.integers(0, 80, 20000))
        values = np.concatenate([values, 10.0 ** rng.uniform(-30, 18, 20000), np.arange(-50.0, 50.0, 0.25)])
        assert spelled(values) == ["%.17g" % v for v in values.tolist()]

    def test_every_block_size(self):
        # rows of one float: blocks of several thousand values, and a remainder
        values = 10.0 ** np.random.default_rng(4).uniform(-8, 18, 20001)
        assert spelled(values) == ["%.17g" % v for v in values.tolist()]


def shortest(values):
    """Each value as the row writer spells it as JSON, from one call over all of them."""
    x = np.asarray(values, dtype=float)
    return "".join(csv_rows([x], len(x), as_json=True)).split("\n")[:-1]


def as_json(values):
    """The json module's spelling: float.__repr__, or NaN, Infinity, -Infinity."""
    return [json.dumps(v) for v in values]


# where the shortest spelling changes length, layout or path: the ends of the fast
# path, of the positional layout (e <= 15) and of the double range
REPR_EDGES = [
    *neighbours(1e15), *neighbours(1e-5), *neighbours(2.0**53), float(2**53 - 1), float(2**53 + 1), float(2**53 + 2),
    1.7976931348623157e308, -1.7976931348623157e308, 9999999999999998.0, 1e16 + 2, 0.1, 0.3, 0.1 + 0.2, 1 / 3, 100.0, 5e-7,
]


class TestShortestRepr:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(TestExactG17.magnitudes, min_size=1, max_size=64))
    @example(EDGES)
    @example(REPR_EDGES)
    def test_log_uniform_magnitudes(self, values):
        assert shortest(values) == as_json(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1).map(bits), min_size=1, max_size=64))
    def test_raw_bit_patterns(self, values):
        assert shortest(values) == as_json(values)

    @pytest.mark.parametrize("value", EDGES + REPR_EDGES)
    def test_edges_alone(self, value):
        assert shortest([value]) == as_json([value])

    def test_powers_of_two_and_neighbours(self):
        # below a power of two the doubles are twice as close as above it
        values = [v for k in range(-1074, 1024) for v in neighbours(math.ldexp(1.0, k))]
        assert shortest(values) == as_json(values)

    def test_powers_of_ten_and_neighbours(self):
        values = [v for k in range(-30, 19) for v in neighbours(float(10**k) if k >= 0 else 1 / 10**-k)]
        assert shortest(values) == as_json(values)

    def test_15_16_and_17_digits(self):
        # decimals of 15 and 16 digits read to doubles, and the doubles between them
        rng = np.random.default_rng(5)
        values = [float(f"{m}e{k}") for digits in (15, 16) for m, k in zip(
            rng.integers(10 ** (digits - 1), 10**digits, 3000).tolist(), rng.integers(-21, 4, 3000).tolist())]
        values += [float(np.nextafter(v, math.inf)) for v in values]
        lengths = {len(text.split("e")[0].replace("-", "").replace(".", "").strip("0")) for text in as_json(values)}
        assert {15, 16, 17} <= lengths
        assert shortest(values) == as_json(values)

    def test_exact_decimal_ties(self):
        # q / 8 for odd q in [2**49, 2**50) lies halfway between two 16-digit decimals, both
        # of which read back: the even one is taken (70368744177664.125 is 70368744177664.12)
        values = [(2**49 + q) / 8 for q in range(1, 400, 2)]
        # integers from 2**54 on lie 2 or more apart: a 16-digit decimal can sit at a
        # midpoint, which reads back to the double with the even mantissa only
        values += [2.0**k + 2.0 ** (k - 52) * j for k in (54, 55, 56) for j in range(-300, 300)]
        assert shortest([70368744177664.125, (2**49 + 3) / 8]) == ["70368744177664.12", "70368744177664.38"]
        assert shortest([18014398509481992.0, 18014398509481988.0]) == ["1.801439850948199e+16", "1.8014398509481988e+16"]
        assert shortest(values) == as_json(values)

    def test_decimal_grids(self):
        values = np.concatenate([np.round(np.arange(-50.0, 50.0, 0.001), 3), np.linspace(-2.0, 6.0, 8001), np.arange(0.0, 1e4, 0.25)])
        assert shortest(values) == as_json(values.tolist())

    def test_every_block_size(self):
        # one block, a block and a remainder, whole blocks, and every size near them
        values = 10.0 ** np.random.default_rng(4).uniform(-8, 18, 2 * _BLOCK + 1)
        values[::7] = -values[::7]
        values[::97] = np.nan
        want = as_json(values.tolist())
        for size in (0, 1, 7, 8, 9, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1):
            assert shortest(values[:size]) == want[:size]


# ±0.0 one draw in two: the row writer lays a zero out from its sign bit and
# spells only the other values of its block with the kernel
def with_zeros(values):
    return st.lists(st.one_of(values, st.sampled_from([0.0, -0.0])), min_size=1, max_size=64)


class TestZeros:
    @settings(max_examples=300, deadline=None)
    @given(with_zeros(TestExactG17.magnitudes))
    @example([0.0, 1.5, -0.0, 5e-324, math.nan, -1e-7, 0.0, 0.0, 1e300])
    def test_log_uniform_magnitudes(self, values):
        assert spelled(values) == ["%.17g" % v for v in values]
        assert shortest(values) == as_json(values)

    @settings(max_examples=300, deadline=None)
    @given(with_zeros(st.integers(0, 2**64 - 1).map(bits)))
    def test_raw_bit_patterns(self, values):
        assert spelled(values) == ["%.17g" % v for v in values]
        assert shortest(values) == as_json(values)

    @pytest.mark.parametrize("zeros", [0, 1, 2, _BLOCK // 3, _BLOCK // 2, _BLOCK - 1, _BLOCK])
    def test_zero_counts_in_one_block(self, zeros):
        values = 10.0 ** np.random.default_rng(6).uniform(-8, 18, _BLOCK)
        values[np.random.default_rng(7).permutation(_BLOCK)[:zeros]] = -0.0
        values[::3] = -values[::3]
        assert spelled(values) == ["%.17g" % v for v in values.tolist()]
        assert shortest(values) == as_json(values.tolist())

    @staticmethod
    def table(columns, as_json):
        """The rows of ``csv_rows`` over three float columns and a text column, and the same rows spelled value by value."""
        spell = json.dumps if as_json else lambda v: "%.17g" % v
        after = [": ", ", ", ", ", " | ", ";\n"] if as_json else [","] * 4 + ["\n"]
        names = ["a", 'b"é'] * (len(columns[0]) // 2)
        got = "".join(csv_rows(["row", *columns, names], len(names), after if as_json else None, as_json))
        want = "".join(
            "".join(text + sep for text, sep in zip(["row", *map(spell, row), json.dumps(name) if as_json else name], after))
            for name, row in zip(names, zip(*(c.tolist() for c in columns)))
        )
        return got, want

    @pytest.mark.parametrize("as_json", [False, True], ids=["g17", "json"])
    def test_rows_all_zeros_and_no_zeros(self, as_json):
        n = 3000  # three floats a row: one block and part of another
        signs = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)
        dense = np.linspace(-4.0, 4.0, n) + 1e-3
        for columns in ([signs, -signs, signs], [dense, dense * 1e-7, dense * 1e20]):
            got, want = self.table(columns, as_json)
            assert got == want

    @pytest.mark.parametrize("as_json", [False, True], ids=["g17", "json"])
    @pytest.mark.parametrize("zeros_first", [True, False])
    def test_zeros_on_one_side_of_a_block_edge(self, as_json, zeros_first):
        rows = _BLOCK // 3  # the rows of one block of three floats
        n = 2 * rows + 8
        x = 10.0 ** np.random.default_rng(8).uniform(-8, 18, n)
        side = np.arange(n) < rows if zeros_first else np.arange(n) >= rows
        columns = [np.where(side, z, x * k) for k, z in ((1.0, 0.0), (-3.0, -0.0), (0.5, 0.0))]
        got, want = self.table(columns, as_json)
        assert got == want


def test_split_constants_round_up():
    # _split takes floor(v * (1 / base)) as v // base, which needs 1 / base rounded up
    assert Fraction(1.0 / 1e2) > Fraction(1, 10**2) and Fraction(1.0 / 1e4) > Fraction(1, 10**4)


class TestRows:
    def test_text_and_separators(self):
        x = np.array([1.5, -0.0, 2.0])
        rows = "".join(csv_rows(["name", x, np.array(["I", "II", "I"]), 2 * x, ["a", "bé", 3]], 3))
        assert rows == "name,1.5,I,3,a\nname,-0,II,-0,bé\nname,2,I,4,3\n"

    def test_text_columns_across_blocks(self):
        n = 5000  # several blocks of rows, each with its own distinct values
        codes = np.arange(n) % 7
        rows = "".join(csv_rows([codes, np.full(n, 0.5), np.where(codes < 3, "RAO", "WAO")], n))
        assert rows == "".join(f"{c},0.5,{'RAO' if c < 3 else 'WAO'}\n" for c in codes.tolist())

    def test_no_rows(self):
        assert list(csv_rows([np.zeros(0), "x"], 0)) == []


# the per-row templates the writers used before the whole-array spelling, kept as references
SWEEP_ROW = "%s,%.17g,%s,%.17g,%s" + ",%.17g" * 6 + "\n"
POLYLINE_ROW = "%d,%.17g,%.17g\n"
TRAJECTORY_ROW = ",".join(["%.17g"] * 9) + "\n"


def reference_sweep_csv(result):
    axis_name = result.meta.get("spec", {}).get("axis", "axis")
    lam = result.lambdas
    columns = [result.axis, result.regime, result.gamma, result.case]
    for j in range(3):
        columns += [lam[:, j].real, lam[:, j].imag]
    head = "".join(f"# {key}: {json.dumps(result.meta[key], sort_keys=True)}\n" for key in sorted(result.meta))
    head += "axis_name,axis_value,regime,gamma,case,re_l1,im_l1,re_l2,im_l2,re_l3,im_l3\n"
    return head + "".join(SWEEP_ROW % (axis_name, *row) for row in zip(*(c.tolist() for c in columns)))


def reference_polylines_csv(polylines, meta):
    head = "".join(f"# {key}: {json.dumps(meta[key], sort_keys=True)}\n" for key in sorted(meta))
    head += "branch_id,delta21,alpha_beta\n"
    return head + "".join(POLYLINE_ROW % (b, x, y) for b, line in enumerate(polylines) for x, y in np.asarray(line).tolist())


def reference_trajectory_rows(traj):
    return "".join(
        TRAJECTORY_ROW % (s.tau, s.A1.real, s.A1.imag, abs(s.A1), s.B.real, s.B.imag, abs(s.B), s.Bdot.real, s.Bdot.imag)
        for s in traj.samples
    )


def written(writer, *args, **kwargs):
    buf = io.StringIO()
    writer(*args, buf, **kwargs)
    return buf.getvalue()


def sweep_result(axis, gamma, lambdas, regime="RAO", case="II"):
    n = len(axis)
    return SweepResult(
        np.asarray(axis, float), np.array([regime] * n), np.asarray(gamma, float), np.array([case] * n),
        np.asarray(lambdas, complex).reshape(n, 3), np.zeros(n, bool), {"spec": {"axis": "delta21"}},
    )


class TestWritersMatchRowTemplates:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: [gain_curve(SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=801, fixed=1.7))],
            lambda: [gain_curve(SweepSpec(axis="alpha_beta", start=0.01, stop=5.0, num_points=801, fixed=0.3))],
            lambda: [gain_curve(SweepSpec(axis="delta21", start=-1.0, stop=3.0, num_points=51, fixed=0.5, regimes=("WAO",)))],
            lambda: mass_study(2.5, [1.0, 10.0, 100.0]),
            lambda: [gain_curve(SweepSpec(axis="delta21", start=-1e-9, stop=1e-9, num_points=101, fixed=1e-20))],
            lambda: [gain_curve(SweepSpec(axis="alpha_beta", start=1e10, stop=1e30, num_points=101, fixed=-1e15))],
        ],
        ids=["delta21", "alpha_beta", "wao_only", "mass_study", "tiny", "huge"],
    )
    def test_sweep_csv(self, make):
        results = make()
        for result in results:
            assert written(write_sweep_csv, result) == reference_sweep_csv(result)
        if "mass_ratio" in results[0].meta:
            # the signed zeros of the converted eigenvalues reach the file
            assert any(",-0," in reference_sweep_csv(r) for r in results)

    def test_sweep_csv_non_finite_extreme_and_empty(self):
        values = [math.nan, math.inf, -math.inf, 5e-324, -1.7976931348623157e308, 1e-300, 1e300, -0.0, 0.0, 3.0]
        rows = sweep_result(values, values[::-1], [complex(v, -v) for v in values for _ in range(3)])
        empty = SweepResult(np.zeros(0), np.zeros(0, str), np.zeros(0), np.zeros(0, str), np.zeros((0, 3), complex), np.zeros(0, bool), {})
        for result in (rows, empty):
            assert written(write_sweep_csv, result) == reference_sweep_csv(result)

    @pytest.mark.parametrize("eta", [RAO, WAO])
    def test_polylines_csv(self, eta):
        meta = {"eta": eta, "window": [-4.0, 6.0]}
        lines = threshold_map((-4.0, 6.0), (1e-6, 40.0), eta, resolution=512)
        for polylines in (lines, [], [[(0.5, 1e-7), (1e20, -0.0)], [], [[math.nan, math.inf]]]):
            assert written(write_polylines_csv, polylines, meta=meta) == reference_polylines_csv(polylines, meta)

    @pytest.mark.parametrize("stride", [1, 7, 100])
    def test_trajectory_csv(self, stride):
        # states below 1e-6 early on, and |B| past 1 later
        p = ScaledParams.from_product(0.5, 1.0, WAO)
        traj = evolve(p, TrajectoryState(0.0, 1e-9 + 0j, 0j, 0j), tau_end=40.0, dt=1e-2, output_stride=stride)
        text = written(write_trajectory_csv, traj)
        assert text.split("im_Bdot\n", 1)[1] == reference_trajectory_rows(traj)

    def test_trajectory_csv_extreme_states(self):
        states = [
            TrajectoryState(0.0, complex(3e-310, -0.0), complex(math.inf, 1.0), complex(1e300, -1e300)),
            TrajectoryState(0.5, complex(math.nan, 2.0), 0j, complex(-0.0, 5e-324)),
        ]
        tau, y = np.array([s.tau for s in states]), np.array([[s.A1, s.B, s.Bdot] for s in states])
        traj = Trajectory(tau=tau, y=y, params=ScaledParams.from_product(0.0, 1.0, RAO), dt=0.5)
        text = written(write_trajectory_csv, traj)
        assert text.split("im_Bdot\n", 1)[1] == reference_trajectory_rows(traj)


def test_sweep_csv_memory_stays_bounded(tmp_path):
    n = 50_000  # 10**5 rows, both regimes
    result = gain_curve(SweepSpec(axis="delta21", start=-2.0, stop=6.0, num_points=n, fixed=1.0))
    path = str(tmp_path / "big.csv")
    write_sweep_csv(result, path)  # first call: the numpy loops load
    tracemalloc.start()
    try:
        write_sweep_csv(result, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rows are made in blocks; the file is about 12.6 MB
    assert peak < 4e6
