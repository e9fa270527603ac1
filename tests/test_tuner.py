import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apsel.mobility import Trace, generate_two_way_roadway
from apsel.tuner import (
    CONTRACTION,
    EXPANSION,
    REFLECTION,
    SHRINK,
    TRAJECTORY_HEADER,
    TunerConfig,
    _round_to_grid,
    nelder_mead,
    tune_integer_objective,
    tune_parameters,
    write_tuning_trajectory_csv,
)
from helpers import TracePoint, nelder_mead_oracle


def quadratic(x):
    return (x[0] - 1) ** 2 + (x[1] - 2) ** 2


def rosenbrock(x):
    return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2


UNIT_SIMPLEX = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


class TestConfig:
    def test_defaults(self):
        c = TunerConfig()
        assert c.max_iterations == 500
        assert c.d_bounds == (1, 10) and c.k_bounds == (1, 10)
        assert (REFLECTION, EXPANSION, CONTRACTION, SHRINK) == (1.0, 2.0, 0.5, 0.5)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(max_iterations=0),
            dict(d_bounds=(0, 5)),
            dict(k_bounds=(5, 2)),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            TunerConfig(**bad)


class TestNelderMead:
    def test_convex_quadratic(self):
        res = nelder_mead(quadratic, UNIT_SIMPLEX)
        assert abs(res.point[0] - 1.0) < 1e-4
        assert abs(res.point[1] - 2.0) < 1e-4
        assert res.converged

    def test_constant_objective_stops_at_once(self):
        res = nelder_mead(lambda x: 7.0, UNIT_SIMPLEX)
        assert res.iterations == 0
        assert res.converged
        assert res.evaluations == 3

    def test_rosenbrock_within_budget(self):
        res = nelder_mead(rosenbrock, [(-1.2, 1.0), (-0.2, 1.0), (-1.2, 2.0)])
        assert res.value < 1e-6
        assert res.iterations <= 500

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            nelder_mead(quadratic, [(0, 0), (1, 1), (2, 2)])

    @pytest.mark.parametrize(
        "simplex,bounds",
        [
            ([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], None),
            ([(0.1, 0.3), (0.1, 0.3), (5.0, -1.0)], None),
            ([(0.0, 0.0), (1.0, 5.0), (2.0, 9.0)], [(0.0, 10.0), (0.0, 0.0)]),
            ([(3.0,), (3.0,)], None),
            ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], None),
        ],
    )
    def test_exactly_flat_simplex_rejected(self, simplex, bounds):
        with pytest.raises(ValueError, match="degenerate"):
            nelder_mead(quadratic, simplex, bounds=bounds)

    @pytest.mark.parametrize("top", [2.0 + 1e-13, math.nextafter(2.0, 3.0)])
    def test_nearly_flat_simplex_accepted(self, top):
        """The rank is exact: a simplex one ulp off a line spans the plane.
        numpy's matrix_rank tolerance called the one-ulp simplex degenerate."""
        simplex = [(0.0, 0.0), (1.0, 1.0), (2.0, top)]
        res = nelder_mead(quadratic, simplex)
        assert res.value < min(quadratic(x) for x in simplex)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_simplex_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            nelder_mead(quadratic, [(0.0, 0.0), (1.0, 0.0), (bad, 1.0)])

    def test_wrong_point_count_rejected(self):
        with pytest.raises(ValueError):
            nelder_mead(quadratic, [(0, 0), (1, 0)])

    def test_bounds_clamp_every_probe(self):
        seen = []

        def watched(x):
            seen.append(tuple(x))
            return (x[0] - 20) ** 2 + (x[1] - 20) ** 2

        res = nelder_mead(watched, [(1, 1), (2, 1), (1, 2)], bounds=[(0, 5), (0, 5)])
        assert all(0 <= a <= 5 and 0 <= b <= 5 for a, b in seen)
        assert res.point == (5.0, 5.0)

    def test_trajectory_starts_at_initial_best_and_never_worsens(self):
        res = nelder_mead(quadratic, UNIT_SIMPLEX)
        assert res.trajectory[0][0] == 0
        values = [v for _, _, v in res.trajectory]
        assert values[0] == min(quadratic(p) for p in UNIT_SIMPLEX)
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_iteration_cap(self):
        res = nelder_mead(rosenbrock, [(-1.2, 1.0), (-0.2, 1.0), (-1.2, 2.0)], max_iterations=3)
        assert res.iterations == 3
        assert not res.converged
        with pytest.raises(ValueError):
            nelder_mead(rosenbrock, UNIT_SIMPLEX, max_iterations=0)

    @given(
        cx=st.floats(-3, 3, allow_nan=False),
        cy=st.floats(-3, 3, allow_nan=False),
    )
    @settings(max_examples=25)
    def test_finds_shifted_quadratic_minima(self, cx, cy):
        res = nelder_mead(lambda x: (x[0] - cx) ** 2 + (x[1] - cy) ** 2, UNIT_SIMPLEX)
        assert abs(res.point[0] - cx) < 1e-3
        assert abs(res.point[1] - cy) < 1e-3


# coordinates that include both zeros, so sign-of-zero slips show
COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10, 10, allow_nan=False))
# the tuner's box is [1, 10] on each axis; whole and half coordinates put
# vertices and centroids on rounding ties
GRID_COORD = st.one_of(
    st.sampled_from([-0.0, 2.5, 10.0]), st.integers(0, 11).map(float), st.floats(0, 11)
)


def exactly(res):
    """Every field of a NelderMeadResult, with -0.0 told apart from 0.0."""
    return repr((res.point, res.value, res.iterations, res.evaluations, res.converged, res.trajectory))


def assert_matches_oracle(objective, simplex, oracle_objective=None, **kwargs):
    try:
        expected = nelder_mead_oracle(oracle_objective or objective, simplex, **kwargs)
    except ValueError:
        assume(False)  # degenerate within numpy's rank tolerance
    assert exactly(nelder_mead(objective, simplex, **kwargs)) == exactly(expected)


@st.composite
def boxed_simplices(draw):
    """A box at least half a unit wide on each axis, and a simplex drawn
    around it: vertices inside, on a face, on a zero, or outside."""
    bounds = []
    for _ in range(2):
        lo = draw(COORD)
        bounds.append((lo, lo + draw(st.floats(0.5, 10))))
    coord = [
        st.one_of(st.sampled_from([0.0, -0.0, lo, hi]), st.floats(lo - 2, hi + 2))
        for lo, hi in bounds
    ]
    simplex = draw(st.lists(st.tuples(*coord), min_size=3, max_size=3))
    return bounds, simplex


class TestNelderMeadOracle:
    """The tuple arithmetic reproduces the numpy 2-vector search bit for bit."""

    @given(data=st.data(), p=st.integers(1, 3), max_iterations=st.integers(1, 150))
    @settings(max_examples=80)
    def test_shifted_quadratics(self, data, p, max_iterations):
        centre = data.draw(st.tuples(*[COORD] * p))
        simplex = data.draw(st.lists(st.tuples(*[COORD] * p), min_size=p + 1, max_size=p + 1))
        objective = lambda x: sum((a - c) ** 2 for a, c in zip(x, centre))
        assert_matches_oracle(objective, simplex, max_iterations=max_iterations)

    @given(
        d0=st.integers(1, 10),
        k0=st.integers(1, 10),
        simplex=st.lists(st.tuples(GRID_COORD, GRID_COORD), min_size=3, max_size=3),
        max_iterations=st.integers(1, 100),
    )
    @settings(max_examples=80)
    def test_rounded_integer_surrogate(self, d0, k0, simplex, max_iterations):
        def cell(x):
            return (_round_to_grid(x[0], 1, 10), _round_to_grid(x[1], 1, 10))

        def cell_np(x):
            return tuple(min(max(int(np.floor(v + 0.5)), 1), 10) for v in x)

        def surrogate(grid):
            return lambda x: 2.0 * (grid(x)[0] - d0) ** 2 + 1.3 * (grid(x)[1] - k0) ** 2

        assert_matches_oracle(
            surrogate(cell),
            simplex,
            surrogate(cell_np),
            max_iterations=max_iterations,
            bounds=[(1.0, 10.0), (1.0, 10.0)],
        )

    @given(case=boxed_simplices(), centre=st.tuples(COORD, COORD))
    # a centroid column of -0.0 entries: np.mean sums from 0.0 and gives 0.0
    @example(case=([(0.0, 2.0), (-0.0, 1.0)], [(0.0, 0.0), (0.0, 1.0), (1.0, -0.0)]), centre=(2.0, 0.0))
    @settings(max_examples=80)
    def test_clamped_boxes(self, case, centre):
        bounds, simplex = case
        objective = lambda x: (x[0] - centre[0]) ** 2 + 3.0 * (x[1] - centre[1]) ** 2
        assert_matches_oracle(objective, simplex, max_iterations=150, bounds=bounds)


def grid_argmax(f, config=TunerConfig()):
    (dl, dh), (kl, kh) = config.d_bounds, config.k_bounds
    box = itertools.product(range(dl, dh + 1), range(kl, kh + 1))
    return max(box, key=lambda p: (f(*p), -p[0], -p[1]))


class TestIntegerTuning:
    def test_unique_optimum_found(self):
        stub = lambda d, k: -((d - 3) ** 2 + (k - 4) ** 2)
        res = tune_integer_objective(stub)
        assert (res.d, res.k) == (3, 4) == grid_argmax(stub)

    def test_corner_optimum_found(self):
        res = tune_integer_objective(lambda d, k: d + k)
        assert (res.d, res.k) == (10, 10)

    def test_memoization_never_recomputes(self):
        calls = []

        def spy(d, k):
            calls.append((d, k))
            return -((d - 6) ** 2 + (k - 2) ** 2)

        res = tune_integer_objective(spy)
        assert len(calls) == len(set(calls)) == res.n_evaluations
        assert (res.d, res.k) == (6, 2)

    def test_result_within_bounds_and_beats_initial_simplex(self):
        stub = lambda d, k: -((d - 8) ** 2) - (k - 9) ** 2
        cfg = TunerConfig()
        res = tune_integer_objective(stub, cfg)
        assert cfg.d_bounds[0] <= res.d <= cfg.d_bounds[1]
        assert cfg.k_bounds[0] <= res.k <= cfg.k_bounds[1]
        for vertex in ((1, 4), (2, 4), (1, 5)):
            assert res.value >= stub(*vertex)

    def test_flat_objective_breaks_ties_low(self):
        res = tune_integer_objective(lambda d, k: 1.0)
        assert (res.d, res.k) == (1, 4)  # initial simplex base wins ties

    def test_trajectory_labels_sequential_and_capped(self):
        cfg = TunerConfig(max_iterations=500)
        res = tune_integer_objective(lambda d, k: -((d - 9) ** 2 + (k - 9) ** 2), cfg)
        labels = [row[0] for row in res.trajectory]
        assert labels == list(range(len(labels)))
        assert labels[-1] <= cfg.max_iterations

    @given(d0=st.integers(1, 10), k0=st.integers(1, 10))
    @settings(max_examples=40)
    def test_paraboloid_sweep_matches_grid_oracle(self, d0, k0):
        stub = lambda d, k: -2.0 * (d - d0) ** 2 - 1.3 * (k - k0) ** 2
        res = tune_integer_objective(stub)
        assert (res.d, res.k) == grid_argmax(stub) == (d0, k0)

    def test_narrow_box(self):
        cfg = TunerConfig(d_bounds=(2, 2), k_bounds=(3, 5))
        res = tune_integer_objective(lambda d, k: -abs(k - 5), cfg)
        assert res.d == 2
        assert res.k == 5


class TestTuneParameters:
    def test_isolated_vehicles_scores_zero_everywhere(self):
        # vehicles 1 km apart never share an edge
        trace = Trace([TracePoint(0.0, v, v * 1000.0, 0.0) for v in range(5)])
        res = tune_parameters(trace)
        assert res.value == 0.0
        assert 1 <= res.d <= 10 and 1 <= res.k <= 10

    def test_dense_trace_beats_defaults(self):
        trace = generate_two_way_roadway(40, 400.0, 8.0, seed=2)
        res = tune_parameters(trace)

        from apsel.metrics import aggregation_rate
        from apsel.mobility import build_udg
        from apsel.selection import centrality_select

        def rate_at(d, k):
            rates = []
            for t in trace.times:
                g = build_udg(trace.positions_at(t))
                n_aps = len(centrality_select(g, d, k).aggregation_points)
                rates.append(aggregation_rate(n_aps, g.n_vertices))
            return sum(rates) / len(rates)

        assert res.value >= rate_at(1, 4) - 1e-12
        assert res.value == pytest.approx(rate_at(res.d, res.k))

    def test_sample_times_subset(self):
        trace = generate_two_way_roadway(20, 300.0, 10.0, seed=5)
        res = tune_parameters(trace, sample_times=[0.0, 5.0])
        assert 1 <= res.d <= 10

    def test_no_usable_snapshot_rejected(self):
        trace = Trace([TracePoint(0.0, 0, 0.0, 0.0), TracePoint(2.0, 0, 5.0, 0.0)])
        with pytest.raises(ValueError, match="non-empty"):
            tune_parameters(trace, sample_times=[1.0])
        with pytest.raises(ValueError, match="non-empty"):
            tune_parameters(trace, sample_times=[-1.0, 3.0])

    def test_time_outside_span_skipped_like_an_unsampled_one(self):
        trace = generate_two_way_roadway(20, 300.0, 10.0, seed=5)
        config = TunerConfig(d_bounds=(1, 3), k_bounds=(1, 3))
        inside = tune_parameters(trace, [4.0], config)
        assert tune_parameters(trace, [4.0, 99.0], config) == inside
        assert tune_parameters(trace, [-5.0, 4.0, 2.5], config) == inside

    def test_time_one_rounding_from_an_instant_is_read(self):
        # the lookup was by exact float key, so 0.1 + 0.2 found no snapshot
        trace = Trace([TracePoint(t, v, 50.0 * v, 0.0) for t in (0.0, 0.3) for v in range(4)])
        config = TunerConfig(d_bounds=(1, 3), k_bounds=(1, 3))
        assert tune_parameters(trace, [0.1 + 0.2], config) == tune_parameters(trace, [0.3], config)

    def test_deterministic(self):
        trace = generate_two_way_roadway(25, 400.0, 6.0, seed=8)
        a = tune_parameters(trace)
        b = tune_parameters(trace)
        assert (a.d, a.k, a.value) == (b.d, b.k, b.value)
        assert a.trajectory == b.trajectory


class TestTrajectoryCsv:
    def test_header_and_rows(self, tmp_path):
        res = tune_integer_objective(lambda d, k: -((d - 3) ** 2 + (k - 4) ** 2))
        path = tmp_path / "traj.csv"
        write_tuning_trajectory_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(TRAJECTORY_HEADER)
        assert len(lines) == len(res.trajectory) + 1
        first = lines[1].split(",")
        assert first[0] == "0"

    def test_byte_stable(self, tmp_path):
        res = tune_integer_objective(lambda d, k: d * 0.1 + k * 0.01)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_tuning_trajectory_csv(res, a)
        write_tuning_trajectory_csv(res, b)
        assert a.read_bytes() == b.read_bytes()
