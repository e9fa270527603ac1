import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import apsel.tuner
from apsel.graph import SnapshotGraph
from apsel.metrics import aggregation_rate
from apsel.mobility import build_udg, generate_two_way_roadway
from apsel.selection import centrality_select
from apsel.tuner import (
    CONTRACTION,
    EXPANSION,
    MAX_ITERATIONS,
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
from helpers import nelder_mead_oracle, path_graph, spy_on_assignment


def quadratic(x):
    return (x[0] - 1) ** 2 + (x[1] - 2) ** 2


def rosenbrock(x):
    return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2


UNIT_SIMPLEX = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


class TestConfig:
    def test_defaults(self):
        c = TunerConfig()
        assert (c.d_max, c.k_max) == (10, 10)
        assert MAX_ITERATIONS == 500
        assert (REFLECTION, EXPANSION, CONTRACTION, SHRINK) == (1.0, 2.0, 0.5, 0.5)

    @pytest.mark.parametrize("bad", [dict(d_max=0), dict(k_max=-2)])
    def test_validation(self, bad):
        ((name, value),) = bad.items()
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
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
        # both searches clamp every probe into the box before rounding it
        def cell(x):
            return (_round_to_grid(x[0]), _round_to_grid(x[1]))

        def cell_np(x):
            return tuple(int(np.floor(v + 0.5)) for v in x)

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
    box = itertools.product(range(1, config.d_max + 1), range(1, config.k_max + 1))
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
        assert 1 <= res.d <= cfg.d_max
        assert 1 <= res.k <= cfg.k_max
        for vertex in ((1, 4), (2, 4), (1, 5)):
            assert res.value >= stub(*vertex)

    def test_flat_objective_breaks_ties_low(self):
        res = tune_integer_objective(lambda d, k: 1.0)
        assert (res.d, res.k) == (1, 4)  # initial simplex base wins ties

    def test_trajectory_labels_sequential_and_capped(self):
        res = tune_integer_objective(lambda d, k: -((d - 9) ** 2 + (k - 9) ** 2))
        labels = [row[0] for row in res.trajectory]
        assert labels == list(range(len(labels)))
        assert labels[-1] <= MAX_ITERATIONS

    @given(d0=st.integers(1, 10), k0=st.integers(1, 10))
    @settings(max_examples=40)
    def test_paraboloid_sweep_matches_grid_oracle(self, d0, k0):
        stub = lambda d, k: -2.0 * (d - d0) ** 2 - 1.3 * (k - k0) ** 2
        res = tune_integer_objective(stub)
        assert (res.d, res.k) == grid_argmax(stub) == (d0, k0)

    def test_narrow_box(self):
        cfg = TunerConfig(d_max=1, k_max=5)
        res = tune_integer_objective(lambda d, k: -abs(k - 5), cfg)
        assert res.d == 1
        assert res.k == 5


def roadway_graphs(n, area, duration, seed):
    trace = generate_two_way_roadway(n, area, duration, seed=seed)
    return [build_udg(trace.positions_at(t)) for t in trace.times]


class TestTuneParameters:
    def test_isolated_vehicles_scores_zero_everywhere(self):
        res = tune_parameters([SnapshotGraph(range(5))])
        assert res.value == 0.0
        assert 1 <= res.d <= 10 and 1 <= res.k <= 10

    def test_dense_trace_beats_defaults(self):
        graphs = roadway_graphs(40, 400.0, 8.0, seed=2)
        res = tune_parameters(graphs)

        def rate_at(d, k):
            rates = []
            for g in graphs:
                n_aps = len(centrality_select(g, d, k).aggregation_points)
                rates.append(aggregation_rate(n_aps, g.n_vertices))
            return sum(rates) / len(rates)

        assert res.value >= rate_at(1, 4) - 1e-12
        assert res.value == pytest.approx(rate_at(res.d, res.k))

    def test_no_usable_snapshot_rejected(self, monkeypatch):
        # no graph, or one with no vehicles, fails before any evaluation
        calls = []
        monkeypatch.setattr(apsel.tuner, "centrality_select", lambda *args: calls.append(args))
        for graphs in ([], iter([]), [path_graph(3), SnapshotGraph(())]):
            with pytest.raises(ValueError, match="at least one graph, and a vehicle in each"):
                tune_parameters(graphs)
        assert calls == []

    def test_makes_no_assignment(self, monkeypatch):
        # the objective reads only the number of points
        calls = spy_on_assignment(monkeypatch)
        graphs = roadway_graphs(20, 300.0, 10.0, seed=5)
        res = tune_parameters([graphs[0], graphs[4]], TunerConfig(d_max=3, k_max=3))
        assert res.n_evaluations > 1
        assert calls == []

    def test_deterministic(self):
        a = tune_parameters(roadway_graphs(25, 400.0, 6.0, seed=8))
        b = tune_parameters(iter(roadway_graphs(25, 400.0, 6.0, seed=8)))
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
