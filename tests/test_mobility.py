import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apsel.mobility import (
    RadioParams,
    Trace,
    TraceFormatError,
    TracePoint,
    build_direction_constrained_udg,
    build_udg,
    generate_two_way_roadway,
    load_trace_csv,
    snapshot_at,
    write_trace_csv,
)
from helpers import DisplacementVector, direction_angle, displacements_at, euclid

finite = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


class TestTrace:
    def test_sorted_and_indexed(self):
        tr = Trace(
            [
                TracePoint(1.0, 2, 5.0, 5.0),
                TracePoint(0.0, 1, 0.0, 0.0),
                TracePoint(0.0, 2, 3.0, 4.0),
            ]
        )
        assert tr.times == (0.0, 1.0)
        assert tr.span == (0.0, 1.0)
        assert tr.vehicles == (1, 2)
        assert tr.positions_at(0.0) == {1: (0.0, 0.0), 2: (3.0, 4.0)}

    def test_duplicate_sample_rejected(self):
        with pytest.raises(TraceFormatError):
            Trace([TracePoint(0.0, 1, 0.0, 0.0), TracePoint(0.0, 1, 1.0, 1.0)])

    def test_empty_rejected(self):
        with pytest.raises(TraceFormatError):
            Trace([])

    def test_sampling_period_inferred(self):
        tr = Trace([TracePoint(t, 0, 0.0, 0.0) for t in (0.0, 0.5, 1.0, 3.0)])
        assert tr.sampling_period == 0.5

    def test_single_instant_period_defaults(self):
        tr = Trace([TracePoint(2.0, 0, 1.0, 1.0)])
        assert tr.sampling_period == 1.0

    def test_snapshot_outside_span(self):
        tr = Trace([TracePoint(1.0, 0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            snapshot_at(tr, 2.0)

    def test_snapshot_at_unsampled_instant_is_empty(self):
        tr = Trace([TracePoint(0.0, 0, 0.0, 0.0), TracePoint(2.0, 0, 1.0, 0.0)])
        assert snapshot_at(tr, 1.0) == {}

    def test_instants_resolve_within_tolerance(self):
        tr = Trace([TracePoint(t, 0, 0.0, 0.0) for t in (0.0, 0.5, 1.0, 3.0)])
        assert tr.instant_near(0.5 + 1e-9) == 0.5
        assert tr.instant_near(3.0 + 1e-9) == 3.0
        assert tr.instant_near(0.0 - 1e-9) == 0.0
        assert tr.instant_near(0.51) is None
        assert tr.instant_near(2.0) is None
        # a predecessor counts only one sampling period back
        assert tr.instant_before(1.0) == 0.5
        assert tr.instant_before(3.0) is None
        assert tr.instant_before(0.0) is None


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        tr = generate_two_way_roadway(5, 500.0, 10.0, seed=3)
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        back = load_trace_csv(path)
        assert back.points == tr.points

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,vid,x,y\n0,1,0,0\n")
        with pytest.raises(TraceFormatError, match="header"):
            load_trace_csv(path)

    def test_bad_field_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,id,x,y\n0.0,1,0.0,0.0\n1.0,oops,0.0,0.0\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            load_trace_csv(path)

    def test_wrong_arity_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,id,x,y\n0.0,1,0.0\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            load_trace_csv(path)

    @pytest.mark.parametrize(
        "bad_row", ["nan,0,5.0,5.0", "inf,5,0.0,0.0", "1.0,2,nan,0.0", "1.0,3,0.0,-inf"]
    )
    def test_non_finite_value_reports_line(self, tmp_path, bad_row):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,id,x,y\n0.0,1,0.0,0.0\n1.0,1,10.0,0.0\n{bad_row}\n")
        with pytest.raises(TraceFormatError, match="line 4: non-finite"):
            load_trace_csv(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("time,id,x,y\n")
        with pytest.raises(TraceFormatError, match="no samples"):
            load_trace_csv(path)


class TestBuildUdg:
    def test_boundary_inclusive(self):
        snap = {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (200.1, 0.0)}
        g = build_udg(snap, RadioParams(range_r=100.0))
        assert g.has_edge(0, 1)  # exactly at range
        assert not g.has_edge(1, 2)  # just past it
        assert g.n_edges == 1

    def test_empty_and_singleton(self):
        assert build_udg({}).n_vertices == 0
        g = build_udg({5: (1.0, 2.0)})
        assert g.vertices == (5,)
        assert g.n_edges == 0

    def test_radio_validation(self):
        with pytest.raises(ValueError):
            RadioParams(range_r=0.0)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 25),
        r=st.floats(10.0, 300.0, allow_nan=False),
    )
    def test_matches_pairwise_distance_check(self, seed, n, r):
        import random

        rng = random.Random(seed)
        snap = {v: (rng.uniform(0, 500), rng.uniform(0, 500)) for v in range(n)}
        g = build_udg(snap, RadioParams(range_r=r))
        ids = sorted(snap)
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                i, j = ids[a], ids[b]
                assert g.has_edge(i, j) == (euclid(snap[i], snap[j]) <= r)


def linked_after(wi, wj) -> bool:
    """Whether the direction filter keeps the link between two vehicles at
    one spot whose displacements are exactly wi and wj."""
    prev = {0: (-wi[0], -wi[1]), 1: (-wj[0], -wj[1])}
    g, _ = build_direction_constrained_udg({0: (0.0, 0.0), 1: (0.0, 0.0)}, prev)
    return g.has_edge(0, 1)


class TestDirectionAngle:
    @pytest.mark.parametrize(
        "wi,wj,kept",
        [
            ((1.0, 0.0), (1.0, 0.0), True),
            ((1.0, 0.0), (1.0, 1.0), True),
            ((1.0, 0.0), (2.0, 0.0), True),
            ((1.0, 0.0), (0.0, 1.0), False),
            ((1.0, 0.0), (-1.0, 0.0), False),
            ((1e-12, 0.0), (-1.0, 0.0), False),
        ],
        ids=["0deg", "45deg", "east-2east", "90deg", "180deg", "tiny-opposing"],
    )
    def test_boundary_cases_exact(self, wi, wj, kept):
        assert linked_after(wi, wj) == kept

    @given(a=finite, b=finite, c=finite, d=finite)
    def test_symmetric_and_bounded(self, a, b, c, d):
        kept = linked_after((a, b), (c, d))
        assert linked_after((c, d), (a, b)) == kept
        wi, wj = DisplacementVector(a, b), DisplacementVector(c, d)
        if wi.is_neutral or wj.is_neutral:
            assert kept
            return
        ang = direction_angle(wi, wj)
        assert 0.0 <= ang <= 180.0
        assert kept == (ang <= 45.0)

    @given(a=finite, b=finite, s=st.floats(0.01, 100.0, allow_nan=False))
    def test_scale_invariant(self, a, b, s):
        assert linked_after((a, b), (a * s, b * s))


class TestDirectionConstrainedUdg:
    def test_same_heading_kept_opposite_dropped(self):
        prev = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (20.0, 4.0)}
        cur = {0: (5.0, 0.0), 1: (15.0, 0.0), 2: (15.0, 4.0)}  # 2 drives west
        g, removed = build_direction_constrained_udg(cur, prev)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 2) and not g.has_edge(0, 2)
        assert removed == 2

    def test_neutral_endpoint_keeps_edge(self):
        prev = {0: (0.0, 0.0)}  # vehicle 1 has no previous sample
        cur = {0: (5.0, 0.0), 1: (10.0, 0.0)}
        g, removed = build_direction_constrained_udg(cur, prev)
        assert g.has_edge(0, 1)
        assert removed == 0

    def test_zero_displacement_is_neutral(self):
        prev = {0: (0.0, 0.0), 1: (10.0, 0.0)}
        cur = {0: (0.0, 0.0), 1: (5.0, 0.0)}  # 0 parked, 1 drives west
        g, removed = build_direction_constrained_udg(cur, prev)
        assert g.has_edge(0, 1)
        assert removed == 0

    def test_45_degree_edge_survives(self):
        prev = {0: (0.0, 0.0), 1: (10.0, 0.0)}
        cur = {0: (1.0, 0.0), 1: (11.0, 1.0)}  # displacements (1,0) and (1,1)
        g, removed = build_direction_constrained_udg(cur, prev)
        assert g.has_edge(0, 1)
        assert removed == 0

    def test_no_previous_snapshot_keeps_everything(self):
        cur = {0: (0.0, 0.0), 1: (50.0, 0.0), 2: (90.0, 0.0)}
        g, removed = build_direction_constrained_udg(cur, {})
        base = build_udg(cur)
        assert list(g.edges()) == list(base.edges())
        assert removed == 0

    def test_filtered_edges_subset_of_udg(self):
        tr = generate_two_way_roadway(40, 800.0, 20.0, seed=9)
        prev = tr.positions_at(5.0)
        cur = tr.positions_at(6.0)
        base = build_udg(cur)
        g, removed = build_direction_constrained_udg(cur, prev)
        assert set(g.edges()) <= set(base.edges())
        assert removed == base.n_edges - g.n_edges


class TestRoadwayGenerator:
    def test_shape_and_lanes(self):
        tr = generate_two_way_roadway(6, 1000.0, 5.0, seed=0)
        assert tr.times == (0.0, 1.0, 2.0, 3.0, 4.0)
        assert tr.vehicles == (0, 1, 2, 3, 4, 5)
        snap = tr.positions_at(0.0)
        assert all(snap[v][1] == 498.0 for v in (0, 2, 4))
        assert all(snap[v][1] == 502.0 for v in (1, 3, 5))

    def test_headings_opposed_exactly(self):
        tr = generate_two_way_roadway(10, 1000.0, 10.0, seed=4)
        prev, cur = tr.positions_at(3.0), tr.positions_at(4.0)
        for v, (x, y) in cur.items():
            assert y - prev[v][1] == 0.0
            assert (x - prev[v][0] > 0) == (v % 2 == 0)

    def test_constant_speed(self):
        tr = generate_two_way_roadway(3, 500.0, 6.0, seed=7)
        xs = [tr.positions_at(float(t))[0][0] for t in range(6)]
        steps = [b - a for a, b in zip(xs, xs[1:])]
        assert all(s == pytest.approx(steps[0]) for s in steps)
        assert 8.0 <= steps[0] <= 14.0

    def test_seed_reproducible(self):
        a = generate_two_way_roadway(8, 600.0, 4.0, seed=11)
        b = generate_two_way_roadway(8, 600.0, 4.0, seed=11)
        assert a.points == b.points

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_two_way_roadway(0)
        with pytest.raises(ValueError):
            generate_two_way_roadway(3, duration=0.0)
        with pytest.raises(ValueError):
            generate_two_way_roadway(3, speed_range=(5.0, 2.0))


def test_displacements_skip_new_arrivals():
    prev = {0: (0.0, 0.0)}
    cur = {0: (1.0, 0.0), 1: (5.0, 5.0)}
    moves = displacements_at(cur, prev)
    assert set(moves) == {0}
    assert moves[0].dx == 1.0 and moves[0].dy == 0.0
    assert moves[0].magnitude == 1.0

