import pytest
from hypothesis import given
from hypothesis import strategies as st

from apsel.metrics import (
    METRICS_HEADER,
    PeriodMetrics,
    aggregation_rate,
    notification_count,
    read_period_metrics_csv,
    routing_update_count,
    summarize_run,
    upload_cost,
    write_period_metrics_csv,
    write_run_summary_csv,
)

small_sets = st.sets(st.integers(0, 30), max_size=12)


class TestAggregationRate:
    def test_reduction_convention(self):
        assert aggregation_rate(3, 10) == 0.7
        assert aggregation_rate(25, 100) == 0.75
        assert aggregation_rate(10, 10) == 0.0
        assert aggregation_rate(1, 4) == 1.0 - 1.0 / 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            aggregation_rate(0, 10)
        with pytest.raises(ValueError):
            aggregation_rate(11, 10)
        with pytest.raises(ValueError):
            aggregation_rate(1, 0)

    @given(n=st.integers(1, 500), a=st.integers(1, 500))
    def test_bounded(self, n, a):
        if a > n:
            return
        r = aggregation_rate(a, n)
        assert 0.0 <= r < 1.0


class TestUploadCost:
    def test_defaults(self):
        # 120 bytes per packet, one packet per point per 10 s
        assert upload_cost(1) == 12.0
        assert upload_cost(3) == 36.0
        assert upload_cost(100) == 1200.0

    def test_large_fleet_reference_point(self):
        # 13958 points should land within 0.1% of 167.5 kB/s
        cost = upload_cost(13_958)
        assert cost == 13_958 * 120 / 10.0
        assert abs(cost / 1000.0 - 167.5) / 167.5 < 1e-3

    def test_zero_points_zero_cost(self):
        assert upload_cost(0) == 0.0

    def test_custom_constants(self):
        assert upload_cost(3, delivery_period=4.0) == 90.0

    def test_validation(self):
        with pytest.raises(ValueError):
            upload_cost(-1)
        with pytest.raises(ValueError):
            upload_cost(1, delivery_period=0.0)

    @given(a=st.integers(0, 10_000))
    def test_linear_in_points(self, a):
        assert upload_cost(a) == pytest.approx(a * upload_cost(1))


class TestChurnCounters:
    def test_notification_is_symmetric_difference(self):
        assert notification_count({1, 2, 3}, {2, 3, 4}) == 2
        assert notification_count(set(), {5}) == 1
        assert notification_count({5}, {5}) == 0

    @given(a=small_sets, b=small_sets)
    def test_notification_symmetry(self, a, b):
        assert notification_count(a, b) == notification_count(b, a)
        assert notification_count(a, a) == 0

    def test_routing_updates(self):
        prev = {1: 0, 2: 0, 3: 5}
        cur = {1: 0, 2: 5, 4: 5}  # 2 moved, 4 arrived, 3 departed
        assert routing_update_count(prev, cur) == 2

    def test_routing_first_period_counts_all(self):
        assert routing_update_count({}, {1: 0, 2: 0}) == 2

    def test_departures_free(self):
        assert routing_update_count({1: 0, 2: 0}, {}) == 0


def _sample_rows():
    return [
        PeriodMetrics(0.0, 50, 120, 10, 0.8, 120.0, 400, 10, 40, 0),
        PeriodMetrics(10.0, 52, 130, 12, 1.0 - 12 / 52, 144.0, 410, 6, 9, 7),
        PeriodMetrics(20.0, 0, 0, 0, None, 0.0, 0, 12, 0, 0),
    ]


class TestPeriodCsv:
    def test_round_trip(self, tmp_path):
        rows = _sample_rows()
        path = tmp_path / "m.csv"
        write_period_metrics_csv(rows, path)
        back = read_period_metrics_csv(path)
        assert back == [
            PeriodMetrics(*r[:9]) for r in ((
                x.time, x.n_vehicles, x.n_edges, x.n_aps, x.aggregation_rate,
                x.upload_cost_bps, x.edges_examined, x.n_notifications,
                x.n_routing_updates,
            ) for x in rows)
        ]

    def test_header_and_blank_rate(self, tmp_path):
        path = tmp_path / "m.csv"
        write_period_metrics_csv(_sample_rows(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(METRICS_HEADER)
        assert lines[3].split(",")[4] == ""  # undefined rate stays blank

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_period_metrics_csv(_sample_rows(), a)
        write_period_metrics_csv(_sample_rows(), b)
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("time,n\n")
        with pytest.raises(ValueError, match="header"):
            read_period_metrics_csv(path)


class TestRunSummary:
    def test_aggregates(self):
        s = summarize_run("centrality_d1_k4", _sample_rows())
        assert s.n_periods == 3
        assert s.mean_aggregation_rate == pytest.approx((0.8 + (1 - 12 / 52)) / 2)
        assert s.mean_upload_cost_bps == pytest.approx((120.0 + 144.0 + 0.0) / 3)
        assert s.mean_reelections == pytest.approx(7 / 3)
        assert s.total_notifications == 28
        assert s.total_routing_updates == 49
        assert s.total_edges_examined == 810

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            summarize_run("x", [])

    def test_summary_csv(self, tmp_path):
        s = summarize_run("rb_T256", _sample_rows())
        path = tmp_path / "summary.csv"
        write_run_summary_csv([s], path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("algorithm,n_periods,")
        assert lines[1].startswith("rb_T256,3,")
