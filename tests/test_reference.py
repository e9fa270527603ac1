"""``run``, ``compare`` and ``tune`` end to end against ``helpers.reference_run``.

Each case is a small trace on a two-way road: vehicles arrive and leave,
some whole-second instants go unsampled, and periods of half a second or
more put boundaries on unsampled times. The CLI's CSV bytes must equal
those written from the reference rows, which come from the oracles
alone. The loop must also give the same rows and bytes from a source
that offers nothing but the period walk, ``positions_before`` and
``sampling_period``. Run it long with ``--hypothesis-profile=deep``.
"""

import contextlib
import io
import re
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from apsel.cli import RunConfig, main, parse_algo_spec, run_algorithms
from apsel.metrics import summarize_run, write_period_metrics_csv, write_run_summary_csv
from apsel.mobility import RadioParams, Trace, write_trace_csv
from helpers import TracePoint, centrality_select_oracle, reference_period_graphs, reference_run

SPECS = st.one_of(
    st.builds("centrality:d={},k={}".format, st.integers(1, 3), st.integers(1, 4)),
    st.builds("rb:slots={}".format, st.sampled_from([1, 2, 4, 16, 256])),
    st.builds("exact:d={}".format, st.integers(1, 2)),
)


@st.composite
def traces(draw):
    """Rows of a trace over whole-second instants 0..n-1, each vehicle
    sampled from its arrival to its departure at the instants that are
    sampled at all; a vehicle moving at 0 m/s keeps no heading."""
    n_instants = draw(st.integers(2, 7))
    sampled = [0] + [t for t in range(1, n_instants) if draw(st.booleans())]
    rows = []
    for v in range(draw(st.integers(1, 8))):
        arrive = draw(st.sampled_from(sampled))
        leave = draw(st.sampled_from([t for t in sampled if t >= arrive]))
        x0, speed = draw(st.integers(0, 400)), draw(st.integers(-30, 30))
        lane = 0.0 if speed >= 0 else 4.0
        rows += [TracePoint(float(t), v, float(x0 + speed * t), lane)
                 for t in sampled if arrive <= t <= leave]
    return Trace(rows)


@st.composite
def windows(draw, trace):
    """Period, window and radio flags, and the matching keyword settings;
    each end of the window names a sampled instant, on it or within the
    instants' slack of it, so some boundary is sampled."""
    period = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    flags = ["--period", str(period)]
    kwargs = {"period": period}
    nudge = st.sampled_from([0.0, 1e-7, -1e-7])  # whole-second instants: the slack is at least 1e-6
    start = draw(st.none() | st.sampled_from(trace.times))
    later = trace.times if start is None else [t for t in trace.times if t >= start]
    if start is not None:
        start += draw(nudge)
        flags += [f"--t-start={start!r}"]
        kwargs["t_start"] = start
    end = draw(st.none() | st.sampled_from(later))
    if end is not None:
        end += draw(nudge)
        flags += [f"--t-end={end!r}"]
        kwargs["t_end"] = end
    radius = draw(st.sampled_from([60.0, 100.0, 150.0]))
    flags += ["--radius", repr(radius)]
    kwargs["radio"] = RadioParams(radius)
    return flags, kwargs


def written(tmp, name, write, rows) -> bytes:
    path = tmp / name
    write(rows, path)
    return path.read_bytes()


@given(data=st.data())
def test_run_and_compare_write_the_reference_bytes(tmp_path_factory, data):
    trace = data.draw(traces())
    flags, window = data.draw(windows(trace))
    seed = data.draw(st.integers(-(2**64), 2**64))
    specs = data.draw(
        st.lists(
            st.tuples(SPECS, st.booleans()).map(lambda s: s[0] + ",direction=true" * s[1]),
            min_size=1,
            max_size=4,
            unique_by=lambda text: parse_algo_spec(text).tag,
        )
    )
    tmp = tmp_path_factory.mktemp("reference")
    write_trace_csv(trace, tmp / "trace.csv")
    argv = ["--trace", str(tmp / "trace.csv"), "--seed", str(seed), *flags]
    for text in specs:
        argv += ["--algo", text]
    for command in ("run", "compare"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, *argv, "--out", str(tmp / command)]) == 0
    cfg = RunConfig(seed=seed, algos=tuple(map(parse_algo_spec, specs)), **window)
    expected = reference_run(trace, cfg)
    for tag, rows in expected.items():
        want = written(tmp, f"{tag}.expected", write_period_metrics_csv, rows)
        assert (tmp / "run" / f"{tag}.csv").read_bytes() == want, tag
        assert (tmp / "compare" / f"{tag}.csv").read_bytes() == want, tag
    summaries = [summarize_run(tag, rows) for tag, rows in expected.items()]
    want = written(tmp, "summary.expected", write_run_summary_csv, summaries)
    assert (tmp / "compare" / "summary.csv").read_bytes() == want
    assert sorted(p.name for p in (tmp / "run").iterdir()) == sorted(f"{t}.csv" for t in expected)


@given(data=st.data())
def test_tune_reports_the_reference_mean(tmp_path_factory, data):
    trace = data.draw(traces())
    flags, window = data.draw(windows(trace))
    d_max, k_max = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    tmp = tmp_path_factory.mktemp("reference")
    write_trace_csv(trace, tmp / "trace.csv")
    argv = ["tune", "--trace", str(tmp / "trace.csv"), *flags,
            "--d-max", str(d_max), "--k-max", str(k_max), "--out", str(tmp / "tuning.csv")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    d, k, rate = re.match(r"d=(\d+) k=(\d+) rate=(\S+) ", stdout.getvalue()).groups()

    cfg = RunConfig(algos=(parse_algo_spec("centrality"),), **window)
    graphs = [g for _, g in reference_period_graphs(trace, cfg) if g is not None]

    def mean_rate(d, k):
        total = 0.0
        for g in graphs:
            total += 1.0 - len(centrality_select_oracle(g, d, k).aggregation_points) / g.n_vertices
        return total / len(graphs)

    best = mean_rate(int(d), int(k))
    assert rate == f"{best:.4f}"
    rows = (tmp / "tuning.csv").read_text().splitlines()[1:]
    for row in rows:
        _, d_row, k_row, objective = row.split(",")
        assert float(objective) == mean_rate(int(d_row), int(k_row)) <= best


class PeriodSource:
    """All the period loop may read of a trace: its walk, handed out one
    period at a time, the positions a direction spec takes headings from,
    and the sampling period a ``note:`` line names."""

    def __init__(self, trace: Trace):
        self._trace = trace
        self.walks = 0

    def periods(self, period, t_start=None, t_end=None):
        self.walks += 1
        yield from self._trace.periods(period, t_start, t_end)

    def positions_before(self, t):
        return self._trace.positions_before(t)

    @property
    def sampling_period(self):
        return self._trace.sampling_period


def outcome(argv, out):
    """main(argv)'s exit code, stdout and stderr, and the bytes of each
    file it wrote into the directory out, which is left empty."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv)
    files = {}
    for path in sorted(out.iterdir()):
        files[path.name] = path.read_bytes()
        path.unlink()
    return rc, stdout.getvalue(), stderr.getvalue(), files


@given(data=st.data())
def test_the_loop_reads_the_trace_only_through_its_walk(tmp_path_factory, data):
    # a source with nothing but the walk, positions_before and sampling_period
    # gives the rows, bytes and notes of the Trace it stands for
    trace = data.draw(traces())
    flags, window = data.draw(windows(trace))
    specs = ("centrality", "rb", "exact:d=2", "centrality:d=2,direction=true")
    cfg = RunConfig(algos=tuple(map(parse_algo_spec, specs)), **window)
    source = PeriodSource(trace)
    assert run_algorithms(source, cfg) == run_algorithms(trace, cfg)
    assert source.walks == 1

    tmp = tmp_path_factory.mktemp("seam")
    write_trace_csv(trace, tmp / "trace.csv")
    out = tmp / "out"
    out.mkdir()
    runs = [f"--algo={text}" for text in specs] + ["--out", str(out)]
    for argv in (["run", *runs], ["compare", *runs],
                 ["tune", "--d-max", "2", "--k-max", "3", "--out", str(out / "tuning.csv")]):
        argv += ["--trace", str(tmp / "trace.csv"), *flags]
        with_trace = outcome(argv, out)
        assert with_trace[0] == 0 and with_trace[3]
        with mock.patch("apsel.cli.load_trace_csv", return_value=PeriodSource(trace)):
            assert outcome(argv, out) == with_trace, argv[0]
