import csv
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apsel import mobility
from apsel.mobility import (
    RadioParams,
    Snapshot,
    Trace,
    TraceFormatError,
    build_direction_constrained_udg,
    build_udg,
    generate_two_way_roadway,
    load_trace_csv,
    write_trace_csv,
)
from helpers import (
    DisplacementVector,
    TraceOracle,
    TracePoint,
    adjacency,
    direction_angle,
    displacements_at,
    euclid,
    load_trace_csv_oracle,
    trace_samples,
    udg_oracle,
)

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

    @pytest.mark.parametrize("value", [None, "abc", "1.5", 1j])
    @pytest.mark.parametrize("field", [0, 2, 3], ids=["time", "x", "y"])
    def test_sample_that_is_not_a_real_number_rejected(self, field, value):
        sample = [0.0, 2, 1.0, 1.0]
        sample[field] = value
        point = TracePoint(*sample)
        with pytest.raises(TraceFormatError) as exc:
            Trace([TracePoint(0.0, 1, 0.0, 0.0), point])
        assert str(exc.value) == f"time or coordinate is not a real number: {point!r}"

    @pytest.mark.parametrize("field", [0, 2, 3], ids=["time", "x", "y"])
    def test_int_too_large_for_a_float_rejected(self, field):
        sample = [0.0, 2, 1.0, 1.0]
        sample[field] = 10**400
        with pytest.raises(TraceFormatError, match="^non-finite time or coordinate"):
            Trace([TracePoint(*sample)])

    @pytest.mark.parametrize(
        "sample, got",
        [((0.0, 1, 2.0), "3"), ((0.0, 1, 2.0, 3.0, 4.0), "5"), (5, "int")],
        ids=["three-fields", "five-fields", "not-a-row"],
    )
    def test_sample_that_is_not_four_fields_rejected(self, sample, got):
        # these escaped as bare unpacking errors that named no sample
        with pytest.raises(TraceFormatError) as exc:
            Trace([TracePoint(0.0, 1, 0.0, 0.0), sample])
        assert str(exc.value) == f"expected 4 fields, got {got}: {sample!r}"

    def test_empty_rejected(self):
        with pytest.raises(TraceFormatError):
            Trace([])

    @pytest.mark.parametrize(
        "bad",
        [
            TracePoint(math.nan, 0, 0.0, 0.0),
            TracePoint(-math.inf, 0, 0.0, 0.0),
            TracePoint(0.0, 0, math.inf, 0.0),
            TracePoint(0.0, 0, 0.0, math.nan),
        ],
    )
    def test_non_finite_sample_rejected(self, bad):
        points = [bad, TracePoint(1.0, 0, 0.0, 0.0), TracePoint(0.0, 1, 0.0, 0.0)]
        with pytest.raises(TraceFormatError, match="non-finite time or coordinate"):
            Trace(points)

    def test_sampling_period_inferred(self):
        tr = Trace([TracePoint(t, 0, 0.0, 0.0) for t in (0.0, 0.5, 1.0, 3.0)])
        assert tr.sampling_period == 0.5

    def test_single_instant_period_defaults(self):
        tr = Trace([TracePoint(2.0, 0, 1.0, 1.0)])
        assert tr.sampling_period == 1.0

    def test_snapshot_at_unsampled_instant_is_empty(self):
        tr = Trace([TracePoint(0.0, 0, 0.0, 0.0), TracePoint(2.0, 0, 1.0, 0.0)])
        assert tr.positions_at(1.0) == {}
        assert tr.instant_near(1.0) is None

    def test_instants_resolve_within_tolerance(self):
        tr = Trace([TracePoint(t, 0, t, 0.0) for t in (0.0, 0.5, 1.0, 3.0)])
        assert tr.instant_near(0.5 + 1e-9) == 0.5
        assert tr.instant_near(3.0 + 1e-9) == 3.0
        assert tr.instant_near(0.0 - 1e-9) == 0.0
        assert tr.instant_near(0.51) is None
        assert tr.instant_near(2.0) is None
        # a predecessor counts only one sampling period back
        assert tr.positions_before(1.0) == {0: (0.5, 0.0)}
        assert tr.positions_before(3.0) == {}
        assert tr.positions_before(0.0) == {}

    def test_positions_at_reads_the_instant_a_time_names(self):
        # 0.1 + 0.2 is 0.30000000000000004, one rounding from the instant 0.3
        tr = Trace([TracePoint(t, v, t + v, 0.0) for t in (0.0, 0.3) for v in range(2)])
        assert 0.1 + 0.2 not in tr.times
        assert tr.positions_at(0.1 + 0.2) == tr.positions_at(0.3) == {0: (0.3, 0.0), 1: (1.3, 0.0)}
        assert tr.positions_at(0.15) == {}

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_names_no_instant(self, t):
        # an infinite time has an infinite slack, which every instant lay within
        tr = Trace([TracePoint(s, 0, s, 0.0) for s in (0.0, 0.3)])
        assert tr.instant_near(t) is None
        assert tr.positions_at(t) == {}


# a field one character longer than the csv module accepts
OVER_LIMIT = "3" * (csv.field_size_limit() + 1)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        tr = generate_two_way_roadway(5, 500.0, 10.0, seed=3)
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        back = load_trace_csv(path)
        assert trace_samples(back) == trace_samples(tr)

    def test_numpy_scalar_samples_round_trip(self, tmp_path):
        # under numpy 2, repr(np.float64(1.5)) is "np.float64(1.5)"
        pts = [
            TracePoint(np.float64(0.0), 0, np.float64(1.5), 0.0),
            TracePoint(np.float64(1.0), np.int64(1), 2.0, np.float64(-0.25)),
        ]
        path = tmp_path / "trace.csv"
        write_trace_csv(Trace(pts), path)
        assert path.read_text() == "time,id,x,y\n0.0,0,1.5,0.0\n1.0,1,2.0,-0.25\n"
        assert trace_samples(load_trace_csv(path)) == trace_samples(Trace(pts))

    def test_float32_samples_round_trip_exactly(self, tmp_path):
        numpy = pytest.importorskip("numpy")
        # str(numpy.float32(0.1)) is "0.1", which reads back as a different float64
        x, y = numpy.float32(0.1), numpy.float32(-2.3)
        path = tmp_path / "trace.csv"
        write_trace_csv(Trace([TracePoint(0.0, 0, x, y)]), path)
        assert load_trace_csv(path).positions_at(0.0) == {0: (float(x), float(y))}
        assert float(x) == 0.10000000149011612

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

    def test_line_numbers_count_lines_inside_quoted_fields(self, tmp_path):
        # the first record spans lines 2-3, so the bad id sits on line 4
        path = tmp_path / "bad.csv"
        path.write_text('time,id,x,y\n"0.0\n",1,0,0\n1.0,x,0,0\n')
        with pytest.raises(TraceFormatError, match="^line 4: "):
            load_trace_csv(path)

    # the csv module raises csv.Error for these: a field over
    # csv.field_size_limit(), and before Python 3.11 a NUL byte
    @pytest.mark.parametrize(
        "text, line",
        [
            (f"time,id,x,y\n0,1,2,3\n0,2,2,{OVER_LIMIT}\n", 3),
            (f'time,id,x,y\n0,1,2,3\n0,2,2,"{OVER_LIMIT}"\n', 3),
            (f"time,id,x,{OVER_LIMIT}\n0,1,2,3\n", 1),
            ("time,id,x,y\n0,1,2,3\n0,2,2,3\x00\n", 3),
        ],
        ids=["field-over-limit", "quoted-field-over-limit", "header-over-limit", "nul-byte"],
    )
    def test_line_the_csv_module_rejects_reports_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        for load in (load_trace_csv, load_trace_csv_oracle):
            with pytest.raises(TraceFormatError, match=f"^line {line}: "):
                load(path)

    def test_undecodable_text_names_no_line(self, tmp_path):
        # the decoder reads ahead of the record parse, so no line number
        # fits; the bad byte lies past the first block, where the quote
        # has put the parse record by record
        path = tmp_path / "bad.csv"
        rows = "".join(f"0,{v},2,3\n" for v in range(2, 5000)).encode()
        path.write_bytes(b'time,id,x,y\n"0",1,2,3\n' + rows + b"0,1,2,\xff\n")
        assert path.stat().st_size > 2 * mobility.BLOCK_SIZE
        with pytest.raises(UnicodeDecodeError):
            load_trace_csv(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("time,id,x,y\n")
        with pytest.raises(TraceFormatError, match="no samples"):
            load_trace_csv(path)


# time fields as a trace file may spell them: integers, short decimals
# and full float reprs
time_fields = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(0, 400).map(lambda i: f"{i / 10:.1f}"),
    st.floats(0.0, 40.0, allow_nan=False).map(repr),
)
coordinate_fields = st.one_of(
    st.integers(-5000, 5000).map(str), finite.map(repr)
)
records = st.tuples(time_fields, st.integers(0, 25).map(str), coordinate_fields, coordinate_fields)


def trace_text(rows, blank_every=0) -> str:
    lines = ["time,id,x,y"]
    for i, row in enumerate(rows):
        if blank_every and i % blank_every == 0:
            lines.append("")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def assert_same_trace(trace, oracle):
    assert trace.times == oracle.times
    assert trace.sampling_period == oracle.sampling_period
    assert len(trace) == len(oracle)
    assert trace.vehicles == oracle.vehicles
    assert trace_samples(trace) == oracle.points
    for t in oracle.times:
        assert list(trace.positions_at(t).items()) == list(oracle.positions_at(t).items())


def load_error(load, path) -> str:
    with pytest.raises(TraceFormatError) as info:
        load(path)
    return str(info.value)


def load_outcome(load, path):
    """A loader's trace, as its times, sampling period and instants, or
    the type and message of the error it raised."""
    try:
        trace = load(path)
    except TraceFormatError as exc:
        return str(exc)
    return trace.times, trace.sampling_period, [list(trace.positions_at(t).items()) for t in trace.times]


# Blocks of this many characters put block edges inside the loader cases below.
SMALL_BLOCK = 32


class TestLoaderOracle:
    """The block loader against the earlier one-object-per-sample loader,
    with blocks small enough that every case crosses block edges."""

    @pytest.fixture(autouse=True, scope="class")
    def small_blocks(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mobility, "BLOCK_SIZE", SMALL_BLOCK)
            yield

    @given(
        rows=st.lists(records, min_size=1, max_size=60, unique_by=lambda r: (float(r[0]), int(r[1]))),
        blank_every=st.integers(0, 7),
    )
    def test_same_trace(self, tmp_path_factory, rows, blank_every):
        path = tmp_path_factory.mktemp("oracle") / "trace.csv"
        path.write_text(trace_text(rows, blank_every))
        assert_same_trace(load_trace_csv(path), load_trace_csv_oracle(path))
        points = [TracePoint(float(t), int(v), float(x), float(y)) for t, v, x, y in rows]
        assert_same_trace(Trace(points), TraceOracle(points))

    @pytest.mark.parametrize(
        "text",
        [
            "t,vid,x,y\n0,1,0,0\n",
            "",
            "time,id,x,y\n0.0,1,0.0,0.0\n1.0,1,0.0\n",
            "time,id,x,y\n0.0,1,0.0,0.0,9\n",
            "time,id,x,y\nabc,1,0.0,0.0\n",
            "time,id,x,y\n0.0,1,1.2.3,0.0\n",
            "time,id,x,y\n0.0,1,0.0,zz\n",
            "time,id,x,y\n0.0,oops,0.0,0.0\n",
            "time,id,x,y\n0.0,1.5,0.0,0.0\n",
            # parse order: float(time), float(x), float(y), int(id), then finiteness
            "time,id,x,y\nabc,oops,zz,zz\n",
            "time,id,x,y\n1.0,oops,2.0,zz\n",
            "time,id,x,y\nnan,oops,0.0,0.0\n",
            "time,id,x,y\nnan,0,5.0,5.0\n",
            "time,id,x,y\n1.0,2,inf,0.0\n",
            "time,id,x,y\n1.0,3,0.0,-inf\n",
            "time,id,x,y\n",
            "time,id,x,y\n\n\n",
            "time,id,x,y\n2.0,4,0,0\n0.5,7,0,0\n2.0,4,1,1\n0.5,7,1,1\n",
            "time,id,x,y\n0.0,1,0,0\n0.0,1,1,1\n1.0,x,0,0\n",
            "time,id,x,y\n0.0,1,0,0\n-0.0,1,1,1\n0,1,2,2\n",
        ],
        ids=[
            "header", "no-header", "3-fields", "5-fields", "bad-time", "bad-x", "bad-y",
            "bad-id", "decimal-id", "time-first", "y-before-id", "id-before-finite", "nan-time",
            "inf-x", "minus-inf-y", "empty-body", "blank-body", "two-duplicates",
            "duplicate-then-malformed", "triple-sample",
        ],
    )
    def test_same_rejection(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert load_error(load_trace_csv, path) == load_error(load_trace_csv_oracle, path)

    # Each case follows `pad` plain records, so its lines meet block edges
    # at several offsets. Each block resolves its first time field afresh,
    # and a field runs on across an edge in "zero-spellings" (`-0.0`, one
    # instant) and in "minus-zero-duplicate" at pads 1 and 3 (`-0.0` after
    # `0.0`, before the duplicate whose written time the message names).
    @pytest.mark.parametrize("pad", range(4))
    @pytest.mark.parametrize(
        "body",
        [
            # 7 + 1 fields: the right total over two lines
            "0,1,2,3,0,1,2\n3\n",
            "0,1,2,3,0,1,2\n\n",
            "0.0,1,1.0,2.0\r\n0.0,2,3.0,4.0\r\n1.0,1,1.5,2.0\r\n",
            "0.0,1,1.0,2.0\r\n\r\n1.0,x,1.5,2.0\r\n",
            "0.0,1,1.0,2.0\r1.0,1,1.5,2.0\r",
            "0.0,1,1.0,2.0\r0.0,2,1.0,2.0\r0.0,3,1.0,2.0\r1.0,x,1.5,2.0\r",
            '"0.0' + "\n" * 40 + '",1,0,0\n1.0,2,3.0,4.0\n',
            '"0.0' + "\n" * 40 + '",1,0,0\n1.0,x,3.0,4.0\n',
            '0.0,1,1.0,2.0\n0.0,"2\n",3.0,4.0\n1.0,1,1.5,2.0\n',
            "0.0,1,1.0,2.0\n1.0,1,1.5,2.0",
            "0.0,1,1.0,2.0\n1.0,1,1.5",
            "0.0,1,1.0,2.0\n5",
            "0.0,1,1.0,2.0\n\n0.0,2,3.0,4.0\n\n\n1.0,1,1.5,2.0\n",
            " 0.0 , 1 ,\t1.5 , 2.0 \n0.0, 2,3.0 ,4.0\n 1.0,1,1.5,2.0\n",
            "0.0,1,1.0," + "0" * 100 + "2.0\n1.0,1,1.5,2.0\n",
            f"0.0,1,{'0' * (csv.field_size_limit() + 1)},2.0\n",
            f'0.0,1,1.0,2.0\n0.0,2,"{OVER_LIMIT}",2.0\n',
            "0.0,1,1.0,2.0\n0.0,2,1.0,\x002.0\n",
            f"0.0,{2**63},1.0,2.0\n",
            f"0.0,1,1.0,2.0\n1.0,{-(2**63) - 1},1.0,2.0\n",
            "0.0,1,1e308,2.0\n0.0,2,1e308,2.0\n",
            "0.0,1,1.0,2.0\n0.0,2,nan,2.0\n",
            "".join(f"0.0,{v},1.0,2.0\n" for v in range(4)) + "-0.0,4,1.0,2.0\n-0.0,0,3.0,4.0\n",
            "".join(f"-0.0,{v},1.0,2.0\n" for v in range(4)) + "0.0,4,1.0,2.0\n0,5,1.0,2.0\n",
        ],
        ids=[
            "misaligned", "misaligned-blank", "crlf", "crlf-bad-id", "cr", "cr-bad-id", "quoted-lines",
            "quoted-lines-then-bad-id", "quoted-id", "no-final-newline", "no-final-newline-3-fields",
            "no-final-newline-1-field", "blank-lines", "whitespace", "long-field",
            "field-over-limit", "quoted-field-over-limit", "nul-byte", "id-2**63", "id-below-int64",
            "sum-overflows", "nan-x",
            "minus-zero-duplicate", "zero-spellings",
        ],
    )
    def test_same_outcome_across_block_edges(self, tmp_path, pad, body):
        path = tmp_path / "trace.csv"
        path.write_text(
            "time,id,x,y\n" + "".join(f"9.0,{100 + v},1.5,2.5\n" for v in range(pad)) + body,
            newline="",
        )
        assert load_outcome(load_trace_csv, path) == load_outcome(load_trace_csv_oracle, path)

    def test_misaligned_lines_are_named(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,id,x,y\n0,1,2,3,0,1,2\n3\n")
        assert load_error(load_trace_csv, path) == "line 2: expected 4 fields, got 7"

    def test_plain_blocks_skip_the_record_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.csv"
        write_trace_csv(generate_two_way_roadway(20, 500.0, 5.0, seed=1), path)
        expected = load_outcome(load_trace_csv, path)

        def refuse(instants, lines, first_line):
            raise AssertionError(f"block from line {first_line} parsed record by record")

        monkeypatch.setattr(mobility, "_read_records", refuse)
        assert load_outcome(load_trace_csv, path) == expected
        path.write_text(path.read_text().replace("0.0,3,", '"0.0",3,'))
        with pytest.raises(AssertionError, match="record by record"):
            load_trace_csv(path)

    @given(
        lines=st.lists(
            st.lists(
                st.sampled_from(
                    ["0", "0.0", "-0.0", "1.5", " 2 ", "3e0", "7", "-4", str(2**63), "1e308",
                     "nan", "inf", "", "x", "1.5.", '"1.0"', '"1\n"', "\x00"]
                ),
                min_size=0,
                max_size=6,
            ).map(",".join),
            max_size=12,
        ),
        ending=st.sampled_from(["\n", "\r\n", "\r"]),
        last_ending=st.booleans(),
    )
    def test_same_outcome_on_any_text(self, tmp_path_factory, lines, ending, last_ending):
        path = tmp_path_factory.mktemp("oracle") / "trace.csv"
        text = ending.join(["time,id,x,y", *lines]) + (ending if last_ending else "")
        path.write_text(text, newline="")
        assert load_outcome(load_trace_csv, path) == load_outcome(load_trace_csv_oracle, path)


def test_loaded_trace_keeps_no_object_per_sample(tmp_path):
    """A loaded trace keeps no object per sample; a frozen TracePoint per
    sample, as before, cost about 273 bytes."""
    path = tmp_path / "trace.csv"
    write_trace_csv(generate_two_way_roadway(200, 2000.0, 100.0, seed=5), path)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = load_trace_csv(path)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 20_000
    assert retained / len(trace) < 180


def test_loaded_trace_holds_typed_columns(tmp_path):
    """Each instant's ids and coordinates sit in typed arrays, 24 bytes of
    data per sample; a map of (x, y) tuples per instant, as before, kept
    about 151 bytes."""
    path = tmp_path / "trace.csv"
    write_trace_csv(generate_two_way_roadway(200, 2000.0, 100.0, seed=5), path)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = load_trace_csv(path)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 20_000
    assert retained / len(trace) < 40


class TestIdRange:
    """Ids are held as signed 64-bit integers."""

    @pytest.mark.parametrize("v", [2**63, -(2**63) - 1, 10**30])
    def test_file_id_outside_int64_names_line(self, tmp_path, v):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,id,x,y\n0.0,1,0.0,0.0\n\n0.0,{v},1.0,1.0\n")
        with pytest.raises(TraceFormatError, match=f"^line 4: vehicle id {v} is not a signed 64-bit integer$"):
            load_trace_csv(path)

    def test_file_id_is_checked_after_finiteness(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,id,x,y\n1.0,{2**64},inf,0.0\n")
        with pytest.raises(TraceFormatError, match="^line 2: non-finite"):
            load_trace_csv(path)

    @pytest.mark.parametrize("v", [2**63, -(2**63) - 1, 1.5, "7"])
    def test_point_id_outside_int64_rejected(self, v):
        points = [TracePoint(0.0, 0, 0.0, 0.0), TracePoint(0.0, v, 1.0, 1.0)]
        with pytest.raises(TraceFormatError, match="vehicle id .* is not a signed 64-bit integer"):
            Trace(points)

    def test_extreme_ids_round_trip(self, tmp_path):
        lo, hi = -(2**63), 2**63 - 1
        tr = Trace([TracePoint(0.0, hi, 1.0, 0.0), TracePoint(0.0, lo, 0.0, 0.0)])
        assert tr.vehicles == (lo, hi)
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        assert trace_samples(load_trace_csv(path)) == trace_samples(tr)


def test_duplicate_point_names_the_instant_time_as_first_read():
    """A trace holds every time as a float, so an instant's times differ in
    spelling only as 0.0 and -0.0; a duplicate names the one read first."""
    cases = [
        ([(0.0, 1), (-0.0, 1), (0, 1)], "duplicate sample for vehicle 1 at t=0.0"),
        ([(0, 5), (-0.0, 1), (-0.0, 5)], "duplicate sample for vehicle 5 at t=0.0"),
        ([(-0.0, 5), (0.0, 1), (0, 5)], "duplicate sample for vehicle 5 at t=-0.0"),
    ]
    for samples, message in cases:
        points = [TracePoint(t, v, float(i), 0.0) for i, (t, v) in enumerate(samples)]
        with pytest.raises(TraceFormatError) as new:
            Trace(points)
        with pytest.raises(TraceFormatError) as old:
            TraceOracle(points)
        assert str(new.value) == str(old.value) == message


# coordinates as a caller may hold them: Python floats, float32 and
# float64 numpy scalars
coordinate_kinds = st.sampled_from([float, np.float32, np.float64])
samples = st.lists(
    st.tuples(st.sampled_from([0.0, 1.0]), st.integers(0, 2**40), finite, finite, coordinate_kinds),
    min_size=1,
    max_size=40,
    unique_by=lambda s: (s[0], s[1]),
)


class TestSnapshotView:
    """positions_at's read-only view against the plain dicts it replaced."""

    @given(samples=samples, r=st.floats(100.0, 5000.0))
    def test_view_matches_dicts_and_oracles(self, samples, r):
        # ids arrive in any order and with gaps
        points = [TracePoint(t, v, kind(x), kind(y)) for t, v, x, y, kind in samples]
        trace, oracle = Trace(points), TraceOracle(points)
        radio = RadioParams(range_r=r)
        before = trace.positions_at(0.0)
        for t in oracle.times:
            view, expected = trace.positions_at(t), oracle.positions_at(t)
            assert isinstance(view, Snapshot)
            plain = dict(view.items())
            assert view == expected and expected == view
            assert list(view) == sorted(expected) == [v for v, _ in view.items()]
            assert len(view) == len(expected)
            assert all(v in view and view[v] == expected[v] for v in expected)
            absent = max(expected) + 1
            assert absent not in view and -1 not in view and "x" not in view
            with pytest.raises(KeyError):
                view[absent]
            g = build_udg(view, radio)
            assert g.vertices == build_udg(plain, radio).vertices == tuple(sorted(expected))
            assert adjacency(g) == adjacency(build_udg(plain, radio))
            assert adjacency(g) == adjacency(udg_oracle(expected, radio))
            for prev in (before, dict(before.items()), {}):
                filtered, removed = build_direction_constrained_udg(view, prev, radio)
                from_dicts, removed_dicts = build_direction_constrained_udg(plain, dict(prev), radio)
                assert adjacency(filtered) == adjacency(from_dicts)
                assert removed == removed_dicts

    def test_read_only(self):
        view = generate_two_way_roadway(3, 500.0, 2.0).positions_at(0.0)
        with pytest.raises(TypeError):
            view[0] = (0.0, 0.0)
        assert repr(view).startswith("Snapshot({0: (")

    def test_unsampled_instant_is_an_empty_view(self):
        tr = Trace([TracePoint(0.0, 0, 0.0, 0.0), TracePoint(2.0, 0, 1.0, 0.0)])
        empty = tr.positions_at(1.0)
        assert empty == {} and not empty and len(empty) == 0 and list(empty.items()) == []
        # a time outside the span is just another unsampled instant
        assert tr.positions_at(-1.0) == tr.positions_at(3.0) == {}


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

    @pytest.mark.parametrize(
        "r",
        # 1e-170 squares to 0.0, 1e-160 to a subnormal, 1e200 and 1.4e154 to inf
        [math.nan, math.inf, -math.inf, -1.0, 1e-170, 1e-160, 1.4e154, 1e200],
    )
    def test_radio_rejects_range_without_normal_square(self, r):
        with pytest.raises(ValueError, match="^radio range must be positive with a finite normal square"):
            RadioParams(range_r=r)

    @pytest.mark.parametrize("r", [1.5e-154, 1e-100, 1e100, 1.3e154])
    def test_extreme_accepted_ranges_match_oracle(self, r):
        snap = {0: (0.0, 0.0), 1: (r, 0.0), 2: (r, r), 3: (-r * (1 + 1e-15), 0.0), 4: (0.5 * r, 0.5 * r)}
        radio = RadioParams(range_r=r)
        g = build_udg(snap, radio)
        with np.errstate(over="ignore"):  # far pairs square to inf near the top
            assert adjacency(g) == adjacency(udg_oracle(snap, radio))
        assert sorted(g.edges()) == [(0, 1), (0, 4), (1, 2), (1, 4), (2, 4)]

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
        assert trace_samples(a) == trace_samples(b)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_two_way_roadway(0)
        with pytest.raises(ValueError):
            generate_two_way_roadway(3, duration=0.0)
        with pytest.raises(ValueError):
            generate_two_way_roadway(3, speed_range=(5.0, 2.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration": math.inf},
            {"duration": math.nan},
            {"area_side": math.inf},
            {"area_side": math.nan},
            {"speed_range": (8.0, math.inf)},
        ],
    )
    def test_non_finite_parameters_rejected(self, kwargs):
        # an infinite duration raised OverflowError from int(), and an
        # infinite area failed only inside build_udg
        with pytest.raises(ValueError, match="must be finite|bad speed_range"):
            generate_two_way_roadway(3, **kwargs)


def test_displacements_skip_new_arrivals():
    prev = {0: (0.0, 0.0)}
    cur = {0: (1.0, 0.0), 1: (5.0, 5.0)}
    moves = displacements_at(cur, prev)
    assert set(moves) == {0}
    assert moves[0].dx == 1.0 and moves[0].dy == 0.0
    assert moves[0].magnitude == 1.0

