import gc
import inspect
import itertools
import math
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apsel.tuner
from apsel.cli import (
    ALGORITHMS,
    AlgoSpec,
    ConfigError,
    GenParams,
    RunConfig,
    TraceConfig,
    _build_parser,
    main,
    parse_algo_spec,
    run_algorithms,
)
from apsel.metrics import notification_count, read_period_metrics_csv, write_period_metrics_csv
from apsel.mobility import RadioParams, Trace, build_udg, load_trace_csv, write_trace_csv
from apsel.selection import centrality_select, exact_min_dominating_set, rb_select, verify_domination
from apsel.tuner import TunerConfig
from helpers import (
    TracePoint,
    assign_to_aggregation_points_oracle,
    brute_force_min_dominating_set,
    spy_on_assignment,
    trace_samples,
)


def small_trace(tmp_path, n=20, duration=31.0, seed=3, area=400.0):
    from apsel.mobility import generate_two_way_roadway

    trace = generate_two_way_roadway(n, area, duration, seed=seed)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    return path


# the keys each algorithm reads, besides direction
READS = {"centrality": ("d", "k"), "rb": ("slots",), "exact": ("d",)}


class TestAlgoSpec:
    def test_tags(self):
        assert AlgoSpec("centrality", d=3, k=4).tag == "centrality_d3_k4"
        assert AlgoSpec("rb", slots=128).tag == "rb_T128"
        assert AlgoSpec("exact", d=2).tag == "exact_d2"
        assert AlgoSpec("centrality", direction=True).tag == "centrality_d1_k4_dir"

    def test_parse_name_only_uses_defaults(self):
        # the text is the spec's only source: a key it leaves unset keeps AlgoSpec's default
        for name in READS:
            assert parse_algo_spec(name) == AlgoSpec(name)
        assert parse_algo_spec("centrality:k=6") == AlgoSpec("centrality", k=6)
        assert parse_algo_spec("rb:direction=true") == AlgoSpec("rb", direction=True)

    def test_parse_params_override(self):
        spec = parse_algo_spec("centrality:d=3,k=6,direction=true")
        assert (spec.d, spec.k, spec.direction) == (3, 6, True)

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            parse_algo_spec("pagerank")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_algo_spec("rb:frames=9")

    def test_key_without_value(self):
        with pytest.raises(ConfigError, match="^bad algorithm parameter 'd' in 'centrality:d'$"):
            parse_algo_spec("centrality:d")

    def test_repr_lists_every_field(self):
        spec = AlgoSpec("rb", slots=128, direction=True)
        assert repr(spec) == "AlgoSpec(name='rb', d=1, k=4, slots=128, direction=True)"

    @pytest.mark.parametrize("text,key", [("rb:d=3,k=9", "d"), ("exact:k=9,slots=3", "k")])
    def test_key_the_algorithm_does_not_read(self, tmp_path, capsys, text, key):
        path = small_trace(tmp_path, duration=3.0)
        rc = main(["run", "--trace", str(path), "--algo", text, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bad_value(self):
        with pytest.raises(ValueError):
            parse_algo_spec("rb:slots=many")

    def test_bad_value_names_algorithm_and_key(self):
        with pytest.raises(ConfigError, match="^centrality d must be an integer, got 'x'$"):
            parse_algo_spec("centrality:d=x")

    @pytest.mark.parametrize("value", ["1", "true", "On", " YES ", "0", "false", "off", "No"])
    def test_direction_spellings(self, value):
        want = value.strip().lower() in ("1", "true", "on", "yes")
        assert parse_algo_spec(f"rb:direction={value}").direction is want

    @pytest.mark.parametrize("value", ["", "2", "y", "truee"])
    def test_bad_direction_names_algorithm_and_key(self, value):
        with pytest.raises(ConfigError, match=f"^rb direction must be a boolean, got '{value}'$"):
            parse_algo_spec(f"rb:direction={value}")

    def test_repeated_key(self):
        # the last one used to win silently
        with pytest.raises(ConfigError, match="centrality sets d twice"):
            parse_algo_spec("centrality:d=2,d=3")


def filled_field(dest: str) -> str:
    """The settings field a flag's destination fills: GenParams' fields
    come from the gen_ destinations, every other field from its own name."""
    return dest[len("gen_"):] if dest.startswith("gen_") else dest


def test_help_defaults_are_the_settings_defaults():
    # each "(default X)" a flag's help states is the default of the settings
    # field the flag fills, so the help cannot drift from the code
    defaults = {}
    for cls in (TraceConfig, RunConfig, RadioParams, GenParams, TunerConfig, AlgoSpec):
        for name, p in inspect.signature(cls).parameters.items():
            if p.default is not p.empty:
                assert defaults.setdefault(name, p.default) == p.default, name
    _, commands = _build_parser()
    stated = {}
    for command, parser in commands.items():
        for action in parser._actions:
            match = re.search(r"\(default ([^)]*)\)", action.help or "")
            if match:
                stated[command, filled_field(action.dest)] = match.group(1)
    assert {command for command, _ in stated} == set(commands)
    # gen-trace's and tune's --out and exact's --time fill no settings field:
    # their commands default them
    assert {dest for _, dest in stated} - defaults.keys() == {"out", "time"}
    for (command, dest), text in stated.items():
        if dest in defaults:
            default = defaults[dest]
            if default is None:  # a window end left to the trace
                assert text == {"t_start": "trace start", "t_end": "trace end"}[dest]
            elif isinstance(default, str):
                assert text == default, (command, dest)
            else:
                assert float(text) == default, (command, dest)
    # each generator flag states its default in every subcommand, as gen-trace's did
    for field in GenParams.__slots__:
        assert {command for command, dest in stated if dest == field} == set(commands)
    # run's and compare's --algo state each AlgoSpec default
    algo = next(a for a in commands["run"]._actions if a.dest == "algo")
    listed = re.search(r"its default \(([^)]*)\)", algo.help).group(1)
    assert listed == ", ".join(
        f"{name}={str(defaults[name]).lower()}" for name in ("d", "k", "slots", "direction")
    )


class TestOneSpellingPerParameter:
    """run and compare take an algorithm's parameters only inline in its
    --algo spec, from the command line or the config file's algo line
    (a file's bare key: TestConfigFile.test_key_that_is_not_a_flag_fails)."""

    def test_run_parsers_have_no_algorithm_parameter(self):
        assert {n: a.keys for n, a in ALGORITHMS.items()} == READS
        _, commands = _build_parser()
        parameters = set(AlgoSpec.__slots__) - {"name"}
        for command in ("run", "compare"):
            assert not {a.dest for a in commands[command]._actions} & parameters
        # exact's own --d stays, from a flag or its file (test_exact_reads_d_from_file)
        assert "d" in {a.dest for a in commands["exact"]._actions}

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("flag", ["--d 2", "--k 2", "--slots 8", "--direction"])
    def test_bare_flag_is_unrecognized(self, tmp_path, capsys, command, flag):
        argv = [command, "--gen-n", "5", "--algo", "rb", *flag.split(), "--out", str(tmp_path / "x")]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestOneFlagPerSetting:
    """Each settings field has one flag and one help text across the
    subcommands: gen-trace once spelled GenParams' fields --n, --area,
    --duration, --speed-min and --speed-max, and tune gave --period a help
    of its own."""

    def test_each_field_is_filled_by_one_option_with_one_help(self):
        classes = (GenParams, TraceConfig, RadioParams, RunConfig, TunerConfig)
        fields = {name for cls in classes for name in cls.__slots__}
        _, commands = _build_parser()
        spellings = {}  # field -> its (option string, help) pairs
        for parser in commands.values():
            for action in parser._actions:
                if filled_field(action.dest) in fields:
                    for option in action.option_strings:
                        spellings.setdefault(filled_field(action.dest), set()).add((option, action.help))
        assert {field: len(s) for field, s in spellings.items()} == dict.fromkeys(spellings, 1)
        # every field has a flag but the nested settings and the parsed --algo specs
        assert set(spellings) == fields - {"gen", "radio", "algos"}

    @pytest.mark.parametrize("flag", ["--n", "--area", "--duration", "--speed-min", "--speed-max"])
    def test_gen_trace_old_spelling_is_unrecognized(self, tmp_path, capsys, flag):
        out = tmp_path / "trace.csv"
        with pytest.raises(SystemExit) as info:
            main(["gen-trace", flag, "5", "--out", str(out)])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_trace_writes_the_roadway_run_generates(self, tmp_path):
        generator = ["--gen-n", "12", "--gen-duration", "9", "--seed", "4"]
        trace = tmp_path / "trace.csv"
        assert main(["gen-trace", *generator, "--out", str(trace)]) == 0
        algos = ["--algo", "centrality", "--algo", "centrality:d=2,direction=true", "--algo", "exact"]
        outputs = []
        for source in (["--trace", str(trace)], generator):
            out = tmp_path / f"res{len(outputs)}"
            assert main(["run", *source, *algos, "--period", "2", "--out", str(out)]) == 0
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert len(outputs[0]) == 3
        assert outputs[0] == outputs[1]


class TestRunConfig:
    def test_requires_algorithm(self):
        with pytest.raises(ConfigError, match="at least one"):
            RunConfig(algos=(), trace_path="x.csv")

    def test_two_specs_with_one_tag_fail_before_writing(self, tmp_path, capsys):
        # both wrote centrality_d1_k4.csv, the second over the first
        out = tmp_path / "res"
        argv = ["compare", "--gen-n", "5", "--gen-duration", "3", "--out", str(out)]
        algos = ["--algo", "centrality", "--algo", "centrality:d=1,k=4", "--algo", "rb"]
        assert main(argv + algos) == 1
        assert capsys.readouterr().err == "error: two --algo specs would both write centrality_d1_k4.csv\n"
        assert not out.exists()

    def test_requires_source(self):
        with pytest.raises(ConfigError):
            RunConfig(algos=(AlgoSpec("rb"),))

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigError):
            RunConfig(algos=(AlgoSpec("rb"),), gen=GenParams(), period=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("period", math.nan),
            ("period", math.inf),
            ("t_start", math.nan),
            ("t_start", -math.inf),
            ("t_end", math.nan),
            ("t_end", math.inf),
        ],
    )
    def test_rejects_non_finite_period_and_window(self, field, value):
        # a NaN boundary never passes the window end, so the boundary
        # list grew until the process was killed
        with pytest.raises(ConfigError, match=f"{field} must be"):
            TraceConfig(gen=GenParams(), **{field: value})

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--period", "nan", "--algo", "rb"],
            ["run", "--period", "inf", "--algo", "rb"],
            ["run", "--t-start", "nan", "--algo", "rb"],
            ["run", "--t-end", "nan", "--algo", "rb"],
            ["tune", "--period", "nan"],
            ["run", "--radius", "nan", "--algo", "rb"],
            ["run", "--radius", "inf", "--algo", "rb"],
        ],
    )
    def test_non_finite_flags_fail_at_parse(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--gen-n", "5", "--out", str(out)]) == 1
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            # an infinite duration raised an uncaught OverflowError from int()
            ["--gen-duration", "inf"],
            ["--gen-duration", "nan"],
            ["--gen-duration", "0.5"],
            # an infinite area failed only inside build_udg
            ["--gen-area", "inf"],
            ["--gen-area", "nan"],
            ["--gen-speed-max", "inf"],
            ["--gen-speed-min", "nan"],
            ["--gen-speed-min", "0"],
            ["--gen-speed-min", "20"],
            ["--gen-n", "0"],
        ],
    )
    def test_bad_generator_flags_fail_at_parse(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert main(["run", "--gen-n", "5", *flags, "--algo", "rb", "--out", str(out)]) == 1
        assert "error: gen " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["run", "--gen-n", "0"], "gen vehicle count must be >= 1, got 0"),
            (["gen-trace", "--gen-n", "0"], "gen vehicle count must be >= 1, got 0"),
            (["run", "--gen-n", "5", "--gen-area", "inf"], "gen area must be finite, got inf"),
            (
                ["gen-trace", "--gen-speed-min", "20"],
                "gen speeds must be finite with 0 < speed_min <= speed_max, got 20.0 and 14.0",
            ),
        ],
    )
    def test_generator_message_reads_for_the_flags(self, tmp_path, capsys, args, message):
        # the shared validator's messages name no generator argument, which no flag spells
        assert main([*args, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_radio_message_reads_for_the_flag(self, tmp_path, capsys):
        # neither --radius nor a config key spells the field name range_r
        out = tmp_path / "out"
        assert main(["run", "--gen-n", "5", "--radius", "0", "--algo", "rb", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: radio range must be positive with a finite normal square"
            " (about 1.5e-154 to 1.3e154), got 0.0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 0),
            ("area", math.inf),
            ("duration", math.nan),
            ("duration", 0.0),
            ("speed_min", -1.0),
            ("speed_max", math.inf),
        ],
    )
    def test_gen_params_validated(self, field, value):
        with pytest.raises(ConfigError, match="gen "):
            GenParams(**{field: value})

    def test_gen_params_reject_what_the_generator_rejects(self):
        from apsel.mobility import generate_two_way_roadway

        speeds = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, math.inf), (math.nan, 1.0), (-1.0, 1.0)]
        for n, area, duration, (lo, hi) in itertools.product(
            (0, 1), (100.0, math.inf, math.nan), (0.5, 1.0, math.inf, math.nan), speeds
        ):
            try:
                generate_two_way_roadway(n, area, duration, (lo, hi))
            except ValueError as exc:
                with pytest.raises(ConfigError, match="^gen ") as info:
                    GenParams(n, area, duration, lo, hi)
                assert str(info.value) == f"gen {exc}"
            else:
                GenParams(n, area, duration, lo, hi)


# each validated settings class, made with valid values, and one field and a value it rejects
SETTINGS = [
    pytest.param(lambda: AlgoSpec("centrality"), "k", 0, id="AlgoSpec"),
    pytest.param(lambda: RadioParams(), "range_r", math.nan, id="RadioParams"),
    pytest.param(lambda: GenParams(), "n", -1, id="GenParams"),
    pytest.param(lambda: TraceConfig(gen=GenParams()), "period", 0.0, id="TraceConfig"),
    pytest.param(lambda: RunConfig(algos=(AlgoSpec("rb"),), gen=GenParams()), "algos", (), id="RunConfig"),
    pytest.param(lambda: TunerConfig(), "d_max", 0, id="TunerConfig"),
]


def settings_fields(value):
    """A settings object as its class and field values, nested settings included."""
    names = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]
    return (type(value), [settings_fields(getattr(value, n)) for n in names]) if names else value


class TestSettingsAreFrozen:
    @pytest.mark.parametrize("make, field, value", SETTINGS)
    def test_assigning_or_deleting_a_field_raises(self, make, field, value):
        # an assigned value would skip the checks construction runs
        settings = make()
        before = getattr(settings, field)
        with pytest.raises(AttributeError, match=f"frozen: cannot assign to {field!r}"):
            setattr(settings, field, value)
        with pytest.raises(AttributeError, match=f"frozen: cannot delete {field!r}"):
            delattr(settings, field)
        assert getattr(settings, field) is before

    @pytest.mark.parametrize("make, field, value", SETTINGS)
    def test_copies_and_pickles_keep_every_field(self, make, field, value):
        import copy
        import pickle

        settings = make()
        for twin in (copy.copy(settings), copy.deepcopy(settings), pickle.loads(pickle.dumps(settings))):
            assert settings_fields(twin) == settings_fields(settings)

    def test_spec_keys_its_rows_for_good(self, tmp_path):
        spec = AlgoSpec("centrality")
        cfg = RunConfig(algos=(spec,), trace_path=str(small_trace(tmp_path, duration=3.0)))
        runs = run_algorithms(load_trace_csv(cfg.trace_path), cfg)
        with pytest.raises(AttributeError):
            spec.d = 3
        assert runs[spec] is runs[AlgoSpec("centrality")]

    def test_the_shared_default_radio_cannot_change(self):
        # every TraceConfig made without radio holds the one default RadioParams()
        a, b = TraceConfig(gen=GenParams()), TraceConfig(trace_path="x.csv")
        assert a.radio is b.radio
        with pytest.raises(AttributeError):
            a.radio.range_r = 1.0
        assert b.radio.range_r == RadioParams().range_r == 100.0


class TestRunCommand:
    def test_three_snapshot_trace_gives_three_rows(self, tmp_path):
        path = small_trace(tmp_path, duration=21.0)
        out = tmp_path / "res"
        rc = main(["run", "--trace", str(path), "--algo", "centrality", "--out", str(out)])
        assert rc == 0
        rows = read_period_metrics_csv(out / "centrality_d1_k4.csv")
        assert [r.time for r in rows] == [0.0, 10.0, 20.0]

    @pytest.mark.parametrize("command", ["run", "tune"])
    def test_period_below_time_resolution_fails(self, tmp_path, capsys, command):
        # every boundary in [0, 2e-6] read instant 0: run wrote 11 rows for
        # t=0.0 and tune scored that instant 11 times
        out = tmp_path / "out"
        argv = [command, "--gen-n", "5", "--gen-duration", "3", "--period", "1e-7", "--t-end", "2e-6"]
        assert main(argv + (["--algo", "rb"] if command == "run" else []) + ["--out", str(out)]) == 1
        assert "below the trace's time resolution" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        path = small_trace(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["run", "--trace", str(path), "--algo", "rb", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "rb_T256.csv").read_bytes() == (b / "rb_T256.csv").read_bytes()

    @pytest.mark.parametrize("d", [0, 2])
    def test_rb_spec_made_in_code_assigns_at_one_hop(self, tmp_path, monkeypatch, d):
        # rb's 1-hop cover puts every nearest point 1 hop away, so the d a
        # spec made in code holds, even 0, changes nothing
        path = small_trace(tmp_path, n=30)
        trace = load_trace_csv(path)
        spec, plain = AlgoSpec("rb", d=d), AlgoSpec("rb")
        calls = spy_on_assignment(monkeypatch)
        rows = run_algorithms(trace, RunConfig(algos=(spec,), trace_path=str(path)))[spec]
        assert {hops for _, hops in calls} == {1}
        assert rows == run_algorithms(trace, RunConfig(algos=(plain,), trace_path=str(path)))[plain]

    def test_exact_never_beaten(self, tmp_path):
        path = small_trace(tmp_path, n=24)
        out = tmp_path / "res"
        rc = main(
            ["run", "--trace", str(path), "--algo", "centrality", "--algo", "rb",
             "--algo", "exact", "--out", str(out)]
        )
        assert rc == 0
        exact = read_period_metrics_csv(out / "exact_d1.csv")
        for name in ("centrality_d1_k4", "rb_T256"):
            other = read_period_metrics_csv(out / f"{name}.csv")
            for e, o in zip(exact, other):
                assert e.time == o.time
                assert e.n_aps <= o.n_aps

    def test_every_row_redominates(self, tmp_path):
        path = small_trace(tmp_path, n=18)
        out = tmp_path / "res"
        main(["run", "--trace", str(path), "--algo", "centrality:d=2", "--out", str(out)])
        trace = load_trace_csv(path)
        spec = AlgoSpec("centrality", d=2)
        cfg = RunConfig(algos=(spec,), trace_path=str(path), out_dir=str(out))
        rows = run_algorithms(trace, cfg)[spec]
        csv_rows = read_period_metrics_csv(out / "centrality_d2_k4.csv")
        assert [r.n_aps for r in rows] == [r.n_aps for r in csv_rows]
        # recheck coverage from the raw snapshots
        for r in csv_rows:
            g = build_udg(trace.positions_at(r.time), RadioParams())
            points = centrality_select(g, 2, 4).aggregation_points
            assert len(points) == r.n_aps
            assert verify_domination(g, points, 2)

    @pytest.mark.parametrize(
        "spec, tag, d",
        [
            ("centrality:d=2", "centrality_d2_k4", 2),
            ("centrality:d=3", "centrality_d3_k4", 3),
            ("exact:d=2", "exact_d2", 2),
        ],
    )
    def test_routing_updates_follow_the_nearest_point_oracle(self, tmp_path, spec, tag, d):
        path = small_trace(tmp_path, n=24, area=600.0)
        out = tmp_path / "res"
        assert main(["run", "--trace", str(path), "--algo", spec, "--period", "2", "--out", str(out)]) == 0
        select = centrality_select if spec.startswith("centrality") else exact_min_dominating_set
        trace = load_trace_csv(path)
        rows = read_period_metrics_csv(out / f"{tag}.csv")
        prev: dict[int, int] = {}
        for r in rows:
            g = build_udg(trace.positions_at(r.time), RadioParams())
            cur = assign_to_aggregation_points_oracle(g, select(g, d).aggregation_points, d)
            assert r.n_routing_updates == sum(prev.get(v) != p for v, p in cur.items())
            prev = cur
        assert sum(r.n_routing_updates for r in rows[1:]) > 0

    def test_zero_vehicle_period_emits_blank_row(self, tmp_path):
        pts = [TracePoint(0.0, 0, 0.0, 0.0), TracePoint(20.0, 0, 15.0, 0.0)]
        path = tmp_path / "gap.csv"
        write_trace_csv(Trace(pts), path)
        out = tmp_path / "res"
        rc = main(["run", "--trace", str(path), "--algo", "centrality", "--out", str(out)])
        assert rc == 0
        rows = read_period_metrics_csv(out / "centrality_d1_k4.csv")
        assert [r.time for r in rows] == [0.0, 10.0, 20.0]
        middle = rows[1]
        assert middle.n_vehicles == 0
        assert middle.aggregation_rate is None
        assert middle.n_notifications == 1  # the lone point at t=0 steps down
        assert rows[2].n_notifications == 1  # and is elected anew at t=20

    def test_numpy_scalar_trace_writes_readable_metrics(self, tmp_path):
        # period times come from the trace's times, here given as numpy scalars
        pts = [TracePoint(np.float64(t), v, 30.0 * v, 0.0) for t in (0.0, 10.0) for v in range(3)]
        spec = AlgoSpec("centrality")
        cfg = RunConfig(algos=(spec,), trace_path="unused.csv", out_dir=str(tmp_path))
        path = tmp_path / "centrality.csv"
        write_period_metrics_csv(run_algorithms(Trace(pts), cfg)[spec], path)
        rows = read_period_metrics_csv(path)
        assert [r.time for r in rows] == [0.0, 10.0]
        assert [r.n_aps for r in rows] == [1, 1]

    @pytest.mark.parametrize(
        "times",
        [[0, Fraction(1, 3), np.float32(2 / 3), 1], [0, 1, 2, 3]],
        ids=["int-fraction-float32", "int"],
    )
    def test_in_memory_trace_writes_the_metrics_of_its_file(self, tmp_path, times):
        # a trace stores each time as a float, so the file it writes loads
        # back to the same times and a run writes the same metrics from both
        pts = [TracePoint(t, v, 30.0 * v + 5.0 * i, 4.0 * (v % 2))
               for i, t in enumerate(times) for v in range(5)]
        trace = Trace(pts)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        loaded = load_trace_csv(path)
        assert loaded.times == trace.times
        specs = (AlgoSpec("centrality"), AlgoSpec("rb"))
        cfg = RunConfig(algos=specs, trace_path=str(path), period=trace.sampling_period)
        written = []
        for source in (trace, loaded):
            for rows in run_algorithms(source, cfg).values():
                out = tmp_path / f"{len(written)}.csv"
                write_period_metrics_csv(rows, out)
                written.append(out.read_bytes())
        assert written[:2] == written[2:]
        assert written[0].split(b"\n")[1].startswith(b"0.0,5,")
        assert all(type(t) is float for t in trace.times)

    @staticmethod
    def decimal_time_trace(tmp_path, shift=0.0):
        """6 vehicles at 10 Hz for 3 s, times written as shift + 0.1,
        shift + 0.2, ... to one decimal: even ids drive east and odd ids
        west, all within range throughout."""
        pts = [
            TracePoint(
                float(f"{shift + i / 10:.1f}"),
                v,
                (v // 2) * 5.0 + 30.0 * (v % 2) + (-1) ** v * i,
                4.0 * (v % 2),
            )
            for i in range(31)
            for v in range(6)
        ]
        path = tmp_path / "decimal.csv"
        write_trace_csv(Trace(pts), path)
        return path

    def test_decimal_times_resolve_to_samples(self, tmp_path):
        # 0 + 3 * 0.1 is 0.30000000000000004, not the sampled 0.3
        path = self.decimal_time_trace(tmp_path)
        assert "\n0.3,0," in path.read_text()
        out = tmp_path / "res"
        rc = main(["run", "--trace", str(path), "--algo", "centrality", "--period", "0.1",
                   "--out", str(out)])
        assert rc == 0
        rows = read_period_metrics_csv(out / "centrality_d1_k4.csv")
        assert [r.time for r in rows] == [round(i / 10, 1) for i in range(31)]
        assert [r.n_vehicles for r in rows] == [6] * 31

    def test_direction_finds_predecessor_of_decimal_time(self, tmp_path):
        path = self.decimal_time_trace(tmp_path)
        out = tmp_path / "res"
        rc = main(["compare", "--trace", str(path), "--algo", "centrality",
                   "--algo", "centrality:direction=true", "--period", "0.1", "--out", str(out)])
        assert rc == 0
        plain = read_period_metrics_csv(out / "centrality_d1_k4.csv")
        kept = read_period_metrics_csv(out / "centrality_d1_k4_dir.csv")
        # t = 0 has no predecessor; afterwards the 9 opposing links go
        assert [p.n_edges - k.n_edges for p, k in zip(plain, kept)] == [0] + [9] * 30
        assert [r.n_edges for r in kept] == [15] + [6] * 30

    @given(
        shift=st.one_of(
            st.sampled_from([0.0, 1e3, 1e6, 1e9]),
            st.integers(0, 10**8).map(lambda j: 1.6e9 + j),
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_time_shift_changes_only_the_time_column(self, tmp_path_factory, shift):
        # at epoch-scale times one ulp (2.4e-7 s near 1.6e9) exceeds a
        # millionth of the 0.1 s sampling period
        def columns(shift):
            tmp = tmp_path_factory.mktemp("shift")
            path = self.decimal_time_trace(tmp, shift)
            out = tmp / "res"
            rc = main(["compare", "--trace", str(path), "--algo", "centrality",
                       "--algo", "centrality:direction=true", "--period", "0.1",
                       "--out", str(out)])
            assert rc == 0
            return {
                name: [line.split(",")[1:] for line in (out / name).read_text().splitlines()]
                for name in ("centrality_d1_k4.csv", "centrality_d1_k4_dir.csv", "summary.csv")
            }

        assert columns(shift) == columns(0.0)

    def test_stray_sample_keeps_the_direction_filter(self, tmp_path):
        # two opposing lanes at 1 Hz plus one extra sample of vehicle 0 at
        # t=5.001: the smallest gap between instants is then 0.001 s, and a
        # period inferred from it left no vehicle a heading
        pts = [
            TracePoint(float(t), v, 20.0 * (v // 2) + (3.0 * t if v % 2 == 0 else -3.0 * t), 4.0 * (v % 2))
            for t in range(11)
            for v in range(6)
        ]
        pts.append(TracePoint(5.001, 0, 3.0 * 5.001, 0.0))
        path = tmp_path / "stray.csv"
        write_trace_csv(Trace(pts), path)
        out = tmp_path / "res"
        rc = main(["compare", "--trace", str(path), "--algo", "centrality:direction=true",
                   "--period", "1", "--out", str(out)])
        assert rc == 0
        kept = read_period_metrics_csv(out / "centrality_d1_k4_dir.csv")
        assert [r.time for r in kept] == [float(t) for t in range(11)]
        # only the six same-lane links survive once every vehicle has a heading
        assert [r.n_edges for r in kept[1:]] == [6] * 10

    @given(
        n=st.integers(2, 7),
        steps=st.integers(3, 25),
        start=st.sampled_from([0.0, 0.05, 7.3, 1e3 + 0.1]),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=15, deadline=None)
    def test_rounded_decimal_times_give_the_same_metrics(self, tmp_path_factory, n, steps, start, seed):
        """A 10 Hz trace whose times are float sums (0.1 + 0.2 is
        0.30000000000000004) gives the same metrics whether the times are
        written in full or rounded to 6 decimals."""
        import random

        rng = random.Random(seed)
        lanes = [rng.randrange(2) for _ in range(n)]
        x0 = [rng.uniform(0.0, 150.0) for _ in range(n)]
        speed = [rng.uniform(0.5, 1.5) * (1 - 2 * lane) for lane in lanes]
        times, t = [], start
        for _ in range(steps):
            times.append(t)
            t += 0.1

        def columns(decimals):
            pts = [
                TracePoint(t if decimals is None else round(t, decimals), v, x0[v] + speed[v] * i, 4.0 * lanes[v])
                for i, t in enumerate(times)
                for v in range(n)
            ]
            tmp = tmp_path_factory.mktemp("rounded")
            path = tmp / "trace.csv"
            write_trace_csv(Trace(pts), path)
            out = tmp / "res"
            rc = main(["run", "--trace", str(path), "--algo", "centrality",
                       "--algo", "centrality:direction=true", "--period", "0.1", "--out", str(out)])
            assert rc == 0
            return {
                name: [line.split(",")[1:] for line in (out / name).read_text().splitlines()]
                for name in ("centrality_d1_k4.csv", "centrality_d1_k4_dir.csv")
            }

        assert columns(6) == columns(None)

    def test_window_flags(self, tmp_path):
        path = small_trace(tmp_path, duration=41.0)
        out = tmp_path / "res"
        rc = main(
            ["run", "--trace", str(path), "--algo", "rb", "--t-start", "10",
             "--t-end", "30", "--out", str(out)]
        )
        assert rc == 0
        rows = read_period_metrics_csv(out / "rb_T256.csv")
        assert [r.time for r in rows] == [10.0, 20.0, 30.0]

    def test_window_without_sampled_boundary_fails(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        assert main(["gen-trace", "--gen-n", "10", "--gen-duration", "10", "--out", str(path)]) == 0
        out = tmp_path / "res"
        rc = main(["run", "--trace", str(path), "--algo", "centrality", "--t-start", "0.5",
                   "--period", "1", "--out", str(out)])
        assert rc == 1
        assert "sampled instant" in capsys.readouterr().err
        assert not out.exists()

    def test_window_outside_span_fails(self, tmp_path, capsys):
        path = small_trace(tmp_path, duration=21.0)
        out = tmp_path / "x"
        rc = main(["run", "--trace", str(path), "--algo", "rb", "--t-end", "99",
                   "--out", str(out)])
        assert rc == 1
        assert "span" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, window, near, exact",
        [
            ("run", ["--t-end={}"], repr(0.1 + 0.2), "0.3"),
            ("tune", ["--t-start={}"], repr(0.1 + 0.2), "0.3"),
            ("run", ["--t-start=0.1", "--t-end={}"], repr(0.1 + 0.2), "0.3"),
            ("run", ["--t-start={}"], "-1e-9", "0"),  # the first instant, 0.0, is falsy
            ("tune", ["--t-end={}"], "-1e-9", "0"),
        ],
    )
    def test_window_end_naming_a_span_end_is_that_instant(self, tmp_path, command, window, near, exact):
        # the span check once compared the window exactly, while every boundary
        # rounds: 0.1 + 0.2 after the last instant 0.3 failed as outside the span
        trace = tmp_path / "trace.csv"
        write_trace_csv(Trace([TracePoint(t, v, 50.0 * v, 0.0) for t in (0.0, 0.3) for v in range(4)]), trace)
        written = []
        for value in (near, exact):
            out = tmp_path / f"out{len(written)}"
            argv = [command, "--trace", str(trace), *(flag.format(value) for flag in window),
                    "--period", "0.1", "--out", str(out)]
            assert main(argv + (["--algo", "centrality", "--algo", "rb"] if command == "run" else [])) == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("command", ["run", "compare", "tune"])
    def test_reversed_window_fails(self, tmp_path, capsys, command):
        # both ends lie in the span [0.0, 9.0]
        out = tmp_path / "x"
        argv = [command, "--gen-n", "5", "--gen-duration", "10", "--t-start", "3", "--t-end", "1"]
        assert main(argv + (["--algo", "rb"] if command != "tune" else []) + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: window start 3.0 is after its end 1.0\n"
        assert not out.exists()

    def test_missing_trace_fails(self, tmp_path, capsys):
        rc = main(["run", "--trace", str(tmp_path / "nope.csv"), "--algo", "rb",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_no_algo_fails(self, tmp_path, capsys):
        path = small_trace(tmp_path)
        rc = main(["run", "--trace", str(path), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "--algo" in capsys.readouterr().err


    @pytest.mark.parametrize("period", [10, 1])
    def test_a_whole_run_leaves_no_reference_cycle(self, period):
        # every selector over 4 and 40 periods: nothing the run drops waits for the cyclic collector
        from apsel.mobility import generate_two_way_roadway

        specs = ["centrality", "centrality:d=3", "rb", "exact", "exact:d=2", "centrality:direction=true"]
        cfg = RunConfig(algos=tuple(map(parse_algo_spec, specs)), gen=GenParams(), period=period)
        trace = generate_two_way_roadway(40, 600.0, 40.0, seed=4)
        gc.collect()
        gc.disable()
        try:
            runs = run_algorithms(trace, cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert [len(rows) for rows in runs.values()] == [40 // period] * len(specs)

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("period, missed", [("0.5", 5), ("1", 0), ("2", 0)])
    def test_boundaries_that_name_no_instant_are_noted(self, tmp_path, capsys, command, period, missed):
        # the trace is sampled at 1 Hz on 0..5 s: every other half-second boundary names no instant
        path = small_trace(tmp_path, n=10, duration=6.0)
        argv = [command, "--trace", str(path), "--period", period, "--algo", "centrality", "--algo", "rb"]
        assert main([*argv, "--out", str(tmp_path / "res")]) == 0
        captured = capsys.readouterr()
        rows = read_period_metrics_csv(tmp_path / "res" / "rb_T256.csv")
        assert sum(r.aggregation_rate is None for r in rows) == missed
        if missed:
            assert captured.err == (
                f"note: {missed} of {len(rows)} period boundaries name no sampled instant"
                " (the trace is sampled every 1.0 s); their rows are blank"
                " and the churn counts restart after each\n"
            )
        else:
            assert captured.err == ""
        # stdout keeps its lines; the note goes to stderr only
        assert "note:" not in captured.out

class TestConfigFile:
    def test_file_supplies_settings(self, tmp_path):
        path = small_trace(tmp_path, duration=21.0)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            f"# experiment settings\ntrace = {path}\nalgo = centrality:d=2 rb\n"
            f"out = {tmp_path / 'res'}\nseed = 4\n"
        )
        rc = main(["run", "--config", str(cfgfile)])
        assert rc == 0
        assert (tmp_path / "res" / "centrality_d2_k4.csv").exists()
        assert (tmp_path / "res" / "rb_T256.csv").exists()

    def test_flags_win_over_file(self, tmp_path):
        path = small_trace(tmp_path, duration=21.0)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"trace = {path}\nalgo = rb:slots=16\nout = {tmp_path / 'a'}\n")
        argv = ["run", "--config", str(cfgfile), "--algo", "rb:slots=8", "--out", str(tmp_path / "b")]
        rc = main(argv)
        assert rc == 0
        assert not (tmp_path / "a").exists()
        assert [p.name for p in (tmp_path / "b").iterdir()] == ["rb_T8.csv"]

    def test_malformed_line_reports_location(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("trace x.csv\n")
        rc = main(["run", "--config", str(cfgfile), "--algo", "rb"])
        assert rc == 1
        assert "bad.cfg:1" in capsys.readouterr().err

    def test_value_the_flag_cannot_convert_reports_location(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("algo = rb\nperiod = soon\n")
        assert main(["run", "--config", str(cfgfile), "--gen-n", "5", "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {cfgfile}:2: period: could not convert string to float: 'soon'\n"
        assert not (tmp_path / "x").exists()


    # max-iterations was a tune flag; the tuner's budget is now a constant. run and
    # compare take an algorithm's keys only in an algo spec
    @pytest.mark.parametrize(
        "command,key",
        [("run", "perod"), ("tune", "k"), ("tune", "max-iterations"), ("run", "d"),
         ("run", "direction"), ("compare", "k"), ("compare", "slots")],
    )
    def test_key_that_is_not_a_flag_fails(self, tmp_path, capsys, monkeypatch, command, key):
        monkeypatch.chdir(tmp_path)
        path = small_trace(tmp_path, duration=3.0)
        cfgfile = tmp_path / "typo.cfg"
        cfgfile.write_text(f"{key} = 5\ntrace = {path}\n")
        rc = main([command, "--config", str(cfgfile)])
        assert rc == 1
        key = key.replace("-", "_")
        assert capsys.readouterr().err == f"error: {cfgfile}:1: {key} is not supported by apsel {command}\n"

    def test_exact_reads_d_from_file(self, tmp_path, capsys):
        path = small_trace(tmp_path, n=12, duration=2.0, area=300.0)
        outputs = []
        for extra in (["--d", "1"], ["--d", "2"]):
            assert main(["exact", "--trace", str(path), *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]
        cfgfile = tmp_path / "exact.cfg"
        cfgfile.write_text(f"trace = {path}\nd = 2\n")
        assert main(["exact", "--config", str(cfgfile)]) == 0
        assert capsys.readouterr().out == outputs[1]

    def test_tune_writes_to_file_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = small_trace(tmp_path, duration=3.0)
        cfgfile = tmp_path / "tune.cfg"
        cfgfile.write_text(f"trace = {path}\nout = x.csv\nd-max = 2\n")
        assert main(["tune", "--config", str(cfgfile)]) == 0
        assert (tmp_path / "x.csv").exists()
        assert not (tmp_path / "tuning.csv").exists()

    @pytest.mark.parametrize("command", ["tune", "exact"])
    def test_direction_rejected_where_graphs_are_unfiltered(self, tmp_path, capsys, command):
        path = small_trace(tmp_path, duration=3.0)
        cfgfile = tmp_path / "dir.cfg"
        cfgfile.write_text(f"trace = {path}\ndirection = true\n")
        extra = ["--out", str(tmp_path / "tuning.csv"), "--d-max", "2"] if command == "tune" else []
        rc = main([command, "--config", str(cfgfile), *extra])
        assert rc == 1
        assert "direction is not supported" in capsys.readouterr().err


class TestCompareCommand:
    def test_single_algorithm_summary_matches_run(self, tmp_path):
        path = small_trace(tmp_path)
        out = tmp_path / "res"
        rc = main(["compare", "--trace", str(path), "--algo", "centrality", "--out", str(out)])
        assert rc == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("algorithm,")
        rows = read_period_metrics_csv(out / "centrality_d1_k4.csv")
        rates = [r.aggregation_rate for r in rows if r.aggregation_rate is not None]
        mean_rate = sum(rates) / len(rates)
        assert summary[1].split(",")[2] == repr(mean_rate)

    def test_multi_hop_at_least_single_hop(self, tmp_path, capsys):
        path = small_trace(tmp_path, n=40, duration=31.0, area=500.0)
        out = tmp_path / "res"
        rc = main(
            ["compare", "--trace", str(path), "--algo", "centrality:d=3,k=4",
             "--algo", "centrality:d=1,k=4", "--out", str(out)]
        )
        assert rc == 0
        d3 = read_period_metrics_csv(out / "centrality_d3_k4.csv")
        d1 = read_period_metrics_csv(out / "centrality_d1_k4.csv")

        def mean_rate(rows):
            vals = [r.aggregation_rate for r in rows if r.aggregation_rate is not None]
            return sum(vals) / len(vals)

        assert mean_rate(d3) >= mean_rate(d1)

    def test_order_preserving_relabel_leaves_every_csv_byte(self, tmp_path):
        # selectors use ids only by order, so an increasing map of the ids,
        # onto negative ones here, writes the same files
        path = small_trace(tmp_path, n=30, duration=21.0)
        relabelled = tmp_path / "relabelled.csv"
        points = trace_samples(load_trace_csv(path))
        write_trace_csv(
            Trace([TracePoint(p.time, 7 * p.vehicle - 10**12, p.x, p.y) for p in points]), relabelled
        )
        algos = ["centrality", "centrality:d=3", "rb", "centrality:direction=true", "exact", "exact:d=2"]

        def outputs(trace, out):
            argv = ["compare", "--trace", str(trace), "--out", str(out)]
            assert main(argv + [arg for a in algos for arg in ("--algo", a)]) == 0
            return {f.name: f.read_bytes() for f in out.iterdir()}

        original = outputs(path, tmp_path / "a")
        assert len(original) == len(algos) + 1
        assert outputs(relabelled, tmp_path / "b") == original

    def test_run_loop_assigns_once_per_algorithm_and_period(self, tmp_path, monkeypatch):
        # sampled at 0-5 s and 20-25 s, so the boundary at 10 s reads no vehicle
        times = [*range(6), *range(20, 26)]
        path = tmp_path / "trace.csv"
        write_trace_csv(Trace([TracePoint(t, v, 60.0 * v + t, 0.0) for t in times for v in range(12)]), path)
        calls = spy_on_assignment(monkeypatch)
        algos = ["centrality", "centrality:d=3", "rb", "exact"]
        argv = ["compare", "--trace", str(path), "--out", str(tmp_path / "res")]
        assert main(argv + [arg for a in algos for arg in ("--algo", a)]) == 0
        rows = read_period_metrics_csv(tmp_path / "res" / "rb_T256.csv")
        assert [r.n_vehicles for r in rows] == [12, 0, 12]
        # no selector assigns; the run loop does, within each algorithm's d,
        # and an empty period's assignment is the empty one
        assert calls == [("apsel.cli", d) for d in (1, 1, 1, 3, 3, 3, 1, 1, 1, 1, 1, 1)]

    def test_rb_frame_seed_follows_the_documented_rule(self, tmp_path):
        # period i draws rb's frame from (seed * 1_000_003 + i) mod 2**63; at
        # seed 0 that is i, so only a non-zero seed tells the rule from i, and
        # only one above about 9.2e12 tells mod 2**63 from mod 2**64
        path = small_trace(tmp_path, n=30)
        trace = load_trace_csv(path)
        for seed in (7, 10**13):
            out = tmp_path / f"res{seed}"
            argv = ["compare", "--trace", str(path), "--algo", "rb", "--period", "2", "--seed", str(seed)]
            assert main(argv + ["--out", str(out)]) == 0
            rows = read_period_metrics_csv(out / "rb_T256.csv")
            assert len(rows) == 16
            prev = frozenset()
            for i, row in enumerate(rows):
                g = build_udg(trace.positions_at(row.time), RadioParams())
                result = rb_select(g, 256, (seed * 1_000_003 + i) % 2**63)
                points = result.aggregation_points
                assert (row.n_aps, row.edges_examined) == (len(points), result.edges_examined)
                assert row.n_notifications == notification_count(prev, points)
                prev = points

    def test_negative_id_trace_runs(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,id,x,y\n0,-1,0.0,0.0\n0,3,50.0,0.0\n")
        out = tmp_path / "res"
        assert main(["run", "--trace", str(path), "--algo", "centrality", "--out", str(out)]) == 0
        assert read_period_metrics_csv(out / "centrality_d1_k4.csv")[0].n_vehicles == 2


class TestGenTraceCommand:
    def test_identical_across_invocations(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["gen-trace", "--gen-n", "15", "--gen-duration", "12", "--seed", "7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_loadable(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["gen-trace", "--gen-n", "6", "--gen-duration", "5", "--out", str(out)])
        trace = load_trace_csv(out)
        assert len(trace.vehicles) == 6
        assert trace.span == (0.0, 4.0)


class TestTuneCommand:
    def test_writes_bounded_trajectory(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(["tune", "--gen-n", "25", "--gen-duration", "12", "--gen-area", "400",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,d,k,objective"
        assert 2 <= len(lines) <= 502  # header + iterations, capped at 500
        printed = capsys.readouterr().out
        assert printed.startswith("d=")

    def test_time_one_rounding_from_an_instant_is_read(self, tmp_path):
        # the tuner once looked instants up by exact float key, so 0.1 + 0.2 found
        # no snapshot; only the middle instant links its vehicles
        trace = tmp_path / "trace.csv"
        write_trace_csv(
            Trace([TracePoint(t, v, (50.0 if t == 0.3 else 500.0) * v, 0.0)
                   for t in (0.0, 0.3, 0.6) for v in range(4)]),
            trace,
        )
        outs = []
        for start in ("0.3", repr(0.1 + 0.2)):
            outs.append(tmp_path / f"tuning-{start}.csv")
            argv = ["tune", "--trace", str(trace), "--t-start", start, "--period", "1",
                    "--d-max", "3", "--k-max", "3", "--out", str(outs[-1])]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert max(float(row.split(",")[3]) for row in outs[0].read_text().splitlines()[1:]) > 0

    def test_tuner_fields_are_the_box_flags(self):
        # cmd_tune passes these settings to TunerConfig untranslated
        _, commands = _build_parser()
        dests = {a.dest for a in commands["tune"]._actions}
        assert set(TunerConfig.__slots__) == dests & {"d_max", "k_max"} == {"d_max", "k_max"}
        assert not any("iteration" in dest for dest in dests)

    def test_missing_out_directory_fails_before_the_search(self, tmp_path, capsys, monkeypatch):
        # the whole search once ran before the write failed on the missing directory
        calls = []
        monkeypatch.setattr(apsel.tuner, "centrality_select", lambda *args: calls.append(args))
        out = tmp_path / "missing" / "t.csv"
        assert main(["tune", "--gen-n", "20", "--gen-duration", "12", "--out", str(out)]) == 1
        assert calls == []
        assert str(out) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "box, best, noted",
        [
            (["--gen-n", "30", "--gen-area", "300", "--d-max", "3", "--k-max", "3"], "d=3 k=3 ", True),
            (["--gen-n", "20", "--gen-area", "100", "--d-max", "4", "--k-max", "6"], "d=2 k=4 ", False),
        ],
    )
    def test_best_pair_on_the_box_edge_is_noted(self, tmp_path, capsys, box, best, noted):
        assert main(["tune", *box, "--out", str(tmp_path / "t.csv")]) == 0
        captured = capsys.readouterr()
        # stdout keeps its one parsed line; the note goes to stderr, without that line's fields
        assert captured.out.startswith(best) and len(captured.out.splitlines()) == 1
        assert ("a larger --d-max or --k-max" in captured.err) == noted
        assert captured.err.startswith("note: ") if noted else captured.err == ""
        assert not re.search(r"d=\d+ k=\d+ rate=", captured.err)

    def test_boundaries_that_name_no_instant_are_noted(self, tmp_path, capsys):
        # sampled at 1 Hz on 0..5 s: the tuner once scored 6 of the 11 half-second
        # boundaries and said nothing of the other 5
        outs, notes = {}, {}
        for period in ("0.5", "1"):
            outs[period] = tmp_path / f"tuning-{period}.csv"
            argv = ["tune", "--gen-n", "10", "--gen-duration", "6", "--period", period]
            assert main([*argv, "--out", str(outs[period])]) == 0
            captured = capsys.readouterr()
            # stdout keeps its one parsed line; the note goes to stderr
            assert captured.out.startswith("d=") and len(captured.out.splitlines()) == 1
            notes[period] = [line for line in captured.err.splitlines() if "sampled instant" in line]
        assert notes == {
            "0.5": ["note: 5 of 11 period boundaries name no sampled instant (the trace is"
                    " sampled every 1.0 s); their periods are left out of the mean"],
            "1": [],
        }
        # the left-out periods weigh nothing: both searches score the same graphs
        assert outs["0.5"].read_bytes() == outs["1"].read_bytes()

    @pytest.mark.parametrize("flag, value", [("--d-max", "0"), ("--k-max", "-2")])
    def test_box_error_names_the_flag(self, tmp_path, capsys, flag, value):
        # TunerConfig's fields are the flags' destinations, so its message names the flag
        assert main(["tune", "--gen-n", "5", flag, value, "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err == f"error: {flag[2]}_max must be >= 1, got {value}\n"


class TestExactCommand:
    def test_matches_brute_force(self, tmp_path, capsys):
        path = small_trace(tmp_path, n=12, duration=2.0, area=300.0)
        rc = main(["exact", "--trace", str(path), "--time", "0", "--d", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        n_aps = int(out.splitlines()[0].split("=")[1])
        trace = load_trace_csv(path)
        g = build_udg(trace.positions_at(0.0), RadioParams())
        assert n_aps == len(brute_force_min_dominating_set(g, 1))

    def test_time_resolves_to_nearest_sample(self, tmp_path, capsys):
        # written from i * 0.1, the fourth instant reads 0.30000000000000004
        pts = [TracePoint(i * 0.1, v, 40.0 * v + i, 0.0) for i in range(5) for v in range(8)]
        path = tmp_path / "trace.csv"
        write_trace_csv(Trace(pts), path)
        assert "\n0.30000000000000004,0," in path.read_text()
        rc = main(["exact", "--trace", str(path), "--time", "0.3"])
        assert rc == 0
        n_aps = int(capsys.readouterr().out.splitlines()[0].split("=")[1])
        g = build_udg(load_trace_csv(path).positions_at(3 * 0.1), RadioParams())
        assert n_aps == len(brute_force_min_dominating_set(g, 1))

    def test_unsampled_instant_fails(self, tmp_path, capsys):
        path = small_trace(tmp_path, duration=5.0)
        rc = main(["exact", "--trace", str(path), "--time", "2.5"])
        assert rc == 1
        assert "no vehicles" in capsys.readouterr().err

    def test_zero_d_names_only_d(self, capsys):
        # exact has no flags for k or slots
        assert main(["exact", "--gen-n", "20", "--d", "0"]) == 1
        assert capsys.readouterr().err == "error: exact d must be >= 1, got 0\n"

    @pytest.mark.parametrize("time", ["inf", "-inf"])
    def test_infinite_time_fails(self, tmp_path, capsys, time):
        # an infinite time used to resolve to the trace's last or first instant
        path = small_trace(tmp_path, duration=5.0)
        assert main(["exact", "--trace", str(path), f"--time={time}"]) == 1
        assert "no vehicles" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    out = tmp_path / "t.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "apsel", "gen-trace", "--gen-n", "4", "--gen-duration", "3",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
