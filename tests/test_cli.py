"""CLI: every subcommand runs and produces the expected structure."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.registry import engine_names, make_engine


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("list", "survey", "area"):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_overhead_defaults(self):
        args = build_parser().parse_args(["overhead", "stream"])
        assert args.workload == "mixed"
        assert args.accesses == 4000

    def test_bad_workload_rejected(self, capsys):
        # Unknown workloads reach the command handler (not argparse) so
        # the error is one line on stderr + exit 2, naming the options.
        assert main(["overhead", "stream", "not-a-load"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown workload" in err and "mixed" in err

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.workers == 1
        assert not args.quick
        assert not args.no_obs
        assert args.out == "BENCH_metrics.json"

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "e02"])
        assert args.experiment == "e02"
        assert not args.full
        assert args.limit == 40
        assert args.jsonl is None


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "aegis" in out and "Workloads:" in out

    def test_list_all_includes_wrappers(self, capsys):
        assert main(["list", "--all"]) == 0
        out = capsys.readouterr().out
        assert "merkle-stream" in out

    def test_overhead(self, capsys):
        rc = main(["overhead", "stream", "sequential", "--accesses", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overhead" in out and "stream" in out

    def test_overhead_unknown_engine(self, capsys):
        assert main(["overhead", "quantum"]) == 2

    def test_attack(self, capsys):
        rc = main(["attack", "--quiet", "--memory", "256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "256/256" in out

    def test_protocol(self, capsys):
        rc = main(["protocol", "--size", "512", "--key-bits", "256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "eavesdropper saw K" in out
        assert "False" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        for name in engine_names(survey_only=True):
            assert make_engine(name).name in out


class TestSurvey:
    def test_one_baseline_same_table_as_pricing_each_engine_alone(
            self, capsys, monkeypatch):
        """``survey`` builds the mixed trace once and runs one baseline;
        its stdout is byte for byte the table of each engine priced alone
        through ``engine_overhead``."""
        import repro.analysis.overhead as overhead
        from repro.analysis import format_gates, format_percent, \
            format_table
        from repro.api import engine_overhead
        from repro.attacks import rate_engine

        baselines = []
        run_trace = overhead.run_trace

        def spy(trace, engine=None, **kwargs):
            if engine is None:
                baselines.append(trace)
            return run_trace(trace, engine=engine, **kwargs)

        monkeypatch.setattr(overhead, "run_trace", spy)
        assert main(["survey", "--accesses", "300"]) == 0
        out = capsys.readouterr().out
        assert len(baselines) == 1
        monkeypatch.undo()
        rows = []
        for name in engine_names(survey_only=True):
            result = engine_overhead(name, "mixed", accesses=300)
            engine = make_engine(name)
            rows.append([
                name, format_percent(result.overhead),
                format_gates(engine.area().total),
                rate_engine(engine.name).highest_class_withstood or "none",
            ])
        assert out == format_table(
            ["engine", "mixed overhead", "area", "withstands class"],
            rows, title="The survey, measured (mixed workload)",
        ) + "\n"


class TestBench:
    def test_unknown_experiment_rejected(self, capsys):
        assert main(["bench", "--experiments", "e99", "--no-cache"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_bench_smoke(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        rc = main([
            "bench", "--experiments", "e01", "--quick",
            "--out", str(out), "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "1 checks passed" in stdout

        metrics = json.loads(out.read_text())
        assert metrics["schema"] == "repro-bench-metrics/3"
        assert metrics["quick"] is True
        e01 = metrics["experiments"]["e01"]
        assert e01["checks"]["passed"] is True
        assert "cost-gap" in e01["tasks"]
        obs = e01["observability"]
        assert set(obs["tasks"]) == set(e01["tasks"])
        assert obs["total"]["totals"]["events"] > 0

        profile = json.loads(
            (tmp_path / "metrics_profile.json").read_text())
        assert profile["wall_seconds"] >= 0
        assert profile["cache"]["misses"] == 2

        # Second run: served entirely from the on-disk cache, same bytes.
        first = out.read_text()
        rc = main([
            "bench", "--experiments", "e01", "--quick",
            "--out", str(out), "--cache-dir", str(tmp_path / "cache"),
        ])
        capsys.readouterr()
        assert rc == 0
        assert out.read_text() == first

    def test_bench_no_obs_omits_section_and_keeps_metrics(self, tmp_path,
                                                          capsys):
        with_obs = tmp_path / "obs.json"
        without = tmp_path / "no_obs.json"
        for path, extra in ((with_obs, []), (without, ["--no-obs"])):
            rc = main([
                "bench", "--experiments", "e01", "--quick", "--no-cache",
                "--out", str(path), *extra,
            ])
            capsys.readouterr()
            assert rc == 0
        observed = json.loads(with_obs.read_text())
        plain = json.loads(without.read_text())
        assert "observability" not in plain["experiments"]["e01"]
        # Dropping observation must not perturb the metrics themselves.
        del observed["experiments"]["e01"]["observability"]
        assert observed == plain


class TestTrace:
    def test_trace_smoke(self, capsys):
        rc = main(["trace", "e01", "--limit", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "protocol-msg" in out
        assert "e01 events" in out
        assert "checks passed" in out

    def test_trace_unknown_experiment(self, capsys):
        assert main(["trace", "e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_trace_jsonl_dump(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        rc = main(["trace", "e01", "--limit", "1", "--jsonl", str(path)])
        assert rc == 0
        capsys.readouterr()
        lines = path.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert set(first) >= {"kind", "addr", "size", "cycle"}

    def test_trace_jsonl_is_the_hand_written_dump(self, tmp_path, capsys):
        """The file written through JsonlSink has the bytes of one
        sorted-key JSON object per event, newline-terminated."""
        from repro.api import trace_experiment

        path = tmp_path / "events.jsonl"
        assert main(["trace", "e01", "--limit", "0",
                     "--jsonl", str(path)]) == 0
        capsys.readouterr()
        events = trace_experiment("e01", quick=True, max_events=10000).events
        expected = "".join(json.dumps(event.to_json_dict(), sort_keys=True)
                           + "\n" for event in events)
        assert path.read_bytes() == expected.encode("utf-8")


class TestDeprecatedFactories:
    def test_engine_factories_shim_is_gone(self):
        # The PR-1 compatibility dict was removed with the repro.api
        # finalization; the registry is the only construction path.
        import repro.cli as cli
        with pytest.raises(AttributeError):
            cli.ENGINE_FACTORIES


class TestFaults:
    def test_unknown_label_rejected(self, capsys):
        assert main(["faults", "bogus"]) == 2
        assert "unknown campaign label" in capsys.readouterr().err

    def test_single_engine_conforms(self, capsys):
        rc = main(["faults", "ds5002fp", "--kinds", "spoof"])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "silent-corruption" in stdout   # no integrity claimed...
        assert "2/2 campaigns conform" in stdout  # ...so silence conforms


class TestStreamCommand:
    def test_stream_runs(self, capsys):
        assert main(["stream", "baseline", "dma-burst",
                     "--accesses", "5000", "--chunk-size", "512"]) == 0
        out = capsys.readouterr().out
        assert "Chunk-streamed execution" in out
        assert "accesses/sec" in out

    def test_address_scrambled_stream_runs(self, capsys):
        # The scrambled region is sized to the stream's 32 KiB image.
        assert main(["stream", "addr-scramble-stream", "mixed",
                     "--accesses", "200"]) == 0
        assert "addr-scramble-stream" in capsys.readouterr().out

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.engine is None
        assert args.workload == "mixed"
        assert args.chunk_size == 65536


class TestDegenerateParamsExitTwo:
    """Operator mistakes are one stderr line + exit 2, never tracebacks."""

    @pytest.mark.parametrize("argv", [
        ["overhead", "stream", "nope"],
        ["overhead", "stream", "mixed", "--accesses", "0"],
        ["overhead", "stream", "mixed", "--accesses", "-3"],
        ["survey", "--accesses", "0"],
        ["stream", "baseline", "nope"],
        ["stream", "baseline", "mixed", "--accesses", "0"],
        ["stream", "baseline", "mixed", "--chunk-size", "-1"],
        ["stream", "enigma", "mixed"],
        ["attack", "--quiet", "--memory", "0"],
        ["attack", "--quiet", "--memory", "3"],
        ["attack", "--quiet", "--memory", "4"],
        ["attack", "--quiet", "--memory", "65537"],
    ])
    def test_exit_two_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"{argv[0]}: ")

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 128), "x"],
                             ids=["negative", "2**128", "not-an-int"])
    @pytest.mark.parametrize("argv", [
        ["attack", "--quiet", "--memory", "64"],
        ["protocol", "--size", "64"],
        ["faults", "xom"],
        ["stream", "baseline", "mixed", "--accesses", "10"],
    ], ids=lambda argv: argv[0])
    def test_bad_seed_is_a_usage_error(self, argv, seed, capsys):
        """A seed the DRBG cannot take (negative, 2**128 or more, not an
        int) is argparse's usage line and exit 2, not a traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--seed", seed])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {argv[0]} ")
        assert f"error: argument --seed: invalid seed '{seed}'" in err

    def test_bad_campaign_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "--seeds", "1", "-1", "--no-cache"])
        assert exit_info.value.code == 2
        assert "argument --seeds: invalid seed '-1'" in \
            capsys.readouterr().err

    def test_unknown_engine_still_exits_two(self, capsys):
        assert main(["overhead", "enigma"]) == 2
        assert "unknown engine" in capsys.readouterr().err
