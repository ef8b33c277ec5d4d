"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses_multiple(self):
        args = build_parser().parse_args(["run", "table3", "figure5"])
        assert args.experiments == ["table3", "figure5"]

    def test_simulate_requires_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scheme", "Ideal"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "figure9" in out
        assert "mcf" in out

    def test_list_matches_the_catalog(self, capsys):
        # `list` reads the index without loading drivers; what it prints
        # must be exactly the runnable catalog, in order.
        from repro.experiments.catalog import EXPERIMENTS, SWEEP_EXPERIMENTS

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        block = out.split("\n\n", 1)[0].splitlines()[1:]
        assert block == [
            f"  {name}"
            + (" [simulation sweep]" if name in SWEEP_EXPERIMENTS else "")
            for name in EXPERIMENTS
        ]
        marked = tuple(
            line.split()[0] for line in block if line.endswith("[simulation sweep]")
        )
        assert marked == tuple(n for n in EXPERIMENTS if n in SWEEP_EXPERIMENTS)
        assert set(marked) == set(SWEEP_EXPERIMENTS)

    def test_run_table(self, capsys):
        assert main(["run", "table5"]) == 0
        out = capsys.readouterr().out
        assert "R(BCH=8,S=8,W=1)" in out

    def test_run_unknown_fails(self, capsys):
        assert main(["run", "table99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_run_figure5(self, capsys):
        assert main(["run", "figure5"]) == 0
        assert "M-sensing" in capsys.readouterr().out

    def test_simulate(self, capsys):
        code = main(
            [
                "simulate",
                "--workload",
                "gcc",
                "--scheme",
                "LWT-4",
                "--requests",
                "500",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheme=LWT-4" in out
        assert "cell writes by cause" in out

    def test_simulate_with_instruction_override(self, capsys):
        code = main(
            [
                "simulate",
                "--workload",
                "lbm",
                "--scheme",
                "Ideal",
                "--instructions",
                "20000",
            ]
        )
        assert code == 0


class TestSchemeValidation:
    def test_simulate_unknown_scheme_fails_fast(self, capsys):
        code = main(["simulate", "--workload", "gcc", "--scheme", "BadName"])
        assert code == 2
        assert "unknown schemes: BadName" in capsys.readouterr().err

    def test_sweep_unknown_scheme_fails_fast(self, capsys):
        code = main(["sweep", "--schemes", "Ideal", "BadName", "--workloads", "gcc"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown schemes: BadName" in err
        assert "LWT-<k>" in err

    def test_parameterized_families_accepted(self, capsys):
        # LWT-8 / Select-2:1 are valid beyond the listed scheme_names().
        code = main(
            ["simulate", "--workload", "gcc", "--scheme", "LWT-8",
             "--requests", "300"]
        )
        assert code == 0
        assert "scheme=LWT-8" in capsys.readouterr().out


class TestSweepExecutionFlags:
    def test_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1 and args.no_cache is False
        args = build_parser().parse_args(["run", "figure9", "--jobs", "4",
                                          "--no-cache"])
        assert args.jobs == 4 and args.no_cache is True

    def test_sweep_parallel_matches_serial_output(self, tmp_path, capsys):
        # Two workloads x three schemes on two workers: the pool steals
        # across workloads, and the JSON must not show it.
        schemes = ["Ideal", "Hybrid", "LWT-4"]
        workloads = ["mcf", "gcc"]
        common = ["--requests", "800", "--schemes", *schemes,
                  "--workloads", *workloads, "--no-cache"]
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(["sweep", "--output", str(serial)] + common) == 0
        assert main(
            ["sweep", "--output", str(parallel), "--jobs", "2"] + common
        ) == 0
        assert serial.read_text() == parallel.read_text()
        runs = json.loads(parallel.read_text())["runs"]
        assert set(runs) == set(workloads)
        assert all(set(per) == set(schemes) for per in runs.values())

    def test_sweep_uses_cache_dir_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("READDUO_SWEEP_CACHE", str(tmp_path / "cache"))
        argv = ["sweep", "--requests", "800", "--schemes", "Ideal",
                "--workloads", "gcc", "--output", str(tmp_path / "out.json")]
        assert main(argv) == 0
        # One granular entry per run, and nothing else in the root.
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["runs"]
        entries = list((tmp_path / "cache" / "runs").glob("*.json"))
        assert len(entries) == 1
        first = (tmp_path / "out.json").read_text()
        # Warm re-run serves from the persistent cache and exports the
        # identical payload.
        assert main(argv) == 0
        assert (tmp_path / "out.json").read_text() == first

    def test_warm_cache_rerun_serves_identical_json(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("READDUO_SWEEP_CACHE", str(tmp_path / "cache"))
        argv = ["sweep", "--requests", "800", "--jobs", "2",
                "--schemes", "Ideal", "Scrubbing", "Hybrid", "LWT-4",
                "--workloads", "mcf", "gcc"]
        first = tmp_path / "first.json"
        assert main(argv + ["--output", str(first)]) == 0
        # Each invocation has its own service: only the disk tier is warm.
        second = tmp_path / "second.json"
        metrics = tmp_path / "warm-metrics.json"
        assert main(
            argv + ["--output", str(second), "--metrics", str(metrics)]
        ) == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["plan.units_simulated"] == 0
        assert counters["plan.units_cached"] == 8
        # The payload's telemetry key is absent without --metrics; with
        # it, the run-level payload is otherwise the same bytes.
        warm = json.loads(second.read_text())
        warm.pop("telemetry")
        assert json.dumps(warm, indent=2, sort_keys=True) + "\n" == (
            first.read_text()
        )


class TestPlannedRunCache:
    """``readduo run`` resolves every unit through memo → run store."""

    # Two sweep figures sharing one spec, one scrub ablation, and the four
    # artifacts whose variants are registry spellings (LWT-4@T<t>,
    # <scheme>+trunc, LWT-4@S<s>, Precise-<w>).
    ARTIFACTS = [
        "figure9",
        "figure10",
        "ablation-scrub-contention",
        "ablation-conversion-throttle",
        "ablation-write-truncation",
        "extra-scrub-interval",
        "extra-precise-write",
    ]
    QUICK = ["--quick", "--quick-requests", "300"]
    # The process pool writes the disk store, as in a parallel report.
    JOBS = ["--jobs", "2"]

    def test_cold_run_leaves_only_run_entries_and_warm_run_simulates_zero(
        self, tmp_path, monkeypatch, capsys
    ):
        root = tmp_path / "cache"
        monkeypatch.setenv("READDUO_SWEEP_CACHE", str(root))
        cold_metrics = tmp_path / "cold-metrics.json"
        assert main(
            ["run", *self.ARTIFACTS, *self.QUICK, *self.JOBS,
             "--metrics", str(cold_metrics)]
        ) == 0
        cold_out = capsys.readouterr().out
        assert sorted(p.name for p in root.iterdir()) == ["runs"]
        cold = json.loads(cold_metrics.read_text())["counters"]
        assert cold["plan.units_simulated"] > 0
        # figure9/figure10 share one sweep spec: the cold plan folds the
        # duplicates and simulates each distinct unit once.
        assert cold["plan.units_deduped"] > 0
        metrics = tmp_path / "warm-metrics.json"
        assert main(
            ["run", *self.ARTIFACTS, *self.QUICK, *self.JOBS,
             "--metrics", str(metrics)]
        ) == 0
        assert capsys.readouterr().out == cold_out
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["plan.units_simulated"] == 0
        assert counters["plan.units_cached"] > 0
        # Everything replays from the per-run store.
        assert counters["plan.units_cached"] == (
            counters["plan.units_total"] - counters["plan.units_deduped"]
        )

    def test_warm_sweep_figures_hash_each_unit_at_most_once(
        self, tmp_path, monkeypatch, capsys
    ):
        from collections import Counter

        from repro.experiments import SWEEP_EXPERIMENTS
        from repro.experiments.planner import plan_units
        from repro.experiments.spec import SimSpec

        monkeypatch.setenv("READDUO_SWEEP_CACHE", str(tmp_path / "cache"))
        argv = ["run", *SWEEP_EXPERIMENTS, *self.QUICK]
        assert main(argv) == 0  # cold: fills the run store
        # A fresh process also plans every spec afresh.
        plan_units.cache_clear()
        hashes = Counter()
        original = SimSpec.content_hash

        def counting(spec):
            digest = original(spec)
            hashes[digest] += 1
            return digest

        monkeypatch.setattr(SimSpec, "content_hash", counting)
        assert main(argv) == 0
        assert len(SWEEP_EXPERIMENTS) == 9
        assert len(hashes) >= 14 * 10  # every unit of the shared sweep
        assert max(hashes.values()) == 1


class TestSweepCommand:
    def test_sweep_to_file(self, tmp_path, capsys):
        import json

        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "--output",
                str(out),
                "--requests",
                "1000",
                "--schemes",
                "Ideal",
                "Hybrid",
                "--workloads",
                "gcc",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["runs"]) == {"gcc"}
        assert set(payload["runs"]["gcc"]) == {"Ideal", "Hybrid"}
        run = payload["runs"]["gcc"]["Hybrid"]
        assert run["execution_time_ns"] > 0
        assert "energy_by_category_pj" in run

    def test_sweep_to_stdout(self, capsys):
        code = main(
            [
                "sweep",
                "--requests",
                "1000",
                "--schemes",
                "Ideal",
                "--workloads",
                "gcc",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"runs"' in out

    def test_sweep_stdout_stays_pure_json(self, tmp_path, capsys):
        """`--output -` with progress + telemetry chatter must keep stdout
        machine-parseable; everything human goes to stderr."""
        import json

        code = main(
            [
                "sweep", "--output", "-", "--requests", "800",
                "--schemes", "Ideal", "--workloads", "gcc", "--no-cache",
                "-v", "--metrics", str(tmp_path / "m.json"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # would raise on any stray line
        assert set(payload["runs"]) == {"gcc"}
        assert "telemetry" in payload

    def test_sweep_wrote_note_goes_to_stderr(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--output", str(out), "--requests", "800",
             "--schemes", "Ideal", "--workloads", "gcc", "--no-cache"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"wrote {out}" in captured.err

    def test_sweep_json_unchanged_by_plain_rerun(self, tmp_path, capsys):
        """Without --trace/--metrics, sweep JSON has no telemetry key and is
        byte-identical across cold and warm runs (CI cmp guarantee)."""
        import json

        argv = ["sweep", "--requests", "800", "--schemes", "Ideal",
                "--workloads", "gcc", "--no-cache", "--output"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(argv + [str(first)]) == 0
        assert main(argv + [str(second), "-v"]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert "telemetry" not in json.loads(first.read_text())


class TestExploreCommand:
    ARGV = ["explore", "--schemes", "LWT-2", "Select-4:2",
            "--workload", "gcc", "--budget", "400", "--no-cache"]

    def test_explore_parses_with_defaults(self):
        args = build_parser().parse_args(["explore"])
        assert args.command == "explore"
        assert args.budget == 8_000
        assert args.output == "results/frontier.json"
        assert args.via_serve is None

    def test_explore_rejects_base_budget(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["explore", "--base-budget", "300"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --base-budget" in capsys.readouterr().err

    def test_explore_writes_frontier_artifact(self, tmp_path, capsys):
        out = tmp_path / "frontier.json"
        assert main(self.ARGV + ["--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert "frontier" in captured.out
        assert f"wrote {out}" in captured.err
        payload = json.loads(out.read_text())
        assert payload["format"] == 2
        assert payload["budget"] == 400
        assert payload["objectives"] == ["edap", "fit_margin", "wear"]
        assert payload["frontier"]
        for entry in payload["frontier"]:
            assert set(entry["objectives"]) == {"edap", "fit_margin", "wear"}
            assert entry["run_hash"]
            assert entry["stats"]
        # Every candidate is either on the frontier or in the prune audit.
        ids = {e["id"] for e in payload["frontier"]}
        ids |= {p["id"] for p in payload["pruned"]}
        assert ids == {"LWT-2|E8|S640|base", "Select-4:2|E8|S640|base"}
        for pruned in payload["pruned"]:
            assert set(pruned) == {"id", "objectives", "dominated_by"}

    def test_explore_stdout_stays_pure_json(self, capsys):
        assert main(self.ARGV + ["--output", "-", "-v"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # would raise on any stray line
        assert "frontier" in payload
        assert "frontier" in captured.err  # the table moved to stderr

    def test_space_file_conflicts_with_field_flags(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"schemes": ["LWT-2"]}))
        code = main(["explore", "--space", str(space),
                     "--schemes", "Hybrid", "--no-cache"])
        assert code == 2
        assert "--space conflicts with --schemes" in capsys.readouterr().err

    def test_unknown_scheme_exits_2(self, capsys):
        code = main(["explore", "--schemes", "NoSuchScheme", "--no-cache"])
        assert code == 2
        assert "NoSuchScheme" in capsys.readouterr().err

    def test_space_file_with_families_expands(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({
            "families": {"Select-<k>:<s>": {"k": [4], "s": [1, 2]}},
            "workload": "gcc",
        }))
        out = tmp_path / "frontier.json"
        assert main(["explore", "--space", str(space), "--budget", "400",
                     "--no-cache", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["space"]["schemes"] == ["Select-4:1", "Select-4:2"]


class TestObservabilityFlags:
    def test_simulate_accepts_readduo_prefixed_scheme(self, capsys):
        code = main(
            ["simulate", "--workload", "gcc", "--scheme", "readduo-hybrid",
             "--requests", "400"]
        )
        assert code == 0
        assert "scheme=Hybrid" in capsys.readouterr().out

    def test_simulate_writes_trace_and_metrics(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code = main(
            ["simulate", "--workload", "mcf", "--scheme", "readduo-hybrid",
             "--requests", "1500", "--trace", str(trace),
             "--metrics", str(metrics), "-v"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert f"wrote trace {trace}" in captured.err
        assert f"wrote metrics {metrics}" in captured.err
        assert "I repro.cli: simulated" in captured.err  # -v logs at INFO
        assert "scheme=Hybrid" in captured.out  # the alias resolved
        assert "read latency percentiles" in captured.out

        chrome = json.loads(trace.read_text())
        cats = {e.get("cat") for e in chrome["traceEvents"]}
        assert {"read", "scrub"} <= cats
        assert any(e["ph"] == "X" for e in chrome["traceEvents"])

        dump = json.loads(metrics.read_text())
        assert dump["counters"]["sim.reads"] > 0
        hist = dump["histograms"]["sim.read_latency_ns"]
        assert sum(hist["counts"]) == dump["counters"]["sim.reads"]
        assert dump["counters"]["sim.scrub.ops"] >= 0

    def test_simulate_jsonl_trace(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        code = main(
            ["simulate", "--workload", "gcc", "--scheme", "Ideal",
             "--requests", "400", "--trace", str(trace)]
        )
        assert code == 0
        kinds = {
            json.loads(line)["kind"]
            for line in trace.read_text().splitlines()
        }
        assert "read" in kinds

    def test_sweep_telemetry_block(self, tmp_path, capsys):
        import json

        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--output", str(out), "--requests", "800",
             "--schemes", "Ideal", "Hybrid", "--workloads", "gcc",
             "--no-cache", "--metrics", str(tmp_path / "m.json")]
        )
        assert code == 0
        tele = json.loads(out.read_text())["telemetry"]
        assert tele["wall_time_s"] >= 0
        assert tele["cache"] is None  # --no-cache: no counters to report
        assert tele["batches"] and tele["batches"][0]["workload"] == "gcc"
        dump = json.loads((tmp_path / "m.json").read_text())
        assert dump["counters"]["plan.units_simulated"] == 2

    def test_parallel_sweep_telemetry_has_one_batch_per_workload(
        self, tmp_path, capsys
    ):
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--output", str(out), "--requests", "800", "--jobs", "2",
             "--schemes", "Ideal", "Hybrid", "--workloads", "mcf", "gcc",
             "--no-cache", "--metrics", str(tmp_path / "m.json")]
        )
        assert code == 0
        batches = json.loads(out.read_text())["telemetry"]["batches"]
        assert sorted(b["workload"] for b in batches) == ["gcc", "mcf"]
        for batch in batches:
            assert set(batch) == {"workload", "schemes", "seconds"}
            assert batch["schemes"] == 2 and batch["seconds"] > 0

    def test_verbose_flag_parses_and_stacks(self):
        args = build_parser().parse_args(
            ["simulate", "--workload", "gcc", "--scheme", "Ideal", "-vv"]
        )
        assert args.verbose == 2
        args = build_parser().parse_args(
            ["sweep", "--log-level", "debug", "--trace", "t.json"]
        )
        assert args.log_level == "debug" and args.trace == "t.json"


class TestSweepSpecFile:
    FLAGS = ["--requests", "800", "--seed", "7",
             "--schemes", "Ideal", "Hybrid", "--workloads", "gcc"]
    SPEC = {"schemes": ["Ideal", "Hybrid"], "workloads": ["gcc"],
            "target_requests": 800, "seed": 7}

    def _run(self, argv, tmp_path, name):
        out = tmp_path / name
        assert main(["sweep", "--output", str(out), "--no-cache"] + argv) == 0
        return out.read_text()

    def test_json_spec_matches_flag_invocation_exactly(self, tmp_path):
        import json

        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(self.SPEC))
        from_flags = self._run(self.FLAGS, tmp_path, "flags.json")
        from_spec = self._run(["--spec", str(spec_path)], tmp_path, "spec.json")
        assert from_spec == from_flags

    def test_toml_spec_matches_flag_invocation_exactly(self, tmp_path):
        pytest.importorskip("tomllib")
        spec_path = tmp_path / "exp.toml"
        spec_path.write_text(
            'schemes = ["Ideal", "readduo-hybrid"]\n'
            'workloads = ["gcc"]\n'
            "target_requests = 800\n"
            "seed = 7\n"
        )
        from_flags = self._run(self.FLAGS, tmp_path, "flags.json")
        from_spec = self._run(["--spec", str(spec_path)], tmp_path, "spec.json")
        assert from_spec == from_flags
        from_pool = self._run(
            ["--spec", str(spec_path), "--jobs", "2"], tmp_path, "pool.json"
        )
        assert from_pool == from_flags

    @pytest.mark.parametrize(
        "extra", [["--seed", "9"], ["--requests", "100"],
                  ["--schemes", "Ideal"], ["--workloads", "gcc"]]
    )
    def test_spec_conflicts_with_field_flags(self, tmp_path, capsys, extra):
        spec_path = tmp_path / "exp.json"
        spec_path.write_text("{}")
        code = main(["sweep", "--spec", str(spec_path)] + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert "--spec conflicts with" in err and extra[0] in err

    def test_invalid_spec_file_reports_and_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "exp.json"
        spec_path.write_text('{"schemes": ["Bogus"]}')
        assert main(["sweep", "--spec", str(spec_path)]) == 2
        assert "unknown schemes: Bogus" in capsys.readouterr().err

    def test_missing_spec_file_reports_and_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "cannot read spec file" in capsys.readouterr().err


class TestFaultsCommand:
    def test_density_study_reports_detected_uncorrectable_reads(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("READDUO_SWEEP_CACHE", str(tmp_path / "cache"))
        out = tmp_path / "faults.json"
        assert main(
            ["faults", "--densities", "0.0", "0.02", "0.064",
             "--requests", "1200", "--jobs", "2", "--output", str(out)]
        ) == 0
        rows = json.loads(out.read_text())["rows"]
        # rows: [density, injected, uncorr_rate, silent_rate, exec_norm]
        by_density = {row[0]: row for row in rows}
        assert by_density[0.0][1] == 0, rows  # fault-free anchor
        assert by_density[0.064][1] > 0, rows
        assert by_density[0.064][2] > 0, rows  # detected-uncorrectable
        assert by_density[0.064][2] >= by_density[0.02][2], rows


class TestSchemesCommand:
    def test_schemes_lists_names_aliases_and_families(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "Hybrid" in out
        assert "readduo-hybrid" in out
        assert "LWT-<k>[-noconv]" in out
        assert "case-insensitive" in out

    def test_schemes_json_matches_registry_catalog(self, capsys):
        from repro.core.registry import scheme_catalog

        assert main(["schemes", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(
            json.dumps(scheme_catalog())  # canonicalized via JSON round-trip
        )


class TestServeParser:
    def test_serve_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.jobs == 1
        assert args.max_inflight == 8
        assert args.max_pending == 64
        assert args.memo_capacity is None
        assert args.ledger is None

    def test_serve_flags_parse_explicit(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--jobs", "2", "--no-cache",
            "--memo-capacity", "128", "--max-inflight", "3",
            "--max-pending", "0", "--ledger", "runs.jsonl",
        ])
        assert args.port == 0
        assert args.no_cache is True
        assert args.memo_capacity == 128
        assert args.max_pending == 0

    def test_bench_serve_flags_parse(self):
        args = build_parser().parse_args(["bench", "--serve"])
        assert args.serve is True
        assert args.serve_requests == 2000
