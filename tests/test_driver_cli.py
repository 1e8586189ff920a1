"""Tests for the network compiler driver and the CLI entry point."""

import json
import re
import shlex
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro.__main__ import EXPERIMENTS, main, run
from repro.compiler.driver import NetworkCompiler
from repro.cryomem import TABLE1
from repro.cryomem.validation import ARRAY_DEMO_DATA
from repro.models import get_model


class TestNetworkCompiler:
    def test_compiles_alexnet_with_ilp(self):
        compiler = NetworkCompiler()
        compilations = compiler.compile_network(get_model("AlexNet"))
        assert len(compilations) == 8  # 5 convs + 3 fcs
        assert all(c.solver == "ilp" for c in compilations)

    def test_effective_prefetch_matches_configuration(self):
        """The realised schedules express the configured lookahead."""
        compiler = NetworkCompiler(prefetch_depth=3)
        compilations = compiler.compile_network(get_model("AlexNet"))
        assert compiler.effective_prefetch_depth(compilations) == 3

    def test_no_prefetch_configuration(self):
        compiler = NetworkCompiler(prefetch_depth=1)
        compilations = compiler.compile_network(get_model("AlexNet"))
        assert compiler.effective_prefetch_depth(compilations) == 1

    def test_variable_budget_forces_greedy(self):
        compiler = NetworkCompiler(max_variables=10)
        result = compiler.compile_layer(
            get_model("AlexNet").compute_layers()[0]
        )
        assert result.solver == "greedy"

    def test_schedules_valid(self):
        compiler = NetworkCompiler()
        caps = {k: compiler.shift_capacity
                for k in ("alpha", "beta", "gamma", "delta")}
        for compilation in compiler.compile_network(get_model("AlexNet")):
            compilation.schedule.validate(caps, compiler.random_capacity)


class TestCli:
    def test_registry_covers_all_figures(self):
        expected = {f"fig{n}" for n in
                    (2, 5, 6, 7, 9, 12, 13, 14, 16, 17, 18, 19, 20, 21,
                     22, 23, 24, 25)}
        expected |= {"tab1", "tab2", "tab4"}
        assert expected == set(EXPERIMENTS)

    def test_list_mode(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig18" in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2

    def test_runs_a_cheap_experiment(self, capsys):
        assert main(["tab2"]) == 0
        out = capsys.readouterr().out
        assert "ntron" in out

    def test_json_flag_emits_machine_readable_rows(self, capsys):
        assert main(["--json", "tab2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["experiment"] == "tab2"
        assert {r["component"] for r in payload[0]["rows"]} >= {"ntron"}

    def test_second_run_is_served_from_cache(self, capsys):
        assert main(["tab2"]) == 0
        capsys.readouterr()
        assert main(["--json", "tab2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["cached"] is True

    def test_serial_and_no_cache_flags(self, capsys):
        assert main(["--serial", "--no-cache", "tab2"]) == 0
        assert "ntron" in capsys.readouterr().out

    def test_bad_workers_value(self, capsys):
        assert main(["--workers", "zero", "tab2"]) == 2

    def test_workers_typo_is_not_a_flag(self, capsys):
        # `--workersX 4` must not silently configure anything
        assert main(["--workersX", "4", "tab2"]) == 2

    def test_empty_workers_value_rejected(self, capsys):
        assert main(["--workers=", "4", "tab2"]) == 2


@pytest.fixture
def empty_experiment():
    from repro.runtime import register_experiment, unregister_experiment

    register_experiment("_empty_test", lambda: [],
                        "returns no rows", figure=False)
    yield "_empty_test"
    unregister_experiment("_empty_test")


class TestZeroRows:
    def test_main_prints_notice_instead_of_crashing(self, capsys,
                                                    empty_experiment):
        assert main([empty_experiment]) == 0
        assert "(no rows)" in capsys.readouterr().out

    def test_run_helper_prints_notice(self, capsys, empty_experiment):
        run(empty_experiment)  # regression: used to raise IndexError
        assert "(no rows)" in capsys.readouterr().out


class TestSweepCli:
    def test_sweep_runs_grid_and_reports_hits_on_rerun(self, capsys):
        args = ["sweep", "design_space", "--param", "frequency=0.5,1"]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "design_space[frequency=0.5]" in cold
        assert "design_space[frequency=1]" in cold
        assert "2 job(s)" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "2 cache hit(s), 0 executed" in warm

    def test_sweep_json_output(self, capsys):
        assert main(["--json", "sweep", "design_space",
                     "--param", "frequency=1,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["params"]["frequency"] for p in payload] == [1, 2]
        assert all(p["error"] is None for p in payload)

    def test_sweep_unknown_experiment(self, capsys):
        assert main(["sweep", "fig99", "--param", "x=1"]) == 2

    def test_sweep_unknown_parameter(self, capsys):
        assert main(["sweep", "design_space",
                     "--param", "bogus=1"]) == 2

    def test_sweep_tuple_values(self, capsys):
        from repro.__main__ import _parse_param

        axis, values = _parse_param("sizes_kb=(16,32),(64,128)")
        assert axis == "sizes_kb"
        assert values == [(16, 32), (64, 128)]

    def test_sweep_bad_param_syntax(self, capsys):
        assert main(["sweep", "design_space", "--param",
                     "frequency"]) == 2

    def test_sweep_without_experiment(self, capsys):
        assert main(["sweep"]) == 2

    def test_failing_job_exits_1(self, capsys):
        # 20 GHz exceeds the nTron ceiling -> ConfigError inside the job
        assert main(["sweep", "design_space",
                     "--param", "frequency=1,20"]) == 1
        out = capsys.readouterr().out
        assert "ERROR: ConfigError" in out
        assert "1 error(s)" in out


class TestServeSimCli:
    FAST = ["--requests", "120", "--replicas", "1"]

    def test_default_grid_covers_scenarios_and_policies(self, capsys):
        assert main(["--json", "serve-sim", *self.FAST]) == 0
        rows = json.loads(capsys.readouterr().out)
        scenarios = {r["scenario"] for r in rows}
        policies = {r["policy"] for r in rows}
        assert len(scenarios) >= 3
        assert policies == {"fixed", "timeout"}
        assert len(rows) == len(scenarios) * len(policies)
        for row in rows:
            assert 0 < row["p50_us"] <= row["p95_us"] <= row["p99_us"]

    def test_single_scenario_and_policy(self, capsys):
        # the scenario may come before or after the flags
        for argv in (["steady", "--policy", "timeout", *self.FAST],
                     ["--policy", "timeout", "steady", *self.FAST]):
            assert main(["--json", "serve-sim", *argv]) == 0
            rows = json.loads(capsys.readouterr().out)
            assert [(r["scenario"], r["policy"]) for r in rows] == [
                ("steady", "timeout")
            ]

    def test_table_output_mentions_memo(self, capsys):
        assert main(["serve-sim", "steady", "--policy", "fixed",
                     *self.FAST]) == 0
        out = capsys.readouterr().out
        assert "layer-memo" in out
        assert "p99_us" in out

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["serve-sim", "tsunami", *self.FAST]) == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_unknown_policy_rejected(self, capsys):
        assert main(["serve-sim", "--policy", "adaptive"]) == 2
        assert "unknown batching policy" in capsys.readouterr().out

    def test_unknown_flag_rejected(self, capsys):
        assert main(["serve-sim", "--burst"]) == 2
        capsys.readouterr()
        # flag names are exact: `--req` is no abbreviation of
        # `--requests`, and the error names it, not the '5' after it
        assert main(["serve-sim", "--req", "5"]) == 2
        out = capsys.readouterr().out
        assert "--req" in out and "'5'" not in out
        # no help flag: a usage error, returned rather than SystemExit
        assert main(["serve-sim", "-h"]) == 2

    def test_bad_requests_value_rejected(self, capsys):
        assert main(["serve-sim", "--requests", "many"]) == 2
        assert main(["serve-sim", "--requests", "0"]) == 2

    def test_missing_value_rejected(self, capsys):
        assert main(["serve-sim", "--replicas"]) == 2

    def test_unknown_accelerator_rejected(self, capsys):
        assert main(["serve-sim", "--accelerator", "Quantum"]) == 2

    def test_autoscale_flag_swings_the_pool(self, capsys):
        assert main(["--json", "serve-sim", "diurnal",
                     "--policy", "timeout", "--autoscale", "1:4",
                     "--requests", "300", "--replicas", "1"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["replicas_peak"] > rows[0]["replicas_low"] == 1

    def test_slo_and_shed_flags_report_attainment(self, capsys):
        assert main(["--json", "serve-sim", "overload",
                     "--policy", "timeout", "--slo", "1500",
                     "--shed", "48", "--requests", "200"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert 0.0 <= rows[0]["slo_attain"] <= 1.0
        assert 0.0 <= rows[0]["shed_rate"] < 1.0

    def test_fail_flag_drops_replicas_mid_trace(self, capsys):
        assert main(["--json", "serve-sim", "steady",
                     "--policy", "timeout", "--fail", "1",
                     "--replicas", "2", "--requests", "200"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["replicas_low"] < rows[0]["replicas_peak"] == 2

    def test_bad_autoscale_spec_rejected(self, capsys):
        assert main(["serve-sim", "--autoscale", "fast"]) == 2
        assert "autoscale" in capsys.readouterr().out

    def test_shed_without_slo_rejected(self, capsys):
        assert main(["serve-sim", "steady", "--shed", "10",
                     *self.FAST]) == 2
        assert "SLO target" in capsys.readouterr().out

    def test_bad_slo_rejected(self, capsys):
        assert main(["serve-sim", "--slo", "soon"]) == 2
        assert main(["serve-sim", "--slo", "-5"]) == 2

    def test_resilience_flag_surfaces_counters(self, capsys):
        assert main(["--json", "serve-sim", "overload",
                     "--policy", "timeout",
                     "--resilience", "retry:timeout_us=500,budget=1",
                     "--requests", "200"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["resilience"] == "retry"
        assert rows[0]["timeouts"] > 0
        assert rows[0]["retries"] > 0

    def test_unknown_resilience_rejected(self, capsys):
        assert main(["serve-sim", "--resilience", "warp"]) == 2
        assert "unknown resilience policy" in capsys.readouterr().out

    def test_bad_resilience_option_rejected(self, capsys):
        assert main(["serve-sim",
                     "--resilience", "retry:budget=0"]) == 2
        assert main(["serve-sim",
                     "--resilience", "hedge:warp=1"]) == 2

    def test_resilience_without_budget_source_rejected(self, capsys):
        # no timeout/delay option and no --slo to inherit one from:
        # a clean exit-2 error, not a traceback from inside the run
        assert main(["serve-sim", "bursty",
                     "--resilience", "retry", *self.FAST]) == 2
        assert "SLO target" in capsys.readouterr().out

    def test_resilience_inherits_slo_budget(self, capsys):
        assert main(["--json", "serve-sim", "overload",
                     "--policy", "timeout", "--slo", "1500",
                     "--resilience", "hedge",
                     "--requests", "200"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["resilience"] == "hedge"

    def test_scale_flag_runs_predictive_autoscaling(self, capsys):
        assert main(["--json", "serve-sim", "diurnal",
                     "--policy", "timeout", "--scale", "holt",
                     "--slo", "2000", "--requests", "300",
                     "--replicas", "1"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["replicas_peak"] > rows[0]["replicas_low"] == 1
        assert 0.0 <= rows[0]["slo_attain"] <= 1.0

    def test_bad_scale_value_exits_cleanly(self, capsys):
        """A bad --scale must exit 2 with a ConfigError message, not
        a traceback."""
        assert main(["serve-sim", "--scale", "warp"]) == 2
        out = capsys.readouterr().out
        assert "unknown scale policy" in out
        assert "Traceback" not in out
        assert main(["serve-sim", "--scale"]) == 2
        # reactive needs bounds to react within
        assert main(["serve-sim", "--scale", "reactive"]) == 2
        assert "autoscale" in capsys.readouterr().out

    def test_bad_flush_value_exits_cleanly(self, capsys):
        assert main(["serve-sim", "--flush", "lifo"]) == 2
        out = capsys.readouterr().out
        assert "unknown flush policy" in out
        assert "Traceback" not in out
        assert main(["serve-sim", "--flush"]) == 2

    def test_priority_flag_needs_edf_and_known_models(self, capsys):
        assert main(["serve-sim", "--priority", "ResNet50=2"]) == 2
        assert "edf" in capsys.readouterr().out
        assert main(["serve-sim", "--flush", "edf",
                     "--priority", "NotANet=2"]) == 2
        assert "unknown model" in capsys.readouterr().out
        assert main(["serve-sim", "--flush", "edf",
                     "--priority", "ResNet50"]) == 2

    def test_priority_flag_reorders_with_edf(self, capsys):
        assert main(["--json", "serve-sim", "hot-model",
                     "--policy", "timeout", "--flush", "edf",
                     "--priority", "ResNet50=2",
                     "--requests", "150", "--replicas", "1"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["scenario"] == "hot-model"

    def test_steal_flag_accepted(self, capsys):
        assert main(["--json", "serve-sim", "steady",
                     "--policy", "timeout", "--steal",
                     "--requests", "150", "--replicas", "2"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["scenario"] == "steady"

    def test_persist_memo_round_trip(self, capsys, tmp_path,
                                     monkeypatch):
        from repro.runtime.cache import CACHE_DIR_ENV
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        args = ["serve-sim", "steady", "--policy", "timeout",
                "--persist-memo", *self.FAST]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "persisted memo: 0 totals loaded" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 totals loaded" not in warm
        assert "warm start" in warm
        assert "0 layer simulations" in warm


WALL = r"[0-9.]+s wall \([0-9,]+ aggregate req/s\)"


class TestServeSimPaths:
    """What the plain, sharded and geo paths print and where their
    worker pools come from."""

    @pytest.mark.parametrize("argv,head,tail", [
        (["steady", "--policy", "timeout", "--replicas", "1",
          "--requests", "120", "--slo", "2000", "--shed", "48",
          "--resilience", "retry:budget=1"],
         ["=== serve-sim: SMART x1 (round_robin), 120 requests/scenario, "
          "slo 2000us, shed@48, resilience retry:budget=1 ==="],
         [re.escape("layer-memo: 636 distinct layer x batch results, "
                    "61.7% hit rate")]),
        (["steady", "--shards", "2", "--replicas", "2", "--requests",
          "200", "--policy", "timeout", "--slo", "900"],
         ["=== serve-sim: SMART x2 (shard), 200 requests/scenario across "
          "2 shard worker(s), slo 900us ==="],
         ["scale-out: 200 requests simulated in " + WALL,
          re.escape("warm fleet: 96 snapshot cells shipped, 24 warm hits "
                    "across shard workers")]),
        (["diurnal", "--geo", "2", "--geo-storms", "1", "--slo", "4000",
          "--requests", "200", "--policy", "timeout"],
         ["=== serve-sim: geo[2] (home over mesh), 200 requests/scenario, "
          "slo 4000us, 1 region storm(s) ===",
          "regions: us-east, eu-west"],
         ["geo scale-out: 200 requests simulated in " + WALL,
          re.escape("warm fleet: 192 snapshot cells shipped, 30 warm hits "
                    "across region workers")]),
    ], ids=["plain", "sharded", "geo"])
    def test_header_and_summary_lines(self, argv, head, tail, capsys):
        assert main(["serve-sim", *argv]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1:1 + len(head)] == head
        # the summary is everything after the last table
        summary = out.rsplit("\n\n", 1)[1].splitlines()
        assert len(summary) == len(tail)
        for line, pattern in zip(summary, tail):
            assert re.fullmatch(pattern, line), line

    @pytest.mark.parametrize("argv,mode,width", [
        (["--serial", "serve-sim", "steady", "--shards", "2",
          "--replicas", "2"], "inline", None),
        (["--workers", "1", "serve-sim", "steady", "--geo", "2"],
         "process", 1),
    ], ids=["sharded-serial", "geo-workers"])
    def test_pool_flags_reach_the_fan_out(self, argv, mode, width,
                                          monkeypatch, capsys):
        from repro.serving import sharding

        calls = []
        real = sharding.parallel_map

        def spy(*args, **kwargs):
            calls.append((kwargs["mode"], kwargs["max_workers"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(sharding, "parallel_map", spy)
        assert main([*argv, "--requests", "200", "--policy",
                     "timeout"]) == 0
        assert "scale-out:" in capsys.readouterr().out
        assert calls and set(calls) == {(mode, width)}

    def test_documented_invocations_parse(self):
        """Every ``repro ... serve-sim ...`` line in a code block of the
        module docstring, README.md or the verify recipe passes the
        parse-and-check step (nothing is served)."""
        root = Path(__file__).resolve().parent.parent
        sources = {"__main__": cli.__doc__}
        for path in ("README.md", ".claude/skills/verify/SKILL.md"):
            text = (root / path).read_text(encoding="utf-8")
            sources[path] = "\n".join(
                re.findall(r"```[^\n]*\n(.*?)```", text, re.DOTALL))
        for source, text in sources.items():
            lines = [line.split("#")[0]
                     for line in text.replace("\\\n", " ").splitlines()]
            commands = [shlex.split(line[match.end():])
                        for line in lines
                        for match in [re.match(r"\s*(python -m )?repro ",
                                               line)]
                        if match and "serve-sim" in line]
            assert commands, source
            for argv in commands:
                _, rest = cli._global_parser().parse_known_args(argv)
                assert rest[0] == "serve-sim", argv
                cli._serve_sim_args(rest[1:])


class TestServeSimShardsCli:
    """The ``--shards N`` scale-out path and its exit-2 guard rails."""

    FAST = ["--requests", "200", "--replicas", "2", "--shards", "2",
            "--policy", "timeout"]

    def test_sharded_run_reports_aggregate_rows(self, capsys):
        assert main(["--json", "serve-sim", "steady", *self.FAST]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(r["scenario"], r["policy"]) for r in rows] == [
            ("steady", "timeout")
        ]
        assert rows[0]["shards"] == 2
        assert rows[0]["requests"] == 200
        assert rows[0]["agg_rps"] > 0
        assert 0 < rows[0]["p50_us"] <= rows[0]["p95_us"]

    def test_bare_shards_flag_implies_shard_dispatch(self, capsys):
        assert main(["serve-sim", "steady", *self.FAST]) == 0
        out = capsys.readouterr().out
        assert "(shard)" in out
        assert "scale-out:" in out
        assert "2 shard worker(s)" in out

    def test_default_grid_skips_fault_scenarios(self, capsys):
        assert main(["--json", "serve-sim", *self.FAST]) == 0
        rows = json.loads(capsys.readouterr().out)
        scenarios = {r["scenario"] for r in rows}
        assert "failure-storm" not in scenarios
        assert "steady" in scenarios

    def test_bad_shard_count_rejected(self, capsys):
        assert main(["serve-sim", "--shards", "0"]) == 2
        assert main(["serve-sim", "--shards", "lots"]) == 2
        assert main(["serve-sim", "--shards"]) == 2

    def test_more_shards_than_replicas_rejected(self, capsys):
        assert main(["serve-sim", "steady", "--shards", "3",
                     "--replicas", "2"]) == 2
        out = capsys.readouterr().out
        assert "home replica" in out
        assert "Traceback" not in out

    def test_unstable_dispatch_rejected(self, capsys):
        assert main(["serve-sim", "steady", "--dispatch",
                     "round_robin", *self.FAST]) == 2
        assert "shard-stable dispatch" in capsys.readouterr().out

    def test_unstable_control_plane_rejected(self, capsys):
        assert main(["serve-sim", "steady", "--steal",
                     *self.FAST]) == 2
        assert "stealing" in capsys.readouterr().out
        assert main(["serve-sim", "diurnal", "--autoscale", "1:4",
                     *self.FAST]) == 2
        assert "autoscale" in capsys.readouterr().out
        assert main(["serve-sim", "overload", "--slo", "1500",
                     "--shed", "32", *self.FAST]) == 2
        assert "shed" in capsys.readouterr().out
        assert main(["serve-sim", "steady", "--fail", "1",
                     *self.FAST]) == 2
        assert "fault-free" in capsys.readouterr().out

    def test_fault_scenario_rejected(self, capsys):
        assert main(["serve-sim", "failure-storm", *self.FAST]) == 2
        assert "not shard-stable" in capsys.readouterr().out

    def test_priority_flush_rejected(self, capsys):
        assert main(["serve-sim", "steady", "--flush", "edf",
                     "--priority", "ResNet50=2", "--slo", "2000",
                     *self.FAST]) == 2
        assert "fifo" in capsys.readouterr().out

    def test_persist_memo_rides_along(self, capsys, tmp_path,
                                      monkeypatch):
        from repro.runtime.cache import CACHE_DIR_ENV
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        args = ["serve-sim", "steady", "--persist-memo", *self.FAST]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "persisted memo: 0 totals loaded" in cold
        assert "warm fleet:" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 totals loaded" not in warm

    def test_sharded_trace_rows_are_shard_tagged(self, capsys,
                                                 tmp_path):
        from repro.serving import load_trace
        trace = tmp_path / "shards.jsonl"
        assert main(["serve-sim", "steady", "--trace", str(trace),
                     *self.FAST]) == 0
        assert "shard-tagged" in capsys.readouterr().out
        meta, rows = load_trace(trace)
        assert {r["shard"] for r in rows} == {0, 1}
        assert meta["counters"]["arrivals"] == 200


class TestRunsAndCacheCli:
    def test_runs_lists_the_ledger(self, capsys):
        assert main(["tab2"]) == 0
        capsys.readouterr()
        assert main(["runs"]) == 0
        out = capsys.readouterr().out
        assert "tab2" in out

    def test_runs_json_and_limit(self, capsys):
        main(["tab2"])
        main(["tab1"])
        capsys.readouterr()
        assert main(["--json", "--limit", "1", "runs"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["experiment"] == "tab1"  # newest first

    def test_cache_stats_and_clear(self, capsys):
        main(["tab2"])
        capsys.readouterr()
        assert main(["cache"]) == 0
        assert "tab2" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 1 cache entry" in capsys.readouterr().out
        assert main(["cache"]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cache_unknown_subcommand(self, capsys):
        assert main(["cache", "explode"]) == 2

    def test_runs_rejects_positional_arguments(self, capsys):
        # `runs 5` is a natural typo for `runs --limit 5`
        assert main(["runs", "5"]) == 2
        assert "--limit" in capsys.readouterr().out


class TestArrayDemoData:
    """The VTM/MRAM/SNM array demos validate Table 1 (Sec 5: <=14%)."""

    @pytest.mark.parametrize("name", ["VTM", "MRAM", "SNM"])
    def test_model_matches_published_demo(self, name):
        read, write = ARRAY_DEMO_DATA[name]
        tech = TABLE1[name]
        assert tech.read_latency == pytest.approx(read, rel=0.14)
        assert tech.write_latency == pytest.approx(write, rel=0.14)
