"""Tests for the command-line interface."""

import pytest

from repro import api
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_optimize_args(self):
        args = build_parser().parse_args(
            ["optimize", "mcf", "--machine", "intel-i7-2600k", "--scale", "0.2"]
        )
        assert args.workload == "mcf"
        assert args.machine == "intel-i7-2600k"
        assert args.scale == 0.2

    def test_unknown_machine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize", "mcf", "--machine", "sparc"])

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_fault_tolerance_flags(self):
        args = build_parser().parse_args(
            [
                "simulate", "mcf", "--retries", "4",
                "--cell-timeout", "30", "--best-effort",
            ]
        )
        assert args.retries == 4
        assert args.cell_timeout == 30.0
        assert args.strict is False

    def test_strict_is_default_and_exclusive(self):
        assert build_parser().parse_args(["simulate", "mcf"]).strict is True
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "mcf", "--strict", "--best-effort"])


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "libquantum" in out
        assert "cg" in out  # parallel section

    def test_optimize_small(self, capsys):
        assert main(["optimize", "libquantum", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "prefetches inserted" in out

    @pytest.mark.parametrize("kind", ["swnt", "sw"])
    def test_optimize_prints_the_plan_simulate_runs(self, capsys, kind):
        # The same profile and plan as the cell: the runner's sampling
        # pass and api.plan, for the default (NTA) and --no-bypass kinds.
        argv = ["optimize", "lbm", "--machine", "amd-phenom-ii", "--scale", "0.05"]
        assert main(argv + (["--no-bypass"] if kind == "sw" else [])) == 0
        spec = api.ExperimentSpec("lbm", "amd-phenom-ii", kind, "ref", 0.05)
        assert capsys.readouterr().out == (
            f"{api.profile(spec).sampling.describe()}\n{api.plan(spec).summary()}\n"
        )

    def test_optimize_emit_asm(self, capsys):
        assert main(["optimize", "libquantum", "--scale", "0.05", "--emit-asm"]) == 0
        out = capsys.readouterr().out
        assert ".program libquantum" in out
        assert "prefetch" in out

    def test_simulate_small(self, capsys):
        code = main(
            ["simulate", "omnetpp", "--scale", "0.05", "--configs", "swnt"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "swnt" in out

    def test_mrc_small(self, capsys):
        assert main(["mrc", "mcf", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "miss-ratio curves" in out

    def test_unknown_workload_is_clean_error(self, capsys):
        assert main(["optimize", "notabench", "--scale", "0.05"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_experiment_fig3(self, capsys):
        assert main(["experiment", "fig3", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Miss Ratio Modeling" in out


    def test_characterize_small(self, capsys):
        assert main(["characterize", "cigar", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "footprint" in out and "per-instruction" in out


class TestFaultToleranceCli:
    @pytest.fixture(autouse=True)
    def _clean_faults(self):
        from repro import faults
        from repro.experiments import runner

        faults.disarm()
        runner.clear_memo()
        yield
        faults.disarm()

    def _poison(self, config):
        from repro import faults

        faults.arm(
            "worker.compute",
            "raise",
            match=lambda s: getattr(s, "config", None) == config,
        )

    def test_best_effort_renders_survivors_and_exits_3(self, capsys):
        self._poison("swnt")
        code = main(
            [
                "simulate", "omnetpp", "--scale", "0.05",
                "--configs", "hw,swnt", "--no-cache",
                "--best-effort", "--retries", "0",
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "baseline" in captured.out and "failed" in captured.out
        assert "cell(s) failed permanently" in captured.err
        assert "swnt" in captured.err

    def test_strict_failure_exits_2_with_table(self, capsys):
        self._poison("hw")
        code = main(
            [
                "simulate", "omnetpp", "--scale", "0.05",
                "--configs", "hw", "--no-cache", "--retries", "0",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "cell(s) failed permanently" in err

    def test_best_effort_lost_baseline_exits_3(self, capsys):
        self._poison("baseline")
        code = main(
            [
                "simulate", "omnetpp", "--scale", "0.05",
                "--configs", "hw", "--no-cache",
                "--best-effort", "--retries", "0",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "baseline cell failed" in err


class TestRunCli:
    """The journaled ``repro run`` command and its resume/list surface."""

    def test_run_parser_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workloads == "libquantum,mcf"
        assert args.resume is None
        assert args.run_id is None
        assert args.list_runs is False

    def test_cache_quota_size_suffixes(self):
        args = build_parser().parse_args(["run", "--cache-quota", "512M"])
        assert args.cache_quota == 512 * 1024 * 1024
        args = build_parser().parse_args(["simulate", "mcf", "--cache-quota", "2G"])
        assert args.cache_quota == 2 * 1024**3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--cache-quota", "lots"])

    def test_run_then_resume_bit_identical(self, tmp_path, capsys):
        import json

        from repro.experiments import runner

        runs = str(tmp_path / "runs")
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        common = [
            "run", "--workloads", "libquantum", "--configs", "baseline,swnt",
            "--scale", "0.05", "--no-cache", "--runs-dir", runs,
        ]
        assert main([*common, "--run-id", "r1", "--json-out", str(out1)]) == 0
        assert "run r1" in capsys.readouterr().out
        runner.clear_memo()
        assert main([*common, "--resume", "r1", "--json-out", str(out2)]) == 0
        a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert a["run_id"] == b["run_id"] == "r1"
        assert a["results"] == b["results"]

    def test_run_list(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        assert main([
            "run", "--workloads", "libquantum", "--configs", "baseline",
            "--scale", "0.05", "--no-cache", "--runs-dir", runs, "--run-id", "only",
        ]) == 0
        capsys.readouterr()
        assert main(["run", "--list", "--runs-dir", runs]) == 0
        assert "only" in capsys.readouterr().out

    def test_resume_unknown_run_is_clean_error(self, tmp_path, capsys):
        code = main([
            "run", "--resume", "ghost", "--no-cache",
            "--runs-dir", str(tmp_path / "runs"),
        ])
        assert code == 2
        assert "ghost" in capsys.readouterr().err


class TestCacheCli:
    """``repro cache verify|gc|stats``."""

    def _seed(self, tmp_path):
        from repro.api import ExperimentSpec
        from repro.cache import ResultCache
        from repro.experiments.runner import PROFILE_RATE, compute_run

        cache = ResultCache(tmp_path / "cache")
        spec = ExperimentSpec("libquantum", "amd-phenom-ii", "baseline", scale=0.05)
        cache.put_stats(spec, PROFILE_RATE, compute_run(spec))
        return cache, cache._path("stats", cache.stats_key(spec, PROFILE_RATE))

    def test_verify_clean_exits_0(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(["cache", "verify", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_verify_corrupt_quarantines_and_exits_1(self, tmp_path, capsys):
        import json

        _, path = self._seed(tmp_path)
        path.write_bytes(b"\x00garbage")
        report_path = tmp_path / "report.json"
        code = main([
            "cache", "verify", "--cache-dir", str(tmp_path / "cache"),
            "--json-out", str(report_path),
        ])
        assert code == 1
        assert "corrupt" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["corrupt"] == 1
        assert report["quarantined"]
        assert not path.exists()

    def test_gc_and_stats(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(["cache", "gc", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "cache gc:" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "stats" in out and "bytes" in out

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])


class TestInterruptedExitCode:
    def test_exit_interrupted_is_75(self):
        from repro.cli import EXIT_INTERRUPTED

        assert EXIT_INTERRUPTED == 75

    def test_run_interrupted_maps_to_75_with_hint(self, tmp_path, capsys, monkeypatch):
        from repro import api
        from repro.errors import RunInterrupted

        def _boom(*args, **kwargs):
            raise RunInterrupted("stopped", run_id="r9", done=1, total=4)

        monkeypatch.setattr(api, "run_journaled", _boom)
        code = main([
            "run", "--workloads", "libquantum", "--configs", "baseline",
            "--scale", "0.05", "--no-cache", "--runs-dir", str(tmp_path),
        ])
        assert code == 75
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume r9" in err
