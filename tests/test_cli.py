"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.cli.main import build_parser
from repro.cli.commands import _parse_profile, _table
from repro.errors import ReproError
from repro.units import SECOND


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ("daemon", "latency-curve", "ablation", "rollout",
                        "thresholds", "microbench", "calibrate"):
            assert command in out


class TestProfileParsing:
    def test_parse(self):
        points = _parse_profile("0:85,8:75")
        assert points == [(0.0, 85.0), (8 * SECOND, 75.0)]

    def test_empty_rejected(self):
        with pytest.raises((ReproError, ValueError)):
            _parse_profile("")


class TestTable:
    def test_alignment(self, capsys):
        _table(("a", "bb"), [("1", "2"), ("333", "4")])
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4
        assert all(len(line) == len(out[0]) for line in out)


class TestCommands:
    def test_daemon_runs(self, capsys):
        assert main(["daemon", "--duration", "6", "--sustain", "1"]) == 0
        out = capsys.readouterr().out
        assert "transitions=" in out
        assert "prefetchers" in out

    def test_latency_curve_runs(self, capsys):
        assert main(["latency-curve", "--points", "3", "--hops", "60"]) == 0
        out = capsys.readouterr().out
        assert "HW on (ns)" in out
        assert "reduction at 90%" in out

    def test_ablation_runs(self, capsys):
        assert main(["ablation", "--machines", "4", "--epochs", "10",
                     "--warmup", "3"]) == 0
        out = capsys.readouterr().out
        assert "fleet throughput" in out
        assert "memcpy" in out

    def test_thresholds_runs(self, capsys):
        assert main(["thresholds", "--machines", "4", "--epochs", "10",
                     "--warmup", "3"]) == 0
        out = capsys.readouterr().out
        assert "60/80" in out
        assert "best configuration" in out

    def test_microbench_runs(self, capsys):
        """Rows come out fastest first by value: +107% above +67%, which
        a sort on the formatted text would invert."""
        assert main(["microbench", "--distances", "128,512",
                     "--degrees", "512"]) == 0
        out = capsys.readouterr().out
        assert "mean speedup" in out
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines)
                     if line.lstrip().startswith("---")) + 1
        speedups = [float(line.split()[-1].rstrip("%"))
                    for line in lines[start:] if line.strip()]
        assert len(speedups) == 2
        assert speedups == sorted(speedups, reverse=True)

    def test_rollout_runs(self, capsys):
        assert main(["rollout", "--machines", "6", "--epochs", "12",
                     "--warmup", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 16" in out
        assert "Figure 20" in out

    def test_calibrate_runs(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "memcpy" in out
        assert "recovery" in out


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "# Limoncello reproduction report" in out
        assert "Figure 10" in out
        assert "tax cycle share" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--quick", "--out", str(target)]) == 0
        assert "Loaded latency" in target.read_text()
        assert "wrote" in capsys.readouterr().out


class TestCheckpointCommands:
    SWEEP = ["sweep", "--machines", "9", "--shard-size", "3"]

    def test_sweep_reports_queue_disposition(self, tmp_path, capsys):
        assert main(self.SWEEP + ["--checkpoint-dir", str(tmp_path)]) == 0
        assert "0/3 shards restored, 3 computed" in capsys.readouterr().out
        assert main(self.SWEEP + ["--checkpoint-dir", str(tmp_path),
                                  "--resume"]) == 0
        assert "3/3 shards restored, 0 computed" in capsys.readouterr().out

    def test_resume_without_directory_fails_fast(self, monkeypatch, capsys):
        from repro.fleet.queue import CHECKPOINT_ENV_VAR
        monkeypatch.delenv(CHECKPOINT_ENV_VAR, raising=False)
        assert main(self.SWEEP + ["--resume"]) == 2
        assert capsys.readouterr().out == ""  # nothing ran

    def test_chaos_journals_and_resumes(self, tmp_path, monkeypatch,
                                        capsys):
        from repro.fleet.ablation import AblationStudy

        chaos = ["chaos", "--machines", "4", "--shard-size", "2",
                 "--epochs", "4", "--warmup", "1",
                 "--fault-plan", "telemetry-drop:rate=0.2",
                 "--checkpoint-dir", str(tmp_path)]
        assert main(chaos) == 0
        first = capsys.readouterr().out
        computed = []
        original = AblationStudy._run_single
        monkeypatch.setattr(
            AblationStudy, "_run_single",
            lambda study, tracer=None: computed.append(study) or original(
                study, tracer))
        assert main(chaos + ["--resume"]) == 0
        assert capsys.readouterr().out == first
        assert computed == []  # every shard of both legs was restored

    def test_queue_status_command(self, tmp_path, capsys):
        assert main(self.SWEEP + ["--checkpoint-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["queue", "--checkpoint-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "micro-sweep" in out
        assert "shard tasks" in out

    def test_queue_without_directory_fails_fast(self, monkeypatch, capsys):
        from repro.fleet.queue import CHECKPOINT_ENV_VAR
        monkeypatch.delenv(CHECKPOINT_ENV_VAR, raising=False)
        assert main(["queue"]) == 2
        assert capsys.readouterr().out == ""


class TestCacheCommand:
    def test_inspect_and_prune(self, tmp_path, capsys):
        assert main(["ablation", "--machines", "4", "--epochs", "10",
                     "--warmup", "3", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "stores" in out
        assert main(["cache", "--cache-dir", str(tmp_path),
                     "--prune", "0"]) == 0
        assert "pruned 1 entry" in capsys.readouterr().out

    def test_cache_without_directory_fails_fast(self, monkeypatch, capsys):
        from repro.fleet.result_cache import CACHE_ENV_VAR
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert main(["cache"]) == 2
        assert capsys.readouterr().out == ""


class TestAdaptiveCommand:
    def test_adaptive_ablation_prints_verdicts(self, capsys):
        assert main(["ablation", "--adaptive", "--machines", "12",
                     "--epochs", "10", "--warmup", "3",
                     "--shard-size", "4", "--margin", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "adaptive ablation over arms: off, control" in out
        assert "ranking:" in out
        assert "exhaustive" in out

    def test_adaptive_rejects_bad_arms(self, capsys):
        assert main(["ablation", "--adaptive", "--arms", "off"]) == 2
        assert "at least two arms" in capsys.readouterr().err


class TestScenarioCommands:
    CALLGRAPH = ["scenario", "callgraph",
                 "--services", "edge:mixed:2:8>leaf*2;leaf:random:1:6",
                 "--requests", "6"]
    NOISY = ["scenario", "noisy", "--machines", "3", "--epochs", "4",
             "--tenants", "lat:stream:6,bat:random:10",
             "--sustain-ns", "20000"]

    def test_callgraph_reports_slo(self, capsys):
        assert main(self.CALLGRAPH + ["--compare-serial"]) == 0
        out = capsys.readouterr().out
        assert "end-to-end SLO at 'edge'" in out
        assert "p99" in out
        assert "result digest:" in out
        assert "serial-equivalence check: OK" in out

    def test_noisy_reports_tenants_and_duty_cycle(self, capsys):
        assert main(self.NOISY + ["--baseline", "--compare-serial"]) == 0
        out = capsys.readouterr().out
        assert "lat" in out and "bat" in out
        assert "bw share" in out
        assert "prefetchers-disabled duty cycle:" in out
        assert "versus always-enabled twin" in out
        assert "serial-equivalence check: OK" in out

    def test_noisy_policy_mode(self, capsys):
        assert main(self.NOISY + ["--mode", "policy",
                                  "--policy", "hysteresis"]) == 0
        assert "mode=policy" in capsys.readouterr().out

    def test_noisy_policy_needs_policy_mode(self, capsys):
        assert main(self.NOISY + ["--policy", "bandit"]) == 2
        assert main(self.NOISY + ["--mode", "policy"]) == 2
        assert capsys.readouterr().out == ""

    def test_callgraph_checkpoint_disposition(self, tmp_path, capsys):
        assert main(self.CALLGRAPH
                    + ["--checkpoint-dir", str(tmp_path)]) == 0
        assert "0/2 shards restored, 2 computed" in capsys.readouterr().out
        assert main(self.CALLGRAPH + ["--checkpoint-dir", str(tmp_path),
                                      "--resume"]) == 0
        assert "2/2 shards restored, 0 computed" in capsys.readouterr().out

    def test_sweep_scenario_trace(self, capsys):
        assert main(["sweep", "--machines", "2", "--scale", "0.25",
                     "--trace", "scenario", "--compare-serial"]) == 0
        assert "serial-equivalence check: OK" in capsys.readouterr().out


class TestErrorBoundary:
    """Invalid input exits 2 with one ``repro: error:`` stderr line."""

    def test_zero_machines_exits_2_without_traceback(self):
        env = dict(os.environ, PYTHONPATH="src")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "ablation", "--machines", "0"],
            capture_output=True, text=True, env=env, check=False)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "repro: error: need at least one machine"]

    def test_callgraph_cycle_exits_2(self, capsys):
        assert main(["scenario", "callgraph", "--services",
                     "a:stream:1:8>b*1;b:random:1:8>a*1"]) == 2
        assert "cycle" in capsys.readouterr().err

    def test_message_is_the_last_stderr_line(self, capsys):
        assert main(["sweep", "--machines", "2", "--scale", "0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("repro: error: ")
        assert "scale must be positive" in err[-1]

    NOISY = ["scenario", "noisy", "--machines", "2", "--epochs", "2"]

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--machines", "2", "--resume"],
         "--resume needs a checkpoint directory"),
        (["chaos", "--machines", "2"], "chaos needs a fault plan"),
        (["queue"], "no checkpoint directory"),
        (["cache"], "no cache directory"),
        (["policy", "compare", "--policies", ""],
         "--policies cannot be empty"),
        (["policy", "compare", "--policies", "nope"],
         "unknown policy 'nope'"),
        (NOISY + ["--policy", "bandit"], "need --mode policy"),
        (NOISY + ["--mode", "policy"], "--mode policy needs --policy"),
        (["daemon", "--profile", ""], "empty bandwidth profile"),
        (["daemon", "--profile", "x"], "profile point 'x'"),
        (["microbench", "--distances", "abc"],
         "--distances must be comma-separated integers"),
        (["latency-curve", "--points", "1"], "--points must be at least 2"),
    ], ids=["resume-without-journal", "chaos-without-plan",
            "queue-without-journal", "cache-without-directory",
            "empty-policies", "unknown-policy", "policy-without-mode",
            "mode-without-policy", "empty-profile", "bad-profile",
            "bad-distances", "one-point-curve"])
    def test_input_error_exits_2(self, argv, message, monkeypatch, capsys):
        for name in list(os.environ):
            if name.startswith("REPRO_"):
                monkeypatch.delenv(name)
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("repro: error: ")
        assert message in err[-1]


#: The seven study subcommands, which share the six runner flags.
STUDY_COMMANDS = (["ablation"], ["rollout"], ["sweep"], ["chaos"],
                  ["policy", "compare"], ["scenario", "callgraph"],
                  ["scenario", "noisy"])


class TestRunFlags:
    @pytest.mark.parametrize("command", STUDY_COMMANDS, ids="-".join)
    def test_study_subcommands_take_the_six_run_flags(self, command):
        args = build_parser().parse_args(command + [
            "--workers", "3", "--cache-dir", "C", "--checkpoint-dir", "J",
            "--resume", "--fault-plan", "telemetry-drop:rate=0.1",
            "--obs-dir", "O"])
        assert (args.workers, args.cache_dir, args.checkpoint_dir,
                args.resume, args.fault_plan, args.obs_dir) == (
            3, "C", "J", True, "telemetry-drop:rate=0.1", "O")

    @pytest.mark.parametrize("command", STUDY_COMMANDS, ids="-".join)
    def test_engine_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--engine", "scalar"])
        assert exit_info.value.code == 2
        assert "--engine" in capsys.readouterr().err


class TestBatchSizeFlag:
    """``--batch-size`` is the one engine knob: 0 is the scalar engine,
    N pins lockstep batches of N, unset defers to $REPRO_BATCH, then to
    the cost model with batches of 32."""

    SWEEP = ["sweep", "--machines", "2", "--scale", "0.1"]

    def engine_line(self, argv, capsys):
        assert main(self.SWEEP + argv) == 0
        return next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("engine: "))

    @pytest.fixture(autouse=True)
    def _no_batch_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)

    def test_zero_is_the_scalar_engine(self, capsys):
        assert self.engine_line(["--batch-size", "0"], capsys).startswith(
            "engine: 0/2 arm-runs batched (0 lockstep groups); 2 scalar")

    def test_size_pins_lockstep_batches(self, capsys):
        assert self.engine_line(["--batch-size", "1"], capsys) == (
            "engine: 2/2 arm-runs batched (2 lockstep groups)")

    def test_explicit_size_outranks_env(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BATCH", "0")
        assert self.engine_line(["--batch-size", "2"], capsys) == (
            "engine: 2/2 arm-runs batched (1 lockstep groups)")

    def test_unset_defers_to_env_then_default(self, monkeypatch, capsys):
        # Two cold arms sit below the cost model's crossover.
        assert self.engine_line([], capsys) == (
            "engine: 0/2 arm-runs batched (0 lockstep groups); "
            "2 scalar: below-crossover=2")
        monkeypatch.setenv("REPRO_BATCH", "1")
        assert self.engine_line([], capsys) == (
            "engine: 2/2 arm-runs batched (2 lockstep groups)")


def _manifest_run(run_dir):
    return json.loads((run_dir / "manifest.json").read_text())["run"]


class TestOneRunDirectoryPerLeg:
    """No two legs of one command share a run directory."""

    FLEET = ["--machines", "3", "--epochs", "4", "--warmup", "1"]

    def test_policy_compare_writes_one_directory_per_leg(self, tmp_path):
        assert main(["policy", "compare", "--policies",
                     "hysteresis,single-threshold", *self.FLEET,
                     "--fault-plan", "telemetry-drop:rate=0.1",
                     "--obs-dir", str(tmp_path)]) == 0
        legs = {"hysteresis", "hysteresis-faulted", "single-threshold",
                "single-threshold-faulted"}
        assert {path.name for path in tmp_path.iterdir()} == legs
        for leg in legs:
            run = _manifest_run(tmp_path / leg)
            assert run["material"]["policy"]["kind"] == (
                leg.removesuffix("-faulted"))
            assert (run["fault_plan"] is not None) == leg.endswith("-faulted")

    def test_noisy_baseline_twin_is_untraced(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(TestScenarioCommands.NOISY + ["--baseline"]) == 0
        assert _manifest_run(tmp_path)["material"]["mode"] == "hard"

    def test_thresholds_write_no_run_directory(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "obs"
        monkeypatch.setenv("REPRO_OBS_DIR", str(run_dir))
        assert main(["thresholds", *self.FLEET]) == 0
        assert not run_dir.exists()

    def test_report_writes_no_run_directory(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "obs"
        monkeypatch.setenv("REPRO_OBS_DIR", str(run_dir))
        assert main(["report", "--quick"]) == 0
        assert not run_dir.exists()


class TestCompareSerial:
    def test_chaos_serial_leg_recomputes_every_shard(self, tmp_path,
                                                     monkeypatch, capsys):
        """With the cache and journal exported, the serial leg must still
        compute every shard, not replay the first leg's stores."""
        from repro.fleet.ablation import AblationStudy

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CHECKPOINT", str(tmp_path / "journal"))
        calls = []
        original = AblationStudy._run_single

        def counting(study, tracer=None):
            calls.append(study.machines)
            return original(study, tracer)

        monkeypatch.setattr(AblationStudy, "_run_single", counting)
        assert main(["chaos", "--machines", "4", "--shard-size", "2",
                     "--epochs", "6", "--warmup", "2", "--workers", "1",
                     "--fault-plan", "seed=2;telemetry-drop:rate=0.2",
                     "--compare-serial"]) == 0
        assert "serial-equivalence check: OK" in capsys.readouterr().out
        # Faulted study and inert twin, two shards each, in both legs.
        assert calls == [2] * 8
