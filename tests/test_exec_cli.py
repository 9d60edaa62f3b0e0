"""CLI surface of the parallel sweep executor and typed exit codes."""

import json
import os
import time

from repro.cli import main
from repro.obs.registry import RunRegistry


class TestSweepVerb:
    def test_parallel_sweep_matches_serial_bitwise(self, tmp_path):
        runs = str(tmp_path / "runs")
        base = ["--scale", "0.15", "--runs-dir", runs, "sweep",
                "--workloads", "H-Grep"]
        assert main(base + ["--jobs", "1", "--name", "serial"]) == 0
        assert main(base + ["--jobs", "2", "--name", "par"]) == 0
        registry = RunRegistry(runs)
        serial = registry.latest("sweep.serial")
        parallel = registry.latest("sweep.par")
        assert (
            json.dumps(serial.metrics, sort_keys=True)
            == json.dumps(parallel.metrics, sort_keys=True)
        )
        assert parallel.kind == "sweep"
        # Telemetry is quarantined in timings, never in metrics.
        assert parallel.timings["exec.jobs"] == 2.0
        assert not any(k.startswith("exec.") for k in parallel.metrics)

    def test_resume_skips_completed_cells(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        base = ["--scale", "0.15", "--runs-dir", runs, "sweep",
                "--workloads", "H-Grep", "--name", "r"]
        assert main(base + ["--jobs", "2"]) == 0
        capsys.readouterr()
        assert main(base + ["--jobs", "2", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint: 1" in out
        assert "cell executions: 0" in out

    def test_checkpoint_laid_out_under_sweeps(self, tmp_path):
        runs = str(tmp_path / "runs")
        assert main(["--scale", "0.15", "--runs-dir", runs, "sweep",
                     "--workloads", "H-Grep", "--name", "ck"]) == 0
        sweeps = os.listdir(os.path.join(runs, "sweeps"))
        assert len(sweeps) == 1
        assert sweeps[0].startswith("ck-")
        inside = os.listdir(os.path.join(runs, "sweeps", sweeps[0]))
        assert {"manifest.json", "journal.jsonl", "snapshot.json"} <= set(inside)

    def test_sweep_json_mode(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        assert main(["--scale", "0.15", "--runs-dir", runs, "sweep",
                     "--workloads", "H-Grep", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "sweep"
        assert any(k.startswith("H-Grep.e5645.") for k in payload["metrics"])

    def test_pooled_sweep_kills_a_hung_cell_without_cell_timeout(
            self, tmp_path, monkeypatch):
        """No --cell-timeout: a pooled sweep's hung cell is still killed.

        The default deadline is shortened to 5 s and the one cell's
        first attempt sleeps 12 s; the supervisor must kill it and run
        it again.  Pooled sweeps only: the serial path (``--jobs 1``)
        has no per-cell deadline yet.
        """
        from repro.exec import cells, supervisor

        characterize = cells.characterize_cell
        marker = str(tmp_path / "hung-once")

        def hang_once(spec):
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return characterize(spec)
            time.sleep(12.0)
            return characterize(spec)

        # Workers are forked, so they resolve the patched cell function.
        monkeypatch.setattr(cells, "characterize_cell", hang_once)
        monkeypatch.setattr(supervisor, "DEFAULT_CELL_TIMEOUT", 5.0)
        runs = str(tmp_path / "runs")
        assert main(["--scale", "0.15", "--runs-dir", runs, "sweep",
                     "--workloads", "H-Grep", "--jobs", "2"]) == 0
        record = RunRegistry(runs).latest("sweep")
        assert record.timings["exec.timeouts"] == 1.0
        assert record.timings["exec.cells_ok"] == 1.0


class TestFigureJobs:
    def test_fig2_jobs2_matches_jobs1_and_resumes(self, tmp_path):
        serial_runs = str(tmp_path / "serial")
        parallel_runs = str(tmp_path / "parallel")
        fig2 = ["--scale", "0.1", "--runs-dir"]
        assert main(fig2 + [serial_runs, "fig", "2", "--jobs", "1"]) == 0
        assert main(fig2 + [parallel_runs, "fig", "2", "--jobs", "2"]) == 0
        serial = RunRegistry(serial_runs).latest("fig2")
        parallel = RunRegistry(parallel_runs).latest("fig2")
        assert (
            json.dumps(serial.metrics, sort_keys=True)
            == json.dumps(parallel.metrics, sort_keys=True)
        )
        assert parallel.timings["exec.jobs"] == 2.0
        assert parallel.timings["exec.cells_run"] == 17.0

        assert main(fig2 + [parallel_runs, "fig", "2", "--jobs", "2",
                            "--resume"]) == 0
        resumed = RunRegistry(parallel_runs).latest("fig2")
        assert resumed.timings["exec.cells_run"] == 0.0
        assert resumed.metrics == parallel.metrics


class TestTypedExitCodes:
    def test_unknown_workload_in_sweep(self, capsys):
        assert main(["sweep", "--workloads", "NoSuch"]) == 2
        assert "UnknownWorkloadError" in capsys.readouterr().err

    def test_unknown_platform(self, capsys):
        assert main(["sweep", "--workloads", "H-Grep",
                     "--platforms", "m1"]) == 2
        assert "InvalidParameterError" in capsys.readouterr().err

    def test_invalid_scale(self, capsys):
        assert main(["--scale", "-0.5", "list"]) == 2
        assert "InvalidParameterError" in capsys.readouterr().err

    def test_invalid_seed(self, capsys):
        assert main(["run", "H-Grep", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_invalid_jobs_and_cell_timeout(self, capsys):
        assert main(["sweep", "--workloads", "H-Grep", "--jobs", "0"]) == 2
        assert main(["sweep", "--workloads", "H-Grep",
                     "--cell-timeout", "0"]) == 2

    def test_missing_replay_file(self, capsys):
        assert main(["chaos", "--replay", "/nope/missing.json"]) == 2
        assert "ReplayFileError" in capsys.readouterr().err

    def test_malformed_replay_file(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.json")
        open(bad, "w").write("{ not json")
        assert main(["chaos", "--replay", bad]) == 2
        assert "ReplayFileError" in capsys.readouterr().err
