from __future__ import annotations

import json
import tracemalloc

import pytest

from helpers import independent_spec, linear_spec, sequence
from psrkit import (
    AssemblyState,
    Detection,
    DetectionFrame,
    ErrorInjection,
    EventSource,
    SimConfig,
    iter_stream,
    sample_execution,
    simulate,
)
from psrkit.cli import main
from psrkit.formats import (
    FileManifest,
    load_builtin_procedure,
    read_ground_truth,
    write_ground_truth,
    write_procedure,
    write_scenario,
    write_stream,
)

CAR = "industreal_car_assembly"


def make_scenario_files(tmp_path, seed=5, injection=ErrorInjection(), noiseless=True, rid=None):
    spec = load_builtin_procedure(CAR)
    cfg = SimConfig.noiseless(seed=seed) if noiseless else SimConfig(seed=seed)
    scenario = simulate(spec, injection, cfg, recording_id=rid)
    return spec, scenario, write_scenario(tmp_path, scenario, spec, cfg, injection)


class TestValidate:
    def test_valid_files_quiet(self, tmp_path, capsys):
        spec_path = tmp_path / "car.json"
        write_procedure(spec_path, load_builtin_procedure(CAR))
        _, _, paths = make_scenario_files(tmp_path)
        rc = main(["validate", str(spec_path), str(paths["stream"]), str(paths["scenario"])])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == ""
        assert captured.err == ""

    def test_bad_stream_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.stream.jsonl"
        manifest = json.dumps(
            {"format_version": "1.0.0", "kind": "stream", "recording_id": "r", "fps": 10.0}
        )
        path.write_text(
            manifest + "\n" + '{"frame":0,"detections":[{"state":"0,0","conf":1.7}]}\n',
            encoding="utf-8",
        )
        rc = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert ":2:" in captured.err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["validate", str(tmp_path / "nope.jsonl")])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err

    def test_ground_truth_with_spec(self, tmp_path):
        _, _, paths = make_scenario_files(tmp_path)
        assert main(["validate", "--spec", CAR, str(paths["ground_truth"])]) == 0


class TestRun:
    def test_b1_noiseless_matches_ground_truth_file(self, tmp_path, capsys):
        spec, scenario, paths = make_scenario_files(tmp_path)
        out = tmp_path / "pred.jsonl"
        rc = main(
            ["run", "--baseline", "b1", "--spec", CAR,
             "--stream", str(paths["stream"]), "--out", str(out)]
        )
        assert rc == 0
        pred_lines = out.read_text(encoding="utf-8").splitlines()
        gt_lines = paths["ground_truth"].read_text(encoding="utf-8").splitlines()
        assert pred_lines[1:] == gt_lines[1:]  # identical modulo manifest
        manifest, predicted = read_ground_truth(out, spec)
        assert manifest.source is EventSource.RECOGNIZED
        assert predicted.action_ids() == scenario.ground_truth.action_ids()

    def test_b3_guard_yields_empty_prediction(self, tmp_path):
        spec = linear_spec(3)
        spec_path = tmp_path / "chain.json"
        write_procedure(spec_path, spec)
        stream_path = tmp_path / "odd.stream.jsonl"
        unexpected = AssemblyState.from_values([0, 1, 0])
        frames = [
            DetectionFrame(i, i / 10.0, (Detection(unexpected, 1.0),)) for i in range(40)
        ]
        write_stream(
            stream_path, FileManifest(kind="stream", recording_id="odd", fps=10.0), frames
        )
        out = tmp_path / "pred.jsonl"
        rc = main(
            ["run", "--baseline", "b3", "--spec", str(spec_path),
             "--stream", str(stream_path), "--out", str(out)]
        )
        assert rc == 0
        _, predicted = read_ground_truth(out, spec)
        assert predicted.events == ()

    def test_unknown_baseline(self, tmp_path, capsys):
        rc = main(
            ["run", "--baseline", "b9", "--spec", CAR,
             "--stream", "s.jsonl", "--out", "p.jsonl"]
        )
        assert rc == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_threshold_flag_reaches_recognizer(self, tmp_path):
        spec, scenario, paths = make_scenario_files(tmp_path, seed=8)
        out = tmp_path / "pred.jsonl"
        # impossible accumulation threshold: b2 never fires
        rc = main(
            ["run", "--baseline", "b2", "--spec", CAR, "--stream", str(paths["stream"]),
             "--out", str(out), "--threshold", "1e9"]
        )
        assert rc == 0
        _, predicted = read_ground_truth(out, spec)
        assert predicted.events == ()

    def test_stream_width_checked_against_spec(self, tmp_path, capsys):
        _, _, paths = make_scenario_files(tmp_path)
        spec_path = tmp_path / "wide.json"
        write_procedure(spec_path, independent_spec(15))
        out = tmp_path / "pred.jsonl"
        rc = main(
            ["run", "--baseline", "b1", "--spec", str(spec_path),
             "--stream", str(paths["stream"]), "--out", str(out)]
        )
        assert rc == 1
        lines = paths["stream"].read_text(encoding="utf-8").splitlines()
        first = next(n for n, line in enumerate(lines, start=1) if '"state"' in line)
        err = capsys.readouterr().err
        assert f"{paths['stream']}:{first}: state has 11 components" in err
        assert "expects 15" in err
        assert not out.exists()

    def test_run_memory_does_not_grow_with_the_stream(self, tmp_path):
        spec = load_builtin_procedure(CAR)
        cfg = SimConfig(seed=21, misclass_prob=0.05)
        _, timeline = sample_execution(spec, cfg=cfg)
        stream_path = tmp_path / "long.stream.jsonl"
        write_stream(
            stream_path,
            FileManifest(kind="stream", recording_id="long", fps=cfg.fps),
            iter_stream(timeline, cfg, n_frames=20_000),
        )
        argv = ["run", "--baseline", "b3", "--spec", CAR,
                "--stream", str(stream_path), "--out", str(tmp_path / "pred.jsonl")]
        tracemalloc.start()
        try:
            rc = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 2 * 1024 * 1024, f"peak {peak / 1e6:.2f} MB"


class TestEval:
    def test_perfect_prediction_to_stdout(self, tmp_path, capsys):
        spec, scenario, paths = make_scenario_files(tmp_path)
        pred = tmp_path / "pred.jsonl"
        write_ground_truth(pred, scenario.ground_truth, spec, source=EventSource.RECOGNIZED)
        rc = main(
            ["eval", "--spec", CAR, "--gt", str(paths["ground_truth"]), "--pred", str(pred)]
        )
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert (row["pos"], row["f1"], row["tau_s"]) == (1.0, 1.0, 0.0)

    def test_reference_reordered_prediction(self, tmp_path, capsys):
        spec = linear_spec(4)
        spec_path = tmp_path / "chain.json"
        write_procedure(spec_path, spec)
        gt = sequence("rec", [("a0", 5, 0), ("a1", 10, 1), ("a2", 15, 2), ("a3", 20, 3)])
        pred = sequence(
            "rec",
            [("a0", 5, 0), ("a1", 10, 1), ("a3", 20, 3), ("a2", 25, 2)],
            source=EventSource.RECOGNIZED,
        )
        gt_path, pred_path = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
        write_ground_truth(gt_path, gt, spec)
        write_ground_truth(pred_path, pred, spec)
        rc = main(
            ["eval", "--spec", str(spec_path), "--gt", str(gt_path), "--pred", str(pred_path)]
        )
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert row["pos"] == 0.75
        assert row["f1"] == 1.0
        assert row["tau_s"] == pytest.approx(2.5)

    def test_mismatched_recording_ids(self, tmp_path, capsys):
        spec, scenario, paths = make_scenario_files(tmp_path)
        other = simulate(
            spec, cfg=SimConfig.noiseless(seed=6), recording_id="different"
        )
        pred = tmp_path / "pred.jsonl"
        write_ground_truth(pred, other.ground_truth, spec)
        rc = main(
            ["eval", "--spec", CAR, "--gt", str(paths["ground_truth"]), "--pred", str(pred)]
        )
        assert rc == 1
        assert "recording mismatch" in capsys.readouterr().err

    def test_report_file_output(self, tmp_path):
        spec, scenario, paths = make_scenario_files(tmp_path)
        pred = tmp_path / "pred.jsonl"
        write_ground_truth(pred, scenario.ground_truth, spec, source=EventSource.RECOGNIZED)
        out = tmp_path / "report.csv"
        rc = main(
            ["eval", "--spec", CAR, "--gt", str(paths["ground_truth"]),
             "--pred", str(pred), "--out", str(out), "--format", "csv"]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 4  # header + recording + ALL + ERRORS_ONLY marker


class TestSimulateCommand:
    def test_same_seed_is_byte_identical(self, tmp_path):
        dirs = [tmp_path / "one", tmp_path / "two"]
        for directory in dirs:
            rc = main(
                ["simulate", "--spec", CAR, "--seed", "42", "--out-dir", str(directory)]
            )
            assert rc == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_omit_excludes_action(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(
            ["simulate", "--spec", CAR, "--seed", "1", "--out-dir", str(out),
             "--omit", "install_front_bracket", "--omit", "install_front_bracket_screw",
             "--noiseless"]
        )
        assert rc == 0
        spec = load_builtin_procedure(CAR)
        gt_path = next(out.glob("*.gt.jsonl"))
        _, gt = read_ground_truth(gt_path, spec)
        assert "install_front_bracket" not in gt.action_ids()
        assert len(gt.events) == 8

    def test_invalid_config_probability(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"detect_prob": 1.5}', encoding="utf-8")
        rc = main(
            ["simulate", "--spec", CAR, "--seed", "1", "--config", str(config),
             "--out-dir", str(tmp_path / "sim")]
        )
        assert rc == 1
        assert "detect_prob" in capsys.readouterr().err

    def test_config_file_fields_apply(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text('{"detect_prob": 0.0, "fps": 5.0}', encoding="utf-8")
        out = tmp_path / "sim"
        rc = main(
            ["simulate", "--spec", CAR, "--seed", "2", "--config", str(config),
             "--out-dir", str(out), "--recording-id", "quiet"]
        )
        assert rc == 0
        document = json.loads((out / "quiet.scenario.json").read_text(encoding="utf-8"))
        assert document["config"]["detect_prob"] == 0.0
        assert document["fps"] == 5.0


class TestBench:
    def _populate(self, runs, specs=5, with_errors=2):
        spec = load_builtin_procedure(CAR)
        runs.mkdir()
        for i in range(specs):
            injection = (
                ErrorInjection(incorrect=frozenset({"install_rear_chassis"}))
                if i < with_errors
                else ErrorInjection()
            )
            cfg = SimConfig.noiseless(seed=100 + i)
            scenario = simulate(spec, injection, cfg, recording_id=f"rec{i:02d}")
            write_ground_truth(runs / f"rec{i:02d}.gt.jsonl", scenario.ground_truth, spec)
            from psrkit import BaselineConfig, Variant, run_baseline

            predicted = run_baseline(
                BaselineConfig(Variant.B1), spec, scenario.stream, cfg.fps, f"rec{i:02d}"
            )
            write_ground_truth(
                runs / f"rec{i:02d}.pred.jsonl", predicted, spec,
                source=EventSource.RECOGNIZED,
            )
        return spec

    def test_bench_report_shape(self, tmp_path):
        runs = tmp_path / "runs"
        self._populate(runs)
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--spec", CAR, "--runs", str(runs), "--out", str(out)])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 8  # header + 5 recordings + ALL + ERRORS_ONLY
        assert [line.split(",")[0] for line in lines[1:6]] == [
            f"rec{i:02d}" for i in range(5)
        ]

    def test_bench_without_errors_marks_empty_row(self, tmp_path):
        runs = tmp_path / "runs"
        self._populate(runs, specs=2, with_errors=0)
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--spec", CAR, "--runs", str(runs), "--out", str(out)])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[-1].startswith("ERRORS_ONLY,")
        assert lines[-1] == "ERRORS_ONLY" + "," * 9

    def test_empty_directory(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        runs.mkdir()
        rc = main(["bench", "--spec", CAR, "--runs", str(runs), "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "no *.gt.jsonl" in capsys.readouterr().err

    def test_missing_prediction_file(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        self._populate(runs, specs=1, with_errors=0)
        (runs / "rec00.pred.jsonl").unlink()
        rc = main(["bench", "--spec", CAR, "--runs", str(runs), "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "no matching prediction" in capsys.readouterr().err


class TestCrossProcessDeterminism:
    def test_simulate_bytes_stable_under_hash_randomization(self, tmp_path):
        import os
        import subprocess
        import sys

        outputs = []
        for hash_seed, sub_dir in (("0", "a"), ("12345", "b")):
            out_dir = tmp_path / sub_dir
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            subprocess.run(
                [sys.executable, "-m", "psrkit.cli", "simulate", "--spec", CAR,
                 "--seed", "9", "--out-dir", str(out_dir),
                 "--incorrect", "install_front_chassis"],
                check=True, env=env, capture_output=True,
            )
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            )
        assert outputs[0] == outputs[1]


class TestComposition:
    def test_simulate_run_eval_pipeline(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        assert (
            main(["simulate", "--spec", CAR, "--seed", "33", "--noiseless",
                  "--out-dir", str(out_dir), "--recording-id", "pipe"]) == 0
        )
        capsys.readouterr()
        pred = tmp_path / "pipe.pred.jsonl"
        assert (
            main(["run", "--baseline", "b1", "--spec", CAR,
                  "--stream", str(out_dir / "pipe.stream.jsonl"), "--out", str(pred)]) == 0
        )
        assert (
            main(["eval", "--spec", CAR, "--gt", str(out_dir / "pipe.gt.jsonl"),
                  "--pred", str(pred)]) == 0
        )
        row = json.loads(capsys.readouterr().out)
        assert (row["pos"], row["f1"], row["tau_s"]) == (1.0, 1.0, 0.0)
        assert (row["tp"], row["fp"], row["fn"]) == (10, 0, 0)


class TestUsage:
    def test_missing_required_flag(self, capsys):
        assert main(["run", "--baseline", "b1"]) == 1
        assert "required" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
