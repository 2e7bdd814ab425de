from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tracemalloc

import pytest

from helpers import independent_spec, linear_spec, maintenance_spec, sequence
from psrkit.baselines import Detection, DetectionFrame
from psrkit.cli import main
from psrkit.formats import (
    EventSource,
    FileManifest,
    load_builtin_procedure,
    read_ground_truth,
    write_ground_truth,
    write_procedure,
    write_scenario,
    write_stream,
)
from psrkit.model import (
    AssemblyState,
    ProceduralAction,
    ProcedureSpec,
    Transition,
)
from psrkit.simulate import ErrorInjection, SimConfig, iter_stream, sample_execution, simulate

CAR = "industreal_car_assembly"
NOISY = {"misclass_prob": 0.4, "error_fp_rate": 0.3}


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

    @pytest.mark.parametrize("initial_state", [0, [0, 0, 0]])
    def test_non_string_initial_state_is_a_format_error(self, tmp_path, capsys, initial_state):
        spec_path = tmp_path / "chain.json"
        write_procedure(spec_path, linear_spec(3))
        document = json.loads(spec_path.read_text(encoding="utf-8"))
        document["initial_state"] = initial_state
        spec_path.write_text(json.dumps(document), encoding="utf-8")
        _, _, paths = make_scenario_files(tmp_path)
        for argv in (
            ["validate", str(spec_path)],
            ["run", "--baseline", "b3", "--spec", str(spec_path),
             "--stream", str(paths["stream"]), "--out", str(tmp_path / "pred.jsonl")],
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert f"{spec_path}: 'initial_state' must be a state string" in err

    def test_invalid_procedure_names_every_diagnostic(self, tmp_path, capsys):
        # ProcedureSpec refuses the definition; the reader locates its message
        path = tmp_path / "bad.json"
        document = {
            "format_version": "1.0.0", "kind": "procedure", "id": "bad",
            "components": [{"index": 0, "name": "x"}, {"index": 1, "name": "y"}],
            "initial_state": "0,0,1",
            "actions": [
                {"id": "a", "component": 0, "transition": "install", "requires": ["b", "ghost"]},
                {"id": "b", "component": 1, "transition": "install", "requires": ["a"]},
            ],
        }
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"{path}: initial state has 3 components, expected 2; action 'a' requires "
            "unknown action 'ghost'; prerequisite graph contains a cycle\n"
        )

    def test_ground_truth_with_spec(self, tmp_path):
        _, _, paths = make_scenario_files(tmp_path)
        assert main(["validate", "--spec", CAR, str(paths["ground_truth"])]) == 0

    def test_step_file_width_fixed_by_first_row(self, tmp_path, capsys):
        path = tmp_path / "mixed.gt.jsonl"
        manifest = json.dumps(
            {"format_version": "1.0.0", "kind": "ground_truth", "recording_id": "r", "fps": 10.0}
        )
        rows = ['{"frame":0,"state":"0,0,0"}', '{"frame":5,"state":"1,0,0,0,0"}']
        path.write_text("\n".join([manifest, *rows]) + "\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert f"{path}:3: state width 5 differs from earlier width 3" in capsys.readouterr().err

    def test_scenario_config_must_be_finite(self, tmp_path, capsys):
        _, _, paths = make_scenario_files(tmp_path)
        document = json.loads(paths["scenario"].read_text(encoding="utf-8"))
        document["config"]["conf_mean"] = float("nan")
        paths["scenario"].write_text(json.dumps(document), encoding="utf-8")
        assert main(["validate", str(paths["scenario"])]) == 1
        assert "conf_mean must be finite, got nan" in capsys.readouterr().err

    def test_scenario_seed_must_be_finite(self, tmp_path, capsys):
        _, _, paths = make_scenario_files(tmp_path)
        document = json.loads(paths["scenario"].read_text(encoding="utf-8"))
        document["seed"] = document["config"]["seed"] = float("nan")
        paths["scenario"].write_text(json.dumps(document), encoding="utf-8")
        assert main(["validate", str(paths["scenario"])]) == 1
        assert "seed must be finite, got nan" in capsys.readouterr().err


NESTED = "[" * 100_000 + "]" * 100_000
LONG_INT = "1" * 5_000
UNDECODABLE = {  # value -> json's message for it
    NESTED: "maximum recursion depth exceeded while decoding a JSON array",
    LONG_INT: "Exceeds the limit (4300 digits) for integer string conversion",
}


class TestUndecodableJson:
    """Too deep a nesting or too long an integer is invalid JSON at its line: exit 1."""

    def assert_located(self, capsys, commands, location, value):
        for argv in commands:
            assert main(argv) == 1, argv[0]
            err = capsys.readouterr().err
            assert f"{location}: invalid JSON: {UNDECODABLE[value]}" in err, argv[0]

    @pytest.mark.parametrize("value", UNDECODABLE, ids=["nested", "long-int"])
    @pytest.mark.parametrize("field", ["frame", "conf"])
    def test_stream_line(self, tmp_path, capsys, value, field):
        fields = {"frame": "1", "conf": "0.5", field: value}
        path = tmp_path / "bad.stream.jsonl"
        path.write_text(
            FileManifest(kind="stream", recording_id="r", fps=10.0).to_json() + "\n"
            + '{"frame":0,"detections":[]}\n'
            + '{"frame":%(frame)s,"detections":[{"state":"0,0,0","conf":%(conf)s}]}\n' % fields,
            encoding="utf-8",
        )
        commands = [
            ["run", "--baseline", "b1", "--spec", CAR, "--stream", str(path),
             "--out", str(tmp_path / "pred.jsonl")],
            ["validate", str(path)],
        ]
        self.assert_located(capsys, commands, f"{path}:3", value)

    @pytest.mark.parametrize("value", UNDECODABLE, ids=["nested", "long-int"])
    def test_step_file_line(self, tmp_path, capsys, value):
        _, _, paths = make_scenario_files(tmp_path)
        path = paths["ground_truth"]
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = '{"frame":%s,"state":"1,0,0,0,0,0,0,0,0,0,0"}' % value
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        commands = [
            ["eval", "--spec", CAR, "--gt", str(path), "--pred", str(path)],
            ["validate", str(path)],
        ]
        self.assert_located(capsys, commands, f"{path}:3", value)

    @pytest.mark.parametrize("value", UNDECODABLE, ids=["nested", "long-int"])
    def test_spec_document(self, tmp_path, capsys, value):
        """The decoder gives no position here, so the document's first line is named."""
        _, _, paths = make_scenario_files(tmp_path)
        spec = tmp_path / "bad.json"
        spec.write_text('{"format_version": "1.0.0",\n"id": %s}\n' % value, encoding="utf-8")
        stream, gt = str(paths["stream"]), str(paths["ground_truth"])
        commands = [
            ["run", "--baseline", "b1", "--spec", str(spec), "--stream", stream,
             "--out", str(tmp_path / "pred.jsonl")],
            ["eval", "--spec", str(spec), "--gt", gt, "--pred", gt],
            ["validate", "--spec", str(spec), stream],
        ]
        self.assert_located(capsys, commands, f"{spec}:1", value)


class TestNonFiniteFrameTime:
    """A row whose time frame / fps overflows is rejected at its line: exit 1, never 2."""

    HUGE = "9" * 400  # past the float range on its own
    # (fps, frame): a frame past the float range, or a quotient that overflows
    CASES = [(10.0, HUGE), (1e-300, str(10**9))]

    def assert_located(self, capsys, commands, location):
        for argv in commands:
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert f"{location}: frame / fps is not a finite time" in err, argv

    @pytest.mark.parametrize("fps, frame", CASES, ids=["long-frame", "tiny-fps"])
    @pytest.mark.parametrize("row", [
        '{"frame":%s,"detections":[{"state":"0,0,0,0,0,0,0,0,0,0,0","conf":0.5}]}',
        '{"frame": %s, "detections": []}',
    ], ids=["writer-row", "other-row"])
    def test_stream_row(self, tmp_path, capsys, fps, frame, row):
        path = tmp_path / "bad.stream.jsonl"
        path.write_text(
            FileManifest(kind="stream", recording_id="r", fps=fps).to_json() + "\n"
            + '{"frame":0,"detections":[]}\n' + row % frame + "\n",
            encoding="utf-8",
        )
        commands = [
            ["run", "--baseline", "b2", "--spec", CAR, "--stream", str(path),
             "--out", str(tmp_path / "pred.jsonl")],
            ["validate", str(path)],
            ["validate", "--spec", CAR, str(path)],
        ]
        self.assert_located(capsys, commands, f"{path}:3")

    @pytest.mark.parametrize("fps, frame", CASES, ids=["long-frame", "tiny-fps"])
    def test_step_row(self, tmp_path, capsys, fps, frame):
        _, _, paths = make_scenario_files(tmp_path)
        good = paths["ground_truth"]
        path = tmp_path / "bad.gt.jsonl"
        lines = good.read_text(encoding="utf-8").splitlines()
        manifest = json.loads(lines[0])
        manifest["fps"] = fps
        lines[0] = json.dumps(manifest)
        lines[1] = '{"frame":0,"state":"0,0,0,0,0,0,0,0,0,0,0"}'
        lines[2] = '{"frame":%s,"state":"1,0,0,0,0,0,0,0,0,0,0"}' % frame
        path.write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")
        commands = [
            ["eval", "--spec", CAR, "--gt", str(path), "--pred", str(good)],
            ["eval", "--spec", CAR, "--gt", str(good), "--pred", str(path)],
            ["validate", str(path)],
            ["validate", "--spec", CAR, str(path)],
        ]
        self.assert_located(capsys, commands, f"{path}:3")


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

    @pytest.mark.parametrize("baseline", ["b1", "b2", "b3"])
    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_is_rejected(self, tmp_path, capsys, baseline, threshold):
        _, _, paths = make_scenario_files(tmp_path)
        out = tmp_path / "pred.jsonl"
        rc = main(
            ["run", "--baseline", baseline, "--spec", CAR, "--stream", str(paths["stream"]),
             "--out", str(out), "--threshold", threshold]
        )
        assert rc == 1
        assert f"threshold must be finite and >= 0, got {threshold}" in capsys.readouterr().err
        assert not out.exists()

    def test_decay_flag_reaches_recognizer(self, tmp_path):
        _, _, paths = make_scenario_files(tmp_path, seed=8, noiseless=False)
        outputs = {}
        for decay in (None, "0.75", "1.0"):
            out = tmp_path / f"pred-{decay}.jsonl"
            argv = ["run", "--baseline", "b2", "--spec", CAR,
                    "--stream", str(paths["stream"]), "--out", str(out)]
            assert main(argv + ["--decay", decay] * (decay is not None)) == 0
            outputs[decay] = out.read_bytes()
        assert outputs["0.75"] == outputs[None]  # 0.75 is the default
        assert outputs["1.0"] != outputs[None]

    @pytest.mark.parametrize("decay", ["0", "-0.5", "1.5", "nan"])
    def test_out_of_range_decay_is_rejected(self, tmp_path, capsys, decay):
        _, _, paths = make_scenario_files(tmp_path)
        out = tmp_path / "pred.jsonl"
        rc = main(
            ["run", "--baseline", "b2", "--spec", CAR, "--stream", str(paths["stream"]),
             "--out", str(out), "--decay", decay]
        )
        assert rc == 1
        assert "decay must be in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

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
        pred = sequence("rec", [("a0", 5, 0), ("a1", 10, 1), ("a3", 20, 3), ("a2", 25, 2)])
        gt_path, pred_path = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
        write_ground_truth(gt_path, gt, spec)
        write_ground_truth(pred_path, pred, spec, source=EventSource.RECOGNIZED)
        rc = main(
            ["eval", "--spec", str(spec_path), "--gt", str(gt_path), "--pred", str(pred_path)]
        )
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert row["pos"] == 0.75
        assert row["f1"] == 1.0
        assert row["tau_s"] == pytest.approx(2.5)

    def test_delays_summing_past_the_float_range_write_a_valid_report(self, tmp_path):
        # two on-time delays of about 1e308 s: their sum overflows, their mean does not
        spec_path, gt_path, pred_path = (tmp_path / n for n in ("c.json", "gt.jsonl", "p.jsonl"))
        write_procedure(spec_path, linear_spec(2))
        gt = sequence("rec", [("a0", 1e300, 0), ("a1", 2e300, 1)], fps=1e-300)
        pred = sequence("rec", [("a0", 1e308, 0), ("a1", 1.2e308, 1)], fps=1e-300)
        write_ground_truth(gt_path, gt, linear_spec(2))
        write_ground_truth(pred_path, pred, linear_spec(2), source=EventSource.RECOGNIZED)
        out = tmp_path / "r.json"
        assert main(["eval", "--spec", str(spec_path), "--gt", str(gt_path),
                     "--pred", str(pred_path), "--out", str(out), "--format", "json"]) == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["recordings"][0]["tau_s"] == pytest.approx(1.1e308)
        assert document["aggregates"]["all"]["tau_s"] == document["recordings"][0]["tau_s"]
        assert main(["validate", str(out)]) == 0

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

    def _eval_argv(self, tmp_path):
        spec, scenario, paths = make_scenario_files(tmp_path)
        pred = tmp_path / "pred.jsonl"
        write_ground_truth(pred, scenario.ground_truth, spec, source=EventSource.RECOGNIZED)
        return ["eval", "--spec", CAR, "--gt", str(paths["ground_truth"]), "--pred", str(pred)]

    def test_csv_needs_an_out_file(self, tmp_path, capsys):
        assert main(self._eval_argv(tmp_path) + ["--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "psrkit: --format csv needs --out\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [[], ["--format", "json"]])
    def test_json_goes_to_stdout_without_out(self, tmp_path, capsys, flags):
        assert main(self._eval_argv(tmp_path) + flags) == 0
        row = json.loads(capsys.readouterr().out)
        assert (row["pos"], row["f1"], row["tau_s"]) == (1.0, 1.0, 0.0)


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

    @pytest.mark.parametrize(
        "fields",
        ['{"dwell_mean_s": Infinity}', '{"fps": NaN}', '{"conf_mean": NaN}',
         # ints past the float range once exited 2 (OverflowError from float())
         *(f'{{"{name}": {"1" * 400}}}' for name in ("fps", "dwell_mean_s", "detect_prob"))],
    )
    def test_non_finite_config_is_rejected(self, tmp_path, capsys, fields):
        config = tmp_path / "cfg.json"
        config.write_text(fields, encoding="utf-8")
        out = tmp_path / "sim"
        rc = main(
            ["simulate", "--spec", CAR, "--seed", "1", "--config", str(config),
             "--out-dir", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{config}: invalid simulation config:" in err
        assert "must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields",
        ['{"fps": 1e308}', '{"dwell_mean_s": 1e308}', '{"fps": 1e-320}', '{"fps": 1e30}',
         '{"fps": 1e16}'],
    )
    def test_recording_past_the_last_frame_index_is_rejected(self, tmp_path, capsys, fields):
        # these once exited 2 (round of an infinite time) or wrote without bound;
        # at 1e16 fps the recording would be about 3.5e17 frames long
        config = tmp_path / "cfg.json"
        config.write_text(fields, encoding="utf-8")
        out = tmp_path / "sim"
        rc = main(
            ["simulate", "--spec", CAR, "--seed", "1", "--config", str(config),
             "--out-dir", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "put the recording's last frame past index 9999999" in err
        assert f"fps {json.loads(fields).get('fps', 10.0)}," in err
        assert not list(tmp_path.rglob("*.stream.jsonl"))

    @pytest.mark.parametrize(
        "seed, shown", [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")]
    )
    def test_non_finite_seed_is_rejected(self, tmp_path, capsys, seed, shown):
        # random.Random(nan) seeds from an identity hash: two runs would differ
        config = tmp_path / "cfg.json"
        config.write_text(f'{{"seed": {seed}}}', encoding="utf-8")
        out = tmp_path / "sim"
        rc = main(["simulate", "--spec", CAR, "--config", str(config), "--out-dir", str(out)])
        assert rc == 1
        assert (
            f"{config}: invalid simulation config: seed must be finite, got {shown}"
            in capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["null", "[1]", '{"a": 1}', "true"])
    def test_seed_random_cannot_reproduce_is_rejected(self, tmp_path, capsys, seed):
        # a list or an object once exited 2; null drew an OS-random seed, and
        # true drew seed 1's recording as "…-seedTrue"
        config = tmp_path / "cfg.json"
        config.write_text(f'{{"seed": {seed}}}', encoding="utf-8")
        out = tmp_path / "sim"
        rc = main(["simulate", "--spec", CAR, "--config", str(config), "--out-dir", str(out)])
        assert rc == 1
        shown = repr(json.loads(seed))
        assert (
            f"{config}: invalid simulation config: seed must be an int, float or str, got {shown}"
            in capsys.readouterr().err
        )
        assert not out.exists()


    @pytest.mark.parametrize("shape", ["base_plus_39_parts", "twenty_chains"])
    def test_forty_component_procedures(self, tmp_path, shape):
        if shape == "base_plus_39_parts":
            actions = [ProceduralAction("base", 0, Transition.INSTALL)] + [
                ProceduralAction(f"part{c}", c, Transition.INSTALL, frozenset({"base"}))
                for c in range(1, 40)
            ]
        else:
            actions = [
                ProceduralAction(
                    f"chain{c // 2}_step{c % 2}", c, Transition.INSTALL,
                    frozenset({f"chain{c // 2}_step0"}) if c % 2 else frozenset(),
                )
                for c in range(40)
            ]
        spec = ProcedureSpec(
            shape, tuple(f"part {c}" for c in range(40)), tuple(actions),
            AssemblyState.from_values([0] * 40),
        )
        spec_path = tmp_path / f"{shape}.procedure.json"
        write_procedure(spec_path, spec)
        for seed in (1, 2):
            out = tmp_path / f"sim{seed}"
            # a subprocess, so a sampler whose cost grows with the number of
            # prerequisite-closed action sets (2^39 here) fails, not hangs
            subprocess.run(
                [sys.executable, "-m", "psrkit.cli", "simulate", "--spec", str(spec_path),
                 "--seed", str(seed), "--out-dir", str(out), "--recording-id", "wide"],
                check=True, capture_output=True, timeout=60,
            )
            _, gt = read_ground_truth(out / "wide.gt.jsonl", spec)
            assert sorted(gt.action_ids()) == sorted(a.action_id for a in actions)
            done: set[str] = set()
            for action_id in gt.action_ids():
                assert spec.action_by_id(action_id).prerequisites <= done
                done.add(action_id)

    def test_two_hundred_component_procedure(self, tmp_path):
        # a base plus 199 parts has 199! orders, too many for a float
        actions = [ProceduralAction("base", 0, Transition.INSTALL)] + [
            ProceduralAction(f"part{c}", c, Transition.INSTALL, frozenset({"base"}))
            for c in range(1, 200)
        ]
        spec = ProcedureSpec(
            "wide", tuple(f"part {c}" for c in range(200)), tuple(actions),
            AssemblyState.from_values([0] * 200),
        )
        spec_path = tmp_path / "wide.procedure.json"
        write_procedure(spec_path, spec)
        config = tmp_path / "cfg.json"
        config.write_text('{"fps": 1.0, "dwell_mean_s": 1.0, "detect_prob": 0.0}')
        out = tmp_path / "sim"
        # a subprocess, so the memory of counting orders is returned
        result = subprocess.run(
            [sys.executable, "-m", "psrkit.cli", "simulate", "--spec", str(spec_path),
             "--seed", "1", "--config", str(config), "--out-dir", str(out),
             "--recording-id", "wide"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        _, gt = read_ground_truth(out / "wide.gt.jsonl", spec)
        assert sorted(gt.action_ids()) == sorted(a.action_id for a in actions)
        assert gt.action_ids()[0] == "base"

    @pytest.mark.parametrize(
        "spec_name, options",
        [
            (CAR, {}),
            ("industreal_car_maintenance", {}),
            ("wide", {}),
            (CAR, {"noiseless": True}),
            ("wide", {"noiseless": True}),
            (CAR, {"config": NOISY}),
            ("industreal_car_maintenance", {"config": NOISY}),
            ("wide", {"config": NOISY}),
            (CAR, {"omit": ["install_front_bracket"], "incorrect": ["install_rear_chassis"],
                   "swap": [0, 3]}),
            ("industreal_car_maintenance", {"config": NOISY, "swap": [1],
             "incorrect": ["install_short_rear_chassis"], "omit": ["refit_rear_wheel_assy"]}),
            ("wide", {"config": NOISY, "omit": ["remove_service0"],
             "incorrect": ["install_part3", "refit_service1"], "swap": [2]}),
        ],
    )
    def test_streamed_files_equal_in_memory_files(self, tmp_path, spec_name, options):
        if spec_name == "wide":
            spec = maintenance_spec()
            spec_name = str(tmp_path / "wide.procedure.json")
            write_procedure(spec_name, spec)
        else:
            spec = load_builtin_procedure(spec_name)
        argv = ["simulate", "--spec", spec_name, "--seed", "7", "--out-dir", str(tmp_path / "cli")]
        cfg = SimConfig.noiseless(seed=7) if options.get("noiseless") else SimConfig(seed=7)
        if options.get("noiseless"):
            argv.append("--noiseless")
        if "config" in options:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps(options["config"]))
            argv += ["--config", str(config)]
            cfg = dataclasses.replace(cfg, **options["config"])
        for flag in ("omit", "incorrect", "swap"):
            for value in options.get(flag, ()):
                argv += [f"--{flag}", str(value)]
        injection = ErrorInjection(
            frozenset(options.get("omit", ())),
            frozenset(options.get("incorrect", ())),
            tuple(options.get("swap", ())),
        )
        assert main(argv) == 0
        paths = write_scenario(
            tmp_path / "memory", simulate(spec, injection, cfg), spec, cfg, injection
        )
        for path in paths.values():
            assert (tmp_path / "cli" / path.name).read_bytes() == path.read_bytes()

    def test_simulate_memory_does_not_grow_with_the_stream(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text('{"dwell_mean_s": 909.0, "dwell_jitter_s": 40.0}')
        out = tmp_path / "sim"
        argv = ["simulate", "--spec", CAR, "--seed", "3", "--config", str(config),
                "--out-dir", str(out), "--recording-id", "long"]
        tracemalloc.start()
        try:
            rc = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        with open(out / "long.stream.jsonl", "rb") as handle:
            assert sum(1 for _ in handle) > 100_000
        assert peak < 2 * 1024 * 1024, f"peak {peak / 1e6:.2f} MB"

    def test_long_chain_does_not_recurse(self, tmp_path):
        # 1,100 actions in one prerequisite chain: deeper than the default
        # recursion limit, so counting orders must not recurse per action
        spec = linear_spec(1100)
        spec_path = tmp_path / "chain.procedure.json"
        write_procedure(spec_path, spec)
        config = tmp_path / "cfg.json"
        config.write_text(
            '{"fps": 1.0, "dwell_mean_s": 1.0, "dwell_jitter_s": 0.0, "detect_prob": 0.0}',
            encoding="utf-8",
        )
        out = tmp_path / "sim"
        rc = main(
            ["simulate", "--spec", str(spec_path), "--seed", "1", "--config", str(config),
             "--out-dir", str(out), "--recording-id", "chain"]
        )
        assert rc == 0
        _, gt = read_ground_truth(out / "chain.gt.jsonl", spec)
        assert gt.action_ids() == tuple(f"a{i}" for i in range(1100))

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'\xff{"fps": 5.0}')
        out = tmp_path / "sim"
        rc = main(
            ["simulate", "--spec", CAR, "--seed", "1", "--config", str(config),
             "--out-dir", str(out)]
        )
        assert rc == 1
        assert f"{config}: file is not valid UTF-8:" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("kind", ["file", "absent"])
    def test_runs_not_a_directory(self, tmp_path, capsys, kind):
        runs = tmp_path / "runs"
        if kind == "file":
            runs.write_text("", encoding="utf-8")
        out = tmp_path / "r.csv"
        rc = main(["bench", "--spec", CAR, "--runs", str(runs), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"{runs}: not a directory\n"
        assert not out.exists()

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


class TestScripts:
    def test_scripts_run(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=pythonpath)
        outputs = []
        for argv in (
            ["bench_simulated.py", "--recordings", "3", "--out-dir", str(tmp_path)],
            ["metric_tables.py"],
        ):
            result = subprocess.run(
                [sys.executable, str(root / "scripts" / argv[0]), *argv[1:]],
                env=env, capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bench_b1.csv", "bench_b2.csv", "bench_b3.csv"
        ]
        rows = [line.split(":")[0] for line in outputs[0].splitlines()]
        assert rows == [f"{b} {subset}" for b in ("b1", "b2", "b3")
                        for subset in ("ALL", "ERRORS_ONLY")]


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

    def test_wide_procedure_file_over_twenty_seeds(self, tmp_path, capsys):
        # the benchmark's 15-component procedure, with parts removed and refitted
        spec = maintenance_spec()
        spec_path = tmp_path / "wide.procedure.json"
        write_procedure(spec_path, spec)
        out = tmp_path / "sim"
        for seed in range(1, 21):
            rid = f"wide{seed}"
            pred = out / f"{rid}.pred.jsonl"
            for argv in (
                ["simulate", "--spec", spec_path, "--seed", seed, "--out-dir", out,
                 "--recording-id", rid],
                ["run", "--baseline", "b3", "--spec", spec_path,
                 "--stream", out / f"{rid}.stream.jsonl", "--out", pred],
                ["eval", "--spec", spec_path, "--gt", out / f"{rid}.gt.jsonl", "--pred", pred],
            ):
                assert main([str(a) for a in argv]) == 0, (argv, capsys.readouterr().err)
            _, truth = read_ground_truth(out / f"{rid}.gt.jsonl", spec)
            assert sorted(truth.action_ids()) == sorted(a.action_id for a in spec.actions)
            manifest, predicted = read_ground_truth(pred, spec)
            assert (manifest.recording_id, manifest.source) == (rid, EventSource.RECOGNIZED)
            assert set(predicted.action_ids()) <= set(truth.action_ids())


class TestUsage:
    def test_missing_required_flag(self, capsys):
        assert main(["run", "--baseline", "b1"]) == 1
        assert "required" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0


class TestCliText:
    """Help and usage-error texts, byte for byte, at an 80-column terminal."""

    HELP = {
        ("--help",): '''\
usage: psrkit [-h] {validate,run,eval,simulate,bench} ...

Procedure step recognition: baselines, metrics, and simulation.

positional arguments:
  {validate,run,eval,simulate,bench}
    validate            check files for format and consistency errors
    run                 run a baseline recognizer over a detection stream
    eval                score a prediction file against its ground truth
    simulate            generate a seeded synthetic recording
    bench               evaluate a directory of (gt, pred) pairs

options:
  -h, --help            show this help message and exit
''',
        ("validate", "--help"): '''\
usage: psrkit validate [-h] [--spec SPEC] paths [paths ...]

positional arguments:
  paths        files to validate

options:
  -h, --help   show this help message and exit
  --spec SPEC  validate step and stream files against this procedure
               (procedure file, or a builtin name: industreal_car_assembly,
               industreal_car_maintenance)
''',
        ("run", "--help"): '''\
usage: psrkit run [-h] --baseline {b1,b2,b3} --spec SPEC --stream STREAM --out
                  OUT [--threshold THRESHOLD] [--decay DECAY]

options:
  -h, --help            show this help message and exit
  --baseline {b1,b2,b3}
  --spec SPEC           procedure file, or a builtin name:
                        industreal_car_assembly, industreal_car_maintenance
  --stream STREAM       detection stream file
  --out OUT             output prediction file
  --threshold THRESHOLD
                        b1: detection confidence threshold (default 0.5);
                        b2/b3: accumulation threshold (default 8.0)
  --decay DECAY         b2/b3 confidence decay (default 0.75)
''',
        ("eval", "--help"): '''\
usage: psrkit eval [-h] --spec SPEC --gt GT --pred PRED [--out OUT]
                   [--format {json,csv}]

options:
  -h, --help           show this help message and exit
  --spec SPEC          procedure file, or a builtin name:
                       industreal_car_assembly, industreal_car_maintenance
  --gt GT              ground-truth step file
  --pred PRED          predicted step file
  --out OUT            report path (default: JSON to stdout)
  --format {json,csv}
''',
        ("simulate", "--help"): '''\
usage: psrkit simulate [-h] --spec SPEC [--seed SEED] [--config CONFIG]
                       --out-dir OUT_DIR [--omit ACTION] [--incorrect ACTION]
                       [--swap POS] [--recording-id RECORDING_ID]
                       [--noiseless]

options:
  -h, --help            show this help message and exit
  --spec SPEC           procedure file, or a builtin name:
                        industreal_car_assembly, industreal_car_maintenance
  --seed SEED           random seed (overrides the config file)
  --config CONFIG       JSON file with simulation settings
  --out-dir OUT_DIR     directory for the output files
  --omit ACTION         skip this step
  --incorrect ACTION    complete this step incorrectly
  --swap POS            swap the steps at positions POS and POS+1
  --recording-id RECORDING_ID
                        recording id (default: derived from spec and seed)
  --noiseless           perfect detector settings
''',
        ("bench", "--help"): '''\
usage: psrkit bench [-h] --spec SPEC --runs RUNS --out OUT
                    [--format {json,csv}]

options:
  -h, --help           show this help message and exit
  --spec SPEC          procedure file, or a builtin name:
                       industreal_car_assembly, industreal_car_maintenance
  --runs RUNS          directory containing <id>.gt.jsonl and <id>.pred.jsonl
                       pairs
  --out OUT            report path
  --format {json,csv}
''',
    }
    # -h acts where it stands: before the command it prints the top-level help
    HELP[("-h", "run")] = HELP[("--help",)]

    COMMANDS = "'validate', 'run', 'eval', 'simulate', 'bench'"
    RUN = ["--spec", "toy", "--stream", "s", "--out", "o"]
    USAGE_ERRORS = [
        ([], "the following arguments are required: command"),
        (["bogus"], f"argument command: invalid choice: 'bogus' (choose from {COMMANDS})"),
        (["run"], "the following arguments are required: --baseline, --spec, --stream, --out"),
        (
            ["run", "--baseline", "b9", *RUN],
            "argument --baseline: invalid choice: 'b9' (choose from 'b1', 'b2', 'b3')",
        ),
        (["run", "--baseline", "b1", *RUN, "--bogus"], "unrecognized arguments: --bogus"),
        (
            ["--bogus", "run", "--baseline", "b1"],
            "the following arguments are required: --spec, --stream, --out",
        ),
        (["--", "run"], f"argument command: invalid choice: '--' (choose from {COMMANDS})"),
        (["simulate", "--swap", "x"], "argument --swap: invalid int value: 'x'"),
        (
            ["eval", "--spec", "x", "--gt", "g", "--pred", "p", "--format", "xml"],
            "argument --format: invalid choice: 'xml' (choose from 'json', 'csv')",
        ),
        (["bench"], "the following arguments are required: --spec, --runs, --out"),
        (["validate"], "the following arguments are required: paths"),
        (["simulate", "--spec", "x"], "the following arguments are required: --out-dir"),
    ]

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv", list(HELP), ids=" ".join)
    def test_help_text(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 0
        assert capsys.readouterr() == (self.HELP[argv], "")

    @pytest.mark.parametrize(
        "argv, message", USAGE_ERRORS, ids=[" ".join(argv) or "none" for argv, _ in USAGE_ERRORS]
    )
    def test_usage_error_text(self, argv, message, capsys):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"psrkit: {message}\n")

    def test_argv_defaults_to_sys_argv(self, monkeypatch, capsys):
        # sys.argv[0] is the program, so psrkit parses ["run"], not ["psrkit", "run"]
        monkeypatch.setattr(sys, "argv", ["psrkit", "run"])
        assert main() == 1
        err = "psrkit: the following arguments are required: --baseline, --spec, --stream, --out\n"
        assert capsys.readouterr() == ("", err)
