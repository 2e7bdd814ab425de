from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import linear_spec
from psrkit import (
    AssemblyState,
    BaselineConfig,
    Detection,
    DetectionFrame,
    ErrorInjection,
    EventSource,
    MetricsReport,
    SimConfig,
    StepSequence,
    Transition,
    Variant,
    run_baseline,
    simulate,
)
from psrkit.formats import (
    BUILTIN_PROCEDURES,
    FileManifest,
    FormatError,
    iter_stream_file,
    load_builtin_procedure,
    read_ground_truth,
    read_procedure,
    read_stream,
    report_to_row,
    sniff_kind,
    validate_file,
    write_ground_truth,
    write_procedure,
    write_report,
    write_scenario,
    write_stream,
)
from test_acceptance import mutate_bytes

FPS = 10.0


def stream_manifest(rid="rec", fps=FPS):
    return FileManifest(kind="stream", recording_id=rid, fps=fps)


def make_frames():
    s0 = AssemblyState.from_values([0, 0, 0])
    s1 = AssemblyState.from_values([1, 0, 0])
    return [
        DetectionFrame(0, 0.0, (Detection(s0, 0.75),)),
        DetectionFrame(1, 0.1, ()),
        DetectionFrame(3, 0.3, (Detection(s1, 0.5, box=(0.1, 0.2, 0.3, 0.4)), Detection(s0, 0.25))),
    ]


class TestStreamRoundTrip:
    def test_three_frames(self, tmp_path):
        path = tmp_path / "rec.stream.jsonl"
        frames = make_frames()
        write_stream(path, stream_manifest(), frames)
        manifest, back = read_stream(path)
        assert manifest == stream_manifest()
        assert back == frames

    @given(
        rows=st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.sampled_from([-1, 0, 1]), min_size=4, max_size=4),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_streams(self, tmp_path_factory, rows):
        frames = []
        for index, (has_detection, values, conf) in enumerate(rows):
            detections = (
                (Detection(AssemblyState.from_values(values), conf),) if has_detection else ()
            )
            frames.append(DetectionFrame(index, index / FPS, detections))
        path = tmp_path_factory.mktemp("streams") / "s.jsonl"
        write_stream(path, stream_manifest(), frames)
        _, back = read_stream(path)
        assert back == frames


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


MANIFEST_LINE = json.dumps(
    {"format_version": "1.0.0", "kind": "stream", "recording_id": "rec", "fps": 10.0}
)


class TestStreamErrors:
    def test_confidence_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(
            path,
            [
                MANIFEST_LINE,
                '{"frame":0,"detections":[{"state":"0,0,0","conf":1.7}]}',
            ],
        )
        with pytest.raises(FormatError) as err:
            read_stream(path)
        assert err.value.line == 2
        assert "confidence" in str(err.value)

    def test_frames_out_of_order(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(
            path,
            [
                MANIFEST_LINE,
                '{"frame":5,"detections":[]}',
                '{"frame":4,"detections":[]}',
            ],
        )
        with pytest.raises(FormatError, match="out of order") as err:
            read_stream(path)
        assert err.value.line == 3

    def test_bad_state_token(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(
            path,
            [MANIFEST_LINE, '{"frame":0,"detections":[{"state":"0,x,0","conf":0.5}]}'],
        )
        with pytest.raises(FormatError, match="malformed state token"):
            read_stream(path)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(path, [MANIFEST_LINE, "{not json"])
        with pytest.raises(FormatError) as err:
            read_stream(path)
        assert err.value.line == 2

    def test_unsupported_major_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(
            path,
            [json.dumps({"format_version": "2.0.0", "kind": "stream",
                         "recording_id": "rec", "fps": 10.0})],
        )
        with pytest.raises(FormatError, match="major format version"):
            read_stream(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(
            path,
            [json.dumps({"format_version": "1.0.0", "kind": "ground_truth",
                         "recording_id": "rec", "fps": 10.0})],
        )
        with pytest.raises(FormatError, match="expected a stream"):
            read_stream(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(FormatError, match="manifest"):
            read_stream(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            read_stream(tmp_path / "absent.jsonl")

    @pytest.mark.parametrize(
        "entry", ["Infinity", "-Infinity", "NaN", "9" * 400], ids=["inf", "-inf", "nan", "huge"]
    )
    def test_non_finite_box_entry(self, tmp_path, entry):
        path = tmp_path / "bad.jsonl"
        write_lines(
            path,
            [
                MANIFEST_LINE,
                '{"frame":0,"detections":[{"state":"0,0,0","conf":0.5,'
                f'"box":[0.1,{entry},0.3,0.4]}}]}}',
            ],
        )
        with pytest.raises(FormatError, match="'box' entry must be finite") as err:
            read_stream(path)
        assert err.value.line == 2

    def test_utf8_error_names_its_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = [
            MANIFEST_LINE.encode(),
            b'{"frame":0,"detections":[{"state":"0,0,0","conf":0.5}]}',
            b'{"frame":1,"detections":[{"state":"0,0,0","conf":0.5\xff}]}',
            b'{"frame":2,"detections":[]}',
        ]
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(FormatError, match="not valid UTF-8") as err:
            read_stream(path)
        assert err.value.line == 3
        # the kind comes from line 1 alone
        assert sniff_kind(path) == "stream"


@pytest.fixture(scope="module")
def car_stream_bytes(car_spec) -> bytes:
    """A 30-frame car stream whose detections all carry boxes."""
    scenario = simulate(car_spec, cfg=SimConfig(seed=11, misclass_prob=0.1))
    lines = [stream_manifest().to_json()]
    for frame in scenario.stream[:30]:
        detections = [
            {"state": ",".join(str(int(s)) for s in d.state), "conf": d.confidence,
             "box": [0.1, 0.2, 0.3, 0.4]}
            for d in frame.detections
        ]
        lines.append(json.dumps({"frame": frame.frame, "detections": detections}))
    return ("\n".join(lines) + "\n").encode()


class TestLazyStreamReader:
    def test_frames_are_parsed_on_demand(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(
            path,
            [
                MANIFEST_LINE,
                '{"frame":0,"detections":[{"state":"0,0,0","conf":0.5}]}',
                '{"frame":1,"detections":[{"state":"0,0","conf":0.5}]}',
            ],
        )
        manifest, frames = iter_stream_file(path)
        assert manifest == stream_manifest()
        assert next(frames).frame == 0
        with pytest.raises(FormatError, match="differs from earlier width 3") as err:
            next(frames)
        assert err.value.line == 3

    def test_manifest_checked_eagerly(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_lines(
            path,
            [json.dumps({"format_version": "1.0.0", "kind": "ground_truth",
                         "recording_id": "rec", "fps": 10.0})],
        )
        with pytest.raises(FormatError, match="expected a stream") as err:
            iter_stream_file(path)
        assert err.value.line == 1

    def test_width_checked_against_spec(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_stream(path, stream_manifest(), make_frames())
        frames = iter_stream_file(path, linear_spec(3))[1]
        assert list(frames) == make_frames()
        with pytest.raises(FormatError, match="procedure 'chain' expects 4") as err:
            list(iter_stream_file(path, linear_spec(4))[1])
        assert err.value.line == 2
        assert validate_file(path, linear_spec(4)) == [f"{path}:2: {err.value.message}"]

    def test_repeated_states_share_one_parse(self, tmp_path):
        path = tmp_path / "s.jsonl"
        state = AssemblyState.from_values([1, 0, -1])
        frames = [DetectionFrame(i, i / FPS, (Detection(state, 0.5),)) for i in range(5)]
        write_stream(path, stream_manifest(), frames)
        back = list(iter_stream_file(path)[1])
        assert back == frames
        assert len({id(f.detections[0].state) for f in back}) == 1

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_mutants_agree_with_read_stream(self, tmp_path_factory, car_stream_bytes, seed):
        """Draining the lazy reader gives read_stream's frames or its error."""
        path = tmp_path_factory.mktemp("mutants") / "m.jsonl"
        path.write_bytes(mutate_bytes(car_stream_bytes, random.Random(seed)))

        def outcome(read):
            try:
                return read()
            except FormatError as exc:
                assert exc.line is not None
                return (exc.message, exc.line)

        def drain():
            manifest, frames = iter_stream_file(path)
            return manifest, [frame for frame in frames]

        eager = outcome(lambda: read_stream(path))
        assert outcome(drain) == eager
        expected = [] if isinstance(eager[0], FileManifest) else [f"{path}:{eager[1]}: {eager[0]}"]
        assert validate_file(path) == expected


class TestGroundTruthFiles:
    def test_single_install_event(self, tmp_path):
        spec = linear_spec(11)
        path = tmp_path / "gt.jsonl"
        write_lines(
            path,
            [
                json.dumps({"format_version": "1.0.0", "kind": "ground_truth",
                            "recording_id": "rec", "fps": 10.0}),
                json.dumps({"frame": 0, "state": "0,0,0,0,0,0,0,0,0,0,0"}),
                json.dumps({"frame": 50, "state": "1,0,0,0,0,0,0,0,0,0,0"}),
            ],
        )
        _, back = read_ground_truth(path, spec)
        assert len(back.events) == 1
        event = back.events[0]
        assert (event.action_id, event.component, event.frame) == ("a0", 0, 50)
        assert event.transition is Transition.INSTALL
        assert event.source is EventSource.GROUND_TRUTH

    def test_incorrect_transition_and_views(self, tmp_path):
        spec = linear_spec(3)
        path = tmp_path / "gt.jsonl"
        write_lines(
            path,
            [
                json.dumps({"format_version": "1.0.0", "kind": "ground_truth",
                            "recording_id": "rec", "fps": 10.0}),
                json.dumps({"frame": 0, "state": "0,0,0"}),
                json.dumps({"frame": 10, "state": "1,0,0"}),
                json.dumps({"frame": 20, "state": "1,-1,0"}),
            ],
        )
        _, full = read_ground_truth(path, spec)
        assert full.action_ids() == ("a0", "incorrect:a1")
        _, correct = read_ground_truth(path, spec, include_errors=False)
        assert correct.action_ids() == ("a0",)

    def test_round_trip_of_simulated_ground_truth(self, tmp_path, car_spec):
        scenario = simulate(
            car_spec, ErrorInjection(incorrect=frozenset({"install_rear_chassis"})),
            SimConfig(seed=21),
        )
        path = tmp_path / "gt.jsonl"
        write_ground_truth(path, scenario.ground_truth, car_spec)
        manifest, back = read_ground_truth(path, car_spec)
        assert back == scenario.ground_truth
        assert manifest.source is EventSource.GROUND_TRUTH

    def test_round_trip_of_predictions(self, tmp_path, car_spec):
        cfg = SimConfig(seed=3, misclass_prob=0.1)
        scenario = simulate(car_spec, cfg=cfg)
        predicted = run_baseline(
            BaselineConfig(Variant.B2), car_spec, scenario.stream, cfg.fps,
            scenario.ground_truth.recording_id,
        )
        path = tmp_path / "pred.jsonl"
        write_ground_truth(path, predicted, car_spec, source=EventSource.RECOGNIZED)
        manifest, back = read_ground_truth(path, car_spec)
        assert back == predicted
        assert manifest.source is EventSource.RECOGNIZED

    def test_multi_change_row_becomes_multiple_events(self, tmp_path):
        spec = linear_spec(3)
        path = tmp_path / "gt.jsonl"
        write_lines(
            path,
            [
                json.dumps({"format_version": "1.0.0", "kind": "ground_truth",
                            "recording_id": "rec", "fps": 10.0}),
                json.dumps({"frame": 0, "state": "0,0,0"}),
                json.dumps({"frame": 30, "state": "1,1,0"}),
            ],
        )
        _, back = read_ground_truth(path, spec)
        assert back.action_ids() == ("a0", "a1")
        assert all(e.frame == 30 for e in back.events)

    def test_state_length_checked_against_spec(self, tmp_path):
        spec = linear_spec(4)
        path = tmp_path / "gt.jsonl"
        write_lines(
            path,
            [
                json.dumps({"format_version": "1.0.0", "kind": "ground_truth",
                            "recording_id": "rec", "fps": 10.0}),
                json.dumps({"frame": 0, "state": "0,0,0"}),
            ],
        )
        with pytest.raises(FormatError, match="expects 4"):
            read_ground_truth(path, spec)

    def test_non_finite_confidence_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_lines(
            path,
            [
                json.dumps({"format_version": "1.0.0", "kind": "ground_truth",
                            "recording_id": "rec", "fps": 10.0}),
                '{"frame":0,"state":"0,0,0"}',
                '{"frame":5,"state":"1,0,0","conf":NaN}',
            ],
        )
        with pytest.raises(FormatError, match="'conf' must be finite") as err:
            read_ground_truth(path, linear_spec(3))
        assert err.value.line == 3
        assert validate_file(path) == [f"{path}:3: {err.value.message}"]

    def test_duplicate_completion_rejected(self, tmp_path):
        spec = linear_spec(1)
        path = tmp_path / "gt.jsonl"
        write_lines(
            path,
            [
                json.dumps({"format_version": "1.0.0", "kind": "ground_truth",
                            "recording_id": "rec", "fps": 10.0}),
                json.dumps({"frame": 0, "state": "0"}),
                json.dumps({"frame": 5, "state": "1"}),
                json.dumps({"frame": 9, "state": "0"}),
                json.dumps({"frame": 14, "state": "1"}),
            ],
        )
        with pytest.raises(FormatError, match="duplicate completion") as err:
            read_ground_truth(path, spec)
        assert err.value.line == 5

    def test_empty_sequence_round_trip(self, tmp_path):
        spec = linear_spec(2)
        empty = StepSequence("rec", FPS, ())
        path = tmp_path / "gt.jsonl"
        write_ground_truth(path, empty, spec)
        _, back = read_ground_truth(path, spec)
        assert back == empty


class TestProcedureFiles:
    def test_builtins_load_and_validate(self):
        for name in BUILTIN_PROCEDURES:
            spec = load_builtin_procedure(name)
            assert spec.id == name
            assert len(spec.components) == 11

    def test_builtin_component_names(self, car_spec):
        assert car_spec.components[0] == "base"
        assert car_spec.components[-1] == "rear wheel assy"

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            load_builtin_procedure("missing")

    def test_round_trip(self, tmp_path, maintenance_spec):
        path = tmp_path / "proc.json"
        write_procedure(path, maintenance_spec)
        assert read_procedure(path) == maintenance_spec

    def test_cycle_rejected(self, tmp_path):
        path = tmp_path / "proc.json"
        document = {
            "format_version": "1.0.0",
            "kind": "procedure",
            "id": "cyclic",
            "components": [{"index": 0, "name": "x"}, {"index": 1, "name": "y"}],
            "initial_state": "0,0",
            "actions": [
                {"id": "a", "component": 0, "transition": "install", "requires": ["b"]},
                {"id": "b", "component": 1, "transition": "install", "requires": ["a"]},
            ],
        }
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(FormatError, match="cycle"):
            read_procedure(path)

    def test_misnumbered_components(self, tmp_path):
        path = tmp_path / "proc.json"
        document = {
            "format_version": "1.0.0",
            "kind": "procedure",
            "id": "bad",
            "components": [{"index": 1, "name": "x"}],
            "initial_state": "0",
            "actions": [],
        }
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(FormatError, match="does not match its position"):
            read_procedure(path)

    def test_unknown_transition(self, tmp_path):
        path = tmp_path / "proc.json"
        document = {
            "format_version": "1.0.0",
            "kind": "procedure",
            "id": "bad",
            "components": [{"index": 0, "name": "x"}],
            "initial_state": "0",
            "actions": [{"id": "a", "component": 0, "transition": "wiggle"}],
        }
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(FormatError, match="unknown transition"):
            read_procedure(path)


def report(rid, tau=0.5, has_errors=False):
    return MetricsReport(
        recording_id=rid, pos=0.75, precision=1.0, recall=0.8, f1=0.875,
        tau_s=tau, tp=4, fp=0, fn=1, has_errors=has_errors,
    )


class TestReports:
    def test_csv_shape(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(path, [report("a"), report("b", has_errors=True)], fmt="csv")
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 5  # header + 2 recordings + ALL + ERRORS_ONLY
        assert lines[0].split(",")[0] == "recording_id"
        assert lines[3].split(",")[0] == "ALL"
        assert lines[4].split(",")[0] == "ERRORS_ONLY"

    def test_csv_undefined_tau_is_empty(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(path, [report("a", tau=None)], fmt="csv")
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[1].split(",")[5] == ""

    def test_csv_errors_only_marker_when_no_errors(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(path, [report("a")], fmt="csv")
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[-1] == "ERRORS_ONLY" + "," * 9

    def test_json_reparse_matches_values(self, tmp_path):
        path = tmp_path / "report.json"
        reports = [report("a"), report("b", tau=None, has_errors=True)]
        write_report(path, reports, fmt="json")
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["recordings"] == [report_to_row(r) for r in reports]
        assert document["aggregates"]["all"]["tp"] == 8
        assert document["aggregates"]["errors_only"]["recording_id"] == "ERRORS_ONLY"

    def test_json_null_errors_aggregate(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, [report("a")], fmt="json")
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["aggregates"]["errors_only"] is None

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report format"):
            write_report(tmp_path / "r.xml", [report("a")], fmt="xml")


class TestScenarioFiles:
    def test_write_and_validate(self, tmp_path, car_spec):
        cfg = SimConfig(seed=12)
        injection = ErrorInjection(omit=frozenset({"install_front_bracket_screw"}))
        scenario = simulate(car_spec, injection, cfg)
        paths = write_scenario(tmp_path, scenario, car_spec, cfg, injection)
        assert sorted(p.name for p in paths.values()) == sorted(
            [
                f"{scenario.ground_truth.recording_id}{suffix}"
                for suffix in (".stream.jsonl", ".gt.jsonl", ".scenario.json")
            ]
        )
        for path in paths.values():
            assert validate_file(path, car_spec) == []
        _, frames = read_stream(paths["stream"])
        assert tuple(frames) == scenario.stream
        _, gt = read_ground_truth(paths["ground_truth"], car_spec)
        assert gt == scenario.ground_truth
        document = json.loads(paths["scenario"].read_text(encoding="utf-8"))
        assert document["seed"] == 12
        assert document["injection"]["omit"] == ["install_front_bracket_screw"]


class TestValidateFile:
    def test_kinds_are_sniffed(self, tmp_path, car_spec):
        stream_path = tmp_path / "s.jsonl"
        write_stream(stream_path, stream_manifest(), make_frames())
        assert sniff_kind(stream_path) == "stream"
        procedure_path = tmp_path / "p.json"
        write_procedure(procedure_path, car_spec)
        assert sniff_kind(procedure_path) == "procedure"

    def test_ground_truth_without_spec_is_structural(self, tmp_path, car_spec):
        path = tmp_path / "gt.jsonl"
        scenario = simulate(car_spec, cfg=SimConfig(seed=1))
        write_ground_truth(path, scenario.ground_truth, car_spec)
        assert validate_file(path) == []
        assert validate_file(path, car_spec) == []

    def test_diagnostic_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(
            path,
            [MANIFEST_LINE, '{"frame":0,"detections":[{"state":"0,0","conf":2.0}]}'],
        )
        diagnostics = validate_file(path)
        assert len(diagnostics) == 1
        assert "bad.jsonl:2" in diagnostics[0]


class TestFuzzSmoke:
    """Small-scale mutation fuzz; the acceptance suite runs a larger one."""

    def test_mutated_streams_never_crash(self, tmp_path, car_spec):
        scenario = simulate(car_spec, cfg=SimConfig(seed=6))
        base = tmp_path / "base.jsonl"
        write_stream(base, stream_manifest(rid=scenario.ground_truth.recording_id), scenario.stream[:40])
        content = base.read_text(encoding="utf-8")
        rng = random.Random(1)
        for i in range(150):
            mutated = mutate(content, rng)
            path = tmp_path / "mut.jsonl"
            path.write_text(mutated, encoding="utf-8")
            try:
                read_stream(path)
            except FormatError:
                pass  # structured rejection is the contract

def mutate(content: str, rng: random.Random) -> str:
    choice = rng.randrange(5)
    if choice == 0 and content:
        position = rng.randrange(len(content))
        return content[:position] + rng.choice('x{}[],":-') + content[position + 1 :]
    if choice == 1:
        lines = content.splitlines()
        if lines:
            lines.insert(rng.randrange(len(lines)), lines[rng.randrange(len(lines))])
        return "\n".join(lines) + "\n"
    if choice == 2:
        return content.replace("conf", rng.choice(["Conf", "cnf", ""]), 1)
    if choice == 3:
        return content[: rng.randrange(len(content))] if content else content
    return content.replace("0.", str(rng.randrange(10)) + ".", 3)
