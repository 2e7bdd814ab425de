from __future__ import annotations

import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    linear_spec,
    maintenance_spec,
    reference_read_ground_truth,
    reference_read_stream,
    reference_write_ground_truth,
    reference_write_stream,
)
from psrkit.baselines import BaselineConfig, Detection, DetectionFrame, Variant, run_baseline
from psrkit import formats
from psrkit.cli import main
from psrkit.formats import (
    BUILTIN_PROCEDURES,
    _STEP_ROW,
    _STREAM_ROW,
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
from psrkit.metrics import MetricsReport
from psrkit.model import (
    AssemblyState,
    EventSource,
    ProcedureSpec,
    StepEvent,
    StepSequence,
    Transition,
    parse_state_text,
)
from psrkit.simulate import ErrorInjection, SimConfig, simulate
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


    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([int, float, bool]),
                st.lists(
                    st.tuples(
                        st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=5),
                        st.one_of(
                            st.floats(min_value=0.0, max_value=1.0),
                            st.sampled_from([0.0, 1.0, 1, True]),
                        ),
                        st.none() | st.tuples(*[st.floats(allow_nan=False)] * 4),
                    ),
                    max_size=3,
                ),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_as_reference_writer(self, tmp_path_factory, rows):
        frames = [
            DetectionFrame(
                index_type(index % 2 if index_type is bool else index),
                index / FPS,
                tuple(Detection(AssemblyState.from_values(v), c, b) for v, c, b in detections),
            )
            for index, (index_type, detections) in enumerate(rows)
        ]
        directory = tmp_path_factory.mktemp("writers")
        write_stream(directory / "new.jsonl", stream_manifest(), iter(frames))
        reference_write_stream(directory / "old.jsonl", stream_manifest(), frames)
        assert (directory / "new.jsonl").read_bytes() == (directory / "old.jsonl").read_bytes()

    @given(
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.sampled_from(list(Transition)),
                st.one_of(
                    st.floats(min_value=0.0, allow_infinity=False),
                    st.sampled_from([0, 1, 7]),
                ),
            ),
            max_size=6,
        ),
        source=st.sampled_from([None, *EventSource]),
    )
    @settings(max_examples=150, deadline=None)
    def test_step_writer_same_bytes_as_reference(self, tmp_path_factory, steps, source):
        events, frame = [], 0
        for component, (gap, transition, conf) in enumerate(steps):
            frame += gap
            action_id = f"{transition.value}:{component}"
            events.append(StepEvent(action_id, component, transition, frame / FPS, frame, conf))
        sequence = StepSequence("rec", FPS, tuple(events))
        spec = linear_spec(6)
        directory = tmp_path_factory.mktemp("step-writers")
        write_ground_truth(directory / "new.jsonl", sequence, spec, source=source)
        reference_write_ground_truth(directory / "old.jsonl", sequence, spec, source=source)
        assert (directory / "new.jsonl").read_bytes() == (directory / "old.jsonl").read_bytes()


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


ROW = '{"frame":0,"detections":[{"state":"0,0,0","conf":0.5}]}'
STATE = AssemblyState.from_values([0, 0, 0])


def read_outcome(read):
    """(manifest, frames as plain tuples) of a stream read, or its (message, line)."""
    plain = []
    try:
        manifest, frames = read()
        for frame in frames:
            if isinstance(frame, DetectionFrame):
                detections = tuple((d.state, d.confidence, d.box) for d in frame.detections)
                frame = (frame.frame, frame.time_s, detections)
            plain.append(frame)
    except FormatError as exc:
        assert exc.line is not None
        return (exc.message, exc.line)
    return manifest, plain


class TestAgainstReferenceReader:
    """The stream reader agrees with tests/helpers.reference_read_stream."""

    @staticmethod
    def agree(path, spec=None):
        drained = read_outcome(lambda: iter_stream_file(path, spec))
        assert drained == read_outcome(lambda: reference_read_stream(path, spec))
        return drained

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), with_spec=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_mutants(self, tmp_path_factory, car_stream_bytes, car_spec, seed, with_spec):
        path = tmp_path_factory.mktemp("mutants") / "m.jsonl"
        path.write_bytes(mutate_bytes(car_stream_bytes, random.Random(seed)))
        self.agree(path, car_spec if with_spec else None)

    def read_rows(self, tmp_path, *rows: str | bytes):
        """Read the manifest and the rows, one a line.

        A row that starts with \\r shares the line before it, after that \\r.
        """
        path = tmp_path / "s.jsonl"
        lines = [MANIFEST_LINE.encode()]
        lines += [row if isinstance(row, bytes) else row.encode() for row in rows]
        path.write_bytes(b"\n".join(lines).replace(b"\n\r", b"\r") + b"\n")
        return self.agree(path)

    @pytest.mark.parametrize(
        "row, detections",
        [
            ("  " + ROW, ((STATE, 0.5, None),)),
            (ROW + " \t", ((STATE, 0.5, None),)),
            (ROW.replace("0.5", "1"), ((STATE, 1.0, None),)),
            ('{"frame":0}', ()),
            ("\r" + ROW, ((STATE, 0.5, None),)),
        ],
        ids=["leading-spaces", "trailing-spaces", "integer-conf", "no-detections",
             "on-the-manifest-line"],
    )
    def test_accepted_rows(self, tmp_path, row, detections):
        _, frames = self.read_rows(tmp_path, row)
        assert frames == [(0, 0.0, detections)]
        assert all(type(conf) is float for _, conf, _ in frames[0][2])

    @pytest.mark.parametrize(
        "rows, expected",
        [
            (('{"frame":0,"detections":[]}', ROW + ",{}"), ("invalid JSON: Extra data", 3)),
            (
                (b"\xef\xbb\xbf" + ROW.encode(),),
                ("invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)", 2),
            ),
            ((ROW.replace("0.5", "true"),), ("'conf' must be a number", 2)),
            ((ROW.replace('"frame":0', '"frame":false'),), ("'frame' must be an integer", 2)),
            (('{"frame":0,"detections":null}',), ("'detections' must be a list", 2)),
            (
                (ROW.replace('"frame":0', '"frame":' + "9" * 400),),
                ("frame / fps is not a finite time (fps 10.0)", 2),
            ),
            (("\r" + ROW.replace("0.5", "1.7"),),
             ("detection confidence must be in [0, 1], got 1.7", 2)),
            (("  " + ROW, ROW), ("frame 0 out of order (previous was 0)", 3)),
            (("[]",), ("frame record must be a JSON object", 2)),
            (('{"frame":0,"detections":[1]}',), ("detection must be a JSON object", 2)),
        ],
        ids=["extra-data", "bom", "boolean-conf", "boolean-frame", "null-detections",
             "frame-time-overflow", "on-the-manifest-line", "writer-row-after-decoded-row",
             "row-not-object", "detection-not-object"],
    )
    def test_rejected_rows(self, tmp_path, rows, expected):
        assert self.read_rows(tmp_path, *rows) == expected


# write_stream's row with one detection, and values near _STREAM_ROW's edge
# for each of its parts: json.loads accepts some that the pattern does not
# match (a leading "-0", exponents, escapes, other layouts) and rejects others
WRITER_ROW = '{{"frame":{frame},"detections":[{{"state":"{state}","conf":{conf}}}]}}'
EDGES = {
    "frame": ["0", "00", "01", "-0", "-1", "1.0", "1e1", "true",
              "999999999999999999", "1000000000000000000"],  # 18 and 19 digits
    "state": ["1,0,-1", "0,0", "", "0,,0", "0,0,2", "\\u0030,0,0", "0,0,\\u002d1"],
    "conf": ["0", "1", "-0", "-0.0", "1.0", "0e0", "5E-1", "0.5e+0", "00.5", ".5",
             "1e400", "-1e400", "1e-400", "1.0000000000000002", "NaN"],
    "row": [
        '{{"frame":{frame},"detections":[]}}',
        '{{"detections":[{{"state":"{state}","conf":{conf}}}],"frame":{frame}}}',
        '{{"frame":{frame},"detections":[{{"conf":{conf},"state":"{state}"}}]}}',
        '{{"frame":0,"frame":{frame},"detections":[{{"state":"{state}","conf":{conf}}}]}}',
        '{{"frame":{frame},"detections":[{{"state":"{state}","conf":{conf}}}]}} ',
        '{{"frame":{frame},"detections":[{{"state":"{state}","conf":{conf},"box":[0,0,1,1]}}]}}',
        '{{"frame":{frame},"detections":[{{"state":"{state}","conf":{conf}}},'
        '{{"state":"0,0,0","conf":0.25}}]}}',
    ],
    "ending": ["\r\n", "\r"],
}


@st.composite
def edge_rows(draw, frame: int) -> str:
    """A writer row with at most two of its parts moved to the edge, and its line ending."""
    parts = {"frame": str(frame), "state": "0,0,0", "conf": "0.5", "row": WRITER_ROW,
             "ending": "\n"}
    for key in draw(st.lists(st.sampled_from(sorted(EDGES)), max_size=2)):
        parts[key] = draw(st.sampled_from(EDGES[key]))
    return parts["row"].format(**parts) + parts["ending"]


class TestWriterShapedRows:
    """Rows in write_stream's shape skip the JSON decoder and read the same."""

    @given(
        data=st.data(),
        count=st.integers(min_value=1, max_value=5),
        manifest=st.sampled_from([MANIFEST_LINE + "\n"] * 5 + [""]),
        final_newline=st.booleans(),
        with_spec=st.booleans(),
    )
    @settings(max_examples=500, deadline=None)
    def test_edge_rows_agree_with_reference(
        self, tmp_path_factory, data, count, manifest, final_newline, with_spec
    ):
        text = manifest + "".join(data.draw(edge_rows(frame)) for frame in range(count))
        if not final_newline:
            text = text.rstrip("\r\n")
        path = tmp_path_factory.mktemp("edges") / "s.jsonl"
        path.write_bytes(text.encode())
        TestAgainstReferenceReader.agree(path, linear_spec(3) if with_spec else None)

    @pytest.mark.parametrize("spec_name", [*BUILTIN_PROCEDURES, "wide_maintenance"])
    @pytest.mark.parametrize("noiseless", [True, False], ids=["noiseless", "noisy"])
    def test_every_written_row_matches(self, tmp_path, spec_name, noiseless):
        """A writer change that moves rows off the fast path fails here."""
        if spec_name == "wide_maintenance":
            spec_name = str(tmp_path / "wide.json")
            write_procedure(spec_name, maintenance_spec())
        argv = ["simulate", "--spec", spec_name, "--seed", "4", "--out-dir", str(tmp_path)]
        assert main(argv + ["--noiseless"] * noiseless) == 0
        (path,) = tmp_path.glob("*.stream.jsonl")
        rows = path.read_bytes().splitlines(keepends=True)[1:]
        assert rows and all(_STREAM_ROW.fullmatch(row) for row in rows)
        # the noisy detector misses frames, so both row shapes are checked
        assert any(b'"detections":[]' in row for row in rows) == (not noiseless)


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
        assert full.correct_only().action_ids() == ("a0",)

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

    def test_manifest_without_rows_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_lines(path, [GT_MANIFEST_LINE])
        with pytest.raises(FormatError) as err:
            read_ground_truth(path, linear_spec(3))
        assert (err.value.message, err.value.line) == ("step file has no state rows", 1)

    @pytest.mark.parametrize(
        "start, transitions, base",
        [
            (1, [Transition.INSTALL], "0"),
            (0, [Transition.REMOVE], "1"),
            (-1, [Transition.INCORRECT], "0"),
            (0, [Transition.INSTALL], "0"),
            (0, [Transition.INSTALL, Transition.REMOVE], "0"),
        ],
        ids=["install-nudge", "remove-nudge", "incorrect-nudge", "no-nudge",
             "first-event-decides"],
    )
    def test_base_row_nudge(self, tmp_path, start, transitions, base):
        """The base row moves a component off the status its first event leads to."""
        spec = ProcedureSpec("one", ("x",), (), AssemblyState.from_values([start]))
        events = tuple(
            StepEvent(spec.step_id(0, transition), 0, transition, frame / FPS, frame, 0.5)
            for frame, transition in enumerate(transitions, start=3)
        )
        path = tmp_path / "gt.jsonl"
        write_ground_truth(path, StepSequence("rec", FPS, events), spec)
        assert path.read_text().splitlines()[1] == f'{{"frame":0,"state":"{base}"}}'
        assert read_ground_truth(path, spec)[1].events == events

    @given(
        start=st.lists(st.sampled_from([-1, 0, 1]), min_size=3, max_size=3),
        # frames far enough apart in time: StepSequence orders by (time_s, component)
        first=st.sampled_from([0, 1, 10**12]),
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
                st.sampled_from(list(Transition)),
                # ints up to 2**53 read back as equal floats
                st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                          st.integers(min_value=0, max_value=2**53)),
            ),
            max_size=8,
        ),
        source=st.sampled_from(list(EventSource)),
        fps=st.sampled_from([FPS, 1.0, 29.97, 1e-3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_constructible_sequences_read_back_equal(
        self, tmp_path_factory, start, first, steps, source, fps
    ):
        spec = ProcedureSpec(
            "chain", ("x", "y", "z"), linear_spec(3).actions, AssemblyState.from_values(start)
        )
        events, frame, seen = [], first, set()
        for gap, component, transition, conf in steps:
            frame += gap
            action_id = spec.step_id(component, transition)
            if action_id not in seen:  # a sequence holds each step once
                seen.add(action_id)
                events.append(StepEvent(action_id, component, transition, frame / fps, frame,
                                        conf, source))
        sequence = StepSequence.from_events("rec", fps, events)
        path = tmp_path_factory.mktemp("round-trip") / "gt.jsonl"
        write_ground_truth(path, sequence, spec)
        assert read_ground_truth(path, spec)[1] == sequence


@pytest.fixture(scope="module")
def car_prediction_bytes(car_spec, tmp_path_factory) -> bytes:
    """A B2 prediction file of a noisy car recording with an incorrect step."""
    scenario = simulate(
        car_spec, ErrorInjection(incorrect=frozenset({"install_rear_chassis"})),
        SimConfig(seed=5, misclass_prob=0.1),
    )
    predicted = run_baseline(
        BaselineConfig(Variant.B2), car_spec, scenario.stream, scenario.ground_truth.fps,
        scenario.ground_truth.recording_id,
    )
    path = tmp_path_factory.mktemp("prediction") / "pred.jsonl"
    write_ground_truth(path, predicted, car_spec, source=EventSource.RECOGNIZED)
    return path.read_bytes()


def step_outcome(read):
    """(manifest, sequence) of a step-file read, or its (message, line)."""
    try:
        return read()
    except FormatError as exc:
        assert exc.line is not None
        return (exc.message, exc.line)


GT_MANIFEST_LINE = json.dumps(
    {"format_version": "1.0.0", "kind": "ground_truth", "recording_id": "rec", "fps": 10.0}
)


class TestStepRowFastPath:
    """Step rows in write_ground_truth's shape skip the JSON decoder and read the same."""

    @staticmethod
    def agree(path, spec):
        """read_ground_truth and validate_file against reference_read_ground_truth."""
        read = step_outcome(lambda: read_ground_truth(path, spec))
        assert read == step_outcome(lambda: reference_read_ground_truth(path, spec))
        structural = step_outcome(lambda: reference_read_ground_truth(path))
        expected = [] if isinstance(structural[0], FileManifest) else [
            f"{path}:{structural[1]}: {structural[0]}"
        ]
        assert validate_file(path) == expected
        return read

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_mutants(self, tmp_path_factory, car_prediction_bytes, car_spec, seed):
        path = tmp_path_factory.mktemp("mutants") / "m.jsonl"
        path.write_bytes(mutate_bytes(car_prediction_bytes, random.Random(seed)))
        self.agree(path, car_spec)

    @pytest.mark.parametrize(
        "row, expected",
        [
            ('{"frame":7,"state":"1,0,0","conf":0.5}', (7, 0.5)),
            ('{"frame":7,"state":"1,0,0"}', (7, 1.0)),
            ('{"frame":7,"state":"1,0,0","conf":1}', (7, 1.0)),
            ('{"frame":7,"state":"1,0,0","conf":-0.0}', (7, -0.0)),
            ('{"frame":7,"state":"1,0,0","conf":5E-1}', (7, 0.5)),
            ('{"frame":1000000000000000000,"state":"1,0,0","conf":0.5}',
             (10**18, 0.5)),
            ('{"frame":7,"state":"\\u0031,0,0","conf":0.5}', (7, 0.5)),
            ('{"frame":7,"state":"1,0,0","conf":0.5,"box":null}', (7, 0.5)),
            ('{"frame":7, "state":"1,0,0","conf":0.5}', (7, 0.5)),
            ('{"frame":7,"state":"1,0,0","conf":0.5}\r', (7, 0.5)),
            ('{"frame":07,"state":"1,0,0","conf":0.5}', ("invalid JSON: Expecting ',' delimiter", 3)),
            ('{"frame":7,"state":"1,0,0","conf":-0.5}', ("'conf' must be >= 0, got -0.5", 3)),
            ('{"frame":7,"state":"1,0,0","conf":1e999}', ("'conf' must be finite, got inf", 3)),
            ('{"frame":7,"state":" 1,0,0","conf":0.5}', (7, 0.5)),
            ('{"frame":7,"state":"1,0,2","conf":1e999}',
             ("component status must be -1, 0 or 1, got 2", 3)),
            ('{"frame":7,"state":"1,0","conf":0.5}',
             ("state has 2 components, procedure 'chain' expects 3", 3)),
            ('{"frame": 7,"state":"0,0,0"}\n{"frame":7,"state":"1,0,0","conf":0.5}', (7, 0.5)),
            ('{"frame": 8,"state":"0,0,0"}\n{"frame":7,"state":"1,0,0","conf":0.5}',
             ("frame 7 out of order (previous was 8)", 4)),
            ("[]", ("state record must be a JSON object", 3)),
        ],
        ids=["writer-row", "no-conf", "integer-conf", "negative-zero-conf", "exponent-conf",
             "19-digit-frame", "escaped-state", "extra-key", "spaced-row", "trailing-cr",
             "leading-zero-frame", "negative-conf", "overflowing-conf", "spaced-state",
             "bad-state-before-bad-conf", "narrow-state", "same-frame-after-decoded-row",
             "earlier-frame-after-decoded-row", "row-not-object"],
    )
    def test_edge_rows(self, tmp_path, row, expected):
        """Each row at the pattern's edge gives the slow path's event or error."""
        path = tmp_path / "gt.jsonl"
        base = '{"frame":0,"state":"0,0,0"}'
        path.write_bytes(f"{GT_MANIFEST_LINE}\n{base}\n{row}\n".encode())
        outcome = self.agree(path, linear_spec(3))
        if isinstance(expected[0], str):
            assert outcome == expected
        else:
            (event,) = outcome[1].events
            assert (event.action_id, event.frame, event.confidence) == ("a0", *expected)
            assert type(event.confidence) is float

    @pytest.mark.parametrize("spec_name", BUILTIN_PROCEDURES)
    def test_every_written_row_matches(self, tmp_path, spec_name):
        """A writer change that moves step rows off the fast path fails here."""
        spec = load_builtin_procedure(spec_name)
        install = next(a for a in spec.actions if a.transition is Transition.INSTALL)
        argv = ["simulate", "--spec", spec_name, "--seed", "4", "--out-dir", str(tmp_path),
                "--incorrect", install.action_id]
        assert main(argv) == 0
        (stream,) = tmp_path.glob("*.stream.jsonl")
        paths = list(tmp_path.glob("*.gt.jsonl"))
        for baseline in ("b1", "b2", "b3"):
            paths.append(tmp_path / f"{baseline}.pred.jsonl")
            assert main(["run", "--baseline", baseline, "--spec", spec_name,
                         "--stream", str(stream), "--out", str(paths[-1])]) == 0
        for path in paths:
            rows = path.read_bytes().splitlines(keepends=True)[1:]
            assert len(rows) > 1 and all(_STEP_ROW.fullmatch(row) for row in rows), path
        # the ground truth holds an incorrect step, so -1 states are checked too
        assert b"-1" in paths[0].read_bytes()


class TestSharedStateMemo:
    """One memo per file serves undecoded (bytes) and decoded (str) state texts alike."""

    WRITER = {
        "stream": '{"frame":%d,"detections":[{"state":"1,0,0","conf":0.5}]}',
        "ground_truth": '{"frame":%d,"state":"1,0,0"}',
    }
    DECODED = {  # a space after a colon, and swapped keys: both miss the row patterns
        "stream": ('{"frame":%d,"detections":[{"state": "1,0,0","conf":0.5}]}',
                   '{"frame":%d,"detections":[{"conf":0.5,"state":"1,0,0"}]}'),
        "ground_truth": ('{"frame": %d,"state":"1,0,0"}', '{"state":"1,0,0","frame":%d}'),
    }
    PATTERN = {"stream": _STREAM_ROW, "ground_truth": _STEP_ROW}

    @staticmethod
    def write(path, kind, rows):
        manifest = {"format_version": "1.0.0", "kind": kind, "recording_id": "rec", "fps": FPS}
        path.write_text("\n".join([json.dumps(manifest), *rows]) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("kind", ["stream", "ground_truth"])
    @pytest.mark.parametrize("writer_first", [True, False])
    def test_one_parse_and_one_state_per_text(self, tmp_path, monkeypatch, kind, writer_first):
        shapes = [self.WRITER[kind], *self.DECODED[kind]]
        if not writer_first:
            shapes.reverse()
        rows = [shape % frame for frame, shape in enumerate(shapes)]
        assert [bool(self.PATTERN[kind].fullmatch(row.encode())) for row in rows] == [
            shape is self.WRITER[kind] for shape in shapes
        ]
        path = tmp_path / "rows.jsonl"
        self.write(path, kind, rows)
        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse_state_text(text)

        monkeypatch.setattr(formats, "parse_state_text", counting_parse)
        records = list(formats._read_rows(path, kind)[1])
        if kind == "stream":
            states = [frame.detections[0].state for frame in records]
        else:
            states = [state for _, _, _, state, _ in records]
        assert parsed == ["1,0,0"]
        assert len(states) == 3 and all(state is states[0] for state in states)
        assert states[0] == AssemblyState.from_values([1, 0, 0])

    @pytest.mark.parametrize("kind", ["stream", "ground_truth"])
    @pytest.mark.parametrize("value", [5, ["1"]])
    def test_non_string_state_after_a_writer_row(self, tmp_path, kind, value):
        bad = {"frame": 1, "detections": [{"state": value, "conf": 0.5}]}
        if kind == "ground_truth":
            bad = {"frame": 1, "state": value}
        path = tmp_path / "rows.jsonl"
        self.write(path, kind, [self.WRITER[kind] % 0, json.dumps(bad)])
        with pytest.raises(FormatError) as err:
            list(formats._read_rows(path, kind)[1])
        assert (err.value.message, err.value.line) == ("'state' must be a string", 3)


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

    DOCUMENT = {
        "format_version": "1.0.0",
        "kind": "procedure",
        "id": "two",
        "components": [{"index": 0, "name": "x"}, {"index": 1, "name": "y"}],
        "initial_state": "0,0",
        "actions": [
            {"id": "a", "component": 0, "transition": "install"},
            {"id": "b", "component": 1, "transition": "install", "requires": ["a"]},
        ],
    }

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(id=7), "procedure 'id' must be a string"),
            (lambda d: d.update(components=[]), "'components' must be a non-empty list"),
            (lambda d: d["components"][1].pop("name"), "component 1 must have a string 'name'"),
            (lambda d: d.update(initial_state=0), "'initial_state' must be a state string"),
            (lambda d: d.update(actions={}), "'actions' must be a list"),
            (lambda d: d["actions"][1].update(id=None), "every action must have a string 'id'"),
            (lambda d: d["actions"][1].update(requires="a"),
             "action 'b': 'requires' must be a list of ids"),
        ],
        ids=["id", "components", "component-name", "initial-state", "actions", "action-id",
             "requires"],
    )
    def test_document_errors(self, tmp_path, edit, message):
        path = tmp_path / "proc.json"
        document = json.loads(json.dumps(self.DOCUMENT))
        edit(document)
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_procedure(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, message, line",
        [
            (None, "cannot read file: No such file or directory", None),
            ('{"kind": "procedure",\n"id": "x",\n}',
             "invalid JSON: Expecting property name enclosed in double quotes", 3),
            ("[]", "document root must be a JSON object", None),
            ('{"format_version": "1.0.0", "kind": "report"}',
             "expected a procedure document, found 'report'", None),
        ],
        ids=["missing-file", "invalid-json", "root-not-object", "wrong-kind"],
    )
    def test_json_document_errors(self, tmp_path, text, message, line):
        path = tmp_path / "proc.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_procedure(path)
        assert (err.value.message, err.value.line) == (message, line)

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


class TestJsonDocumentBytes:
    # sha256 of the files psrkit wrote before its JSON documents shared a writer
    DIGESTS = {
        "p.json": "d5b33d0ed52612804963a6ce5e466be2def0aa4ce40d0b2e30924619ff705acb",
        "r.json": "9f2c204b29d1f791762a20123ce5ac0b580978b5e261ffea593d1d6777b66e49",
        "r.csv": "409a59cbf0e59fca0b6554acf65be9a7d9f62f742eafcd987981c4528f285a60",
        "r0.csv": "21af78706825cdb8332180889fbc0c10e78da811176b19689837c0064ee7872d",
        "industreal_car_assembly-seed12.scenario.json":
            "da56f9e0a42b01a6870f2090a363de17a613594c1783a966d4fa9fbf19877c08",
    }

    def test_same_bytes_as_before(self, tmp_path, car_spec):
        write_procedure(tmp_path / "p.json", car_spec)
        reports = [report("a"), report("b", tau=None, has_errors=True)]
        write_report(tmp_path / "r.json", reports)
        write_report(tmp_path / "r.csv", reports, fmt="csv")
        write_report(tmp_path / "r0.csv", reports[:1], fmt="csv")
        cfg = SimConfig(seed=12)
        injection = ErrorInjection(omit=frozenset({"install_front_bracket_screw"}))
        write_scenario(tmp_path, simulate(car_spec, injection, cfg), car_spec, cfg, injection)
        assert read_procedure(tmp_path / "p.json") == car_spec
        for name, digest in self.DIGESTS.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("format_version", 1, "format_version must be a string"),
            ("format_version", "1.0", "malformed format_version '1.0'"),
            ("format_version", "1.x.0", "malformed format_version '1.x.0'"),
            ("kind", "trace", "unknown file kind 'trace'"),
            ("recording_id", 7, "recording_id must be a string"),
            ("fps", 0, "fps must be positive and finite, got 0.0"),
            ("fps", -2.5, "fps must be positive and finite, got -2.5"),
        ],
        ids=["version-type", "version-parts", "version-digits", "kind", "recording-id",
             "fps-zero", "fps-negative"],
    )
    def test_manifest_errors(self, tmp_path, capsys, key, value, message):
        path = tmp_path / "s.jsonl"
        manifest = {**json.loads(MANIFEST_LINE), key: value}
        write_lines(path, [json.dumps(manifest), '{"frame":0,"detections":[]}'])
        assert validate_file(path) == [f"{path}:1: {message}"]
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"{path}:1: {message}\n"

    def test_manifest_must_be_an_object(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_lines(path, ["[]", '{"frame":0,"detections":[]}'])
        assert validate_file(path) == [f"{path}:1: manifest line must be a JSON object"]

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("r.json", lambda d: d.update(recordings={}), "report 'recordings' must be a list"),
            ("r.json", lambda d: d["recordings"].append(1), "report rows must be objects"),
            ("r.json", lambda d: d["recordings"][1].pop("pos"), "report row is missing 'pos'"),
            ("s.scenario.json", lambda d: d.pop("recording_id"),
             "scenario document is missing 'recording_id'"),
            ("s.scenario.json", lambda d: d.pop("ground_truth_file"),
             "scenario document is missing 'ground_truth_file'"),
            ("s.scenario.json", lambda d: d.update(config=[]),
             "scenario 'config' must be an object"),
            ("r.json", lambda d: d.update(kind="trace"), "unknown file kind 'trace'"),
        ],
        ids=["recordings-not-list", "row-not-object", "row-missing-column",
             "scenario-missing-first-key", "scenario-missing-last-key", "config-not-object",
             "unknown-document-kind"],
    )
    def test_document_errors(self, tmp_path, capsys, car_spec, name, edit, message):
        write_report(tmp_path / "r.json", [report("a"), report("b")])
        cfg = SimConfig(seed=12)
        scenario = simulate(car_spec, cfg=cfg, recording_id="s")
        write_scenario(tmp_path, scenario, car_spec, cfg, ErrorInjection())
        path = tmp_path / name
        document = json.loads(path.read_text(encoding="utf-8"))
        edit(document)
        path.write_text(json.dumps(document), encoding="utf-8")
        assert validate_file(path) == [f"{path}: {message}"]
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"{path}: {message}\n"


@pytest.fixture(scope="module")
def written_reports(tmp_path_factory) -> dict:
    """JSON reports that eval and bench write, with and without error recordings."""
    car = "industreal_car_assembly"
    clean, mixed = tmp_path_factory.mktemp("clean"), tmp_path_factory.mktemp("mixed")
    for rid, extra in (("ok", []), ("bad", ["--incorrect", "install_rear_chassis"])):
        for runs in (clean, mixed) if rid == "ok" else (mixed,):
            assert main(["simulate", "--spec", car, "--seed", "3", "--out-dir", str(runs),
                         "--recording-id", rid, *extra]) == 0
            assert main(["run", "--baseline", "b2", "--spec", car, "--stream",
                         str(runs / f"{rid}.stream.jsonl"),
                         "--out", str(runs / f"{rid}.pred.jsonl")]) == 0
    paths = {}
    for rid in ("ok", "bad"):
        paths[f"eval-{rid}"] = mixed / f"eval-{rid}.json"
        assert main(["eval", "--spec", car, "--gt", str(mixed / f"{rid}.gt.jsonl"),
                     "--pred", str(mixed / f"{rid}.pred.jsonl"),
                     "--out", str(paths[f"eval-{rid}"]), "--format", "json"]) == 0
    for name, runs in (("bench-clean", clean), ("bench-mixed", mixed)):
        paths[name] = runs.parent / f"{runs.name}.json"
        assert main(["bench", "--spec", car, "--runs", str(runs),
                     "--out", str(paths[name]), "--format", "json"]) == 0
    return paths


def set_in(keys, value):
    """An edit of a report document that sets the value at one key path."""
    def edit(document):
        target = document
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    return edit


class TestReportValidation:
    def test_written_reports_validate(self, written_reports):
        errors_only = {}
        for name, path in written_reports.items():
            assert validate_file(path) == [], name
            assert main(["validate", str(path)]) == 0
            errors_only[name] = json.loads(path.read_text())["aggregates"]["errors_only"]
        # both shapes of the ERRORS_ONLY aggregate are covered
        assert errors_only["eval-ok"] is None and errors_only["bench-clean"] is None
        assert errors_only["eval-bad"] is not None and errors_only["bench-mixed"] is not None

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("recordings", 0, "recording_id"), 7,
             "recordings[0].recording_id must be a string, got 7"),
            (("recordings", 1, "pos"), "x", "recordings[1].pos must be a number in [0, 1], got 'x'"),
            (("recordings", 0, "precision"), 1.5,
             "recordings[0].precision must be a number in [0, 1], got 1.5"),
            (("recordings", 0, "recall"), -0.25,
             "recordings[0].recall must be a number in [0, 1], got -0.25"),
            (("recordings", 0, "f1"), math.nan, "recordings[0].f1 must be a number in [0, 1], got nan"),
            (("recordings", 0, "f1"), True, "recordings[0].f1 must be a number in [0, 1], got True"),
            (("recordings", 0, "tau_s"), -1,
             "recordings[0].tau_s must be null or a finite number >= 0, got -1"),
            (("recordings", 0, "tau_s"), math.inf,
             "recordings[0].tau_s must be null or a finite number >= 0, got inf"),
            (("recordings", 0, "tau_s"), "0.5",
             "recordings[0].tau_s must be null or a finite number >= 0, got '0.5'"),
            (("recordings", 0, "tp"), -3, "recordings[0].tp must be a non-negative integer, got -3"),
            (("recordings", 0, "fp"), 1.0, "recordings[0].fp must be a non-negative integer, got 1.0"),
            (("recordings", 0, "fn"), False,
             "recordings[0].fn must be a non-negative integer, got False"),
            (("recordings", 0, "has_errors"), 1, "recordings[0].has_errors must be true or false, got 1"),
            (("aggregates",), 7, "report 'aggregates' must be an object"),
            (("aggregates", "all"), None, "report rows must be objects"),
            (("aggregates", "all", "tp"), -1,
             "aggregates.all.tp must be a non-negative integer, got -1"),
            (("aggregates", "errors_only"), 7, "report rows must be objects"),
            (("aggregates", "errors_only", "pos"), "x",
             "aggregates.errors_only.pos must be a number in [0, 1], got 'x'"),
        ],
        ids=["recording-id", "pos-string", "precision-above-one", "recall-negative", "f1-nan",
             "f1-bool", "tau-negative", "tau-infinite", "tau-string", "tp-negative",
             "fp-float", "fn-bool", "has-errors-int", "aggregates-int", "all-null",
             "all-tp-negative", "errors-only-int", "errors-only-pos-string"],
    )
    def test_bad_values_rejected(self, tmp_path, capsys, written_reports, keys, value, message):
        document = json.loads(written_reports["bench-mixed"].read_text())
        set_in(keys, value)(document)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert validate_file(path) == [f"{path}: {message}"]
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"{path}: {message}\n"

    def test_missing_aggregates_and_aggregate_columns(self, tmp_path, written_reports):
        document = json.loads(written_reports["bench-mixed"].read_text())
        del document["aggregates"]["errors_only"]["f1"]
        path = tmp_path / "r.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert validate_file(path) == [f"{path}: report row is missing 'f1'"]
        del document["aggregates"]
        path.write_text(json.dumps(document), encoding="utf-8")
        assert validate_file(path) == [f"{path}: report 'aggregates' must be an object"]


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
