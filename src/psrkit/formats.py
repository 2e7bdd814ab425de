"""Canonical on-disk formats, plus the bundled car procedures.

Detection streams and step sequences are JSONL: a one-line manifest
followed by one record per line, so they can be produced and consumed
incrementally. Procedures, scenario manifests, and metric reports are
single JSON documents; reports can also be written as CSV with a fixed
column set. States inside files always use the comma-separated form.

Readers never raise anything but FormatError on bad input; the error
carries the file path and, for line-oriented formats, the line number.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path

from .baselines import Detection, DetectionFrame
from .metrics import MetricsReport, Subset, aggregate_reports
from .model import (
    AssemblyState,
    ComponentStatus,
    EventSource,
    ProceduralAction,
    ProcedureSpec,
    StepEvent,
    StepSequence,
    Transition,
    apply_transition,
    diff_states,
    parse_state_text,
    serialize_state,
    transition_target,
    validate_procedure,
)
from .simulate import ErrorInjection, Scenario, SimConfig

FORMAT_VERSION = "1.0.0"
SUPPORTED_MAJOR = 1
KINDS = ("stream", "ground_truth", "procedure", "scenario", "report")

BUILTIN_PROCEDURES = ("industreal_car_assembly", "industreal_car_maintenance")


class FormatError(Exception):
    """Malformed or inconsistent file content, located when possible."""

    def __init__(self, message: str, path=None, line: int | None = None):
        self.message = message
        self.path = str(path) if path is not None else None
        self.line = line
        super().__init__(str(self))

    def __str__(self) -> str:
        location = ""
        if self.path is not None:
            location = self.path
            if self.line is not None:
                location += f":{self.line}"
            location += ": "
        return location + self.message


@dataclass(frozen=True)
class FileManifest:
    """First-line header of the line-oriented files."""

    kind: str
    recording_id: str
    fps: float
    format_version: str = FORMAT_VERSION
    source: EventSource | None = None

    def to_json(self) -> str:
        obj: dict = {
            "format_version": self.format_version,
            "kind": self.kind,
            "recording_id": self.recording_id,
            "fps": self.fps,
        }
        if self.source is not None:
            obj["source"] = self.source.value
        return json.dumps(obj, separators=(",", ":"))


def _check_version(version, path, line) -> None:
    if not isinstance(version, str):
        raise FormatError("format_version must be a string", path, line)
    parts = version.split(".")
    if len(parts) != 3 or not all(p.isdigit() for p in parts):
        raise FormatError(f"malformed format_version '{version}'", path, line)
    if int(parts[0]) != SUPPORTED_MAJOR:
        raise FormatError(
            f"unsupported major format version {parts[0]} (supported: {SUPPORTED_MAJOR})",
            path,
            line,
        )


def _as_number(value, what, path, line) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{what} must be a number", path, line)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise FormatError(f"{what} must be finite, got {value}", path, line)
    return number


def _as_int(value, what, path, line) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be an integer", path, line)
    return value


def _parse_manifest(obj, expected_kind: str | None, path, line=1) -> FileManifest:
    if not isinstance(obj, dict):
        raise FormatError("manifest line must be a JSON object", path, line)
    for key in ("format_version", "kind", "recording_id", "fps"):
        if key not in obj:
            raise FormatError(f"manifest is missing '{key}'", path, line)
    _check_version(obj["format_version"], path, line)
    kind = obj["kind"]
    if kind not in KINDS:
        raise FormatError(f"unknown file kind '{kind}'", path, line)
    if expected_kind is not None and kind != expected_kind:
        raise FormatError(f"expected a {expected_kind} file, found '{kind}'", path, line)
    if not isinstance(obj["recording_id"], str):
        raise FormatError("recording_id must be a string", path, line)
    fps = _as_number(obj["fps"], "fps", path, line)
    if fps <= 0:
        raise FormatError(f"fps must be positive and finite, got {fps}", path, line)
    source = None
    if "source" in obj:
        try:
            source = EventSource(obj["source"])
        except ValueError:
            raise FormatError(f"unknown source '{obj['source']}'", path, line) from None
    return FileManifest(
        kind=kind,
        recording_id=obj["recording_id"],
        fps=fps,
        format_version=obj["format_version"],
        source=source,
    )


# write_stream's and write_ground_truth's two row shapes each: int() and float()
# of the groups give what json.loads gives (18 frame digits stay under int()'s
# limit, an integer conf takes the full parse, a step row's conf is never < 0)
_STREAM_ROW = re.compile(
    rb'\{"frame":(0|[1-9][0-9]{0,17}),"detections":\[(?:\{"state":"([-0-9,]*)","conf":'
    rb'(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))\})?\]\}\n?'
)
_STEP_ROW = re.compile(
    rb'\{"frame":(0|[1-9][0-9]{0,17}),"state":"([-0-9,]*)"(?:,"conf":'
    rb'((?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)))?\}\n?'
)
_ROW_MATCHERS = {"stream": _STREAM_ROW.fullmatch, "ground_truth": _STEP_ROW.fullmatch}


def _read_rows(path, kind, spec: ProcedureSpec | None = None):
    """A stream or step file's checked manifest and lazily read records; kind None: any."""
    records = _state_rows(path, kind, spec)
    return next(records), records


def _state_rows(path, kind, spec: ProcedureSpec | None):
    """Yield a stream or step file's checked manifest, then one record per row.

    This is the one row loop of both line-oriented kinds. The file is read
    one line at a time and closed when the generator ends, fails or is
    closed. Lines are numbered as str.splitlines() numbers the whole text;
    a UTF-8 error names the newline-delimited line that holds the bad byte.
    A line after the manifest that its writer's row pattern matches is
    built in the branch that matched it; every other line is parsed by
    json.loads, which names an invalid one, and goes to its kind's builder.
    Each row's 'frame' must be a non-negative integer, strictly increasing
    in a stream and non-decreasing in a step file, with a finite ``frame /
    fps``. ``state_of(text, line)`` parses and width-checks each distinct
    state text once per file, whether it comes as str or as a matched
    row's bytes: against the procedure's width when one is given,
    otherwise the first state's.
    """
    # str keys from decoded rows, bytes keys from matched ones; a bytes key
    # goes in first, as the str of the same text hashes alike and would
    # otherwise cost each later bytes lookup an extra comparison
    states: dict[str | bytes, AssemblyState] = {}
    width = spec.n_components if spec is not None else None

    def state_of(text, line) -> AssemblyState:
        nonlocal width
        key = text
        if text.__class__ is bytes:  # ASCII, by the row patterns
            text = text.decode("ascii")
        elif not isinstance(text, str):
            raise FormatError("'state' must be a string", path, line)
        state = states.get(text)
        if state is None:
            try:
                state = parse_state_text(text)
            except ValueError as exc:
                raise FormatError(str(exc), path, line) from None
            if width is None:
                width = len(state)
            elif len(state) != width:
                if spec is not None:
                    message = (
                        f"state has {len(state)} components, procedure "
                        f"'{spec.id}' expects {width}"
                    )
                else:
                    message = f"state width {len(state)} differs from earlier width {width}"
                raise FormatError(message, path, line)
        states[key] = states[text] = state
        return state

    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot read file: {exc.strerror or exc}", path) from None
    inf = math.inf
    line, last_frame = 0, -1
    manifest = fast = None  # the manifest line always takes the full parse
    with handle:
        for physical, raw_bytes in enumerate(handle, start=1):
            match = fast and fast(raw_bytes)
            if match:  # at most 18 frame digits: never negative, and / fps cannot raise
                line += 1
                frame, text, conf = match.groups()
                frame = int(frame)
                if frame <= last_frame and (stream or frame < last_frame):
                    raise FormatError(
                        f"frame {frame} out of order (previous was {last_frame})", path, line
                    )
                last_frame = frame
                time_s = frame / fps
                if time_s == inf:
                    raise FormatError(f"frame / fps is not a finite time (fps {fps})", path, line)
                if not stream:
                    conf = 1.0 if conf is None else float(conf)
                    yield _step_record(path, line, frame, time_s, text, conf, state_of)
                elif text is None:
                    yield DetectionFrame(frame, time_s, ())
                else:
                    state = states.get(text)
                    if state is None:
                        state = state_of(text, line)
                    try:
                        detection = Detection(state, float(conf))
                    except ValueError as exc:
                        _as_number(float(conf), "'conf'", path, line)  # names NaN and inf
                        raise FormatError(str(exc), path, line) from None
                    yield DetectionFrame(frame, time_s, (detection,))
                continue
            try:
                text = raw_bytes.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(
                    f"file is not valid UTF-8: {exc.reason}", path, physical
                ) from None
            # splitlines also breaks on \r, \x85, \u2028 and the like
            for raw in text.splitlines():
                line += 1
                if not raw.strip():
                    continue
                try:
                    obj = json.loads(raw)
                except (ValueError, RecursionError) as exc:
                    # too deep a nesting or too long an integer has no .msg
                    message = getattr(exc, "msg", exc)
                    raise FormatError(f"invalid JSON: {message}", path, line) from None
                if manifest is None:
                    manifest = _parse_manifest(obj, kind, path)
                    stream, fps = manifest.kind == "stream", manifest.fps
                    noun = "frame" if stream else "state"
                    fast = _ROW_MATCHERS.get(manifest.kind)
                    yield manifest
                    continue
                if not isinstance(obj, dict):
                    raise FormatError(f"{noun} record must be a JSON object", path, line)
                frame = obj.get("frame")
                if frame.__class__ is not int:  # so a bool goes on to _as_int, which rejects it
                    frame = _as_int(frame, "'frame'", path, line)
                if frame < 0:
                    raise FormatError(f"frame index must be non-negative, got {frame}", path, line)
                if frame <= last_frame and (stream or frame < last_frame):
                    raise FormatError(
                        f"frame {frame} out of order (previous was {last_frame})", path, line
                    )
                last_frame = frame
                try:
                    time_s = frame / fps
                except OverflowError:  # a frame index past the float range
                    time_s = inf
                if time_s == inf:  # frame and fps are finite and non-negative, so never NaN
                    raise FormatError(f"frame / fps is not a finite time (fps {fps})", path, line)
                if stream:
                    yield _frame_record(path, line, frame, time_s, obj, state_of)
                    continue
                text, conf = obj.get("state"), obj.get("conf", 1.0)
                yield _step_record(path, line, frame, time_s, text, conf, state_of)
        if manifest is None:
            raise FormatError("file is empty, expected a manifest line", path, 1)


# ---------------------------------------------------------------------------
# detection streams


def iter_stream_file(
    path, spec: ProcedureSpec | None = None
) -> tuple[FileManifest, Iterator[DetectionFrame]]:
    """Open a detection-stream file: the manifest now, the frames lazily.

    The manifest is checked before this returns. Frames are parsed as
    the iterator is consumed, so memory does not grow with the file; a
    bad frame raises its located FormatError when it is reached. Each
    distinct state string is parsed and width-checked once. With a
    procedure, every state must have its component count.
    """
    return _read_rows(path, "stream", spec)


def _frame_record(path, line, frame, time_s, obj, state_of) -> DetectionFrame:
    """The DetectionFrame of one stream row whose frame index is checked."""
    raw_detections = obj.get("detections", ())  # JSON has no tuples: () means absent
    if raw_detections.__class__ is not list and raw_detections != ():
        raise FormatError("'detections' must be a list", path, line)
    detections = []
    for raw in raw_detections:
        if not isinstance(raw, dict):
            raise FormatError("detection must be a JSON object", path, line)
        state = state_of(raw.get("state"), line)
        confidence = raw.get("conf")
        if confidence.__class__ is not float or not 0.0 <= confidence <= 1.0:
            confidence = _as_number(confidence, "'conf'", path, line)  # names NaN and inf
        box = raw.get("box")
        if box is not None:
            if not isinstance(box, list) or len(box) != 4:
                raise FormatError("'box' must be a list of four numbers", path, line)
            box = tuple(_as_number(v, "'box' entry", path, line) for v in box)
        try:
            detections.append(Detection(state, confidence, box))
        except ValueError as exc:
            raise FormatError(str(exc), path, line) from None
    return DetectionFrame(frame, time_s, tuple(detections))


def read_stream(path) -> tuple[FileManifest, list[DetectionFrame]]:
    """Read a whole detection-stream file into memory."""
    manifest, frames = iter_stream_file(path)
    return manifest, list(frames)


def write_stream(path, manifest: FileManifest, frames) -> None:
    """Write a detection-stream file (inverse of read_stream), frame by frame.

    Each distinct state is serialized once and needs no JSON escaping. An
    int frame and a float conf without a box are formatted directly, as
    repr(float) is what json.dumps writes; other values use json.dumps.
    """
    texts: dict[AssemblyState, str] = {}
    state, text = object(), ""  # the last state looked up, and its text
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(manifest.to_json() + "\n")
        for frame in frames:
            cells = []
            for det in frame.detections:
                if det.state is not state:
                    state = det.state
                    text = texts.get(state)
                    if text is None:
                        text = texts[state] = serialize_state(state)
                if det.confidence.__class__ is float and det.box is None:
                    cells.append('{"state":"%s","conf":%r}' % (text, det.confidence))
                    continue
                record: dict = {"state": text, "conf": det.confidence}
                if det.box is not None:
                    record["box"] = list(det.box)
                cells.append(json.dumps(record, separators=(",", ":")))
            number = frame.frame if frame.frame.__class__ is int else json.dumps(frame.frame)
            handle.write('{"frame":%s,"detections":[%s]}\n' % (number, ",".join(cells)))


# ---------------------------------------------------------------------------
# step sequences (ground truth and predictions share the format)


def _step_record(path, line, frame, time_s, text, conf, state_of):
    """(line, frame, time_s, state, confidence) for one row of a step file."""
    state = state_of(text, line)
    if conf.__class__ is not float or not 0.0 <= conf < math.inf:
        conf = _as_number(conf, "'conf'", path, line)  # names NaN and inf
        if conf < 0:
            raise FormatError(f"'conf' must be >= 0, got {conf}", path, line)
    return line, frame, time_s, state, conf


def read_ground_truth(path, spec: ProcedureSpec) -> tuple[FileManifest, StepSequence]:
    """Read a step-sequence file as (new state)@(frame) records.

    Consecutive states are diffed into step events, incorrect completions
    included; ``.correct_only()`` of the sequence drops those.
    """
    manifest, records = _read_rows(path, "ground_truth", spec)
    source = manifest.source or EventSource.GROUND_TRUTH
    previous: AssemblyState | None = None
    events: list[StepEvent] = []
    seen: set[str] = set()
    for line, frame, time_s, state, confidence in records:
        if previous is None:
            previous = state
            continue
        for component, transition in diff_states(previous, state):
            action_id = spec.step_id(component, transition)
            if action_id in seen:
                raise FormatError(f"duplicate completion of '{action_id}'", path, line)
            seen.add(action_id)
            events.append(
                StepEvent(
                    action_id=action_id,
                    component=component,
                    transition=transition,
                    time_s=time_s,
                    frame=frame,
                    confidence=confidence,
                    source=source,
                )
            )
        previous = state
    if previous is None:
        raise FormatError("step file has no state rows", path, 1)
    return manifest, StepSequence.from_events(manifest.recording_id, manifest.fps, events)


def _writable_base_state(
    sequence: StepSequence, base_state: AssemblyState
) -> AssemblyState:
    """Base row under which every event of the sequence is a state change.

    A recognizer whose initial belief differed from the procedure's
    start (it adopts its first detection) can emit a transition that is
    a no-op relative to that start; nudging the affected components in
    the base row keeps the change-per-row file format lossless.
    """
    statuses = list(base_state.statuses)
    firsts: dict[int, Transition] = {}  # each component's first transition
    for event in sequence.events:
        firsts.setdefault(event.component, event.transition)
    absent = ComponentStatus.ABSENT
    for component, transition in firsts.items():
        target = transition_target(transition)
        if statuses[component] == target:  # the nudge is a status the event can leave
            statuses[component] = ComponentStatus.INSTALLED if target is absent else absent
    return AssemblyState(tuple(statuses))


def write_ground_truth(
    path, sequence: StepSequence, spec: ProcedureSpec, source: EventSource | None = None
) -> None:
    """Write a step sequence as state rows (inverse of read_ground_truth).

    Each row is one format string; json.dumps of the frame and the conf
    writes a bool, an int, inf or NaN as a row dict's json.dumps would.
    """
    state = _writable_base_state(sequence, spec.initial_state)
    if source is None:
        source = sequence.events[0].source if sequence.events else EventSource.GROUND_TRUTH
    manifest = FileManifest(
        kind="ground_truth",
        recording_id=sequence.recording_id,
        fps=sequence.fps,
        source=source,
    )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(manifest.to_json() + "\n")
        handle.write('{"frame":0,"state":"%s"}\n' % serialize_state(state))
        for event in sequence.events:
            state = apply_transition(state, event.component, event.transition)
            row = (json.dumps(event.frame), serialize_state(state), json.dumps(event.confidence))
            handle.write('{"frame":%s,"state":"%s","conf":%s}\n' % row)


# ---------------------------------------------------------------------------
# procedures


def _read_json_document(path, expected_kind: str | None) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"file is not valid UTF-8: {exc.reason}", path) from None
    except OSError as exc:
        raise FormatError(f"cannot read file: {exc.strerror or exc}", path) from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", path, exc.lineno) from None
    except (ValueError, RecursionError) as exc:
        # too deep a nesting or too long an integer: the decoder gives no position
        raise FormatError(f"invalid JSON: {exc}", path, 1) from None
    if not isinstance(document, dict):
        raise FormatError("document root must be a JSON object", path)
    if expected_kind is not None:
        _check_version(document.get("format_version"), path, None)
        kind = document.get("kind")
        if kind != expected_kind:
            raise FormatError(f"expected a {expected_kind} document, found '{kind}'", path)
    return document


def _write_json_document(path, document: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def _procedure_from_document(document: dict, path) -> ProcedureSpec:
    if not isinstance(document.get("id"), str):
        raise FormatError("procedure 'id' must be a string", path)
    raw_components = document.get("components")
    if not isinstance(raw_components, list) or not raw_components:
        raise FormatError("'components' must be a non-empty list", path)
    names: list[str] = []
    for position, raw in enumerate(raw_components):
        if not isinstance(raw, dict) or not isinstance(raw.get("name"), str):
            raise FormatError(f"component {position} must have a string 'name'", path)
        index = _as_int(raw.get("index"), "component 'index'", path, None)
        if index != position:
            raise FormatError(
                f"component index {index} does not match its position {position}", path
            )
        names.append(raw["name"])
    raw_initial = document.get("initial_state", "")
    if not isinstance(raw_initial, str):
        raise FormatError("'initial_state' must be a state string", path)
    try:
        initial = parse_state_text(raw_initial)
    except ValueError as exc:
        raise FormatError(f"initial_state: {exc}", path) from None
    raw_actions = document.get("actions")
    if not isinstance(raw_actions, list):
        raise FormatError("'actions' must be a list", path)
    actions: list[ProceduralAction] = []
    for raw in raw_actions:
        if not isinstance(raw, dict) or not isinstance(raw.get("id"), str):
            raise FormatError("every action must have a string 'id'", path)
        try:
            transition = Transition(raw.get("transition"))
        except ValueError:
            raise FormatError(
                f"action '{raw['id']}' has unknown transition '{raw.get('transition')}'",
                path,
            ) from None
        requires = raw.get("requires", [])
        if not isinstance(requires, list) or not all(isinstance(r, str) for r in requires):
            raise FormatError(f"action '{raw['id']}': 'requires' must be a list of ids", path)
        actions.append(
            ProceduralAction(
                action_id=raw["id"],
                component=_as_int(raw.get("component"), "action 'component'", path, None),
                transition=transition,
                prerequisites=frozenset(requires),
                description=str(raw.get("description", "")),
            )
        )
    spec = ProcedureSpec(
        id=document["id"],
        components=tuple(names),
        actions=tuple(actions),
        initial_state=initial,
    )
    diagnostics = validate_procedure(spec)
    if diagnostics:
        raise FormatError("; ".join(diagnostics), path)
    return spec


def read_procedure(path) -> ProcedureSpec:
    """Read and validate a procedure document."""
    document = _read_json_document(path, "procedure")
    return _procedure_from_document(document, path)


def write_procedure(path, spec: ProcedureSpec) -> None:
    document = {
        "format_version": FORMAT_VERSION,
        "kind": "procedure",
        "id": spec.id,
        "components": [
            {"index": i, "name": name} for i, name in enumerate(spec.components)
        ],
        "initial_state": serialize_state(spec.initial_state),
        "actions": [
            {
                "id": a.action_id,
                "component": a.component,
                "transition": a.transition.value,
                "requires": sorted(a.prerequisites),
                "description": a.description,
            }
            for a in spec.actions
        ],
    }
    _write_json_document(path, document)


def load_builtin_procedure(name: str) -> ProcedureSpec:
    """Load one of the procedures shipped with the package."""
    if name not in BUILTIN_PROCEDURES:
        raise ValueError(
            f"unknown builtin procedure '{name}'; available: {', '.join(BUILTIN_PROCEDURES)}"
        )
    with resources.as_file(
        resources.files("psrkit").joinpath("data", f"{name}.json")
    ) as path:
        return read_procedure(path)


# ---------------------------------------------------------------------------
# metric reports


REPORT_COLUMNS = tuple(f.name for f in fields(MetricsReport))


def report_to_row(report: MetricsReport) -> dict:
    return {column: getattr(report, column) for column in REPORT_COLUMNS}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_report(path, reports, fmt: str = "json") -> None:
    """Write per-recording rows plus ALL and ERRORS_ONLY aggregate rows.

    When no recording has errors the ERRORS_ONLY aggregate is empty: a
    null in JSON, a bare marker row in CSV. An undefined average delay
    serializes as null / an empty cell.
    """
    reports = list(reports)
    all_aggregate = aggregate_reports(reports, Subset.ALL)
    errors_aggregate = None
    if any(r.has_errors for r in reports):
        errors_aggregate = aggregate_reports(reports, Subset.ERRORS_ONLY)
    if fmt == "json":
        document = {
            "format_version": FORMAT_VERSION,
            "kind": "report",
            "recordings": [report_to_row(r) for r in reports],
            "aggregates": {
                "all": report_to_row(all_aggregate),
                "errors_only": report_to_row(errors_aggregate)
                if errors_aggregate is not None
                else None,
            },
        }
        _write_json_document(path, document)
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(REPORT_COLUMNS)
            for report in [*reports, all_aggregate, errors_aggregate]:
                if report is None:  # no recording has errors: a bare marker row
                    row = {"recording_id": Subset.ERRORS_ONLY.value}
                else:
                    row = report_to_row(report)
                writer.writerow([_csv_cell(row.get(c)) for c in REPORT_COLUMNS])
    else:
        raise ValueError(f"unknown report format '{fmt}' (expected json or csv)")


# ---------------------------------------------------------------------------
# scenarios


def write_scenario(
    out_dir,
    scenario: Scenario,
    spec: ProcedureSpec,
    cfg: SimConfig,
    injection: ErrorInjection,
) -> dict[str, Path]:
    """Write a simulated recording as stream + ground truth + manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    recording_id = scenario.ground_truth.recording_id
    fps = scenario.ground_truth.fps
    stream_path = out_dir / f"{recording_id}.stream.jsonl"
    gt_path = out_dir / f"{recording_id}.gt.jsonl"
    doc_path = out_dir / f"{recording_id}.scenario.json"
    write_stream(
        stream_path,
        FileManifest(kind="stream", recording_id=recording_id, fps=fps),
        scenario.stream,
    )
    write_ground_truth(gt_path, scenario.ground_truth, spec)
    document = {
        "format_version": FORMAT_VERSION,
        "kind": "scenario",
        "recording_id": recording_id,
        "procedure": spec.id,
        "fps": fps,
        "seed": cfg.seed,
        "stream_file": stream_path.name,
        "ground_truth_file": gt_path.name,
        "config": asdict(cfg),
        "injection": {
            "omit": sorted(injection.omit),
            "incorrect": sorted(injection.incorrect),
            "swaps": list(injection.swaps),
        },
    }
    _write_json_document(doc_path, document)
    return {"stream": stream_path, "ground_truth": gt_path, "scenario": doc_path}


# ---------------------------------------------------------------------------
# generic validation entry point (used by the CLI)


def sniff_kind(path) -> str:
    """Best-effort file kind: manifest line for JSONL, document key otherwise."""
    suffix = Path(path).suffix
    if suffix == ".jsonl":
        manifest, records = _read_rows(path, None)
        records.close()
        return manifest.kind
    document = _read_json_document(path, None)
    kind = document.get("kind")
    if kind not in KINDS:
        raise FormatError(f"unknown file kind '{kind}'", path)
    return kind


def validate_file(path, spec: ProcedureSpec | None = None) -> list[str]:
    """All diagnostics for one file; empty means valid.

    Step-sequence files are fully validated when a procedure is given
    and structurally (frames, states, confidences) otherwise. The state
    width of stream and step files is the procedure's when one is
    given, otherwise their first state's.
    """
    try:
        kind = sniff_kind(path)
        if kind == "ground_truth" and spec is not None:
            read_ground_truth(path, spec)
        elif kind in ("stream", "ground_truth"):
            for _ in _read_rows(path, kind, spec)[1]:
                pass
        elif kind == "procedure":
            read_procedure(path)
        elif kind == "scenario":
            document = _read_json_document(path, "scenario")
            _validate_scenario_document(document, path)
        elif kind == "report":
            document = _read_json_document(path, "report")
            _validate_report_document(document, path)
    except FormatError as exc:
        return [str(exc)]
    return []


def _validate_scenario_document(document: dict, path) -> None:
    for key in ("recording_id", "procedure", "fps", "seed", "stream_file", "ground_truth_file"):
        if key not in document:
            raise FormatError(f"scenario document is missing '{key}'", path)
    config = document.get("config")
    if not isinstance(config, dict):
        raise FormatError("scenario 'config' must be an object", path)
    try:
        SimConfig(**config)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"invalid simulation config: {exc}", path) from None


def _validate_report_document(document: dict, path) -> None:
    recordings = document.get("recordings")
    if not isinstance(recordings, list):
        raise FormatError("report 'recordings' must be a list", path)
    aggregates = document.get("aggregates")
    if not isinstance(aggregates, dict):
        raise FormatError("report 'aggregates' must be an object", path)
    rows = [(f"recordings[{i}]", row) for i, row in enumerate(recordings)]
    rows.append(("aggregates.all", aggregates.get("all")))
    if aggregates.get("errors_only") is not None:
        rows.append(("aggregates.errors_only", aggregates["errors_only"]))
    for where, row in rows:
        if not isinstance(row, dict):
            raise FormatError("report rows must be objects", path)
        for column, what, ok in _REPORT_CHECKS:
            if column not in row:
                raise FormatError(f"report row is missing '{column}'", path)
            if not ok(row[column]):
                raise FormatError(f"{where}.{column} must be {what}, got {row[column]!r}", path)


# (column, what it must be, test) per REPORT_COLUMNS; NaN fails every comparison
_REPORT_CHECKS = (
    ("recording_id", "a string", lambda v: isinstance(v, str)),
    *((c, "a number in [0, 1]", lambda v: v.__class__ in (int, float) and 0 <= v <= 1)
      for c in ("pos", "precision", "recall", "f1")),
    ("tau_s", "null or a finite number >= 0",
     lambda v: v is None or v.__class__ in (int, float) and 0 <= v < math.inf),
    *((c, "a non-negative integer", lambda v: v.__class__ is int and v >= 0)
      for c in ("tp", "fp", "fn")),
    ("has_errors", "true or false", lambda v: v.__class__ is bool),
)
