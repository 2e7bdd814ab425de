"""Canonical on-disk formats, plus the bundled car procedures.

Detection streams and step sequences are JSONL: a one-line manifest
followed by one record per line, so they can be produced and consumed
incrementally. Procedures, scenario manifests, and metric reports are
single JSON documents; reports can also be written as CSV with a fixed
column set. States inside files always use the comma-separated form.

Readers never raise anything but FormatError on bad input; the error
carries the file path and, for line-oriented formats, the line number.
The checks below raise a plain ValueError, and only the row loop and the
document readers turn it into a FormatError at its file and line.
"""

from __future__ import annotations

import csv
import enum
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
    ProceduralAction,
    ProcedureSpec,
    StepEvent,
    StepSequence,
    Transition,
    diff_states,
    finite_number,
    parse_state_text,
    serialize_state,
    transition_target,
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


class EventSource(enum.Enum):
    """Which kind of step file a manifest heads."""

    RECOGNIZED = "recognized"
    GROUND_TRUTH = "ground_truth"


@dataclass(frozen=True)
class FileManifest:
    """First-line header of the line-oriented files."""

    kind: str
    recording_id: str
    fps: float
    format_version: str = FORMAT_VERSION
    source: EventSource | None = None

    def __post_init__(self):  # the manifest reader's rules too
        if self.kind not in KINDS:
            raise ValueError(f"unknown file kind '{self.kind}'")
        if not isinstance(self.recording_id, str):
            raise ValueError(f"recording_id must be a string, got {self.recording_id!r}")
        if not finite_number(self.fps) or self.fps <= 0:
            raise ValueError(f"fps must be positive and finite, got {self.fps!r}")

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


def _check_version(version) -> None:
    if not isinstance(version, str):
        raise ValueError("format_version must be a string")
    parts = version.split(".")
    if len(parts) != 3 or not all(p.isdigit() for p in parts):
        raise ValueError(f"malformed format_version '{version}'")
    if int(parts[0]) != SUPPORTED_MAJOR:
        raise ValueError(
            f"unsupported major format version {parts[0]} (supported: {SUPPORTED_MAJOR})"
        )


def _as_number(value, what) -> float:
    if finite_number(value):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number")
    raise ValueError(f"{what} must be finite, got {value}")


def _as_int(value, what) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer")
    return value


def _parse_manifest(obj, kinds: tuple[str, ...]) -> FileManifest:
    """The manifest line's FileManifest, whose kind must be one of kinds."""
    if not isinstance(obj, dict):
        raise ValueError("manifest line must be a JSON object")
    for key in ("format_version", "kind", "recording_id", "fps"):
        if key not in obj:
            raise ValueError(f"manifest is missing '{key}'")
    _check_version(obj["format_version"])
    try:
        source = EventSource(obj["source"]) if "source" in obj else None
    except ValueError:
        raise ValueError(f"unknown source '{obj['source']}'") from None
    fps = _as_number(obj["fps"], "fps")  # FileManifest checks kind, recording_id and fps > 0
    manifest = FileManifest(obj["kind"], obj["recording_id"], fps, obj["format_version"], source)
    if manifest.kind not in kinds:
        raise ValueError(f"expected a {' or '.join(kinds)} file, found '{manifest.kind}'")
    return manifest


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
    """A stream or step file's checked manifest and lazily read records; kind None: either."""
    records = _state_rows(path, kind, spec)
    return next(records), records


def _state_rows(path, kind, spec: ProcedureSpec | None):
    """Yield a stream or step file's checked manifest, then one record per row.

    This is the one row loop of both line-oriented kinds. The file is read
    one line at a time and closed when the generator ends, fails or is
    closed. As in JSON Lines, only b"\\n" ends a line, so \\r, \\x0c, U+2028
    and the like are line content, and every error names the line that
    the file's newlines count. A line of whitespace alone is skipped. A
    row that its writer's row pattern matches is taken from the match;
    any other line is decoded as UTF-8 and parsed by json.loads, and the
    first invalid one is named. Both kinds of row then share the frame
    checks: 'frame' must be a non-negative integer, strictly increasing
    in a stream and non-decreasing in a step file, with a finite ``frame /
    fps``. A step row becomes (line, frame, time_s, state, confidence).
    ``state_of(text)`` parses and width-checks each distinct state text
    once per file, whether it comes as str or as a matched row's bytes:
    against the procedure's width when one is given, otherwise the first
    state's. Every check of a line raises ValueError, and the loop turns
    it into a FormatError at the file and line.
    """
    # str keys from decoded rows, bytes keys from matched ones; a bytes key
    # goes in first, as the str of the same text hashes alike and would
    # otherwise cost each later bytes lookup an extra comparison
    states: dict[str | bytes, AssemblyState] = {}
    width = spec.n_components if spec is not None else None

    def state_of(text) -> AssemblyState:
        nonlocal width
        key = text
        if text.__class__ is bytes:  # ASCII, by the row patterns
            text = text.decode("ascii")
        elif not isinstance(text, str):
            raise ValueError("'state' must be a string")
        state = states.get(text)
        if state is None:
            state = parse_state_text(text)
            if width is None:
                width = len(state)
            elif len(state) != width and spec is not None:
                raise ValueError(
                    f"state has {len(state)} components, procedure '{spec.id}' expects {width}"
                )
            elif len(state) != width:
                raise ValueError(f"state width {len(state)} differs from earlier width {width}")
        states[key] = states[text] = state
        return state

    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot read file: {exc.strerror or exc}", path) from None
    inf = math.inf
    last_frame = -1
    manifest = fast = None  # the manifest line always takes the full parse
    with handle:
        for line, raw in enumerate(handle, start=1):
            try:
                match = fast and fast(raw)
                if match:  # at most 18 frame digits, so never negative
                    frame, text, conf = match.groups()
                    frame = int(frame)
                else:
                    raw = raw.decode("utf-8")
                    if not raw.strip():
                        continue
                    try:
                        obj = json.loads(raw)
                    except (ValueError, RecursionError) as exc:
                        # too deep a nesting or too long an integer has no .msg
                        raise ValueError(f"invalid JSON: {getattr(exc, 'msg', exc)}") from None
                    if manifest is None:
                        manifest = _parse_manifest(obj, (kind,) if kind else tuple(_ROW_MATCHERS))
                        stream, fps = manifest.kind == "stream", manifest.fps
                        noun = "frame" if stream else "state"
                        fast = _ROW_MATCHERS[manifest.kind]
                        yield manifest
                        continue
                    if not isinstance(obj, dict):
                        raise ValueError(f"{noun} record must be a JSON object")
                    frame = _as_int(obj.get("frame"), "'frame'")
                    if frame < 0:
                        raise ValueError(f"frame index must be non-negative, got {frame}")
                if frame <= last_frame and (stream or frame < last_frame):
                    raise ValueError(f"frame {frame} out of order (previous was {last_frame})")
                last_frame = frame
                try:
                    time_s = frame / fps
                except OverflowError:  # a frame index past the float range
                    time_s = inf
                if time_s == inf:  # frame and fps are finite and non-negative, so never NaN
                    raise ValueError(f"frame / fps is not a finite time (fps {fps})")
                if not stream:
                    if match:
                        conf = 1.0 if conf is None else float(conf)
                    else:
                        text, conf = obj.get("state"), obj.get("conf", 1.0)
                    state = state_of(text)
                    if conf.__class__ is not float or not 0.0 <= conf < inf:
                        conf = _as_number(conf, "'conf'")  # names NaN and inf
                        if conf < 0:
                            raise ValueError(f"'conf' must be >= 0, got {conf}")
                    yield line, frame, time_s, state, conf
                elif not match:
                    yield _frame_record(frame, time_s, obj, state_of)
                elif text is None:
                    yield DetectionFrame(frame, time_s, ())
                else:
                    state = states.get(text)
                    if state is None:
                        state = state_of(text)
                    try:
                        detection = Detection(state, float(conf))
                    except ValueError:
                        _as_number(float(conf), "'conf'")  # names NaN and inf first
                        raise
                    yield DetectionFrame(frame, time_s, (detection,))
            except UnicodeDecodeError as exc:
                raise FormatError(f"file is not valid UTF-8: {exc.reason}", path, line) from None
            except ValueError as exc:
                raise FormatError(str(exc), path, line) from None
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


def _frame_record(frame, time_s, obj, state_of) -> DetectionFrame:
    """The DetectionFrame of one decoded stream row whose frame index is checked."""
    raw_detections = obj.get("detections", ())  # JSON has no tuples: () means absent
    if raw_detections.__class__ is not list and raw_detections != ():
        raise ValueError("'detections' must be a list")
    detections = []
    for raw in raw_detections:
        if not isinstance(raw, dict):
            raise ValueError("detection must be a JSON object")
        state = state_of(raw.get("state"))
        confidence = _as_number(raw.get("conf"), "'conf'")
        box = raw.get("box")
        if box is not None:
            if not isinstance(box, list) or len(box) != 4:
                raise ValueError("'box' must be a list of four numbers")
            box = tuple(_as_number(v, "'box' entry") for v in box)
        detections.append(Detection(state, confidence, box))
    return DetectionFrame(frame, time_s, tuple(detections))


def read_stream(path) -> tuple[FileManifest, list[DetectionFrame]]:
    """Read a whole detection-stream file into memory."""
    manifest, frames = iter_stream_file(path)
    return manifest, list(frames)


def write_stream(path, manifest: FileManifest, frames) -> None:
    """Write a detection-stream file (inverse of read_stream), frame by frame.

    Each distinct state is serialized, and parsed back, once and needs no
    JSON escaping. A float conf without a box is formatted directly, as
    repr(float) is what json.dumps writes; other detections use json.dumps.
    What read_stream refuses raises ValueError: a non-int frame index, one
    that does not exceed the previous frame's or whose time frame / fps is
    not finite, a state text it cannot parse, a state whose width differs
    from the first state's, a bool conf or a box other than four finite
    numbers.
    """
    texts: dict[AssemblyState, str] = {}
    state, text = object(), ""  # the last state looked up, and its text
    fps, inf, last, width = float(manifest.fps), math.inf, -1, None  # fps as read back
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(manifest.to_json() + "\n")
        for frame in frames:
            index = frame.frame
            if index.__class__ is not int:
                raise ValueError(f"frame must be an integer, got {index!r}")
            if index <= last:
                raise ValueError(f"frame {index} out of order (previous was {last})")
            try:
                time_s = index / fps
            except OverflowError:  # an index past the float range
                time_s = inf
            if time_s == inf:
                raise ValueError(f"frame {index}: frame / fps is not a finite time (fps {fps})")
            last = index
            cells = []
            for det in frame.detections:
                if det.state is not state:
                    state = det.state
                    text = texts.get(state)
                    if text is None:
                        text = serialize_state(state)
                        parse_state_text(text)  # read_stream's checks, once per state
                        if width is None:
                            width = len(state)
                        elif len(state) != width:
                            raise ValueError(
                                f"frame {index}: state width {len(state)} "
                                f"differs from earlier width {width}"
                            )
                        texts[state] = text
                if det.confidence.__class__ is float and det.box is None:
                    cells.append('{"state":"%s","conf":%r}' % (text, det.confidence))
                    continue
                if det.confidence.__class__ is bool:
                    raise ValueError(f"confidence must be a number, got {det.confidence}")
                record: dict = {"state": text, "conf": det.confidence}
                if det.box is not None:
                    box = list(det.box)
                    if len(box) != 4 or not all(map(finite_number, box)):
                        raise ValueError(f"box must be four finite numbers, got {det.box!r}")
                    record["box"] = box
                cells.append(json.dumps(record, separators=(",", ":")))
            handle.write('{"frame":%s,"detections":[%s]}\n' % (index, ",".join(cells)))


# ---------------------------------------------------------------------------
# step sequences (ground truth and predictions share the format)


def read_ground_truth(path, spec: ProcedureSpec) -> tuple[FileManifest, StepSequence]:
    """Read a step-sequence file as (new state)@(frame) records.

    Consecutive states are diffed into step events, incorrect completions
    included; ``.correct_only()`` of the sequence drops those.
    """
    manifest, records = _read_rows(path, "ground_truth", spec)
    return manifest, _step_sequence(path, manifest, records, spec)


def _step_sequence(path, manifest: FileManifest, records, spec: ProcedureSpec) -> StepSequence:
    """The step sequence diffed from a step file's records."""
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
                )
            )
        previous = state
    if previous is None:
        raise FormatError("step file has no state rows", path, 1)
    return StepSequence.from_events(manifest.recording_id, manifest.fps, events)


def _writable_base_state(
    sequence: StepSequence, base_state: AssemblyState
) -> AssemblyState:
    """Base row under which every event of the sequence is a state change.

    A recognizer whose initial belief differed from the procedure's
    start (it adopts its first detection) can emit a transition that is
    a no-op relative to that start; nudging the affected components in
    the base row keeps the change-per-row file format lossless.
    """
    statuses = list(base_state)
    firsts: dict[int, Transition] = {}  # each component's first transition
    for event in sequence.events:
        firsts.setdefault(event.component, event.transition)
    absent = ComponentStatus.ABSENT
    for component, transition in firsts.items():
        target = transition_target(transition)
        if statuses[component] == target:  # the nudge is a status the event can leave
            statuses[component] = ComponentStatus.INSTALLED if target is absent else absent
    return AssemblyState(statuses)


# the status text each transition leaves in a step file's state
_TARGET_TOKEN = {t: str(int(transition_target(t))) for t in Transition}


def write_ground_truth(
    path, sequence: StepSequence, spec: ProcedureSpec, source=EventSource.GROUND_TRUTH
) -> None:
    """Write a step sequence as state rows (inverse of read_ground_truth).

    Each row is one format string: StepEvent's int frame and finite conf
    go through int.__repr__ / float.__repr__, which json.dumps calls, so
    int and float subclasses keep json.dumps's bytes. An event that
    read_ground_truth would read back as another raises ValueError before
    the file is opened: a component outside the procedure, or an action
    id other than the procedure's step_id.
    """
    n = spec.n_components
    for event in sequence.events:
        if not 0 <= event.component < n:
            raise ValueError(
                f"event '{event.action_id}': component {event.component} is outside "
                f"procedure '{spec.id}' of {n} components"
            )
        step_id = spec.step_id(event.component, event.transition)
        if event.action_id != step_id:
            raise ValueError(
                f"event '{event.action_id}': procedure '{spec.id}' names component "
                f"{event.component} {event.transition.value} '{step_id}'"
            )
    state = _writable_base_state(sequence, spec.initial_state)
    manifest = FileManifest(
        kind="ground_truth",
        recording_id=sequence.recording_id,
        fps=sequence.fps,
        source=source,
    )
    tokens = serialize_state(state).split(",")  # one status text per component
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(manifest.to_json() + "\n")
        handle.write('{"frame":0,"state":"%s"}\n' % ",".join(tokens))
        for event in sequence.events:
            tokens[event.component] = _TARGET_TOKEN[event.transition]
            conf = event.confidence
            conf_text = float.__repr__(conf) if isinstance(conf, float) else int.__repr__(conf)
            row = (int.__repr__(event.frame), ",".join(tokens), conf_text)
            handle.write('{"frame":%s,"state":"%s","conf":%s}\n' % row)


# ---------------------------------------------------------------------------
# procedures


def _read_json_document(path) -> dict:
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
    return document


def _read_document(path, kinds: tuple[str, ...]):
    """Check the document at path, of one of kinds; what its kind's check returns."""
    document = _read_json_document(path)
    kind = document.get("kind")
    try:
        _check_version(document.get("format_version"))
        if kind not in KINDS:
            raise ValueError(f"unknown file kind '{kind}'")
        if kind not in kinds:
            raise ValueError(f"expected a {' or '.join(kinds)} document, found '{kind}'")
        return _DOCUMENT_CHECKS[kind](document)
    except ValueError as exc:
        raise FormatError(str(exc), path) from None


def _write_json_document(path, document: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def _procedure_from_document(document: dict) -> ProcedureSpec:
    if not isinstance(document.get("id"), str):
        raise ValueError("procedure 'id' must be a string")
    raw_components = document.get("components")
    if not isinstance(raw_components, list) or not raw_components:
        raise ValueError("'components' must be a non-empty list")
    names: list[str] = []
    for position, raw in enumerate(raw_components):
        if not isinstance(raw, dict) or not isinstance(raw.get("name"), str):
            raise ValueError(f"component {position} must have a string 'name'")
        index = _as_int(raw.get("index"), "component 'index'")
        if index != position:
            raise ValueError(f"component index {index} does not match its position {position}")
        names.append(raw["name"])
    raw_initial = document.get("initial_state", "")
    if not isinstance(raw_initial, str):
        raise ValueError("'initial_state' must be a state string")
    try:
        initial = parse_state_text(raw_initial)
    except ValueError as exc:
        raise ValueError(f"initial_state: {exc}") from None
    raw_actions = document.get("actions")
    if not isinstance(raw_actions, list):
        raise ValueError("'actions' must be a list")
    actions: list[ProceduralAction] = []
    for raw in raw_actions:
        if not isinstance(raw, dict) or not isinstance(raw.get("id"), str):
            raise ValueError("every action must have a string 'id'")
        try:
            transition = Transition(raw.get("transition"))
        except ValueError:
            raise ValueError(
                f"action '{raw['id']}' has unknown transition '{raw.get('transition')}'"
            ) from None
        requires = raw.get("requires", [])
        if not isinstance(requires, list) or not all(isinstance(r, str) for r in requires):
            raise ValueError(f"action '{raw['id']}': 'requires' must be a list of ids")
        actions.append(
            ProceduralAction(
                action_id=raw["id"],
                component=_as_int(raw.get("component"), "action 'component'"),
                transition=transition,
                prerequisites=frozenset(requires),
                description=str(raw.get("description", "")),
            )
        )
    return ProcedureSpec(  # which checks the procedure as a whole
        id=document["id"],
        components=tuple(names),
        actions=tuple(actions),
        initial_state=initial,
    )


def read_procedure(path) -> ProcedureSpec:
    """Read and validate a procedure document."""
    return _read_document(path, ("procedure",))


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


def validate_file(path, spec: ProcedureSpec | None = None) -> list[str]:
    """All diagnostics for one file, read once; empty means valid.

    Step-sequence files are fully validated when a procedure is given
    and structurally (frames, states, confidences) otherwise. The state
    width of stream and step files is the procedure's when one is
    given, otherwise their first state's.
    """
    try:
        if Path(path).suffix == ".jsonl":
            manifest, records = _read_rows(path, None, spec)
            if manifest.kind == "ground_truth" and spec is not None:
                _step_sequence(path, manifest, records, spec)
            else:
                for _ in records:
                    pass
        else:
            _read_document(path, tuple(_DOCUMENT_CHECKS))
    except FormatError as exc:
        return [str(exc)]
    return []


def _validate_scenario_document(document: dict) -> None:
    for key in ("recording_id", "procedure", "fps", "seed", "stream_file", "ground_truth_file"):
        if key not in document:
            raise ValueError(f"scenario document is missing '{key}'")
    config = document.get("config")
    if not isinstance(config, dict):
        raise ValueError("scenario 'config' must be an object")
    try:
        SimConfig(**config)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid simulation config: {exc}") from None


def _validate_report_document(document: dict) -> None:
    recordings = document.get("recordings")
    if not isinstance(recordings, list):
        raise ValueError("report 'recordings' must be a list")
    aggregates = document.get("aggregates")
    if not isinstance(aggregates, dict):
        raise ValueError("report 'aggregates' must be an object")
    rows = [(f"recordings[{i}]", row) for i, row in enumerate(recordings)]
    rows.append(("aggregates.all", aggregates.get("all")))
    if aggregates.get("errors_only") is not None:
        rows.append(("aggregates.errors_only", aggregates["errors_only"]))
    for where, row in rows:
        if not isinstance(row, dict):
            raise ValueError("report rows must be objects")
        for column, what, ok in _REPORT_CHECKS:
            if column not in row:
                raise ValueError(f"report row is missing '{column}'")
            if not ok(row[column]):
                raise ValueError(f"{where}.{column} must be {what}, got {row[column]!r}")


_DOCUMENT_CHECKS = {
    "procedure": _procedure_from_document,
    "scenario": _validate_scenario_document,
    "report": _validate_report_document,
}

# (column, what it must be, test) per REPORT_COLUMNS; NaN fails every comparison
_REPORT_CHECKS = (
    ("recording_id", "a string", lambda v: isinstance(v, str)),
    *((c, "a number in [0, 1]", lambda v: v.__class__ in (int, float) and 0 <= v <= 1)
      for c in ("pos", "precision", "recall", "f1")),
    ("tau_s", "null or a finite number >= 0",
     lambda v: v is None or finite_number(v) and v >= 0),
    *((c, "a non-negative integer", lambda v: v.__class__ is int and v >= 0)
      for c in ("tp", "fp", "fn")),
    ("has_errors", "true or false", lambda v: v.__class__ is bool),
)
