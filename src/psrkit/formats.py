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
from collections.abc import Iterator
from dataclasses import asdict, dataclass
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
    if fps <= 0 or not math.isfinite(fps):
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


def _iter_jsonl(path):
    """Yield (line_number, parsed object) for each non-blank line.

    The file is read one line at a time and closed when the generator
    ends or is closed. Lines are numbered as str.splitlines() numbers
    the whole text; a UTF-8 error names the newline-delimited line that
    holds the bad byte.
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot read file: {exc.strerror or exc}", path) from None
    with handle:
        number = 0
        for physical, raw_bytes in enumerate(handle, start=1):
            try:
                text = raw_bytes.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(
                    f"file is not valid UTF-8: {exc.reason}", path, physical
                ) from None
            # splitlines also breaks on \r, \x85, \u2028 and the like
            for raw in text.splitlines():
                number += 1
                if not raw.strip():
                    continue
                try:
                    yield number, json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise FormatError(f"invalid JSON: {exc.msg}", path, number) from None


def _read_jsonl(path, expected_kind):
    rows = _iter_jsonl(path)
    try:
        _, first = next(rows)
    except StopIteration:
        raise FormatError("file is empty, expected a manifest line", path, 1) from None
    manifest = _parse_manifest(first, expected_kind, path)
    return manifest, rows


def _parse_state_field(obj, path, line) -> AssemblyState:
    state_text = obj.get("state")
    if not isinstance(state_text, str):
        raise FormatError("'state' must be a string", path, line)
    try:
        return parse_state_text(state_text)
    except ValueError as exc:
        raise FormatError(str(exc), path, line) from None


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
    manifest, rows = _read_jsonl(path, "stream")
    return manifest, _stream_frames(path, manifest.fps, rows, spec)


def _stream_frames(path, fps: float, rows, spec: ProcedureSpec | None):
    states: dict[str, AssemblyState] = {}
    width = spec.n_components if spec is not None else None
    last_frame = -1
    for line, obj in rows:
        if not isinstance(obj, dict):
            raise FormatError("frame record must be a JSON object", path, line)
        frame = _as_int(obj.get("frame"), "'frame'", path, line)
        if frame < 0:
            raise FormatError(f"frame index must be non-negative, got {frame}", path, line)
        if frame <= last_frame:
            raise FormatError(
                f"frame {frame} out of order (previous was {last_frame})", path, line
            )
        last_frame = frame
        raw_detections = obj.get("detections", [])
        if not isinstance(raw_detections, list):
            raise FormatError("'detections' must be a list", path, line)
        detections = []
        for raw in raw_detections:
            if not isinstance(raw, dict):
                raise FormatError("detection must be a JSON object", path, line)
            text = raw.get("state")
            state = states.get(text) if isinstance(text, str) else None
            if state is None:
                state = _parse_state_field(raw, path, line)
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
                states[text] = state
            confidence = _as_number(raw.get("conf"), "'conf'", path, line)
            box = None
            if raw.get("box") is not None:
                raw_box = raw["box"]
                if not isinstance(raw_box, list) or len(raw_box) != 4:
                    raise FormatError("'box' must be a list of four numbers", path, line)
                box = tuple(_as_number(v, "'box' entry", path, line) for v in raw_box)
            try:
                detections.append(Detection(state, confidence, box))
            except ValueError as exc:
                raise FormatError(str(exc), path, line) from None
        yield DetectionFrame(frame, frame / fps, tuple(detections))


def read_stream(path) -> tuple[FileManifest, list[DetectionFrame]]:
    """Read a whole detection-stream file into memory."""
    manifest, frames = iter_stream_file(path)
    return manifest, list(frames)


def write_stream(path, manifest: FileManifest, frames) -> None:
    """Write a detection-stream file (inverse of read_stream)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(manifest.to_json() + "\n")
        for frame in frames:
            detections = []
            for det in frame.detections:
                record: dict = {"state": serialize_state(det.state), "conf": det.confidence}
                if det.box is not None:
                    record["box"] = list(det.box)
                detections.append(record)
            row = {"frame": frame.frame, "detections": detections}
            handle.write(json.dumps(row, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# step sequences (ground truth and predictions share the format)


def _iter_step_rows(path):
    """Structural pass over a step file; yields (line, frame, state, conf)."""
    manifest, rows = _read_jsonl(path, "ground_truth")
    last_frame = None
    for line, obj in rows:
        if not isinstance(obj, dict):
            raise FormatError("state record must be a JSON object", path, line)
        frame = _as_int(obj.get("frame"), "'frame'", path, line)
        if frame < 0:
            raise FormatError(f"frame index must be non-negative, got {frame}", path, line)
        if last_frame is not None and frame < last_frame:
            raise FormatError(
                f"frame {frame} out of order (previous was {last_frame})", path, line
            )
        last_frame = frame
        state = _parse_state_field(obj, path, line)
        confidence = 1.0
        if "conf" in obj:
            confidence = _as_number(obj["conf"], "'conf'", path, line)
            if confidence < 0:
                raise FormatError(f"'conf' must be >= 0, got {confidence}", path, line)
        yield manifest, line, frame, state, confidence


def read_ground_truth(
    path, spec: ProcedureSpec, include_errors: bool = True
) -> tuple[FileManifest, StepSequence]:
    """Read a step-sequence file as (new state)@(frame) records.

    Consecutive states are diffed into step events. With include_errors
    false, incorrectly completed steps are dropped, giving the
    correct-completions-only view of the same file.
    """
    manifest = None
    previous: AssemblyState | None = None
    events: list[StepEvent] = []
    seen: set[str] = set()
    for manifest, line, frame, state, confidence in _iter_step_rows(path):
        if len(state) != spec.n_components:
            raise FormatError(
                f"state has {len(state)} components, procedure "
                f"'{spec.id}' expects {spec.n_components}",
                path,
                line,
            )
        if previous is None:
            previous = state
            continue
        source = manifest.source or EventSource.GROUND_TRUTH
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
                    time_s=frame / manifest.fps,
                    frame=frame,
                    confidence=confidence,
                    source=source,
                )
            )
        previous = state
    if manifest is None:
        raise FormatError("step file has no state rows", path, 1)
    sequence = StepSequence.from_events(manifest.recording_id, manifest.fps, events)
    if not include_errors:
        sequence = sequence.correct_only()
    return manifest, sequence


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
    seen: set[int] = set()
    fallback = {
        Transition.INSTALL: ComponentStatus.ABSENT,
        Transition.REMOVE: ComponentStatus.INSTALLED,
        Transition.INCORRECT: ComponentStatus.ABSENT,
    }
    for event in sequence.events:
        if event.component in seen:
            continue
        seen.add(event.component)
        if statuses[event.component] == transition_target(event.transition):
            statuses[event.component] = fallback[event.transition]
    return AssemblyState(tuple(statuses))


def write_ground_truth(
    path,
    sequence: StepSequence,
    spec: ProcedureSpec,
    base_state: AssemblyState | None = None,
    source: EventSource | None = None,
) -> None:
    """Write a step sequence as state rows (inverse of read_ground_truth)."""
    base_state = _writable_base_state(sequence, base_state or spec.initial_state)
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
        state = base_state
        base_row = {"frame": 0, "state": serialize_state(state)}
        handle.write(json.dumps(base_row, separators=(",", ":")) + "\n")
        for event in sequence.events:
            state = apply_transition(state, event.component, event.transition)
            row = {
                "frame": event.frame,
                "state": serialize_state(state),
                "conf": event.confidence,
            }
            handle.write(json.dumps(row, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# procedures


def _read_json_document(path, expected_kind: str | None) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON: {exc.msg}", path, exc.lineno) from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"file is not valid UTF-8: {exc.reason}", path) from None
    except OSError as exc:
        raise FormatError(f"cannot read file: {exc.strerror or exc}", path) from None
    if not isinstance(document, dict):
        raise FormatError("document root must be a JSON object", path)
    if expected_kind is not None:
        _check_version(document.get("format_version"), path, None)
        kind = document.get("kind")
        if kind != expected_kind:
            raise FormatError(f"expected a {expected_kind} document, found '{kind}'", path)
    return document


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
    try:
        initial = parse_state_text(document.get("initial_state", ""))
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


def procedure_to_document(spec: ProcedureSpec) -> dict:
    return {
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


def write_procedure(path, spec: ProcedureSpec) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(procedure_to_document(spec), handle, indent=2)
        handle.write("\n")


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


REPORT_COLUMNS = (
    "recording_id",
    "pos",
    "precision",
    "recall",
    "f1",
    "tau_s",
    "tp",
    "fp",
    "fn",
    "has_errors",
)


def report_to_row(report: MetricsReport) -> dict:
    return {column: getattr(report, column) for column in REPORT_COLUMNS}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_report(
    path,
    reports,
    fmt: str = "json",
    aggregates: tuple[MetricsReport, MetricsReport | None] | None = None,
) -> None:
    """Write per-recording rows plus ALL and ERRORS_ONLY aggregate rows.

    When no recording has errors the ERRORS_ONLY aggregate is empty: a
    null in JSON, a bare marker row in CSV. An undefined average delay
    serializes as null / an empty cell.
    """
    reports = list(reports)
    if aggregates is None:
        all_aggregate = aggregate_reports(reports, Subset.ALL)
        if any(r.has_errors for r in reports):
            errors_aggregate = aggregate_reports(reports, Subset.ERRORS_ONLY)
        else:
            errors_aggregate = None
        aggregates = (all_aggregate, errors_aggregate)
    all_aggregate, errors_aggregate = aggregates
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
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(REPORT_COLUMNS)
            for report in reports + [all_aggregate]:
                row = report_to_row(report)
                writer.writerow([_csv_cell(row[c]) for c in REPORT_COLUMNS])
            if errors_aggregate is not None:
                row = report_to_row(errors_aggregate)
                writer.writerow([_csv_cell(row[c]) for c in REPORT_COLUMNS])
            else:
                writer.writerow(
                    [Subset.ERRORS_ONLY.value] + [""] * (len(REPORT_COLUMNS) - 1)
                )
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
    write_ground_truth(
        gt_path, scenario.ground_truth, spec, base_state=scenario.timeline[0][1]
    )
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
    with open(doc_path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return {"stream": stream_path, "ground_truth": gt_path, "scenario": doc_path}


# ---------------------------------------------------------------------------
# generic validation entry point (used by the CLI)


def sniff_kind(path) -> str:
    """Best-effort file kind: manifest line for JSONL, document key otherwise."""
    suffix = Path(path).suffix
    if suffix == ".jsonl":
        rows = _iter_jsonl(path)
        try:
            _, first = next(rows)
        except StopIteration:
            raise FormatError("file is empty, expected a manifest line", path, 1) from None
        finally:
            rows.close()
        return _parse_manifest(first, None, path).kind
    document = _read_json_document(path, None)
    kind = document.get("kind")
    if kind not in KINDS:
        raise FormatError(f"unknown file kind '{kind}'", path)
    return kind


def validate_file(path, spec: ProcedureSpec | None = None) -> list[str]:
    """All diagnostics for one file; empty means valid.

    Step-sequence files are fully validated when a procedure is given
    and structurally (frames, states, confidences) otherwise. A given
    procedure also fixes the state width of stream files.
    """
    try:
        kind = sniff_kind(path)
        if kind == "stream":
            for _ in iter_stream_file(path, spec)[1]:
                pass
        elif kind == "ground_truth":
            if spec is not None:
                read_ground_truth(path, spec)
            else:
                for _ in _iter_step_rows(path):
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
    for row in recordings:
        if not isinstance(row, dict):
            raise FormatError("report rows must be objects", path)
        for column in REPORT_COLUMNS:
            if column not in row:
                raise FormatError(f"report row is missing '{column}'", path)
