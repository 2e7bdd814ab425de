"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import json
import math
import random
from itertools import permutations

from psrkit.baselines import BaselineConfig, Variant
from psrkit.formats import (
    EventSource,
    FileManifest,
    FormatError,
    _as_int,
    _as_number,
    _parse_manifest,
    _writable_base_state,
)
from psrkit.model import (
    AssemblyState,
    ProceduralAction,
    ProcedureSpec,
    StepEvent,
    StepSequence,
    Transition,
    apply_transition,
    diff_states,
    expected_states,
    parse_state_text,
    serialize_state,
    status_for_value,
    transition_to,
)


def located(path, line, check, *args):
    """check(*args), a ValueError it raises raised as a FormatError at path:line."""
    try:
        return check(*args)
    except ValueError as exc:
        raise FormatError(str(exc), path, line) from None


def linear_spec(k: int, spec_id: str = "chain") -> ProcedureSpec:
    """k install actions in a strict chain, one component each."""
    actions = tuple(
        ProceduralAction(
            action_id=f"a{i}",
            component=i,
            transition=Transition.INSTALL,
            prerequisites=frozenset() if i == 0 else frozenset({f"a{i - 1}"}),
        )
        for i in range(k)
    )
    return ProcedureSpec(
        id=spec_id,
        components=tuple(f"part {i}" for i in range(k)),
        actions=actions,
        initial_state=AssemblyState.from_values([0] * k),
    )


def independent_spec(k: int, spec_id: str = "independent") -> ProcedureSpec:
    """k install actions with no ordering constraints."""
    actions = tuple(
        ProceduralAction(f"a{i}", i, Transition.INSTALL) for i in range(k)
    )
    return ProcedureSpec(
        id=spec_id,
        components=tuple(f"part {i}" for i in range(k)),
        actions=actions,
        initial_state=AssemblyState.from_values([0] * k),
    )


def maintenance_spec(
    chains: int = 6, chain_length: int = 2, service_parts: int = 3
) -> ProcedureSpec:
    """Install-only parts in prerequisite chains, then service parts.

    Each service part starts installed, is removed, then refitted, so it
    has both an install and a remove action. The defaults give the
    15-component procedure of the benchmark's wide_b3 workload, which has
    5,832 reachable states.
    """
    parts = chains * chain_length
    actions = [
        ProceduralAction(
            f"install_part{part}",
            part,
            Transition.INSTALL,
            frozenset({f"install_part{part - 1}"}) if part % chain_length else frozenset(),
        )
        for part in range(parts)
    ]
    for service in range(service_parts):
        component = parts + service
        actions.append(ProceduralAction(f"remove_service{service}", component, Transition.REMOVE))
        actions.append(
            ProceduralAction(
                f"refit_service{service}",
                component,
                Transition.INSTALL,
                frozenset({f"remove_service{service}"}),
            )
        )
    return ProcedureSpec(
        id="wide_maintenance",
        components=tuple(f"part {i}" for i in range(parts))
        + tuple(f"service part {i}" for i in range(service_parts)),
        actions=tuple(actions),
        initial_state=AssemblyState.from_values([0] * parts + [1] * service_parts),
    )


def random_install_procedure(rng: random.Random, n_min: int = 4, n_max: int = 8) -> ProcedureSpec:
    """Random DAG of install actions, one per component.

    Action i may only require actions with smaller indices, so the
    prerequisite graph is acyclic by construction.
    """
    n = rng.randint(n_min, n_max)
    actions = []
    for i in range(n):
        candidates = list(range(i))
        rng.shuffle(candidates)
        prerequisites = frozenset(f"a{j}" for j in candidates[: rng.randint(0, min(2, i))])
        actions.append(
            ProceduralAction(f"a{i}", i, Transition.INSTALL, prerequisites)
        )
    return ProcedureSpec(
        id=f"random-{n}",
        components=tuple(f"part {i}" for i in range(n)),
        actions=tuple(actions),
        initial_state=AssemblyState.from_values([0] * n),
    )


def all_valid_orders(spec: ProcedureSpec) -> list[tuple[str, ...]]:
    """Every prerequisite-respecting execution order, by exhaustion."""
    ids = [a.action_id for a in spec.actions]
    prereqs = {a.action_id: a.prerequisites for a in spec.actions}
    orders = []
    for candidate in permutations(ids):
        done: set[str] = set()
        ok = True
        for aid in candidate:
            if not prereqs[aid] <= done:
                ok = False
                break
            done.add(aid)
        if ok:
            orders.append(candidate)
    return orders


def reference_sample_order(spec: ProcedureSpec, rng: random.Random) -> list[str]:
    """The simulator's order sampler before it split counts into groups.

    It memoises one completion count per remaining frozenset of actions,
    so its cost grows with the number of prerequisite-closed action sets.
    Given the same rng state, simulate's sampler must draw the same order.
    """
    prereqs = {a.action_id: frozenset(a.prerequisites) for a in spec.actions}
    counts: dict[frozenset, int] = {}

    def count(remaining: frozenset) -> int:
        if not remaining:
            return 1
        cached = counts.get(remaining)
        if cached is not None:
            return cached
        total = 0
        for aid in remaining:
            if not prereqs[aid] & remaining:
                total += count(remaining - {aid})
        counts[remaining] = total
        return total

    order: list[str] = []
    remaining = frozenset(prereqs)
    while remaining:
        ready = sorted(aid for aid in remaining if not prereqs[aid] & remaining)
        weights = [count(remaining - {aid}) for aid in ready]
        choice = rng.choices(ready, weights=weights)[0]
        order.append(choice)
        remaining -= {choice}
    return order


def reference_recognise(config: BaselineConfig, spec: ProcedureSpec, frames) -> list:
    """B1/B2/B3 straight from the README definitions, without caches.

    Returns one (events completed, accumulators afterwards, belief
    afterwards) triple per frame; the belief is a tuple of ints, or None
    while B1/B2 await a detection. B3's guard is membership in the
    listed reachable states, so only small procedures are practical.
    """
    b3 = config.variant is Variant.B3
    reachable = {s.as_ints() for s in expected_states(spec)} if b3 else set()
    belief = list(spec.initial_state.as_ints()) if b3 else None
    confs = [0.0] * spec.n_components
    emitted: set[str] = set()
    out = []
    for frame in frames:
        changes = []  # (component, value, event confidence), in firing order
        if frame.detections:
            # top detection; max() keeps the first of equal confidences
            top = max(frame.detections, key=lambda d: d.confidence)
            detected = list(top.state.as_ints())
            if belief is None:
                belief = detected
            elif config.variant is Variant.B1:
                if top.confidence >= config.threshold:
                    changes = [
                        (i, value, top.confidence)
                        for i, value in enumerate(detected)
                        if value != belief[i]
                    ]
                    belief = detected
            else:
                for i, value in enumerate(detected):
                    if value == belief[i]:
                        confs[i] *= config.decay
                        continue
                    confs[i] += top.confidence
                    candidate = tuple(belief[:i] + [value] + belief[i + 1 :])
                    if confs[i] > config.threshold and (
                        not b3 or candidate in reachable
                    ):
                        changes.append((i, value, confs[i]))
                        belief[i] = value
                        confs[i] = 0.0
        events = []
        for component, value, confidence in changes:
            transition = transition_to(value)
            action_id = spec.step_id(component, transition)
            if action_id not in emitted:  # a step fires at most once per run
                emitted.add(action_id)
                events.append(
                    StepEvent(action_id, component, transition, frame.time_s, frame.frame,
                              confidence)
                )
        out.append((events, tuple(confs), None if belief is None else tuple(belief)))
    return out


def reference_read_stream(path, spec: ProcedureSpec | None = None):
    """A detection-stream file read the plain way: (manifest, frames).

    The stream reader before it was tuned for speed, in one loop:
    json.loads on every line (only b"\\n" ends one, as in JSON Lines) and
    every check in the same order, so the first bad line raises the same
    located FormatError, including a frame whose time frame / fps is not
    a finite float. A frame is (frame, time_s, detections), a detection
    (state, confidence, box).
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot read file: {exc.strerror or exc}", path) from None
    manifest = None
    states: dict[str, AssemblyState] = {}
    width = spec.n_components if spec is not None else None
    frames = []
    last_frame = -1
    with handle:
        for line, raw_bytes in enumerate(handle, start=1):
            try:
                raw = raw_bytes.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"file is not valid UTF-8: {exc.reason}", path, line) from None
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON: {exc.msg}", path, line) from None
            if manifest is None:
                manifest = located(path, line, _parse_manifest, obj, ("stream",))
                continue
            if not isinstance(obj, dict):
                raise FormatError("frame record must be a JSON object", path, line)
            frame = located(path, line, _as_int, obj.get("frame"), "'frame'")
            if frame < 0:
                raise FormatError(
                    f"frame index must be non-negative, got {frame}", path, line
                )
            if frame <= last_frame:
                raise FormatError(
                    f"frame {frame} out of order (previous was {last_frame})", path, line
                )
            last_frame = frame
            try:
                time_s = frame / manifest.fps
            except OverflowError:
                time_s = math.inf
            if not math.isfinite(time_s):
                raise FormatError(
                    f"frame / fps is not a finite time (fps {manifest.fps})", path, line
                )
            raw_detections = obj.get("detections", [])
            if not isinstance(raw_detections, list):
                raise FormatError("'detections' must be a list", path, line)
            detections = []
            for det in raw_detections:
                if not isinstance(det, dict):
                    raise FormatError("detection must be a JSON object", path, line)
                state_text = det.get("state")
                if not isinstance(state_text, str):
                    raise FormatError("'state' must be a string", path, line)
                if state_text not in states:
                    try:
                        state = parse_state_text(state_text)
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
                            message = (
                                f"state width {len(state)} differs from earlier width {width}"
                            )
                        raise FormatError(message, path, line)
                    states[state_text] = state
                confidence = located(path, line, _as_number, det.get("conf"), "'conf'")
                box = None
                if det.get("box") is not None:
                    raw_box = det["box"]
                    if not isinstance(raw_box, list) or len(raw_box) != 4:
                        raise FormatError("'box' must be a list of four numbers", path, line)
                    box = tuple(
                        located(path, line, _as_number, v, "'box' entry") for v in raw_box
                    )
                if not 0.0 <= confidence <= 1.0:
                    raise FormatError(
                        f"detection confidence must be in [0, 1], got {confidence}",
                        path,
                        line,
                    )
                detections.append((states[state_text], confidence, box))
            frames.append((frame, time_s, tuple(detections)))
    if manifest is None:
        raise FormatError("file is empty, expected a manifest line", path, 1)
    return manifest, frames


def reference_write_stream(path, manifest, frames) -> None:
    """A detection-stream file written the plain way: one json.dumps per row.

    The stream writer before it formatted common rows itself; it must
    write the same bytes for the same frames.
    """
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


def reference_write_ground_truth(
    path, sequence, spec: ProcedureSpec, source=EventSource.GROUND_TRUTH
) -> None:
    """A step file written the plain way: one row dict and json.dumps per row.

    The step writer before it formatted its rows itself; it must write
    the same bytes for the same sequence.
    """
    manifest = FileManifest(
        kind="ground_truth", recording_id=sequence.recording_id, fps=sequence.fps, source=source
    )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(manifest.to_json() + "\n")
        state = _writable_base_state(sequence, spec.initial_state)
        base_row = {"frame": 0, "state": serialize_state(state)}
        handle.write(json.dumps(base_row, separators=(",", ":")) + "\n")
        for step in sequence.events:
            state = apply_transition(state, step.component, step.transition)
            row = {"frame": step.frame, "state": serialize_state(state), "conf": step.confidence}
            handle.write(json.dumps(row, separators=(",", ":")) + "\n")


def reference_parse_state_text(text: str) -> AssemblyState:
    """A state string parsed the plain way: one int() per token.

    The parser before its token table; it must give equal states with
    the same ComponentStatus members, or the same ValueError message.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty state string")
    if "," in text or text == "-1":
        values = []
        for token in text.split(","):
            token = token.strip()
            try:
                value = int(token)
            except ValueError:
                raise ValueError(f"malformed state token '{token}' in '{text}'") from None
            values.append(status_for_value(value))
        return AssemblyState(tuple(values))
    for ch in text:
        if ch not in "01":
            raise ValueError(
                f"compact state '{text}' may only contain 0 and 1; "
                "use the comma-separated form for -1"
            )
    return AssemblyState(tuple(status_for_value(int(ch)) for ch in text))


def reference_read_ground_truth(path, spec: ProcedureSpec | None = None):
    """A step file read the plain way: (manifest, sequence).

    The step reader before it skipped JSON decoding, in one loop:
    json.loads on every line (only b"\\n" ends one, as in JSON Lines),
    reference_parse_state_text on every new state and every check in the
    same order, so the first bad line raises the same located
    FormatError. Without a procedure the rows are checked as
    validate_file checks them, the width being the first state's, and
    the sequence is None.
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot read file: {exc.strerror or exc}", path) from None
    manifest = None
    states: dict[str, AssemblyState] = {}
    width = spec.n_components if spec is not None else None
    previous = None
    events: list[StepEvent] = []
    last_frame = -1
    with handle:
        for line, raw_bytes in enumerate(handle, start=1):
            try:
                raw = raw_bytes.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"file is not valid UTF-8: {exc.reason}", path, line) from None
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except (ValueError, RecursionError) as exc:
                message = getattr(exc, "msg", exc)
                raise FormatError(f"invalid JSON: {message}", path, line) from None
            if manifest is None:
                manifest = located(path, line, _parse_manifest, obj, ("ground_truth",))
                continue
            if not isinstance(obj, dict):
                raise FormatError("state record must be a JSON object", path, line)
            frame = located(path, line, _as_int, obj.get("frame"), "'frame'")
            if frame < 0:
                raise FormatError(
                    f"frame index must be non-negative, got {frame}", path, line
                )
            if frame < last_frame:
                raise FormatError(
                    f"frame {frame} out of order (previous was {last_frame})", path, line
                )
            last_frame = frame
            try:
                time_s = frame / manifest.fps
            except OverflowError:
                time_s = math.inf
            if not math.isfinite(time_s):
                raise FormatError(
                    f"frame / fps is not a finite time (fps {manifest.fps})", path, line
                )
            state_text = obj.get("state")
            if not isinstance(state_text, str):
                raise FormatError("'state' must be a string", path, line)
            if state_text not in states:
                try:
                    state = reference_parse_state_text(state_text)
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
                states[state_text] = state
            state = states[state_text]
            confidence = 1.0
            if "conf" in obj:
                confidence = located(path, line, _as_number, obj["conf"], "'conf'")
                if confidence < 0:
                    raise FormatError(f"'conf' must be >= 0, got {confidence}", path, line)
            if spec is None:
                continue
            if previous is not None:
                for component, transition in diff_states(previous, state):
                    action_id = spec.step_id(component, transition)
                    if any(e.action_id == action_id for e in events):
                        raise FormatError(
                            f"duplicate completion of '{action_id}'", path, line
                        )
                    events.append(
                        StepEvent(action_id, component, transition, time_s, frame, confidence)
                    )
            previous = state
    if manifest is None:
        raise FormatError("file is empty, expected a manifest line", path, 1)
    if spec is None:
        return manifest, None
    if previous is None:
        raise FormatError("step file has no state rows", path, 1)
    return manifest, StepSequence.from_events(manifest.recording_id, manifest.fps, events)


def state_at(scenario, frame: int) -> AssemblyState:
    """The true assembly state of a simulated scenario at one frame."""
    state = scenario.timeline[0][1]
    for start, segment_state in scenario.timeline:
        if start > frame:
            break
        state = segment_state
    return state


def oracle_expected_states(spec: ProcedureSpec) -> frozenset[AssemblyState]:
    """Reachable states by walking every valid order (independent oracle)."""
    states = {spec.initial_state}
    for order in all_valid_orders(spec):
        state = spec.initial_state
        for aid in order:
            action = spec.action_by_id(aid)
            state = apply_transition(state, action.component, action.transition)
            states.add(state)
    return frozenset(states)


def event(
    action_id: str,
    time_s: float,
    component: int,
    fps: float = 1.0,
    transition: Transition = Transition.INSTALL,
    confidence: float = 1.0,
) -> StepEvent:
    frame = round(time_s * fps)
    return StepEvent(
        action_id=action_id,
        component=component,
        transition=transition,
        time_s=frame / fps,
        frame=frame,
        confidence=confidence,
    )


def sequence(recording_id: str, entries, fps: float = 1.0, **kwargs) -> StepSequence:
    """Sequence from (action_id, time_s, component) triples."""
    events = [event(aid, t, comp, fps=fps, **kwargs) for aid, t, comp in entries]
    return StepSequence.from_events(recording_id, fps, events)
