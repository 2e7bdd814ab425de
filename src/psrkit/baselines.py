"""Online step recognizers over per-frame assembly-state detections.

Three variants of increasing caution:

* B1 — trust the top detection: whenever it clears a confidence
  threshold and differs from the current belief, every differing
  component is emitted as a completed step at once.
* B2 — accumulate evidence per component: a conflicting detection adds
  the frame's confidence to that component's accumulator, an agreeing
  one decays it; the step is emitted only once the accumulator exceeds
  a threshold.
* B3 — B2 plus a procedure filter: a component change is only emitted
  if the resulting assembly state is reachable in a correct execution
  of the procedure.

All variants are causal: frames are consumed strictly in order and
events depend only on the past.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .model import (
    AssemblyState,
    EventSource,
    ProcedureSpec,
    StepEvent,
    StepSequence,
    expected_states,
    transition_to,
)


class Variant(enum.Enum):
    B1 = "b1"
    B2 = "b2"
    B3 = "b3"


@dataclass(frozen=True)
class Detection:
    """One detected assembly state with its confidence."""

    state: AssemblyState
    confidence: float
    box: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(
                f"detection confidence must be in [0, 1], got {self.confidence}"
            )


@dataclass(frozen=True)
class DetectionFrame:
    """All detections of one video frame (possibly none)."""

    frame: int
    time_s: float
    detections: tuple[Detection, ...] = ()

    def __post_init__(self):
        if self.frame < 0:
            raise ValueError(f"frame index must be non-negative, got {self.frame}")


@dataclass(frozen=True)
class BaselineConfig:
    """Recognizer variant plus its thresholds.

    detection_threshold gates B1's per-frame decision; B2 and B3 ignore
    it and use the accumulation threshold and decay instead.
    """

    variant: Variant
    detection_threshold: float = 0.5
    accumulation_threshold: float = 8.0
    decay: float = 0.75

    def __post_init__(self):
        if self.detection_threshold < 0:
            raise ValueError("detection_threshold must be >= 0")
        if self.accumulation_threshold < 0:
            raise ValueError("accumulation_threshold must be >= 0")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")


def select_top_detection(frame: DetectionFrame) -> tuple[AssemblyState, float] | None:
    """Highest-confidence detection of a frame; ties keep the first listed."""
    if not frame.detections:
        return None
    best = max(frame.detections, key=lambda d: d.confidence)
    return best.state, best.confidence


class StepRecognizer:
    """Single-recording online recognizer; feed frames in order via process().

    B1 and B2 take the first non-empty frame's top detection as their
    initial belief and idle until then; B3 starts from the procedure's
    initial state. Per component the recognizer keeps one confidence
    accumulator and the most recent conflicting status, which is the
    value applied when the accumulator crosses the threshold.

    A step already emitted in this run is never emitted twice: if the
    same component transition fires again the belief is updated but no
    duplicate event is produced.
    """

    def __init__(self, config: BaselineConfig, spec: ProcedureSpec):
        spec.ensure_valid()
        self.config = config
        self.spec = spec
        n = spec.n_components
        self._confs = [0.0] * n
        self._pending = list(spec.initial_state.as_ints())
        self._hot = 0  # components with a non-zero accumulator
        self._events: list[StepEvent] = []
        self._emitted_ids: set[str] = set()
        self._last_frame = -1
        # guard verdicts are cached per component, keyed on the belief
        # version and the pending value, so a persistently rejected
        # candidate costs one set lookup total, not one per frame
        self._belief_version = 0
        self._guard_key: list[tuple[int, int] | None] = [None] * n
        self._guard_ok = [False] * n
        if config.variant is Variant.B3:
            self._current: list[int] | None = list(spec.initial_state.as_ints())
            self._expected: frozenset[tuple[int, ...]] | None = frozenset(
                s.as_ints() for s in expected_states(spec)
            )
        else:
            self._current = None
            self._expected = None

    @property
    def current_state(self) -> AssemblyState | None:
        """The recognizer's belief, None while B1/B2 await a detection."""
        if self._current is None:
            return None
        return AssemblyState.from_values(self._current)

    @property
    def confidences(self) -> tuple[float, ...]:
        return tuple(self._confs)

    @property
    def pending_values(self) -> tuple[int, ...]:
        return tuple(self._pending)

    @property
    def events(self) -> tuple[StepEvent, ...]:
        return tuple(self._events)

    def process(self, frame: DetectionFrame) -> list[StepEvent]:
        """Consume one frame and return the steps it completed."""
        if frame.frame <= self._last_frame:
            raise ValueError(
                f"frames must arrive in strictly increasing order; "
                f"got {frame.frame} after {self._last_frame}"
            )
        self._last_frame = frame.frame
        top = select_top_detection(frame)
        if top is None:
            return []
        state, confidence = top
        if len(state) != self.spec.n_components:
            raise ValueError(
                f"detection has {len(state)} components, "
                f"procedure '{self.spec.id}' has {self.spec.n_components}"
            )
        if self._current is None:
            self._current = [int(s) for s in state.statuses]
            return []
        if self.config.variant is Variant.B1:
            return self._process_b1(frame, state, confidence)
        return self._process_accumulating(frame, state, confidence)

    def _process_b1(
        self, frame: DetectionFrame, state: AssemblyState, confidence: float
    ) -> list[StepEvent]:
        if confidence < self.config.detection_threshold:
            return []
        current = self._current
        if tuple(current) == state.statuses:
            return []
        emitted: list[StepEvent] = []
        for i, value in enumerate(state.statuses):
            value = int(value)
            if value == current[i]:
                continue
            event = self._emit(i, value, frame, confidence)
            current[i] = value
            if event is not None:
                emitted.append(event)
        return emitted

    def _process_accumulating(
        self, frame: DetectionFrame, state: AssemblyState, confidence: float
    ) -> list[StepEvent]:
        current = self._current
        detected = state.statuses
        if self._hot == 0 and tuple(current) == detected:
            return []
        confs = self._confs
        pending = self._pending
        threshold = self.config.accumulation_threshold
        decay = self.config.decay
        expected = self._expected
        emitted: list[StepEvent] = []
        for i, value in enumerate(detected):
            value = int(value)
            if value != current[i]:
                if confs[i] == 0.0:
                    self._hot += 1
                confs[i] += confidence
                pending[i] = value
                if confs[i] > threshold:
                    if expected is not None:
                        key = (self._belief_version, value)
                        if self._guard_key[i] != key:
                            candidate = tuple(current[:i]) + (value,) + tuple(current[i + 1 :])
                            self._guard_key[i] = key
                            self._guard_ok[i] = candidate in expected
                        if not self._guard_ok[i]:
                            continue
                    event = self._emit(i, pending[i], frame, confs[i])
                    current[i] = pending[i]
                    self._belief_version += 1
                    confs[i] = 0.0
                    self._hot -= 1
                    if event is not None:
                        emitted.append(event)
            elif confs[i] != 0.0:
                confs[i] *= decay
                if confs[i] == 0.0:
                    self._hot -= 1
        return emitted

    def _emit(
        self, component: int, value: int, frame: DetectionFrame, confidence: float
    ) -> StepEvent | None:
        transition = transition_to(value)
        action_id = self.spec.step_id(component, transition)
        if action_id in self._emitted_ids:
            return None
        self._emitted_ids.add(action_id)
        event = StepEvent(
            action_id=action_id,
            component=component,
            transition=transition,
            time_s=frame.time_s,
            frame=frame.frame,
            confidence=confidence,
            source=EventSource.RECOGNIZED,
        )
        self._events.append(event)
        return event


def run_baseline(
    config: BaselineConfig,
    spec: ProcedureSpec,
    stream,
    fps: float,
    recording_id: str = "run",
) -> StepSequence:
    """Run a recognizer over an ordered frame iterable.

    The stream is consumed lazily, so memory stays proportional to the
    component count plus the emitted events.
    """
    recognizer = StepRecognizer(config, spec)
    for frame in stream:
        recognizer.process(frame)
    return StepSequence(recording_id, fps, recognizer.events)
