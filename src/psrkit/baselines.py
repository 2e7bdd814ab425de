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
    ProcedureSpec,
    StepEvent,
    StepSequence,
    finite_number,
    is_reachable,
    transition_to,
)


class Variant(enum.Enum):
    B1 = "b1"
    B2 = "b2"
    B3 = "b3"


@dataclass(slots=True, init=False)
class Detection:
    """One detected assembly state with its confidence.

    The constructor is hand-written, because a reader builds one per
    detection and it must stay cheap while it checks the confidence.
    Instances compare by value and are not hashable.
    """

    state: AssemblyState
    confidence: float
    box: tuple[float, float, float, float] | None

    def __init__(
        self,
        state: AssemblyState,
        confidence: float,
        box: tuple[float, float, float, float] | None = None,
    ):
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"detection confidence must be in [0, 1], got {confidence}")
        self.state = state
        self.confidence = confidence
        self.box = box


@dataclass(slots=True, init=False)
class DetectionFrame:
    """All detections of one video frame (possibly none), declared like Detection."""

    frame: int
    time_s: float
    detections: tuple[Detection, ...]

    def __init__(self, frame: int, time_s: float, detections: tuple[Detection, ...] = ()):
        if frame < 0:
            raise ValueError(f"frame index must be non-negative, got {frame}")
        self.frame = frame
        self.time_s = time_s
        self.detections = detections


@dataclass(frozen=True)
class BaselineConfig:
    """Recognizer variant plus its settings; a None setting takes its default.

    Every variant decides with one threshold: B1 on the top detection's
    confidence (default 0.5), B2 and B3 on a component's accumulated
    confidence (default 8.0). decay (default 0.75) is B2/B3's per-frame
    accumulator decay; B1 ignores it.
    """

    variant: Variant
    threshold: float | None = None
    decay: float | None = None

    def __post_init__(self):
        if self.threshold is None:
            object.__setattr__(self, "threshold", 0.5 if self.variant is Variant.B1 else 8.0)
        if self.decay is None:
            object.__setattr__(self, "decay", 0.75)
        if not finite_number(self.threshold) or self.threshold < 0:
            raise ValueError(f"threshold must be finite and >= 0, got {self.threshold}")
        if not finite_number(self.decay) or not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")


class StepRecognizer:
    """Single-recording online recognizer; feed frames in order via process().

    B1 and B2 take the first non-empty frame's top detection as their
    initial belief and idle until then; B3 starts from the procedure's
    initial state. B2 and B3 keep one confidence accumulator per
    component; when it crosses the threshold, the component takes the
    conflicting value of the crossing frame.

    A step already emitted in this run is never emitted twice: if the
    same component transition fires again the belief is updated but no
    duplicate event is produced.
    """

    def __init__(self, config: BaselineConfig, spec: ProcedureSpec):
        self.config = config
        self.spec = spec
        # read on every frame, so looked up once
        self._width = spec.n_components
        self._b1 = config.variant is Variant.B1
        self._decay = config.decay
        self._confs = [0.0] * self._width
        self._events: list[StepEvent] = []
        self._emitted_ids: set[str] = set()
        self._last_frame = -1
        # the belief holds the detections' own status members, so an
        # agreeing frame's comparison is mostly identity checks
        self._belief: AssemblyState | None = None
        # guard verdict per candidate state, so a persistently rejected
        # candidate costs one is_reachable call in total
        self._reachable: dict[tuple[int, ...], bool] | None = None
        if config.variant is Variant.B3:
            self._belief = spec.initial_state
            self._reachable = {}

    @property
    def current_state(self) -> AssemblyState | None:
        """The recognizer's belief, None while B1/B2 await a detection."""
        return self._belief

    @property
    def confidences(self) -> tuple[float, ...]:
        return tuple(self._confs)

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
        detections = frame.detections
        if not detections:
            return []
        # the top detection; max() keeps the first of equal confidences
        if len(detections) == 1:
            best = detections[0]
        else:
            best = max(detections, key=lambda d: d.confidence)
        state = best.state
        if state == self._belief:  # the common frame: every component agrees
            if not self._b1:
                decay = self._decay
                self._confs = [c * decay for c in self._confs]
            return []
        if len(state) != self._width:
            raise ValueError(
                f"detection has {len(state)} components, "
                f"procedure '{self.spec.id}' has {self._width}"
            )
        if self._belief is None:
            self._belief = state
            return []
        if self._b1:
            return self._process_b1(frame, state, best.confidence)
        return self._process_accumulating(frame, state, best.confidence)

    def _process_b1(
        self, frame: DetectionFrame, state: AssemblyState, confidence: float
    ) -> list[StepEvent]:
        if confidence < self.config.threshold:
            return []
        belief = self._belief
        emitted: list[StepEvent] = []
        for i, value in enumerate(state):
            if value != belief[i]:
                event = self._emit(i, value, frame, confidence)
                if event is not None:
                    emitted.append(event)
        self._belief = state
        return emitted

    def _process_accumulating(
        self, frame: DetectionFrame, state: AssemblyState, confidence: float
    ) -> list[StepEvent]:
        belief = list(self._belief)
        confs = self._confs
        threshold = self.config.threshold
        decay = self._decay
        reachable = self._reachable
        emitted: list[StepEvent] = []
        for i, value in enumerate(state):
            if value == belief[i]:
                confs[i] *= decay
                continue
            confs[i] += confidence
            if confs[i] <= threshold:
                continue
            if reachable is not None:
                candidate = (*belief[:i], value, *belief[i + 1 :])
                ok = reachable.get(candidate)
                if ok is None:
                    ok = reachable[candidate] = is_reachable(self.spec, candidate)
                if not ok:
                    continue
            event = self._emit(i, value, frame, confs[i])
            belief[i] = value
            confs[i] = 0.0
            if event is not None:
                emitted.append(event)
        self._belief = AssemblyState(belief)
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
