"""Seeded generator of executions and noisy detection streams.

Produces, for a given procedure, a plausible ground-truth execution
(optionally with injected mistakes) and the detection stream a per-frame
state detector would have emitted for it. Everything is deterministic
given the seed, which makes recognizers and metrics testable end to end
without any recorded video.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields
from itertools import accumulate

from .baselines import Detection, DetectionFrame
from .model import (
    AssemblyState,
    ComponentStatus,
    ProcedureSpec,
    StepEvent,
    StepSequence,
    Transition,
    apply_transition,
    finite_number,
    is_error_state,
)


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the simulated recording.

    Detector noise has three independent parts, applied per frame: a
    frame may carry no detection at all (detect_prob), a detection may be
    swapped for a random state one component off (misclass_prob), and a
    frame showing an erroneous assembly may be reported as the nearest
    correct state instead (error_fp_rate), mimicking detectors that
    overlook badly installed parts.
    """

    seed: int = 0
    fps: float = 10.0
    dwell_mean_s: float = 3.0
    dwell_jitter_s: float = 1.0
    detect_prob: float = 0.9
    conf_mean: float = 0.8
    conf_spread: float = 0.1
    misclass_prob: float = 0.05
    error_fp_rate: float = 0.65

    def __post_init__(self):
        # what random.Random draws the same from every run: None seeds from
        # the OS, a bytes seed would not go into the scenario document, and
        # a bool draws as 0 or 1 under another recording id
        if self.seed.__class__ is bool or not isinstance(self.seed, (int, float, str)):
            raise ValueError(f"seed must be an int, float or str, got {self.seed!r}")
        for field in fields(self):
            value = getattr(self, field.name)
            # a float seed counts too: random.Random hashes it, and a NaN
            # hashes by identity, so it would seed differently every run
            is_float = field.type == "float" or isinstance(value, float)
            if is_float and not finite_number(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.dwell_mean_s <= 0:
            raise ValueError("dwell_mean_s must be positive")
        if self.dwell_jitter_s < 0:
            raise ValueError("dwell_jitter_s must be >= 0")
        if self.conf_spread < 0:
            raise ValueError("conf_spread must be >= 0")
        for name in ("detect_prob", "misclass_prob", "error_fp_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1], got {value}")

    @classmethod
    def noiseless(cls, seed: int = 0) -> SimConfig:
        """Perfect detector: every frame detects the true state at 1.0."""
        return cls(
            seed=seed,
            detect_prob=1.0,
            conf_mean=1.0,
            conf_spread=0.0,
            misclass_prob=0.0,
            error_fp_rate=0.0,
        )


@dataclass(frozen=True)
class ErrorInjection:
    """Mistakes to plant in the sampled execution.

    omit skips steps entirely; incorrect completes a step with the
    component ending up badly installed; swaps exchanges the steps at
    the given adjacent positions of the sampled order (applied left to
    right, after omissions).
    """

    omit: frozenset[str] = frozenset()
    incorrect: frozenset[str] = frozenset()
    swaps: tuple[int, ...] = ()


NO_INJECTION = ErrorInjection()


@dataclass(frozen=True)
class Scenario:
    """One simulated recording: what happened, and what was detected (stream
    is a tuple, or a one-shot iterator rendered as it is written)."""

    ground_truth: StepSequence
    timeline: tuple[tuple[int, AssemblyState], ...]
    stream: tuple[DetectionFrame, ...] | Iterator[DetectionFrame]

    def __post_init__(self):
        starts = [frame for frame, _ in self.timeline]
        if not starts or starts[0] != 0:
            raise ValueError("timeline must start at frame 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("timeline segment starts must be strictly increasing")
        if {e.frame for e in self.ground_truth.events} - set(starts):
            raise ValueError("every ground-truth event must start a timeline segment")


def _validate_injection(spec: ProcedureSpec, injection: ErrorInjection) -> None:
    known = {a.action_id for a in spec.actions}
    for aid in sorted(injection.omit | injection.incorrect):
        if aid not in known:
            raise ValueError(f"injection references unknown action '{aid}'")
    touched: dict[int, str] = {}
    for aid in sorted(injection.incorrect):
        component = spec.action_by_id(aid).component
        if component in touched:
            raise ValueError(
                f"incorrect completions of '{touched[component]}' and '{aid}' "
                f"both touch component {component}"
            )
        touched[component] = aid


def _order_counter(spec: ProcedureSpec) -> tuple[list[int], Callable[[int], int]]:
    """Prerequisite bitmasks of the actions, and an exact order count.

    Bit i stands for spec.actions[i]. count(remaining) is the number of
    prerequisite-respecting orders of the actions in the bitmask
    remaining, memoised per bitmask. Where the prerequisite graph
    restricted to a remaining set R falls apart, the count splits: with G
    the connected group of R's lowest action, the orders of R interleave
    any order of G with any order of the rest, so count(R) =
    comb(|R|, |G|) * count(G) * count(R - G). Otherwise count(R) sums
    count(R - a) over the ready actions a. The cost thus grows with the
    widest group of interdependent remaining actions, not with the
    number of prerequisite-closed sets of the whole procedure.
    """
    index = {a.action_id: i for i, a in enumerate(spec.actions)}
    requires = [0] * len(index)
    linked = [0] * len(index)  # prerequisites and dependents: undirected edges
    for i, action in enumerate(spec.actions):
        for pre in action.prerequisites:
            j = index[pre]
            requires[i] |= 1 << j
            linked[i] |= 1 << j
            linked[j] |= 1 << i
    counts: dict[int, int] = {0: 1}

    def count(target: int) -> int:
        # an explicit stack instead of recursion, which long prerequisite
        # chains would exhaust. An entry is (set, None) until its parts
        # are known, then (set, (factor, parts)): factor * the product of
        # the two parts' counts, or their sum when factor is 0
        stack: list[tuple[int, tuple | None]] = [(target, None)]
        while stack:
            remaining, split = stack[-1]
            if split is not None:
                stack.pop()
                factor, parts = split
                if factor:
                    counts[remaining] = factor * counts[parts[0]] * counts[parts[1]]
                else:
                    counts[remaining] = sum(counts[part] for part in parts)
                continue
            if remaining in counts:
                stack.pop()
                continue
            group = frontier = remaining & -remaining
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reached = linked[low.bit_length() - 1] & remaining & ~group
                group |= reached
                frontier |= reached
            if group != remaining:
                factor = math.comb(remaining.bit_count(), group.bit_count())
                parts = [group, remaining ^ group]
            else:
                factor = 0
                parts = []
                todo = remaining
                while todo:
                    low = todo & -todo
                    todo ^= low
                    if not requires[low.bit_length() - 1] & remaining:
                        parts.append(remaining ^ low)
            stack[-1] = (remaining, (factor, parts))
            stack += [(part, None) for part in parts if part not in counts]
        return counts[target]

    return requires, count


def _sample_order(spec: ProcedureSpec, rng: random.Random) -> list[str]:
    """Uniform sample over all prerequisite-respecting execution orders.

    Each ready action, taken in sorted id order, is weighted by the exact
    number of completions of the remainder, which makes every full order
    equally likely rather than biasing towards early branching. Each step
    draws as rng.choices would, so a seed always draws the same order, or
    with rng.randrange where the total is too large for a float.
    """
    index = {a.action_id: i for i, a in enumerate(spec.actions)}
    requires, count = _order_counter(spec)
    order: list[str] = []
    remaining = (1 << len(index)) - 1
    while remaining:
        ready = sorted(
            aid
            for aid, i in index.items()
            if remaining >> i & 1 and not requires[i] & remaining
        )
        cum = list(accumulate(count(remaining ^ (1 << index[aid])) for aid in ready))
        try:
            point = float(cum[-1]) * rng.random()
        except OverflowError:  # a total rng.choices rejects
            point = rng.randrange(cum[-1])
        choice = ready[bisect(cum, point, 0, len(cum) - 1)]
        order.append(choice)
        remaining ^= 1 << index[choice]
    return order


# the last frame index of a simulated recording: 10**7 frames is 11.6 days at
# 10 fps, so a setting that passes it is refused before any frame is written
MAX_FRAME = 10**7 - 1


def _checked_frame(frame, cfg: SimConfig):
    """frame itself, or ValueError naming the settings that push it past MAX_FRAME."""
    if not frame <= MAX_FRAME:  # inf and NaN too
        raise ValueError(
            f"fps {cfg.fps}, dwell_mean_s {cfg.dwell_mean_s} and dwell_jitter_s "
            f"{cfg.dwell_jitter_s} put the recording's last frame past index {MAX_FRAME}"
        )
    return frame


def _frame_count(last_change: int, cfg: SimConfig) -> int:
    """Frames iter_stream renders by default: one trailing dwell past the last state change."""
    return last_change + max(1, round(_checked_frame(cfg.dwell_mean_s * cfg.fps, cfg)))


def sample_execution(
    spec: ProcedureSpec,
    injection: ErrorInjection = NO_INJECTION,
    cfg: SimConfig = SimConfig(),
    rng: random.Random | None = None,
    recording_id: str | None = None,
) -> tuple[StepSequence, tuple[tuple[int, AssemblyState], ...]]:
    """Sample one execution: the step events plus the state timeline.

    The timeline is a list of (start frame, state) segments; each event
    is timestamped at the first frame of the segment it creates. A
    recording whose last frame, the trailing dwell included, would pass
    MAX_FRAME raises ValueError.
    """
    _validate_injection(spec, injection)
    if rng is None:
        rng = random.Random(cfg.seed)
    if recording_id is None:
        recording_id = f"{spec.id}-seed{cfg.seed}"

    order = [aid for aid in _sample_order(spec, rng) if aid not in injection.omit]
    for position in injection.swaps:
        if not 0 <= position < len(order) - 1:
            raise ValueError(
                f"swap position {position} out of range for {len(order)} steps"
            )
        order[position], order[position + 1] = order[position + 1], order[position]

    state = spec.initial_state
    timeline: list[tuple[int, AssemblyState]] = [(0, state)]
    events: list[StepEvent] = []
    frame = 0
    elapsed = 0.0
    min_dwell = 1.0 / cfg.fps
    for aid in order:
        action = spec.action_by_id(aid)
        dwell = cfg.dwell_mean_s + rng.uniform(-cfg.dwell_jitter_s, cfg.dwell_jitter_s)
        elapsed += max(dwell, min_dwell)
        frame = max(frame + 1, round(_checked_frame(elapsed * cfg.fps, cfg)))
        if aid in injection.incorrect:
            transition = Transition.INCORRECT
        else:
            transition = action.transition
        state = apply_transition(state, action.component, transition)
        timeline.append((frame, state))
        events.append(
            StepEvent(
                action_id=spec.step_id(action.component, transition),
                component=action.component,
                transition=transition,
                time_s=frame / cfg.fps,
                frame=frame,
                confidence=1.0,
            )
        )
    _checked_frame(_frame_count(frame, cfg) - 1, cfg)
    sequence = StepSequence(recording_id, cfg.fps, tuple(events))
    return sequence, tuple(timeline)


def _nearest_correct(state: AssemblyState) -> AssemblyState:
    """The state a detector blind to mistakes would report instead."""
    return AssemblyState(
        ComponentStatus.INSTALLED if s is ComponentStatus.INCORRECT else s for s in state
    )


def _hamming_neighbor(state: AssemblyState, rng: random.Random) -> AssemblyState:
    """Uniformly chosen state differing in exactly one component."""
    component = rng.randrange(len(state))
    alternatives = [
        s for s in (ComponentStatus.INCORRECT, ComponentStatus.ABSENT, ComponentStatus.INSTALLED)
        if s != state[component]
    ]
    return state.replace(component, rng.choice(alternatives))


def iter_stream(
    timeline,
    cfg: SimConfig,
    n_frames: int | None = None,
    rng: random.Random | None = None,
):
    """Yield detection frames one at a time (streaming form of render_stream)."""
    timeline = tuple(timeline)
    if rng is None:
        rng = random.Random(cfg.seed)
    if n_frames is None:
        n_frames = _frame_count(timeline[-1][0], cfg)
    # per segment: what a detector blind to mistakes reports, or None
    blind = [_nearest_correct(state) if is_error_state(state) else None for _, state in timeline]
    draw = rng.random
    segment = 0
    for f in range(n_frames):
        while segment + 1 < len(timeline) and timeline[segment + 1][0] <= f:
            segment += 1
        detections: tuple[Detection, ...] = ()
        if draw() < cfg.detect_prob:
            detected = timeline[segment][1]
            if blind[segment] is not None and draw() < cfg.error_fp_rate:
                detected = blind[segment]
            elif draw() < cfg.misclass_prob:
                detected = _hamming_neighbor(detected, rng)
            confidence = cfg.conf_mean + rng.uniform(-cfg.conf_spread, cfg.conf_spread)
            confidence = min(1.0, max(0.0, confidence))
            detections = (Detection(detected, confidence),)
        yield DetectionFrame(f, f / cfg.fps, detections)


def render_stream(
    timeline,
    cfg: SimConfig,
    n_frames: int | None = None,
    rng: random.Random | None = None,
) -> list[DetectionFrame]:
    """Render a per-frame detection stream for a state timeline."""
    return list(iter_stream(timeline, cfg, n_frames, rng))


def simulate(
    spec: ProcedureSpec,
    injection: ErrorInjection = NO_INJECTION,
    cfg: SimConfig = SimConfig(),
    recording_id: str | None = None,
) -> Scenario:
    """Sample an execution and render its detection stream."""
    rng = random.Random(cfg.seed)
    sequence, timeline = sample_execution(
        spec, injection, cfg, rng=rng, recording_id=recording_id
    )
    return Scenario(sequence, timeline, tuple(render_stream(timeline, cfg, rng=rng)))
