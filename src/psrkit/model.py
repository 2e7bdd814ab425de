"""Assembly states, procedure definitions, and step events.

An assembly is tracked as a fixed-length code over its components, one
status per component: 1 (correctly installed), 0 (absent), -1 (incorrectly
installed). A procedure is a set of actions, each flipping one component,
with a prerequisite partial order between actions. Comparing two assembly
states tells you which procedure steps were completed in between.
"""

from __future__ import annotations

import enum
import sys
from collections import deque
from dataclasses import dataclass
from functools import cached_property


class ComponentStatus(enum.IntEnum):
    INCORRECT = -1
    ABSENT = 0
    INSTALLED = 1


class Transition(enum.Enum):
    """What happened to a single component."""

    INSTALL = "install"
    REMOVE = "remove"
    INCORRECT = "incorrect"


class EventSource(enum.Enum):
    RECOGNIZED = "recognized"
    GROUND_TRUTH = "ground_truth"


def status_for_value(value: int) -> ComponentStatus:
    """Map an integer to a ComponentStatus, rejecting anything but -1/0/1."""
    try:
        return ComponentStatus(value)
    except ValueError:
        raise ValueError(f"component status must be -1, 0 or 1, got {value}") from None


_TRANSITION_TO = {1: Transition.INSTALL, 0: Transition.REMOVE, -1: Transition.INCORRECT}


def transition_to(value: int) -> Transition:
    """Transition implied by a component's new status value."""
    try:
        return _TRANSITION_TO[value]
    except KeyError:
        raise ValueError(f"component status must be -1, 0 or 1, got {value}") from None


# Lookups by transition are keyed on its plain ``_value_`` string: a
# Transition key would hash through Enum.__hash__, which runs in Python,
# on every step event and every B3 guard test.
_TARGET_VALUE = {
    Transition.INSTALL.value: ComponentStatus.INSTALLED,
    Transition.REMOVE.value: ComponentStatus.ABSENT,
    Transition.INCORRECT.value: ComponentStatus.INCORRECT,
}


def transition_target(transition: Transition) -> ComponentStatus:
    """The component status a transition leaves behind."""
    return _TARGET_VALUE[transition._value_]


@dataclass(frozen=True)
class AssemblyState:
    """Immutable per-component status vector, e.g. the code 11100000000."""

    statuses: tuple[ComponentStatus, ...]

    def __len__(self) -> int:
        return len(self.statuses)

    def __getitem__(self, index: int) -> ComponentStatus:
        return self.statuses[index]

    def __iter__(self):
        return iter(self.statuses)

    def replace(self, component: int, status: ComponentStatus) -> AssemblyState:
        """New state with one component's status changed."""
        statuses = list(self.statuses)
        statuses[component] = status
        return AssemblyState(tuple(statuses))

    def as_ints(self) -> tuple[int, ...]:
        return tuple(int(s) for s in self.statuses)

    @classmethod
    def from_values(cls, values) -> AssemblyState:
        return cls(tuple(status_for_value(v) for v in values))


@dataclass(frozen=True)
class ProceduralAction:
    """One procedure step: a single component transition plus prerequisites.

    ``transition`` is INSTALL or REMOVE; INCORRECT is an observation
    outcome, not something a procedure prescribes.
    """

    action_id: str
    component: int
    transition: Transition
    prerequisites: frozenset[str] = frozenset()
    description: str = ""


@dataclass(frozen=True)
class ProcedureSpec:
    """A procedure: ordered component names, actions, and the start state.

    Construction is permissive; run validate_procedure (or ensure_valid)
    to check the invariants, so that a broken definition can still be
    loaded and diagnosed.
    """

    id: str
    components: tuple[str, ...]
    actions: tuple[ProceduralAction, ...]
    initial_state: AssemblyState

    @property
    def n_components(self) -> int:
        return len(self.components)

    @cached_property
    def _by_id(self) -> dict[str, ProceduralAction]:
        return {a.action_id: a for a in self.actions}

    @cached_property
    def _by_pair(self) -> dict[tuple[int, str], ProceduralAction]:
        return {(a.component, a.transition._value_): a for a in self.actions}

    def action_by_id(self, action_id: str) -> ProceduralAction:
        return self._by_id[action_id]

    def action_for(self, component: int, transition: Transition) -> ProceduralAction | None:
        """The action defining this (component, transition) pair, if any."""
        return self._by_pair.get((component, transition._value_))

    def ensure_valid(self) -> None:
        diagnostics = validate_procedure(self)
        if diagnostics:
            raise ValueError(
                f"invalid procedure '{self.id}': " + "; ".join(diagnostics)
            )

    def step_id(self, component: int, transition: Transition) -> str:
        """Stable identifier for an observed component transition.

        Transitions prescribed by the procedure use the action id.
        Incorrect completions are named after the install action they
        botch ("incorrect:<action>"); transitions with no corresponding
        action get a positional id ("c<idx>:install" / "c<idx>:remove"),
        so ground truth and predictions always agree on naming.
        """
        if transition is Transition.INCORRECT:
            install = self.action_for(component, Transition.INSTALL)
            base = install.action_id if install else f"c{component}"
            return f"incorrect:{base}"
        action = self.action_for(component, transition)
        if action is not None:
            return action.action_id
        return f"c{component}:{transition.value}"


@dataclass(frozen=True)
class StepEvent:
    """One recognized or annotated step completion, as a step file can hold it."""

    action_id: str
    component: int
    transition: Transition
    time_s: float
    frame: int
    confidence: float = 1.0
    source: EventSource = EventSource.RECOGNIZED

    def __post_init__(self):
        frame, confidence = self.frame, self.confidence
        if frame.__class__ is bool or not isinstance(frame, int):
            raise ValueError(f"frame must be an integer, got {frame!r}")
        if frame < 0:
            raise ValueError(f"frame must be non-negative, got {frame}")
        if self.time_s < 0:
            raise ValueError(f"time_s must be non-negative, got {self.time_s}")
        # within a float's range: a larger int is written as digits that read back as inf
        number = confidence.__class__ is not bool and isinstance(confidence, (int, float))
        if not number or not abs(confidence) <= sys.float_info.max:
            raise ValueError(f"confidence must be a finite number, got {confidence!r}")
        if confidence < 0:
            raise ValueError(f"confidence must be >= 0, got {confidence}")


@dataclass(frozen=True)
class StepSequence:
    """Step events of one recording, sorted by (time, component).

    At most one event per action id: a second completion of the same step
    has no defined meaning anywhere downstream and is rejected here.
    """

    recording_id: str
    fps: float
    events: tuple[StepEvent, ...] = ()

    def __post_init__(self):
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        seen: set[str] = set()
        previous: StepEvent | None = None
        for event in self.events:
            if event.action_id in seen:
                raise ValueError(
                    f"duplicate event for action '{event.action_id}' "
                    f"in recording '{self.recording_id}'"
                )
            seen.add(event.action_id)
            if previous is not None and (event.time_s, event.component) < (
                previous.time_s,
                previous.component,
            ):
                raise ValueError(
                    f"events out of order at action '{event.action_id}'"
                )
            if abs(event.time_s - event.frame / self.fps) > 1e-6:
                raise ValueError(
                    f"event '{event.action_id}' time {event.time_s} does not "
                    f"match frame {event.frame} at {self.fps} fps"
                )
            previous = event

    @classmethod
    def from_events(cls, recording_id: str, fps: float, events) -> StepSequence:
        """Build a sequence, sorting events by (time, component)."""
        ordered = tuple(sorted(events, key=lambda e: (e.time_s, e.component)))
        return cls(recording_id, fps, ordered)

    def __len__(self) -> int:
        return len(self.events)

    def action_ids(self) -> tuple[str, ...]:
        """Action ids in completion order (the sequence's order projection)."""
        return tuple(e.action_id for e in self.events)

    def correct_only(self) -> StepSequence:
        """View without incorrect completions."""
        kept = tuple(e for e in self.events if e.transition is not Transition.INCORRECT)
        if len(kept) == len(self.events):
            return self
        return StepSequence(self.recording_id, self.fps, kept)

    def has_incorrect(self) -> bool:
        return any(e.transition is Transition.INCORRECT for e in self.events)


# the tokens serialize_state writes; a compact digit is "0" or "1" too
_STATUS_OF_TOKEN = {str(int(s)): s for s in ComponentStatus}


def parse_state_text(text: str) -> AssemblyState:
    """Parse a state string of any length.

    Two forms are accepted: the compact digit form ("11100000000"), legal
    only when no component is incorrect, and the canonical comma-separated
    form ("1,-1,0,...").
    """
    text = text.strip()
    if not text:
        raise ValueError("empty state string")
    # single-component states have no separator; "-1" is still list form
    listed = "," in text or text == "-1"
    statuses = tuple(map(_STATUS_OF_TOKEN.get, text.split(",") if listed else text))
    if None not in statuses:
        return AssemblyState(statuses)
    if not listed:  # a character other than 0 and 1
        raise ValueError(
            f"compact state '{text}' may only contain 0 and 1; "
            "use the comma-separated form for -1"
        )
    # another token (" 1", "+1", "01", "2", ...) takes int(), which may accept it
    values = []
    for token in text.split(","):
        token = token.strip()
        try:
            value = int(token)
        except ValueError:
            raise ValueError(f"malformed state token '{token}' in '{text}'") from None
        values.append(status_for_value(value))
    return AssemblyState(tuple(values))


def serialize_state(state: AssemblyState) -> str:
    """Canonical comma-separated form; inverse of parse_state_text."""
    return ",".join(str(int(s)) for s in state)


def is_error_state(state: AssemblyState) -> bool:
    """True iff any component is incorrectly installed."""
    return any(s is ComponentStatus.INCORRECT for s in state.statuses)


def diff_states(prev: AssemblyState, next_state: AssemblyState) -> list[tuple[int, Transition]]:
    """Component transitions turning `prev` into `next_state`.

    One entry per changed component, ascending by component index. The
    transition is named by the new value: INSTALL for 1, REMOVE for 0,
    INCORRECT for -1.
    """
    if len(prev) != len(next_state):
        raise ValueError(
            f"cannot diff states of length {len(prev)} and {len(next_state)}"
        )
    changes: list[tuple[int, Transition]] = []
    for index, (before, after) in enumerate(zip(prev.statuses, next_state.statuses)):
        if before != after:
            changes.append((index, transition_to(int(after))))
    return changes


def apply_transition(state: AssemblyState, component: int, transition: Transition) -> AssemblyState:
    """Apply one component transition to a state."""
    return state.replace(component, _TARGET_VALUE[transition._value_])


def expected_states(spec: ProcedureSpec) -> frozenset[AssemblyState]:
    """All states reachable by prerequisite-respecting execution.

    Includes the initial and final states. Explored by breadth-first
    search over (state, completed-action-set) pairs, so states reachable
    along several orders are counted once. The count, and the time, grow
    exponentially with the procedure's width; to ask about one state use
    is_reachable, which B3 uses. This listing is kept for callers that
    need every state and as the reference is_reachable is tested against.
    """
    spec.ensure_valid()
    initial = spec.initial_state
    start = (initial, frozenset())
    seen_configs = {start}
    states = {initial}
    queue = deque([start])
    while queue:
        state, done = queue.popleft()
        for action in spec.actions:
            if action.action_id in done:
                continue
            if not action.prerequisites <= done:
                continue
            next_state = apply_transition(state, action.component, action.transition)
            config = (next_state, done | {action.action_id})
            if config in seen_configs:
                continue
            seen_configs.add(config)
            states.add(next_state)
            queue.append(config)
    return frozenset(states)


def is_reachable(spec: ProcedureSpec, values) -> bool:
    """Whether the state ``values`` occurs in some correct execution of ``spec``.

    Same verdict as ``tuple(values) in {s.as_ints() for s in
    expected_states(spec)}``, in time polynomial in the procedure's size.
    ``spec`` must be valid (see validate_procedure).

    A correct execution so far is a prerequisite-closed set of actions,
    each applied once, in an order that respects the prerequisites. A
    component the set does not touch keeps its initial value; otherwise
    it ends at the target of its last action. So the target values force
    actions into the set: the install of every component that must end at
    1 but does not start there (the remove for 0), each action's
    prerequisites, and, for an action that leaves its component at the
    wrong value, the component's other action, which must then come after
    it. Adding an action to the set only adds constraints, so the smallest
    set closed under these rules works whenever any set does. The state is
    reachable iff that set exists (no -1 a correct execution cannot make,
    no missing counterpart action) and its prerequisite and
    counterpart-order edges form no cycle.
    """
    initial = spec.initial_state.as_ints()
    if len(values) != len(initial):
        raise ValueError(
            f"state has {len(values)} components, "
            f"procedure '{spec.id}' expects {len(initial)}"
        )
    # a valid procedure prescribes no incorrect transition, so no action
    # reaches a -1 target
    pending: list[ProceduralAction] = []
    for component, (start, target) in enumerate(zip(initial, values)):
        if target != start:
            action = spec.action_for(component, transition_to(target))
            if action is None:
                return False
            pending.append(action)
    requires: dict[str, set[str]] = {}
    order_edges: list[tuple[str, str]] = []  # (later, earlier) on one component
    while pending:
        action = pending.pop()
        if action.action_id in requires:
            continue
        requires[action.action_id] = set(action.prerequisites)
        pending.extend(spec.action_by_id(pre) for pre in action.prerequisites)
        target = values[action.component]
        if target != _TARGET_VALUE[action.transition._value_]:
            last = spec.action_for(action.component, transition_to(target))
            if last is None:
                return False
            pending.append(last)
            order_edges.append((last.action_id, action.action_id))
    for later, earlier in order_edges:
        requires[later].add(earlier)
    return _kahn_order(requires) is not None


def validate_procedure(spec: ProcedureSpec) -> list[str]:
    """Diagnostics for every violated procedure invariant (empty = valid)."""
    diagnostics: list[str] = []
    n = len(spec.components)
    if len(spec.initial_state) != n:
        diagnostics.append(
            f"initial state has {len(spec.initial_state)} components, expected {n}"
        )
    ids: set[str] = set()
    pairs: set[tuple[int, Transition]] = set()
    for action in spec.actions:
        if action.action_id in ids:
            diagnostics.append(f"duplicate action id '{action.action_id}'")
        ids.add(action.action_id)
        if not 0 <= action.component < n:
            diagnostics.append(
                f"action '{action.action_id}' references component "
                f"{action.component} of a {n}-component procedure"
            )
        if action.transition is Transition.INCORRECT:
            diagnostics.append(
                f"action '{action.action_id}' may not prescribe an incorrect transition"
            )
        pair = (action.component, action.transition)
        if pair in pairs:
            diagnostics.append(
                f"actions define component {action.component} "
                f"{action.transition.value} more than once"
            )
        pairs.add(pair)
    for action in spec.actions:
        for pre in action.prerequisites:
            if pre not in ids:
                diagnostics.append(
                    f"action '{action.action_id}' requires unknown action '{pre}'"
                )
    known = {a.action_id: set(a.prerequisites) & ids for a in spec.actions}
    if _kahn_order(known) is None:
        diagnostics.append("prerequisite graph contains a cycle")
    return diagnostics


def _kahn_order(requires: dict[str, set[str]]) -> list[str] | None:
    """Keys ordered so each follows everything it requires; None on a cycle.

    Stable Kahn: each round takes, in insertion order, every key whose
    requirements are all met. A requirement that is not a key is never
    met.
    """
    remaining = dict(requires)
    order: list[str] = []
    done: set[str] = set()
    while remaining:
        ready = [key for key, pre in remaining.items() if pre <= done]
        if not ready:
            return None
        for key in ready:
            order.append(key)
            done.add(key)
            del remaining[key]
    return order
