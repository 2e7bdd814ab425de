"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from itertools import permutations

from psrkit.baselines import BaselineConfig, Variant
from psrkit.model import (
    AssemblyState,
    EventSource,
    ProceduralAction,
    ProcedureSpec,
    StepEvent,
    StepSequence,
    Transition,
    apply_transition,
    expected_states,
    transition_to,
)


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

    Returns one (events completed, accumulators afterwards) pair per
    frame. B3's guard is membership in the listed reachable states, so
    only small procedures are practical.
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
                if top.confidence >= config.detection_threshold:
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
                    if confs[i] > config.accumulation_threshold and (
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
                              confidence, EventSource.RECOGNIZED)
                )
        out.append((events, tuple(confs)))
    return out


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
    source: EventSource = EventSource.GROUND_TRUTH,
) -> StepEvent:
    frame = round(time_s * fps)
    return StepEvent(
        action_id=action_id,
        component=component,
        transition=transition,
        time_s=frame / fps,
        frame=frame,
        confidence=confidence,
        source=source,
    )


def sequence(recording_id: str, entries, fps: float = 1.0, **kwargs) -> StepSequence:
    """Sequence from (action_id, time_s, component) triples."""
    events = [event(aid, t, comp, fps=fps, **kwargs) for aid, t, comp in entries]
    return StepSequence.from_events(recording_id, fps, events)
