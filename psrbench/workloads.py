"""Input plans of the psrkit benchmark workloads.

A plan fixes everything psrkit is asked to do in one workload: the
procedure passed as ``--spec``, the simulator settings written to the
``simulate --config`` file, one entry per recording (its simulator seed
and injected mistakes), the baselines to run and the scoring command.
Plans are drawn from ``random.Random(seed)`` alone, so one benchmark seed
always yields the same input files, and psrkit sees only those files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("stream_long", "corpus_short", "wide_b3")

# stream_long: the car assembly has 10 actions, so 11 dwells of ~909 s
# give ~100k frames at 10 fps. A small jitter keeps the length within
# about 1% across seeds, so per-run times stay comparable between seeds.
LONG_DWELL_S = 909.0
LONG_JITTER_S = 40.0
CORPUS_RECORDINGS = 100
WIDE_RECORDINGS = 4
WIDE_SPEC_FILE = "wide_maintenance.procedure.json"
WIDE_PAIRS = 6  # install-only parts come in prerequisite pairs
WIDE_SERVICE_PARTS = 3  # parts removed and refitted, as in car maintenance


@dataclass(frozen=True)
class Recording:
    recording_id: str
    seed: int
    omit: tuple[str, ...] = ()
    incorrect: tuple[str, ...] = ()
    swaps: tuple[int, ...] = ()

    @property
    def mistakes(self) -> int:
        return len(self.omit) + len(self.incorrect) + len(self.swaps)

    def simulate_args(self) -> list[str]:
        """The ``psrkit simulate`` flags that select this recording."""
        args = ["--seed", str(self.seed), "--recording-id", self.recording_id]
        for action in self.omit:
            args += ["--omit", action]
        for action in self.incorrect:
            args += ["--incorrect", action]
        for position in self.swaps:
            args += ["--swap", str(position)]
        return args


@dataclass(frozen=True)
class Plan:
    workload: str
    spec: str  # the --spec value: a builtin procedure name or a file
    sim_config: dict  # contents of the simulate --config file
    recordings: tuple[Recording, ...]
    variants: tuple[str, ...]
    scoring: str  # "eval" once per prediction, or "bench" once per baseline


def spec_argument(workload: str, inputs_dir) -> str:
    if workload == "wide_b3":
        return str(inputs_dir / WIDE_SPEC_FILE)
    return "industreal_car_assembly"


def wide_procedure_document() -> dict:
    """A 15-component maintenance-style procedure for B3's constructor.

    Twelve install-only parts form six two-step prerequisite chains, and
    three service parts start installed, are removed and are refitted.
    Components with both an install and a remove action are the ones an
    exact reachability test must treat as ambiguous. The design gives
    3^9 = 19,683 (state, completed-actions) pairs for B3's breadth-first
    enumeration to visit, and 5,832 reachable states.
    """
    components = []
    actions = []
    for part in range(2 * WIDE_PAIRS):
        components.append({"index": part, "name": f"part {part}"})
        requires = [f"install_part{part - 1}"] if part % 2 else []
        actions.append(
            {"id": f"install_part{part}", "component": part,
             "transition": "install", "requires": requires}
        )
    for service in range(WIDE_SERVICE_PARTS):
        index = 2 * WIDE_PAIRS + service
        components.append({"index": index, "name": f"service part {service}"})
        actions.append(
            {"id": f"remove_service{service}", "component": index,
             "transition": "remove", "requires": []}
        )
        actions.append(
            {"id": f"refit_service{service}", "component": index,
             "transition": "install", "requires": [f"remove_service{service}"]}
        )
    initial = ["0"] * (2 * WIDE_PAIRS) + ["1"] * WIDE_SERVICE_PARTS
    return {
        "format_version": "1.0.0",
        "kind": "procedure",
        "id": "wide_maintenance",
        "components": components,
        "initial_state": ",".join(initial),
        "actions": actions,
    }


def _mistakes(rng: random.Random, action_ids: list[str]) -> dict:
    """One or two omit / incorrect / swap mistakes on distinct actions."""
    kinds = [rng.choice(("omit", "incorrect", "swap")) for _ in range(rng.randint(1, 2))]
    touched = rng.sample(action_ids, kinds.count("omit") + kinds.count("incorrect"))
    omit = tuple(sorted(touched[: kinds.count("omit")]))
    incorrect = tuple(sorted(touched[kinds.count("omit"):]))
    steps = len(action_ids) - len(omit)
    swaps = tuple(rng.randrange(steps - 1) for _ in range(kinds.count("swap")))
    return {"omit": omit, "incorrect": incorrect, "swaps": swaps}


def make_plan(workload: str, seed: int, spec_arg: str, action_ids, scale: float = 1.0) -> Plan:
    """The plan of one workload; ``scale`` < 1 shrinks it for smoke tests."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "stream_long":
        dwell = max(3.0, LONG_DWELL_S * scale)
        config = {"dwell_mean_s": dwell, "dwell_jitter_s": LONG_JITTER_S * dwell / LONG_DWELL_S}
        recordings = (Recording("long", rng.randrange(2**31)),)
        return Plan(workload, spec_arg, config, recordings, ("b1", "b2", "b3"), "eval")
    if workload == "corpus_short":
        count = max(4, round(CORPUS_RECORDINGS * scale))
        flawed = set(rng.sample(range(count), count // 4))
        recordings = []
        for index in range(count):
            rec_seed = rng.randrange(2**31)
            mistakes = _mistakes(rng, list(action_ids)) if index in flawed else {}
            recordings.append(Recording(f"rec{index:03d}", rec_seed, **mistakes))
        return Plan(workload, spec_arg, {}, tuple(recordings), ("b1", "b2", "b3"), "bench")
    if workload == "wide_b3":
        count = max(1, round(WIDE_RECORDINGS * min(scale, 1.0)))
        recordings = tuple(
            Recording(f"wide{index}", rng.randrange(2**31)) for index in range(count)
        )
        return Plan(workload, spec_arg, {}, recordings, ("b3",), "eval")
    raise ValueError(f"unknown workload '{workload}'")
