from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_valid_orders,
    linear_spec,
    maintenance_spec,
    random_install_procedure,
    reference_sample_order,
    sequence,
    state_at,
)
from psrkit.model import (
    AssemblyState,
    ComponentStatus,
    ProceduralAction,
    ProcedureSpec,
    Transition,
    is_error_state,
)
from psrkit.simulate import (
    MAX_FRAME,
    NO_INJECTION,
    ErrorInjection,
    Scenario,
    SimConfig,
    _order_counter,
    sample_execution,
    simulate,
)


@st.composite
def grouped_procedures(draw, max_actions: int = 9) -> ProcedureSpec:
    """Valid procedures of install-only, remove-only and remove+refit
    parts whose actions fall into several groups, with random acyclic
    prerequisites inside each group only, so the prerequisite graph
    usually falls apart into independent pieces."""
    kinds = draw(st.lists(
        st.sampled_from(["install", "remove", "refit"]), min_size=1, max_size=max_actions
    ))
    actions: list[ProceduralAction] = []
    for component, kind in enumerate(kinds):
        if kind == "install":
            actions.append(ProceduralAction(f"install{component}", component, Transition.INSTALL))
        else:
            actions.append(ProceduralAction(f"remove{component}", component, Transition.REMOVE))
        if kind == "refit" and len(actions) < max_actions:
            actions.append(ProceduralAction(
                f"refit{component}", component, Transition.INSTALL,
                frozenset({f"remove{component}"}),
            ))
    groups = draw(st.lists(st.integers(0, 2), min_size=len(actions), max_size=len(actions)))
    wired: list[ProceduralAction] = []
    for action, group in zip(actions, groups):
        earlier = [a.action_id for a, g in zip(wired, groups) if g == group]
        extra = draw(st.sets(st.sampled_from(earlier), max_size=2)) if earlier else set()
        wired.append(ProceduralAction(
            action.action_id, action.component, action.transition,
            action.prerequisites | frozenset(extra),
        ))
    return ProcedureSpec(
        "grouped",
        tuple(f"part {c}" for c in range(len(kinds))),
        tuple(wired),
        AssemblyState.from_values([0 if kind == "install" else 1 for kind in kinds]),
    )


class TestSimConfig:
    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="detect_prob"):
            SimConfig(detect_prob=1.5)
        with pytest.raises(ValueError, match="misclass_prob"):
            SimConfig(misclass_prob=-0.1)

    def test_positive_dwell_and_fps(self):
        with pytest.raises(ValueError, match="fps"):
            SimConfig(fps=0)
        with pytest.raises(ValueError, match="dwell"):
            SimConfig(dwell_mean_s=0)

    @pytest.mark.parametrize("name", ["dwell_jitter_s", "conf_spread"])
    def test_negative_spread_rejected(self, name):
        with pytest.raises(ValueError) as err:
            SimConfig(**{name: -0.5})
        assert str(err.value) == f"{name} must be >= 0"

    @pytest.mark.parametrize("seed", [None, [1], {"a": 1}, b"seed", True])
    def test_seed_random_cannot_reproduce_is_rejected(self, seed):
        with pytest.raises(ValueError) as err:
            SimConfig(seed=seed)
        assert str(err.value) == f"seed must be an int, float or str, got {seed!r}"

    @pytest.mark.parametrize("seed", [7, 10**400, 2.5, "seven"])
    def test_accepted_seed_draws_as_random_does(self, car_spec, seed):
        ground_truth = simulate(car_spec, cfg=SimConfig(seed=seed)).ground_truth
        expected = sample_execution(car_spec, NO_INJECTION, SimConfig(), random.Random(seed))[0]
        assert ground_truth.events == expected.events

    def test_noiseless_profile(self):
        cfg = SimConfig.noiseless(seed=3)
        assert (cfg.detect_prob, cfg.conf_mean, cfg.conf_spread) == (1.0, 1.0, 0.0)
        assert (cfg.misclass_prob, cfg.error_fp_rate) == (0.0, 0.0)


class TestScenario:
    @pytest.mark.parametrize(
        "starts, message",
        [
            ((), "timeline must start at frame 0"),
            ((1, 2), "timeline must start at frame 0"),
            ((0, 2, 2), "timeline segment starts must be strictly increasing"),
            ((0, 1, 3), "every ground-truth event must start a timeline segment"),
        ],
        ids=["empty", "late-start", "repeated-start", "event-off-a-start"],
    )
    def test_timeline_checks(self, starts, message):
        ground_truth = sequence("r", [("a0", 2.0, 0)])  # one event at frame 2
        state = AssemblyState.from_values([0])
        with pytest.raises(ValueError) as err:
            Scenario(ground_truth, tuple((start, state) for start in starts), ())
        assert str(err.value) == message


class TestSampleExecution:
    def test_linear_chain_has_unique_order(self):
        spec = linear_spec(4)
        sequence, _ = sample_execution(spec, cfg=SimConfig(seed=9))
        assert sequence.action_ids() == ("a0", "a1", "a2", "a3")

    def test_omit_shortens_ground_truth(self):
        spec = linear_spec(4)
        injection = ErrorInjection(omit=frozenset({"a2"}))
        sequence, timeline = sample_execution(spec, injection, SimConfig(seed=9))
        assert sequence.action_ids() == ("a0", "a1", "a3")
        final = timeline[-1][1]
        assert final[2] is ComponentStatus.ABSENT
        assert final != AssemblyState.from_values([1, 1, 1, 1])

    def test_incorrect_completion(self):
        spec = linear_spec(4)
        injection = ErrorInjection(incorrect=frozenset({"a1"}))
        sequence, timeline = sample_execution(spec, injection, SimConfig(seed=9))
        assert any(is_error_state(state) for _, state in timeline)
        assert "incorrect:a1" in sequence.action_ids()
        assert "a1" not in sequence.correct_only().action_ids()

    def test_swap_exchanges_adjacent_steps(self):
        spec = linear_spec(4)
        injection = ErrorInjection(swaps=(1,))
        sequence, _ = sample_execution(spec, injection, SimConfig(seed=9))
        assert sequence.action_ids() == ("a0", "a2", "a1", "a3")

    def test_swap_out_of_range(self):
        spec = linear_spec(2)
        with pytest.raises(ValueError, match="swap position"):
            sample_execution(spec, ErrorInjection(swaps=(5,)), SimConfig(seed=9))

    def test_unknown_injection_action(self):
        spec = linear_spec(2)
        with pytest.raises(ValueError, match="unknown action"):
            sample_execution(spec, ErrorInjection(omit=frozenset({"nope"})), SimConfig())

    def test_incorrect_on_same_component_rejected(self):
        spec = ProcedureSpec(
            id="redo",
            components=("x",),
            actions=(
                ProceduralAction("put", 0, Transition.INSTALL),
                ProceduralAction("take", 0, Transition.REMOVE, frozenset({"put"})),
            ),
            initial_state=AssemblyState.from_values([0]),
        )
        injection = ErrorInjection(incorrect=frozenset({"put", "take"}))
        with pytest.raises(ValueError, match="component 0"):
            sample_execution(spec, injection, SimConfig())

    def test_prerequisites_respected(self):
        rng = random.Random(41)
        for _ in range(20):
            spec = random_install_procedure(rng)
            sequence, _ = sample_execution(spec, cfg=SimConfig(seed=rng.randrange(10_000)))
            done = set()
            for aid in sequence.action_ids():
                assert spec.action_by_id(aid).prerequisites <= done
                done.add(aid)

    def test_order_sampling_is_roughly_uniform(self):
        # a, b free; c after a -> three valid orders, ~1/3 each
        spec = ProcedureSpec(
            id="tri",
            components=("x", "y", "z"),
            actions=(
                ProceduralAction("a", 0, Transition.INSTALL),
                ProceduralAction("b", 1, Transition.INSTALL),
                ProceduralAction("c", 2, Transition.INSTALL, frozenset({"a"})),
            ),
            initial_state=AssemblyState.from_values([0, 0, 0]),
        )
        counts = Counter(
            sample_execution(spec, cfg=SimConfig(seed=seed))[0].action_ids()
            for seed in range(1500)
        )
        assert set(counts) == {("a", "b", "c"), ("a", "c", "b"), ("b", "a", "c")}
        for count in counts.values():
            assert 400 < count < 600

    @settings(max_examples=200, deadline=None)
    @given(grouped_procedures(), st.integers(min_value=0, max_value=2**32))
    def test_same_order_as_reference_sampler(self, spec, seed):
        sequence, _ = sample_execution(spec, cfg=SimConfig(seed=seed))
        assert list(sequence.action_ids()) == reference_sample_order(spec, random.Random(seed))
        if len(spec.actions) <= 6:
            _, count = _order_counter(spec)
            assert count((1 << len(spec.actions)) - 1) == len(all_valid_orders(spec))

    def test_same_order_as_reference_on_wide_procedure(self):
        spec = maintenance_spec()
        for seed in range(3):
            sequence, _ = sample_execution(spec, cfg=SimConfig(seed=seed))
            assert list(sequence.action_ids()) == reference_sample_order(spec, random.Random(seed))

    def test_order_sampling_memory_is_small(self):
        # the reference memoises one count per prerequisite-closed action
        # set, 19,683 of them here (~15 MB); grouped counts need a few
        spec = maintenance_spec()
        tracemalloc.start()
        try:
            sample_execution(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_event_frames_start_segments(self):
        spec = linear_spec(5)
        sequence, timeline = sample_execution(spec, cfg=SimConfig(seed=13))
        starts = [start for start, _ in timeline]
        assert starts[0] == 0
        assert [e.frame for e in sequence.events] == starts[1:]


    def test_last_frame_index_bound_is_exact(self):
        # one action at dwell 1 s: its frame and the trailing dwell are each
        # round(fps), so the last frame index is 2 * round(fps) - 1; round()
        # takes 5e6 + 0.5 down to 5e6 (index 10**7 - 1), the next float up to 5e6 + 1
        spec = linear_spec(1)
        at_bound = SimConfig(fps=5e6 + 0.5, dwell_mean_s=1.0, dwell_jitter_s=0.0)
        sequence, _ = sample_execution(spec, cfg=at_bound)
        assert sequence.events[0].frame == 5 * 10**6
        assert MAX_FRAME == 10**7 - 1
        past = SimConfig(fps=math.nextafter(5e6 + 0.5, math.inf), dwell_mean_s=1.0,
                         dwell_jitter_s=0.0)
        with pytest.raises(ValueError) as err:
            sample_execution(spec, cfg=past)
        assert str(err.value).startswith(f"fps {past.fps}, dwell_mean_s 1.0")


class TestRenderStream:
    def test_noiseless_renders_timeline_exactly(self):
        spec = linear_spec(3)
        cfg = SimConfig.noiseless(seed=2)
        scenario = simulate(spec, cfg=cfg)
        for detection_frame in scenario.stream:
            assert len(detection_frame.detections) == 1
            detection = detection_frame.detections[0]
            assert detection.confidence == 1.0
            assert detection.state == state_at(scenario, detection_frame.frame)

    def test_detect_prob_zero_gives_empty_frames(self):
        spec = linear_spec(3)
        cfg = SimConfig(seed=2, detect_prob=0.0)
        scenario = simulate(spec, cfg=cfg)
        assert all(not f.detections for f in scenario.stream)

    def test_misclass_always_hamming_one(self, car_spec):
        cfg = SimConfig(seed=8, detect_prob=1.0, misclass_prob=1.0, error_fp_rate=0.0)
        scenario = simulate(car_spec, cfg=cfg)
        for detection_frame in scenario.stream:
            detected = detection_frame.detections[0].state
            truth = state_at(scenario, detection_frame.frame)
            distance = sum(a != b for a, b in zip(detected, truth))
            assert distance == 1

    def test_error_fp_hides_all_mistakes(self):
        spec = linear_spec(3)
        injection = ErrorInjection(incorrect=frozenset({"a1"}))
        cfg = SimConfig(seed=8, detect_prob=1.0, misclass_prob=0.0, error_fp_rate=1.0)
        scenario = simulate(spec, injection, cfg)
        assert any(is_error_state(s) for _, s in scenario.timeline)
        for detection_frame in scenario.stream:
            detected = detection_frame.detections[0].state
            assert not is_error_state(detected)
            if is_error_state(state_at(scenario, detection_frame.frame)):
                # the wrongly installed part reads as installed
                truth = state_at(scenario, detection_frame.frame)
                for got, actual in zip(detected, truth):
                    if actual is ComponentStatus.INCORRECT:
                        assert got is ComponentStatus.INSTALLED

    def test_confidence_truncated(self):
        spec = linear_spec(3)
        cfg = SimConfig(seed=8, detect_prob=1.0, conf_mean=0.95, conf_spread=0.2)
        scenario = simulate(spec, cfg=cfg)
        confidences = [f.detections[0].confidence for f in scenario.stream]
        assert all(0.0 <= c <= 1.0 for c in confidences)
        assert any(c == 1.0 for c in confidences)  # truncation actually hit


class TestSimulate:
    def test_bit_identical_for_same_seed(self, car_spec):
        cfg = SimConfig(seed=7, misclass_prob=0.1)
        assert simulate(car_spec, cfg=cfg) == simulate(car_spec, cfg=cfg)

    def test_different_seed_changes_stream(self, car_spec):
        first = simulate(car_spec, cfg=SimConfig(seed=1))
        second = simulate(car_spec, cfg=SimConfig(seed=2))
        assert first != second

    def test_default_recording_id(self, car_spec):
        scenario = simulate(car_spec, cfg=SimConfig(seed=4))
        assert scenario.ground_truth.recording_id == "industreal_car_assembly-seed4"

    def test_recording_id_override(self, car_spec):
        scenario = simulate(car_spec, cfg=SimConfig(seed=4), recording_id="rec-01")
        assert scenario.ground_truth.recording_id == "rec-01"

    def test_stream_extends_past_last_event(self, car_spec):
        cfg = SimConfig(seed=4)
        scenario = simulate(car_spec, cfg=cfg)
        last_event_frame = scenario.ground_truth.events[-1].frame
        assert scenario.stream[-1].frame > last_event_frame

    def test_standalone_sample_matches_composite(self, car_spec):
        cfg = SimConfig(seed=19)
        scenario = simulate(car_spec, cfg=cfg)
        sequence, timeline = sample_execution(car_spec, cfg=cfg)
        assert sequence == scenario.ground_truth
        assert timeline == scenario.timeline
