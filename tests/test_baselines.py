from __future__ import annotations

import dataclasses
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    independent_spec,
    linear_spec,
    maintenance_spec,
    random_install_procedure,
    reference_recognise,
)
from psrkit import baselines
from psrkit.baselines import (
    BaselineConfig,
    Detection,
    DetectionFrame,
    StepRecognizer,
    Variant,
    run_baseline,
)
from psrkit.model import AssemblyState, Transition, expected_states, is_reachable
from psrkit.simulate import ErrorInjection, SimConfig, simulate

FPS = 10.0


def det(values, conf: float) -> Detection:
    return Detection(AssemblyState.from_values(values), conf)


def frame(index: int, *detections: Detection) -> DetectionFrame:
    return DetectionFrame(frame=index, time_s=index / FPS, detections=tuple(detections))


def stream_of(per_frame, start: int = 0):
    """Frames from a list of detection tuples (None or () = empty frame)."""
    frames = []
    for offset, detections in enumerate(per_frame):
        detections = detections or ()
        if isinstance(detections, Detection):
            detections = (detections,)
        frames.append(frame(start + offset, *detections))
    return frames


class TestSelectTopDetection:
    """process() acts on a frame's highest-confidence detection."""

    @staticmethod
    def first_belief(*detections: Detection) -> AssemblyState:
        recognizer = StepRecognizer(BaselineConfig(Variant.B1), linear_spec(2))
        assert recognizer.process(frame(0, *detections)) == []
        return recognizer.current_state

    def test_argmax(self):
        s1, s2 = det([0, 0], 0.3), det([1, 0], 0.9)
        assert self.first_belief(s1, s2) == s2.state
        recognizer = StepRecognizer(BaselineConfig(Variant.B1), linear_spec(2))
        recognizer.process(frame(0, det([0, 0], 1.0)))
        events = recognizer.process(frame(1, s1, s2))
        assert [(e.action_id, e.confidence) for e in events] == [("a0", 0.9)]

    def test_empty(self):
        for variant in Variant:
            recognizer = StepRecognizer(BaselineConfig(variant), linear_spec(2))
            before = recognizer.current_state
            assert recognizer.process(frame(0)) == []
            assert recognizer.current_state == before
            assert recognizer.confidences == (0.0, 0.0)

    def test_tie_keeps_first(self):
        s1, s2 = det([0, 0], 0.5), det([1, 0], 0.5)
        assert self.first_belief(s1, s2) == s1.state
        assert self.first_belief(s2, s1) == s2.state

    def test_confidence_range_enforced(self):
        with pytest.raises(ValueError, match="confidence"):
            det([0, 0], 1.7)
        with pytest.raises(ValueError, match="confidence"):
            det([0, 0], -0.1)

    def test_single_detection(self):
        only = det([1, 0], 0.2)
        assert self.first_belief(only) == only.state
        recognizer = StepRecognizer(BaselineConfig(Variant.B2), linear_spec(2))
        recognizer.process(frame(0, det([0, 0], 1.0)))
        assert recognizer.process(frame(1, only)) == []
        assert recognizer.confidences == (0.2, 0.0)


class TestFrameClasses:
    def test_compare_by_value(self):
        box = (0.1, 0.2, 0.3, 0.4)
        first = Detection(AssemblyState.from_values([1, 0]), 0.5, box)
        same = Detection(AssemblyState.from_values([1, 0]), 0.5, box)
        assert first == same
        assert first != Detection(first.state, 0.5)
        assert first != (first.state, 0.5, box)
        assert DetectionFrame(3, 0.3, (first,)) == DetectionFrame(3, 0.3, (same,))
        assert DetectionFrame(3, 0.3, (first,)) != DetectionFrame(3, 0.3)

    def test_repr_and_no_hash(self):
        detection = Detection(AssemblyState.from_values([1]), 0.5)
        assert repr(DetectionFrame(2, 0.2, (detection,))) == (
            "DetectionFrame(frame=2, time_s=0.2, detections=(Detection(state="
            "AssemblyState(statuses=(<ComponentStatus.INSTALLED: 1>,)), "
            "confidence=0.5, box=None),))"
        )
        with pytest.raises(TypeError):
            hash(detection)
        with pytest.raises(TypeError):
            hash(DetectionFrame(0, 0.0))

    def test_negative_frame_rejected(self):
        with pytest.raises(ValueError, match="frame index must be non-negative, got -1"):
            DetectionFrame(-1, 0.0)


class TestInitialization:
    def test_b3_starts_from_procedure(self):
        spec = linear_spec(3)
        recognizer = StepRecognizer(BaselineConfig(Variant.B3), spec)
        assert recognizer.current_state == spec.initial_state

    def test_b1_adopts_first_detection(self):
        spec = linear_spec(3)
        recognizer = StepRecognizer(BaselineConfig(Variant.B1), spec)
        assert recognizer.current_state is None
        # low confidence still initializes; nothing is emitted for it
        events = recognizer.process(frame(0, det([1, 0, 0], 0.2)))
        assert events == []
        assert recognizer.current_state == AssemblyState.from_values([1, 0, 0])

    def test_empty_stream_emits_nothing(self):
        spec = linear_spec(3)
        sequence = run_baseline(
            BaselineConfig(Variant.B1), spec, stream_of([None] * 20), FPS
        )
        assert sequence.events == ()

    def test_rejects_invalid_spec(self):
        from psrkit.model import ProceduralAction, ProcedureSpec

        bad = ProcedureSpec(
            id="bad",
            components=("x",),
            actions=(ProceduralAction("a", 5, Transition.INSTALL),),
            initial_state=AssemblyState.from_values([0]),
        )
        with pytest.raises(ValueError, match="invalid procedure"):
            StepRecognizer(BaselineConfig(Variant.B1), bad)


class TestB1:
    def test_emits_on_confident_change(self):
        spec = linear_spec(3)
        recognizer = StepRecognizer(BaselineConfig(Variant.B1), spec)
        recognizer.process(frame(0, det([0, 0, 0], 0.9)))
        events = recognizer.process(frame(1, det([1, 0, 0], 0.9)))
        assert len(events) == 1
        assert events[0].action_id == "a0"
        assert events[0].frame == 1
        assert events[0].confidence == 0.9

    def test_below_threshold_is_ignored(self):
        spec = linear_spec(3)
        recognizer = StepRecognizer(BaselineConfig(Variant.B1), spec)
        recognizer.process(frame(0, det([0, 0, 0], 0.9)))
        assert recognizer.process(frame(1, det([1, 0, 0], 0.4))) == []
        assert recognizer.current_state == AssemblyState.from_values([0, 0, 0])

    def test_multi_component_change_ascending(self):
        spec = linear_spec(3)
        recognizer = StepRecognizer(BaselineConfig(Variant.B1), spec)
        recognizer.process(frame(0, det([0, 0, 0], 1.0)))
        events = recognizer.process(frame(4, det([1, 1, 0], 1.0)))
        assert [e.action_id for e in events] == ["a0", "a1"]
        assert all(e.frame == 4 for e in events)

    def test_same_state_is_noop(self):
        spec = linear_spec(3)
        recognizer = StepRecognizer(BaselineConfig(Variant.B1), spec)
        recognizer.process(frame(0, det([0, 0, 0], 1.0)))
        for i in range(1, 5):
            assert recognizer.process(frame(i, det([0, 0, 0], 1.0))) == []

    def test_duplicate_transition_suppressed(self):
        spec = linear_spec(1)
        recognizer = StepRecognizer(BaselineConfig(Variant.B1), spec)
        recognizer.process(frame(0, det([0], 1.0)))
        first = recognizer.process(frame(1, det([1], 1.0)))
        undo = recognizer.process(frame(2, det([0], 1.0)))
        again = recognizer.process(frame(3, det([1], 1.0)))
        assert [e.action_id for e in first] == ["a0"]
        assert [e.action_id for e in undo] == ["c0:remove"]
        assert again == []  # a0 already emitted once
        assert recognizer.current_state == AssemblyState.from_values([1])


class TestB2:
    def test_emits_on_ninth_conflicting_frame(self):
        spec = linear_spec(2)
        recognizer = StepRecognizer(BaselineConfig(Variant.B2), spec)
        recognizer.process(frame(0, det([0, 0], 0.9)))
        fired = []
        for i in range(1, 12):
            fired.extend(recognizer.process(frame(i, det([1, 0], 0.9))))
        assert len(fired) == 1
        assert fired[0].frame == 9  # ninth conflicting frame
        assert fired[0].confidence == pytest.approx(8.1, abs=1e-9)

    def test_threshold_is_strict(self):
        # eight conflicting frames at 1.0 reach exactly 8.0 and do not fire
        spec = linear_spec(2)
        recognizer = StepRecognizer(BaselineConfig(Variant.B2), spec)
        recognizer.process(frame(0, det([0, 0], 1.0)))
        fired = []
        for i in range(1, 9):
            fired.extend(recognizer.process(frame(i, det([1, 0], 1.0))))
        assert fired == []
        assert recognizer.confidences[0] == 8.0
        fired = recognizer.process(frame(9, det([1, 0], 1.0)))
        assert [e.frame for e in fired] == [9]
        assert recognizer.confidences[0] == 0.0

    def test_decay_sequence(self):
        spec = linear_spec(2)
        recognizer = StepRecognizer(BaselineConfig(Variant.B2), spec)
        recognizer.process(frame(0, det([0, 0], 0.9)))
        recognizer.process(frame(1, det([1, 0], 0.9)))
        assert recognizer.confidences[0] == pytest.approx(0.9, abs=1e-15)
        expected = 0.9
        for i in range(2, 12):
            recognizer.process(frame(i, det([0, 0], 0.9)))
            expected *= 0.75
            assert recognizer.confidences[0] == pytest.approx(expected, abs=1e-12)
        assert recognizer.events == ()

    def test_empty_frames_leave_accumulators_untouched(self):
        spec = linear_spec(2)
        recognizer = StepRecognizer(BaselineConfig(Variant.B2), spec)
        recognizer.process(frame(0, det([0, 0], 0.9)))
        recognizer.process(frame(1, det([1, 0], 0.9)))
        before = recognizer.confidences
        for i in range(2, 6):
            recognizer.process(frame(i))
        assert recognizer.confidences == before

    def test_pending_value_applied_on_crossing(self):
        # conflicting values flip between 1 and -1; the last one wins
        spec = linear_spec(2)
        recognizer = StepRecognizer(BaselineConfig(Variant.B2), spec)
        recognizer.process(frame(0, det([0, 0], 1.0)))
        for i in range(1, 9):
            recognizer.process(frame(i, det([1, 0], 1.0)))
        events = recognizer.process(frame(9, det([-1, 0], 1.0)))
        assert [e.transition for e in events] == [Transition.INCORRECT]
        assert recognizer.current_state == AssemblyState.from_values([-1, 0])


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(list(Variant)),
        st.sampled_from([1e-200, 0.01, 0.75, 1.0]),  # 1e-200 underflows to 0.0 in two frames
        st.sampled_from([0.0, 0.5, 1.0, 8.0]),
        st.one_of(
            st.integers(0, 10_000).map(
                lambda seed: random_install_procedure(random.Random(seed), 2, 5)
            ),
            st.builds(
                maintenance_spec,
                chains=st.integers(1, 2),
                chain_length=st.integers(1, 2),
                service_parts=st.integers(0, 2),
            ),
        ),
        st.data(),
    )
    def test_same_events_and_confidences(self, variant, decay, threshold, spec, data):
        # rows pick from a few states, so conflicts persist long enough to fire
        n = spec.n_components
        pool = data.draw(
            st.lists(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n),
                     min_size=1, max_size=4)
        )
        detection = st.builds(
            det, st.sampled_from(pool), st.sampled_from([0.0, 0.0, 0.4, 0.9, 1.0])
        )
        rows = data.draw(st.lists(st.lists(detection, max_size=2), min_size=20, max_size=60))
        frames = stream_of(rows)
        config = BaselineConfig(variant, threshold=threshold, decay=decay)
        recognizer = StepRecognizer(config, spec)
        for current, (events, confidences, belief) in zip(
            frames, reference_recognise(config, spec, frames)
        ):
            assert recognizer.process(current) == events
            assert recognizer.confidences == confidences
            assert recognizer.current_state == (
                None if belief is None else AssemblyState.from_values(belief)
            )

    def test_long_agreeing_run_reaches_the_subnormal_floor(self):
        # one conflicting frame, then enough agreeing frames for the decay to
        # reach a subnormal x where 0.75 * x rounds back to x
        spec = linear_spec(3)
        config = BaselineConfig(Variant.B2)
        agree = det([0, 0, 0], 0.9)
        frames = stream_of([agree, det([1, 0, 0], 0.9)] + [agree] * 3000)
        recognizer = StepRecognizer(config, spec)
        for current, (events, confidences, _) in zip(
            frames, reference_recognise(config, spec, frames)
        ):
            assert recognizer.process(current) == events
            assert recognizer.confidences == confidences
        floor = recognizer.confidences[0]
        assert 0.0 < floor < 5e-323 and floor * config.decay == floor


class TestB3:
    def test_unexpected_state_never_emits(self):
        spec = linear_spec(3)  # a1 requires a0, so 010 is never expected
        recognizer = StepRecognizer(BaselineConfig(Variant.B3), spec)
        for i in range(50):
            assert recognizer.process(frame(i, det([0, 1, 0], 1.0))) == []
        assert recognizer.confidences[1] > 8.0  # accumulating, but guarded

    def test_expected_transition_emits(self):
        spec = linear_spec(3)
        recognizer = StepRecognizer(BaselineConfig(Variant.B3), spec)
        fired = []
        for i in range(20):
            fired.extend(recognizer.process(frame(i, det([1, 0, 0], 1.0))))
        assert [e.action_id for e in fired] == ["a0"]

    def test_guard_uses_candidate_state(self):
        # detection shows two new components at once; only the one whose
        # single-component change stays in the expected set may fire
        spec = linear_spec(3)
        recognizer = StepRecognizer(BaselineConfig(Variant.B3), spec)
        fired = []
        for i in range(20):
            fired.extend(recognizer.process(frame(i, det([1, 1, 0], 1.0))))
        # candidate (1,0,0) for component 0 is expected and fires; after
        # that, candidate (1,1,0) for component 1 becomes expected too
        assert [e.action_id for e in fired] == ["a0", "a1"]

    def test_sound_after_every_emission_under_noise(self, car_spec):
        cfg = SimConfig(
            seed=31,
            detect_prob=0.95,
            conf_mean=0.85,
            conf_spread=0.1,
            misclass_prob=0.3,
            error_fp_rate=0.5,
        )
        scenario = simulate(car_spec, cfg=cfg)
        allowed = {s.as_ints() for s in expected_states(car_spec)}
        recognizer = StepRecognizer(BaselineConfig(Variant.B3), car_spec)
        emitted = 0
        for detection_frame in scenario.stream:
            if recognizer.process(detection_frame):
                emitted += 1
                assert recognizer.current_state.as_ints() in allowed
        assert emitted > 0

    def test_exact_at_forty_components(self):
        # 2^40 reachable states: B3 must not enumerate them
        spec = independent_spec(40)
        values = [0] * 40
        per_frame = []
        for component in (0, 1):
            values[component] = 1
            per_frame += [det(values, 1.0)] * 9
        values[2] = -1
        per_frame += [det(values, 1.0)] * 20
        start = time.perf_counter()
        predicted = run_baseline(BaselineConfig(Variant.B3), spec, stream_of(per_frame), FPS)
        elapsed = time.perf_counter() - start
        assert predicted.action_ids() == ("a0", "a1")
        assert [e.frame for e in predicted.events] == [8, 17]
        assert elapsed < 1.0, f"{elapsed:.2f} s"

    def test_same_events_as_expected_states_guard(self, monkeypatch):
        spec = maintenance_spec(chains=3, chain_length=4, service_parts=4)
        assert spec.n_components == 16
        noise = SimConfig(
            seed=0, detect_prob=0.95, conf_mean=0.85, misclass_prob=0.3, error_fp_rate=0.5
        )
        injections = [
            ErrorInjection(),
            ErrorInjection(incorrect=frozenset({"install_part5", "refit_service1"})),
            ErrorInjection(swaps=(0, 3, 7)),
            ErrorInjection(omit=frozenset({"install_part8"}), swaps=(2,)),
        ]
        streams = [
            simulate(spec, injection, dataclasses.replace(noise, seed=seed)).stream
            for seed, injection in enumerate(injections)
        ]

        def run_all():
            return [run_baseline(BaselineConfig(Variant.B3), spec, s, FPS) for s in streams]

        exact = run_all()
        reachable = {s.as_ints() for s in expected_states(spec)}
        rejected = set()

        def reference_guard(_spec, values):
            if values not in reachable:
                rejected.add(values)
            return values in reachable

        monkeypatch.setattr(baselines, "is_reachable", reference_guard)
        assert run_all() == exact
        assert any(-1 in values for values in rejected)
        assert any(-1 not in values for values in rejected)

    def test_rejected_candidate_is_tested_once(self, monkeypatch):
        spec = linear_spec(3)
        calls = []

        def counting_guard(procedure, values):
            calls.append(values)
            return is_reachable(procedure, values)

        monkeypatch.setattr(baselines, "is_reachable", counting_guard)
        predicted = run_baseline(
            BaselineConfig(Variant.B3), spec, stream_of([det([0, 1, 0], 1.0)] * 200), FPS
        )
        assert predicted.events == ()
        assert calls == [(0, 1, 0)]


class TestRunBaseline:
    def test_noiseless_b1_recovers_ground_truth(self, car_spec):
        cfg = SimConfig.noiseless(seed=5)
        scenario = simulate(car_spec, cfg=cfg)
        predicted = run_baseline(
            BaselineConfig(Variant.B1),
            car_spec,
            scenario.stream,
            cfg.fps,
            scenario.ground_truth.recording_id,
        )
        assert predicted.action_ids() == scenario.ground_truth.action_ids()
        assert [e.frame for e in predicted.events] == [
            e.frame for e in scenario.ground_truth.events
        ]

    def test_noiseless_b2_delays_by_nine_frames(self, car_spec):
        cfg = SimConfig.noiseless(seed=5)
        scenario = simulate(car_spec, cfg=cfg)
        predicted = run_baseline(
            BaselineConfig(Variant.B2),
            car_spec,
            scenario.stream,
            cfg.fps,
            scenario.ground_truth.recording_id,
        )
        assert predicted.action_ids() == scenario.ground_truth.action_ids()
        gt_frames = {e.action_id: e.frame for e in scenario.ground_truth.events}
        for event in predicted.events:
            assert event.frame - gt_frames[event.action_id] == 8

    def test_conflict_free_b2_equals_b3(self, car_spec):
        cfg = SimConfig.noiseless(seed=11)
        scenario = simulate(car_spec, cfg=cfg)
        results = [
            run_baseline(BaselineConfig(variant), car_spec, scenario.stream, cfg.fps)
            for variant in (Variant.B2, Variant.B3)
        ]
        assert results[0] == results[1]

    def test_prefix_causality(self, car_spec):
        cfg = SimConfig(seed=17, misclass_prob=0.2, detect_prob=0.9)
        scenario = simulate(car_spec, cfg=cfg)
        rng = random.Random(55)
        for variant in Variant:
            full = run_baseline(BaselineConfig(variant), car_spec, scenario.stream, cfg.fps)
            for _ in range(5):
                cut = rng.randint(0, len(scenario.stream))
                prefix = run_baseline(
                    BaselineConfig(variant), car_spec, scenario.stream[:cut], cfg.fps
                )
                assert full.events[: len(prefix.events)] == prefix.events

    def test_out_of_order_frames_rejected(self):
        spec = linear_spec(2)
        frames = [frame(3, det([0, 0], 1.0)), frame(3, det([0, 0], 1.0))]
        with pytest.raises(ValueError, match="strictly increasing"):
            run_baseline(BaselineConfig(Variant.B2), spec, frames, FPS)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_mis_sized_detection_rejected(self, car_spec, variant):
        frames = [frame(0, det([0, 0], 1.0))]
        with pytest.raises(
            ValueError,
            match="detection has 2 components, procedure 'industreal_car_assembly' has 11",
        ):
            run_baseline(BaselineConfig(variant), car_spec, frames, FPS)

    def test_determinism(self, car_spec):
        cfg = SimConfig(seed=23, misclass_prob=0.1)
        scenario = simulate(car_spec, cfg=cfg)
        runs = [
            run_baseline(BaselineConfig(Variant.B3), car_spec, scenario.stream, cfg.fps)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_random_specs_noiseless_recovery(self):
        rng = random.Random(77)
        for _ in range(5):
            spec = random_install_procedure(rng)
            cfg = SimConfig.noiseless(seed=rng.randrange(10_000))
            scenario = simulate(spec, cfg=cfg)
            predicted = run_baseline(
                BaselineConfig(Variant.B1),
                spec,
                scenario.stream,
                cfg.fps,
                scenario.ground_truth.recording_id,
            )
            assert predicted.action_ids() == scenario.ground_truth.action_ids()


class TestConfigValidation:
    def test_decay_range(self):
        with pytest.raises(ValueError, match="decay"):
            BaselineConfig(Variant.B2, decay=0.0)
        with pytest.raises(ValueError, match="decay"):
            BaselineConfig(Variant.B2, decay=1.5)

    def test_defaults_match_algorithms(self):
        assert BaselineConfig(Variant.B1).threshold == 0.5
        config = BaselineConfig(Variant.B2)
        assert config.threshold == 8.0
        assert config.decay == 0.75
