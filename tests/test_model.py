from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    independent_spec,
    linear_spec,
    maintenance_spec,
    oracle_expected_states,
    random_install_procedure,
    reference_parse_state_text,
    sequence,
)
from psrkit.model import (
    AssemblyState,
    ComponentStatus,
    ProceduralAction,
    ProcedureSpec,
    StepEvent,
    StepSequence,
    Transition,
    apply_transition,
    diff_states,
    expected_states,
    is_error_state,
    is_reachable,
    parse_state_text,
    serialize_state,
    transition_to,
    validate_procedure,
)
from psrkit.formats import BUILTIN_PROCEDURES, load_builtin_procedure

statuses = st.sampled_from([-1, 0, 1])
states = st.lists(statuses, min_size=1, max_size=14).map(AssemblyState.from_values)


@st.composite
def state_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    a = draw(st.lists(statuses, min_size=n, max_size=n))
    b = draw(st.lists(statuses, min_size=n, max_size=n))
    return AssemblyState.from_values(a), AssemblyState.from_values(b)


def state_of(values) -> AssemblyState:
    return AssemblyState.from_values(values)


class TestParseState:
    def test_compact_paper_code(self):
        state = parse_state_text("11100000000")
        assert state.as_ints() == (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_comma_all_absent(self):
        state = parse_state_text("0,0,0,0,0,0,0,0,0,0,0")
        assert state == AssemblyState.from_values([0] * 11)

    def test_comma_with_incorrect(self):
        state = parse_state_text("1,-1,0,0,0,0,0,0,0,0,0")
        assert state[1] is ComponentStatus.INCORRECT

    def test_bad_compact_character(self):
        with pytest.raises(ValueError, match="compact"):
            parse_state_text("11120000000")

    def test_compact_cannot_hold_minus(self):
        with pytest.raises(ValueError, match="comma-separated"):
            parse_state_text("1-100000000")

    def test_malformed_token(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_state_text("1,,0,0,0,0,0,0,0,0,0")

    def test_out_of_range_value(self):
        with pytest.raises(ValueError, match="-1, 0 or 1"):
            parse_state_text("2,0,0,0,0,0,0,0,0,0,0")

    @given(states)
    def test_serialize_round_trip(self, state):
        assert parse_state_text(serialize_state(state)) == state

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=14))
    def test_compact_round_trip_when_legal(self, values):
        assert parse_state_text("".join(map(str, values))).as_ints() == tuple(values)


TOKENS = ["0", "1", "-1", " 1", "+1", "01", "-0", "2", "x", "1_0", ""]
WHITESPACE = st.sampled_from(["", " ", "\t", "\n", " \r\n"])


@st.composite
def state_texts(draw) -> str:
    """Comma-joined tokens or a compact string, both mostly well formed."""
    if draw(st.booleans()):
        body = ",".join(draw(st.lists(st.sampled_from(TOKENS), max_size=6)))
    else:
        body = "".join(draw(st.lists(st.sampled_from("0101-2 x"), max_size=12)))
    return draw(WHITESPACE) + body + draw(WHITESPACE)


def parse_outcome(parse, text):
    """The statuses a parser gives, or its ValueError message."""
    try:
        return parse(text).statuses
    except ValueError as exc:
        return str(exc)


class TestParseStateAgainstReference:
    """The token table changes no result of tests/helpers.reference_parse_state_text."""

    @given(state_texts())
    @settings(max_examples=1000)
    def test_same_state_or_message(self, text):
        got = parse_outcome(parse_state_text, text)
        expected = parse_outcome(reference_parse_state_text, text)
        assert got == expected
        if not isinstance(expected, str):
            assert all(a is b for a, b in zip(got, expected, strict=True))

    @pytest.mark.parametrize("text", [" 1,0", "+1,0", "01,0", "-0,1", "1,,0", "2", "1_0,0",
                                      "1,-1\n", "\u0661,0", "-1", "10"])
    def test_tokens_off_the_table(self, text):
        assert parse_outcome(parse_state_text, text) == parse_outcome(
            reference_parse_state_text, text
        )


class TestDiffStates:
    def test_transition_to(self):
        assert transition_to(1) is Transition.INSTALL
        assert transition_to(0) is Transition.REMOVE
        assert transition_to(ComponentStatus.INCORRECT) is Transition.INCORRECT
        for value in (2, -2, "1", None):
            with pytest.raises(ValueError, match="must be -1, 0 or 1"):
                transition_to(value)

    def test_single_install(self):
        changes = diff_states(state_of([0] * 11), state_of([1] + [0] * 10))
        assert changes == [(0, Transition.INSTALL)]

    def test_two_installs_ascending(self):
        prev = state_of([1] + [0] * 10)
        nxt = state_of([1, 1, 1] + [0] * 8)
        assert diff_states(prev, nxt) == [(1, Transition.INSTALL), (2, Transition.INSTALL)]

    def test_removal(self):
        prev = state_of([0, 0, 0, 1, 0])
        nxt = state_of([0, 0, 0, 0, 0])
        assert diff_states(prev, nxt) == [(3, Transition.REMOVE)]

    def test_identity(self):
        state = state_of([1, 0, -1])
        assert diff_states(state, state) == []

    def test_incorrect_and_undo(self):
        absent = state_of([0])
        wrong = state_of([-1])
        assert diff_states(absent, wrong) == [(0, Transition.INCORRECT)]
        assert diff_states(wrong, absent) == [(0, Transition.REMOVE)]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            diff_states(state_of([0]), state_of([0, 0]))

    @given(state_pairs())
    def test_diff_is_applicable_and_symmetric(self, pair):
        a, b = pair
        forward = diff_states(a, b)
        backward = diff_states(b, a)
        assert {c for c, _ in forward} == {c for c, _ in backward}
        state = a
        for component, transition in forward:
            state = apply_transition(state, component, transition)
        assert state == b
        for component, transition in backward:
            assert transition is transition_to(int(a[component]))


class TestExpectedStates:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_linear_chain_has_k_plus_one(self, k):
        assert len(expected_states(linear_spec(k))) == k + 1

    def test_two_independent_actions(self):
        spec = independent_spec(2)
        got = expected_states(spec)
        assert got == oracle_expected_states(spec)
        assert {s.as_ints() for s in got} == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_no_actions(self):
        spec = ProcedureSpec("empty", ("only",), (), AssemblyState.from_values([0]))
        assert expected_states(spec) == frozenset({spec.initial_state})

    def test_contains_initial_and_final(self, car_spec):
        got = expected_states(car_spec)
        assert car_spec.initial_state in got
        # every part installed except component 4, which no action touches
        assert AssemblyState.from_values([1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1]) in got

    def test_matches_oracle_on_random_procedures(self):
        rng = random.Random(2024)
        for _ in range(25):
            spec = random_install_procedure(rng, n_min=2, n_max=6)
            assert expected_states(spec) == oracle_expected_states(spec)

    def test_matches_oracle_with_removals(self, maintenance_spec):
        assert expected_states(maintenance_spec) == oracle_expected_states(maintenance_spec)

    def test_rejects_cycle(self):
        spec = ProcedureSpec(
            id="cyclic",
            components=("x", "y"),
            actions=(
                ProceduralAction("a", 0, Transition.INSTALL, frozenset({"b"})),
                ProceduralAction("b", 1, Transition.INSTALL, frozenset({"a"})),
            ),
            initial_state=AssemblyState.from_values([0, 0]),
        )
        with pytest.raises(ValueError, match="cycle"):
            expected_states(spec)


@st.composite
def procedures(draw, max_components: int = 7) -> ProcedureSpec:
    """Valid procedures whose components are install-only, remove-only,
    both or untouched, with random acyclic prerequisites and any start
    state, -1 included (so an install may meet an installed part)."""
    n = draw(st.integers(min_value=1, max_value=max_components))
    kinds = draw(st.lists(st.sampled_from(["install", "remove", "both", "untouched"]),
                          min_size=n, max_size=n))
    pairs = [
        (component, transition)
        for component, kind in enumerate(kinds)
        for transition in (Transition.INSTALL, Transition.REMOVE)
        if kind in (transition.value, "both")
    ]
    actions: list[ProceduralAction] = []
    for component, transition in draw(st.permutations(pairs)):
        earlier = [a.action_id for a in actions]
        prerequisites = draw(st.sets(st.sampled_from(earlier), max_size=3)) if earlier else ()
        actions.append(ProceduralAction(
            f"{transition.value}{component}", component, transition, frozenset(prerequisites)
        ))
    initial = draw(st.lists(statuses, min_size=n, max_size=n))
    return ProcedureSpec(
        "random",
        tuple(f"part {c}" for c in range(n)),
        tuple(actions),
        AssemblyState.from_values(initial),
    )


def assert_matches_expected_states(spec: ProcedureSpec, candidates=None) -> None:
    """is_reachable agrees with expected_states on every candidate; by
    default on every state B3 can ask about, a reachable state with one
    component set to any status."""
    reachable = {s.as_ints() for s in expected_states(spec)}
    if candidates is None:
        candidates = {
            s[:i] + (value,) + s[i + 1:]
            for s in reachable
            for i in range(len(s))
            for value in (-1, 0, 1)
        }
    for values in candidates:
        assert is_reachable(spec, values) == (values in reachable), values


class TestIsReachable:
    @settings(max_examples=150, deadline=None)
    @given(procedures())
    def test_matches_expected_states_on_every_state(self, spec):
        assert_matches_expected_states(
            spec, itertools.product((-1, 0, 1), repeat=spec.n_components)
        )

    @pytest.mark.parametrize("name", BUILTIN_PROCEDURES)
    def test_matches_expected_states_on_builtin_procedures(self, name):
        spec = load_builtin_procedure(name)
        assert_matches_expected_states(spec)
        assert_matches_expected_states(spec, itertools.product((0, 1), repeat=spec.n_components))

    def test_matches_expected_states_on_wide_maintenance(self):
        spec = maintenance_spec()
        assert spec.n_components == 15
        assert_matches_expected_states(spec)

    def test_removal_order_follows_prerequisites(self):
        # the remove requires the install, so the part can end absent
        # after both, but never installed after both
        spec = ProcedureSpec(
            "refit",
            ("x", "y"),
            (
                ProceduralAction("install", 0, Transition.INSTALL),
                ProceduralAction("remove", 0, Transition.REMOVE, frozenset({"install"})),
                ProceduralAction("next", 1, Transition.INSTALL, frozenset({"remove"})),
            ),
            AssemblyState.from_values([0, 0]),
        )
        assert is_reachable(spec, (0, 1))
        assert not is_reachable(spec, (1, 1))

    def test_width_mismatch_rejected(self, car_spec):
        with pytest.raises(ValueError, match="expects 11"):
            is_reachable(car_spec, (0, 0))


class TestIsErrorState:
    def test_all_absent(self):
        assert not is_error_state(AssemblyState.from_values([0] * 11))

    def test_all_installed(self):
        assert not is_error_state(state_of([1] * 11))

    def test_single_incorrect(self):
        assert is_error_state(state_of([0, 0, -1, 0]))


class TestValidateProcedure:
    def test_bundled_specs_are_clean(self, car_spec, maintenance_spec):
        assert validate_procedure(car_spec) == []
        assert validate_procedure(maintenance_spec) == []

    def test_unknown_component(self):
        spec = ProcedureSpec(
            id="bad",
            components=tuple(f"c{i}" for i in range(11)),
            actions=(ProceduralAction("a", 99, Transition.INSTALL),),
            initial_state=AssemblyState.from_values([0] * 11),
        )
        diagnostics = validate_procedure(spec)
        assert len(diagnostics) == 1
        assert "99" in diagnostics[0]

    def test_cycle(self):
        spec = ProcedureSpec(
            id="bad",
            components=("x", "y"),
            actions=(
                ProceduralAction("a", 0, Transition.INSTALL, frozenset({"b"})),
                ProceduralAction("b", 1, Transition.INSTALL, frozenset({"a"})),
            ),
            initial_state=AssemblyState.from_values([0, 0]),
        )
        assert any("cycle" in d for d in validate_procedure(spec))

    def test_duplicate_pair_and_id(self):
        spec = ProcedureSpec(
            id="bad",
            components=("x",),
            actions=(
                ProceduralAction("a", 0, Transition.INSTALL),
                ProceduralAction("a", 0, Transition.INSTALL),
            ),
            initial_state=AssemblyState.from_values([0]),
        )
        diagnostics = validate_procedure(spec)
        assert any("duplicate action id" in d for d in diagnostics)
        assert any("more than once" in d for d in diagnostics)

    def test_unknown_prerequisite(self):
        spec = ProcedureSpec(
            id="bad",
            components=("x",),
            actions=(ProceduralAction("a", 0, Transition.INSTALL, frozenset({"ghost"})),),
            initial_state=AssemblyState.from_values([0]),
        )
        assert any("ghost" in d for d in validate_procedure(spec))

    def test_incorrect_transition_not_prescribable(self):
        spec = ProcedureSpec(
            id="bad",
            components=("x",),
            actions=(ProceduralAction("a", 0, Transition.INCORRECT),),
            initial_state=AssemblyState.from_values([0]),
        )
        assert validate_procedure(spec) == [
            "action 'a' may not prescribe an incorrect transition"
        ]

    def test_initial_state_length(self):
        spec = ProcedureSpec(
            id="bad",
            components=("x", "y"),
            actions=(),
            initial_state=AssemblyState.from_values([0, 0, 0]),
        )
        assert any("initial state" in d for d in validate_procedure(spec))


class TestStepIds:
    def test_install_uses_action_id(self, car_spec):
        assert car_spec.step_id(0, Transition.INSTALL) == "install_base"

    def test_incorrect_derived_from_install_action(self, car_spec):
        assert car_spec.step_id(1, Transition.INCORRECT) == "incorrect:install_front_chassis"

    def test_unprescribed_transition_gets_positional_id(self, car_spec):
        assert car_spec.step_id(3, Transition.REMOVE) == "c3:remove"


class TestStepEvent:
    """A step event holds only what a step file can hold."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("frame", True, "frame must be an integer, got True"),
            ("frame", 2.0, "frame must be an integer, got 2.0"),
            ("frame", -1, "frame must be non-negative, got -1"),
            ("time_s", -0.5, "time_s must be non-negative, got -0.5"),
            ("confidence", math.nan, "confidence must be a finite number, got nan"),
            ("confidence", math.inf, "confidence must be a finite number, got inf"),
            ("confidence", True, "confidence must be a finite number, got True"),
            ("confidence", "0.5", "confidence must be a finite number, got '0.5'"),
            ("confidence", 2**1024, f"confidence must be a finite number, got {2**1024}"),
            ("confidence", -0.5, "confidence must be >= 0, got -0.5"),
        ],
        ids=["bool-frame", "float-frame", "negative-frame", "negative-time", "nan-conf",
             "inf-conf", "bool-conf", "str-conf", "int-conf-past-float-range",
             "negative-conf"],
    )
    def test_refused_values(self, field, value, message):
        fields = dict(action_id="a0", component=0, transition=Transition.INSTALL,
                      time_s=0.0, frame=0)
        with pytest.raises(ValueError) as err:
            StepEvent(**{**fields, field: value})
        assert str(err.value) == message

    @pytest.mark.parametrize("frame, confidence", [(0, 0), (7, 1), (10**30, 0.0), (3, 2**1023)])
    def test_accepted_values(self, frame, confidence):
        event = StepEvent("a0", 0, Transition.INSTALL, 0.0, frame, confidence)
        assert (event.frame, event.confidence) == (frame, confidence)


class TestStepSequence:
    @pytest.mark.parametrize("fps", [0.0, -10.0])
    def test_non_positive_fps_rejected(self, fps):
        with pytest.raises(ValueError) as err:
            StepSequence("r", fps)
        assert str(err.value) == f"fps must be positive, got {fps}"

    def test_duplicate_action_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            sequence("r", [("a0", 1.0, 0), ("a0", 2.0, 0)])

    def test_from_events_sorts(self):
        seq = sequence("r", [("a1", 2.0, 1), ("a0", 1.0, 0)])
        assert seq.action_ids() == ("a0", "a1")

    def test_time_component_tiebreak(self):
        seq = sequence("r", [("b", 1.0, 5), ("a", 1.0, 2)])
        assert seq.action_ids() == ("a", "b")

    def test_out_of_order_rejected_without_factory(self):
        good = sequence("r", [("a0", 1.0, 0), ("a1", 2.0, 1)])
        with pytest.raises(ValueError, match="order"):
            StepSequence("r", 1.0, tuple(reversed(good.events)))

    def test_time_frame_consistency_enforced(self):
        event = sequence("r", [("a0", 1.0, 0)]).events[0]
        with pytest.raises(ValueError, match="does not"):
            StepSequence("r", 2.0, (event,))

    def test_correct_only_view(self):
        seq = sequence("r", [("a0", 1.0, 0), ("a1", 2.0, 1)])
        wrong = sequence("r", [("incorrect:a2", 3.0, 2)], transition=Transition.INCORRECT)
        merged = StepSequence.from_events("r", 1.0, seq.events + wrong.events)
        assert merged.has_incorrect()
        assert merged.correct_only().action_ids() == ("a0", "a1")

