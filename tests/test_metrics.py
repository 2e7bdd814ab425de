from __future__ import annotations

import heapq
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import linear_spec, sequence
from psrkit.metrics import (
    DEFAULT_WEIGHTS,
    EditWeights,
    MetricsReport,
    Subset,
    aggregate_reports,
    average_delay,
    classify_events,
    evaluate_recording,
    f1_score,
    pos_from_orders,
    pos_score,
    weighted_damlev,
)
from psrkit.model import StepSequence, Transition


def oracle_edit_cost(source, target, weights=DEFAULT_WEIGHTS) -> float:
    """Cheapest edit script by shortest-path search over (i, j) positions.

    Explores the same edit family as the production code (insert,
    delete, substitute, swap two adjacent elements with each element
    swapped at most once) but finds the optimum with Dijkstra instead
    of the dynamic program, so the two can check each other.
    """
    m, n = len(source), len(target)
    best = {(0, 0): 0.0}
    queue = [(0.0, 0, 0)]
    while queue:
        cost, i, j = heapq.heappop(queue)
        if (i, j) == (m, n):
            return cost
        if cost > best.get((i, j), math.inf):
            continue
        moves = []
        if i < m:
            moves.append((cost + weights.deletion, i + 1, j))
        if j < n:
            moves.append((cost + weights.insertion, i, j + 1))
        if i < m and j < n:
            if source[i] == target[j]:
                moves.append((cost, i + 1, j + 1))
            else:
                moves.append((cost + weights.substitution, i + 1, j + 1))
        if (
            i + 1 < m
            and j + 1 < n
            and source[i] == target[j + 1]
            and source[i + 1] == target[j]
        ):
            moves.append((cost + weights.transposition, i + 2, j + 2))
        for new_cost, ni, nj in moves:
            if new_cost < best.get((ni, nj), math.inf):
                best[(ni, nj)] = new_cost
                heapq.heappush(queue, (new_cost, ni, nj))
    raise AssertionError("unreachable: goal state not found")


class TestWeightedDamLev:
    def test_default_weights(self):
        assert DEFAULT_WEIGHTS == EditWeights(1.0, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize(
        "prediction,cost",
        [("ABDC", 1.0), ("ADCB", 3.0), ("DBCA", 4.0), ("BCD", 1.0)],
    )
    def test_reference_table(self, prediction, cost):
        assert weighted_damlev("ABCD", prediction) == cost

    def test_identity_and_empty(self):
        assert weighted_damlev("ABCD", "ABCD") == 0.0
        assert weighted_damlev("ABCD", "") == 4.0
        assert weighted_damlev("", "ABCD") == 4.0
        assert weighted_damlev("", "") == 0.0

    def test_asymmetric_weights_follow_direction(self):
        weights = EditWeights(insertion=1.0, deletion=3.0, substitution=9.0, transposition=1.0)
        assert weighted_damlev("A", "", weights) == 3.0
        assert weighted_damlev("", "A", weights) == 1.0

    def test_exhaustive_small_alphabet(self):
        for m in range(4):
            for n in range(4):
                for a in itertools.product("AB", repeat=m):
                    for b in itertools.product("AB", repeat=n):
                        assert weighted_damlev(a, b) == oracle_edit_cost(a, b)

    def test_random_pairs_match_oracle(self):
        rng = random.Random(99)
        for _ in range(200):
            a = "".join(rng.choices("ABCD", k=rng.randint(0, 6)))
            b = "".join(rng.choices("ABCD", k=rng.randint(0, 6)))
            assert weighted_damlev(a, b) == oracle_edit_cost(a, b)

    def test_substitution_is_never_needed_at_default_weights(self):
        no_subs = EditWeights(substitution=math.inf)
        rng = random.Random(7)
        for _ in range(200):
            a = "".join(rng.choices("ABCD", k=rng.randint(0, 6)))
            b = "".join(rng.choices("ABCD", k=rng.randint(0, 6)))
            assert weighted_damlev(a, b) == weighted_damlev(a, b, no_subs)

    @given(
        st.text(alphabet="ABCD", max_size=8),
        st.text(alphabet="ABCD", max_size=8),
    )
    @settings(max_examples=150)
    def test_bounds(self, a, b):
        d = weighted_damlev(a, b)
        assert 0.0 <= d <= len(a) + len(b)
        assert weighted_damlev(a, a) == 0.0


class TestPos:
    @pytest.mark.parametrize(
        "prediction,expected",
        [("ABDC", 0.75), ("ADCB", 0.25), ("DBCA", 0.0), ("BCD", 0.75)],
    )
    def test_reference_table(self, prediction, expected):
        assert pos_from_orders("ABCD", prediction) == pytest.approx(expected, abs=1e-12)

    def test_clipping_of_disjoint_orders(self):
        assert pos_from_orders(("1", "2", "3"), ("4", "5", "6")) == 0.0

    def test_perfect_match(self):
        assert pos_from_orders("ABCD", "ABCD") == 1.0

    def test_empty_prediction(self):
        assert pos_from_orders("ABCD", "") == 0.0

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="empty ground truth"):
            pos_from_orders("", "ABCD")

    def test_sequences_project_by_time(self):
        # prediction recognized (a1, a0): one transposition over |y| = 2
        y = sequence("r", [("a0", 5, 0), ("a1", 10, 1)])
        yhat = sequence("r", [("a1", 12, 1), ("a0", 14, 0)])
        assert pos_score(y, yhat) == 0.5


def table_ground_truth() -> StepSequence:
    return sequence("r", [("a0", 5, 0), ("a1", 10, 1), ("a2", 15, 2), ("a3", 20, 3)])


def prediction(entries) -> StepSequence:
    return sequence("r", entries)


class TestClassifyEvents:
    def test_all_predictions_early_but_one(self):
        outcome = classify_events(
            table_ground_truth(),
            prediction([("a0", 5, 0), ("a1", 5, 1), ("a2", 10, 2), ("a3", 15, 3)]),
        )
        assert (outcome.tp, outcome.fp, outcome.fn) == (1, 3, 0)

    def test_missing_step_is_fn(self):
        outcome = classify_events(
            table_ground_truth(),
            prediction([("a0", 5, 0), ("a1", 10, 1), ("a3", 20, 3)]),
        )
        assert (outcome.tp, outcome.fp, outcome.fn) == (3, 0, 1)
        assert outcome.missed[0].action_id == "a2"

    def test_perfect(self):
        outcome = classify_events(table_ground_truth(), table_ground_truth())
        assert (outcome.tp, outcome.fp, outcome.fn) == (4, 0, 0)

    def test_unknown_action_is_fp(self):
        outcome = classify_events(table_ground_truth(), prediction([("a9", 30, 9)]))
        assert (outcome.tp, outcome.fp) == (0, 1)
        assert outcome.verdicts[0].matched is None

    def test_late_is_tp_with_delay(self):
        outcome = classify_events(table_ground_truth(), prediction([("a2", 25, 2)]))
        assert outcome.tp == 1
        assert outcome.verdicts[0].delay_s == 10.0


class TestF1:
    @pytest.mark.parametrize(
        "tp,fp,fn,expected",
        [(3, 0, 1, 0.857), (1, 3, 0, 0.40), (4, 0, 0, 1.0)],
    )
    def test_reference_values(self, tp, fp, fn, expected):
        y = sequence("r", [(f"a{i}", 10 * (i + 1), i) for i in range(tp + fn)])
        entries = [(f"a{i}", 10 * (i + 1), i) for i in range(tp)]
        entries += [(f"x{i}", 10 * (i + 1) + 1, 10 + i) for i in range(fp)]
        outcome = classify_events(y, prediction(entries))
        assert (outcome.tp, outcome.fp, outcome.fn) == (tp, fp, fn)
        assert f1_score(outcome) == pytest.approx(expected, abs=0.005)

    def test_undefined_when_everything_empty(self):
        empty = StepSequence("r", 1.0, ())
        outcome = classify_events(empty, empty)
        with pytest.raises(ValueError, match="undefined"):
            f1_score(outcome)


class TestAverageDelay:
    def test_reordered_completion(self):
        outcome = classify_events(
            table_ground_truth(),
            prediction([("a0", 5, 0), ("a1", 10, 1), ("a3", 20, 3), ("a2", 25, 2)]),
        )
        assert average_delay(outcome) == pytest.approx(2.5)

    def test_perfect_is_zero(self):
        outcome = classify_events(table_ground_truth(), table_ground_truth())
        assert average_delay(outcome) == 0.0

    def test_fully_reversed_prediction(self):
        # all four are TPs with delays (30, 20, 10, 0); the mean follows
        # from the delay definition, nothing else
        outcome = classify_events(
            table_ground_truth(),
            prediction([("a3", 20, 3), ("a2", 25, 2), ("a1", 30, 1), ("a0", 35, 0)]),
        )
        assert average_delay(outcome) == pytest.approx(15.0)

    def test_undefined_without_tps(self):
        outcome = classify_events(table_ground_truth(), StepSequence("r", 1.0, ()))
        assert average_delay(outcome) is None

    def test_finite_where_the_sum_overflows(self):
        fps = 1e-300  # frame 1 is 1e300 s, frame 10**8 is 1e308 s
        y = sequence("r", [("a0", 1e300, 0), ("a1", 2e300, 1)], fps=fps)
        yhat = sequence("r", [("a0", 1.5e308, 0), ("a1", 1.7e308, 1)], fps=fps)
        outcome = classify_events(y, yhat)
        assert sum(outcome.delays()) == math.inf
        assert average_delay(outcome) == pytest.approx(1.6e308)


class TestEvaluateRecording:
    def test_perfect_row(self):
        report = evaluate_recording(table_ground_truth(), table_ground_truth())
        assert (report.pos, report.f1, report.tau_s) == (1.0, 1.0, 0.0)
        assert not report.has_errors

    def test_reordered_row(self):
        report = evaluate_recording(
            table_ground_truth(),
            prediction([("a0", 5, 0), ("a1", 10, 1), ("a3", 20, 3), ("a2", 25, 2)]),
        )
        assert report.pos == pytest.approx(0.75)
        assert report.f1 == 1.0
        assert report.tau_s == pytest.approx(2.5)

    def test_empty_prediction(self):
        report = evaluate_recording(table_ground_truth(), StepSequence("r", 1.0, ()))
        assert report.pos == 0.0
        assert report.f1 == 0.0
        assert (report.tp, report.fp, report.fn) == (0, 0, 4)
        assert report.tau_s is None

    def test_recording_mismatch(self):
        with pytest.raises(ValueError, match="recording mismatch"):
            evaluate_recording(table_ground_truth(), StepSequence("other", 1.0, ()))

    def test_fps_mismatch(self):
        with pytest.raises(ValueError, match="fps"):
            evaluate_recording(table_ground_truth(), StepSequence("r", 2.0, ()))

    def test_incorrect_completion_matches_as_fp(self):
        gt_events = table_ground_truth().events
        wrong = sequence(
            "r", [("incorrect:a4", 25, 4)], transition=Transition.INCORRECT
        ).events
        y = StepSequence.from_events("r", 1.0, gt_events + wrong)
        yhat = StepSequence.from_events(
            "r",
            1.0,
            gt_events + sequence("r", [("incorrect:a4", 26, 4)],
                                 transition=Transition.INCORRECT).events,
        )
        report = evaluate_recording(y, yhat)
        assert report.has_errors
        assert report.fp == 1  # the incorrect completion is not a correct step
        assert report.tp == 4

    def test_omission_flags_errors_with_spec(self):
        spec = linear_spec(5)
        y = sequence("r", [(f"a{i}", 10 * (i + 1), i) for i in range(4)])
        report = evaluate_recording(y, y, spec)
        assert report.has_errors
        full = sequence("r", [(f"a{i}", 10 * (i + 1), i) for i in range(5)])
        assert not evaluate_recording(full, full, spec).has_errors


class TestAggregateReports:
    def make_report(self, rid, pos, f1, tau, has_errors=False):
        return MetricsReport(
            recording_id=rid,
            pos=pos,
            precision=f1,
            recall=f1,
            f1=f1,
            tau_s=tau,
            tp=3,
            fp=1,
            fn=1,
            has_errors=has_errors,
        )

    def test_single_report_is_identity(self):
        report = self.make_report("one", 0.5, 0.6, 2.0)
        agg = aggregate_reports([report], Subset.ALL)
        assert (agg.pos, agg.f1, agg.tau_s) == (0.5, 0.6, 2.0)
        assert agg.recording_id == "ALL"

    def test_mean_pos(self):
        reports = [self.make_report("a", 0.5, 1.0, 1.0), self.make_report("b", 1.0, 0.5, 3.0)]
        agg = aggregate_reports(reports, Subset.ALL)
        assert agg.pos == 0.75
        assert agg.tau_s == 2.0
        assert (agg.tp, agg.fp, agg.fn) == (6, 2, 2)

    def test_undefined_tau_skipped(self):
        reports = [self.make_report("a", 1.0, 1.0, 2.0), self.make_report("b", 1.0, 1.0, None)]
        assert aggregate_reports(reports, Subset.ALL).tau_s == 2.0

    def test_tau_mean_finite_where_the_sum_overflows(self):
        taus = {"a": 1.5e308, "b": 1.7e308}
        reports = [self.make_report(rid, 1.0, 1.0, tau) for rid, tau in taus.items()]
        assert aggregate_reports(reports, Subset.ALL).tau_s == pytest.approx(1.6e308)

    def test_all_tau_undefined(self):
        reports = [self.make_report("a", 1.0, 1.0, None)]
        assert aggregate_reports(reports, Subset.ALL).tau_s is None

    def test_errors_only_filter(self):
        reports = [
            self.make_report("clean", 1.0, 1.0, 0.0, has_errors=False),
            self.make_report("broken", 0.5, 0.5, 1.0, has_errors=True),
        ]
        agg = aggregate_reports(reports, Subset.ERRORS_ONLY)
        assert agg.pos == 0.5
        assert agg.recording_id == "ERRORS_ONLY"

    def test_empty_subset_rejected(self):
        reports = [self.make_report("clean", 1.0, 1.0, 0.0)]
        with pytest.raises(ValueError, match="ERRORS_ONLY"):
            aggregate_reports(reports, Subset.ERRORS_ONLY)


def _shifted(event, delta: int):
    from dataclasses import replace

    return replace(event, time_s=event.time_s + delta, frame=event.frame + delta)


def random_pair(rng: random.Random):
    """Random (ground truth, prediction) pair over a small action pool."""
    pool = [f"a{i}" for i in range(8)]
    gt_ids = rng.sample(pool, rng.randint(1, 8))
    times = sorted(rng.sample(range(1, 200), len(gt_ids)))
    y = sequence("r", [(aid, t, int(aid[1:])) for aid, t in zip(gt_ids, times)])
    pred_ids = rng.sample(pool, rng.randint(0, 8))
    entries = [(aid, rng.randint(1, 220), int(aid[1:])) for aid in pred_ids]
    yhat = sequence("r", entries)
    return y, yhat


class TestEventInvariants:
    def test_random_pairs(self):
        rng = random.Random(1234)
        for _ in range(300):
            y, yhat = random_pair(rng)
            outcome = classify_events(y, yhat)
            assert outcome.tp + outcome.fp == len(yhat)
            assert outcome.tp + outcome.fn <= len(y)
            assert all(d >= 0 for d in outcome.delays())
            assert 0.0 <= pos_score(y, yhat) <= 1.0

    def test_shift_property(self):
        rng = random.Random(4321)
        checked = 0
        for _ in range(300):
            y, yhat = random_pair(rng)
            if not yhat.events:
                continue
            before = classify_events(y, yhat)
            if before.tp == 0:
                continue
            delta = rng.randint(1, 50)
            shifted = StepSequence.from_events(
                "r",
                yhat.fps,
                [_shifted(e, delta) for e in yhat.events],
            )
            after = classify_events(y, shifted)
            flipped = [a.is_tp != b.is_tp for a, b in zip(before.verdicts, after.verdicts)]
            if any(flipped):
                continue
            checked += 1
            assert average_delay(after) == pytest.approx(average_delay(before) + delta)
            assert pos_score(y, shifted) == pos_score(y, yhat)
            assert f1_score(after) == f1_score(before)
        assert checked > 50
