"""Evaluation metrics for recognized step sequences.

Three complementary views of prediction quality:

* procedure order similarity (POS) — how close the predicted completion
  order is to the actual one, via a weighted Damerau-Levenshtein distance
  normalized by the ground-truth length and clipped to [0, 1];
* event-level F1 — a prediction is a true positive only if it names a
  step that was actually completed and is not emitted before the actual
  completion time;
* average delay — mean lag between actual and recognized completion,
  over true positives only.

No single one of these is informative alone: POS ignores timing, F1
ignores order, and the delay ignores wrong predictions entirely.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .model import ProcedureSpec, StepEvent, StepSequence


@dataclass(frozen=True)
class EditWeights:
    """Edit operation costs for the order-similarity distance.

    The defaults price a substitution at insertion + deletion, which
    removes any incentive to prefer substituting a false prediction over
    deleting it, and price adjacent transpositions like single edits so
    that swapping two neighbouring steps is penalized mildly.
    """

    insertion: float = 1.0
    deletion: float = 1.0
    substitution: float = 2.0
    transposition: float = 1.0


DEFAULT_WEIGHTS = EditWeights()


def weighted_damlev(
    source: Sequence, target: Sequence, weights: EditWeights = DEFAULT_WEIGHTS
) -> float:
    """Minimal cost to edit `source` into `target`.

    Optimal string alignment variant: insertions, deletions,
    substitutions, and adjacent transpositions, with each element taking
    part in at most one transposition.
    """
    m, n = len(source), len(target)
    w_ins, w_del = weights.insertion, weights.deletion
    w_sub, w_tra = weights.substitution, weights.transposition
    # (m+1) x (n+1) table of prefix-to-prefix costs, three rows live.
    row_prev2: list[float] = []
    row_prev = [j * w_ins for j in range(n + 1)]
    for i in range(1, m + 1):
        row = [i * w_del] + [0.0] * n
        s_i = source[i - 1]
        for j in range(1, n + 1):
            t_j = target[j - 1]
            if s_i == t_j:
                cost = row_prev[j - 1]
            else:
                cost = row_prev[j - 1] + w_sub
            cost = min(cost, row_prev[j] + w_del, row[j - 1] + w_ins)
            if i > 1 and j > 1 and s_i == target[j - 2] and source[i - 2] == t_j:
                cost = min(cost, row_prev2[j - 2] + w_tra)
            row[j] = cost
        row_prev2, row_prev = row_prev, row
    return row_prev[n]


def pos_from_orders(
    gt_order: Sequence, pred_order: Sequence, weights: EditWeights = DEFAULT_WEIGHTS
) -> float:
    """Order similarity between two completion orders, in [0, 1].

    1 - min(d / |ground truth|, 1) with d the weighted edit distance.
    Distances beyond one deletion-per-step are all equally worthless and
    clip to similarity 0.
    """
    if len(gt_order) == 0:
        raise ValueError("order similarity is undefined for empty ground truth")
    distance = weighted_damlev(gt_order, pred_order, weights)
    return 1.0 - min(distance / len(gt_order), 1.0)


def pos_score(y: StepSequence, yhat: StepSequence) -> float:
    """Order similarity between ground-truth and predicted sequences."""
    return pos_from_orders(y.action_ids(), yhat.action_ids())


@dataclass(frozen=True)
class EventVerdict:
    """Classification of one predicted event against the ground truth."""

    event: StepEvent
    is_tp: bool
    matched: StepEvent | None
    delay_s: float | None


@dataclass(frozen=True)
class MatchOutcome:
    """Per-event verdicts for all predictions, plus the missed steps."""

    verdicts: tuple[EventVerdict, ...]
    missed: tuple[StepEvent, ...]

    @property
    def tp(self) -> int:
        return sum(1 for v in self.verdicts if v.is_tp)

    @property
    def fp(self) -> int:
        return sum(1 for v in self.verdicts if not v.is_tp)

    @property
    def fn(self) -> int:
        return len(self.missed)

    def delays(self) -> list[float]:
        return [v.delay_s for v in self.verdicts if v.delay_s is not None]


def classify_events(y: StepSequence, yhat: StepSequence) -> MatchOutcome:
    """Classify every prediction as TP or FP and collect FNs.

    A prediction of step a is a true positive iff a was actually
    completed and the prediction is not earlier than the completion;
    predicting a step early or predicting a step that never happened is
    a false positive. A completed step with no prediction at all is a
    false negative, so an early (FP) prediction still suppresses the FN
    for its step.
    """
    gt_by_id = {e.action_id: e for e in y.events}
    predicted_ids = set()
    verdicts: list[EventVerdict] = []
    for event in yhat.events:
        predicted_ids.add(event.action_id)
        matched = gt_by_id.get(event.action_id)
        if matched is not None and event.time_s >= matched.time_s:
            verdicts.append(
                EventVerdict(event, True, matched, event.time_s - matched.time_s)
            )
        else:
            verdicts.append(EventVerdict(event, False, matched, None))
    missed = tuple(e for e in y.events if e.action_id not in predicted_ids)
    return MatchOutcome(tuple(verdicts), missed)


def f1_score(outcome: MatchOutcome) -> float:
    """2 TP / (2 TP + FP + FN); undefined when all counts are zero."""
    tp, fp, fn = outcome.tp, outcome.fp, outcome.fn
    denominator = 2 * tp + fp + fn
    if denominator == 0:
        raise ValueError("F1 is undefined with no predictions and no ground truth")
    return 2 * tp / denominator


def _mean(values: Sequence[float]) -> float:
    """sum(values) / len(values), and finite where finite values sum past the float range."""
    total = sum(values)
    if math.isinf(total):
        top = max(map(abs, values))
        if top < math.inf:
            return top * (sum(v / top for v in values) / len(values))
    return total / len(values)


def average_delay(outcome: MatchOutcome) -> float | None:
    """Mean delay over true positives, or None when there is none."""
    delays = outcome.delays()
    return _mean(delays) if delays else None


@dataclass(frozen=True)
class MetricsReport:
    """All metrics for one recording, or an aggregate over several.

    For a single recording f1 is tied to the raw counts; in aggregates
    the scores are unweighted means over recordings while tp/fp/fn are
    sums, so the formula relation need not hold there.
    """

    recording_id: str
    pos: float
    precision: float
    recall: float
    f1: float
    tau_s: float | None
    tp: int
    fp: int
    fn: int
    has_errors: bool


def evaluate_recording(
    y: StepSequence, yhat: StepSequence, spec: ProcedureSpec | None = None
) -> MetricsReport:
    """Evaluate one recording's prediction against its ground truth.

    The ground truth may include incorrectly completed steps; metrics
    are computed against the correct completions only, so predictions
    matching an incorrect completion count as false positives. When the
    procedure is supplied, omitted steps are reflected in has_errors.
    """
    if y.recording_id != yhat.recording_id:
        raise ValueError(
            f"recording mismatch: ground truth '{y.recording_id}' "
            f"vs prediction '{yhat.recording_id}'"
        )
    if y.fps != yhat.fps:
        raise ValueError(f"fps mismatch: {y.fps} vs {yhat.fps}")
    y_correct = y.correct_only()
    pos = pos_score(y_correct, yhat)
    outcome = classify_events(y_correct, yhat)
    tp, fp, fn = outcome.tp, outcome.fp, outcome.fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    has_errors = y.has_incorrect()
    if spec is not None:
        completed = {e.action_id for e in y_correct.events}
        has_errors = has_errors or any(
            a.action_id not in completed for a in spec.actions
        )
    return MetricsReport(
        recording_id=y.recording_id,
        pos=pos,
        precision=precision,
        recall=recall,
        f1=f1_score(outcome),
        tau_s=average_delay(outcome),
        tp=tp,
        fp=fp,
        fn=fn,
        has_errors=has_errors,
    )


class Subset(enum.Enum):
    """Which recordings an aggregate covers."""

    ALL = "ALL"
    ERRORS_ONLY = "ERRORS_ONLY"


def aggregate_reports(reports: Sequence[MetricsReport], subset: Subset) -> MetricsReport:
    """Aggregate per-recording reports into one summary row.

    Scores are unweighted means over recordings (recordings without a
    defined delay are skipped in the delay mean); counts are summed.
    """
    if subset is Subset.ERRORS_ONLY:
        selected = [r for r in reports if r.has_errors]
    else:
        selected = list(reports)
    if not selected:
        raise ValueError(f"no recordings in subset {subset.value}")
    taus = [r.tau_s for r in selected if r.tau_s is not None]
    return MetricsReport(
        recording_id=subset.value,
        pos=_mean([r.pos for r in selected]),
        precision=_mean([r.precision for r in selected]),
        recall=_mean([r.recall for r in selected]),
        f1=_mean([r.f1 for r in selected]),
        tau_s=_mean(taus) if taus else None,
        tp=sum(r.tp for r in selected),
        fp=sum(r.fp for r in selected),
        fn=sum(r.fn for r in selected),
        has_errors=any(r.has_errors for r in selected),
    )
