#!/usr/bin/env python3
"""Print the metric behaviour tables computed by the library.

Two tables: how the order-similarity score treats characteristic
prediction mistakes, and how all three metrics interact on a set of
example predictions against a four-step ground truth.
"""

from __future__ import annotations

from psrkit import evaluate_recording, pos_from_orders, weighted_damlev
from psrkit.model import StepEvent, StepSequence, Transition


def order_similarity_table() -> None:
    ground_truth = "ABCD"
    predictions = ["ABDC", "ADCB", "DBCA", "BCD"]
    print(f"Order similarity against ground truth {ground_truth!r}")
    print(f"{'prediction':<12}{'edits':>8}{'POS':>8}")
    for prediction in predictions:
        edits = weighted_damlev(ground_truth, prediction)
        pos = pos_from_orders(ground_truth, prediction)
        print(f"{prediction:<12}{edits:>8.0f}{pos:>8.2f}")
    print()


def make_sequence(entries) -> StepSequence:
    events = [
        StepEvent(
            action_id=aid,
            component=int(aid[1:]),
            transition=Transition.INSTALL,
            time_s=float(t),
            frame=int(t),
        )
        for aid, t in entries
    ]
    return StepSequence.from_events("demo", 1.0, events)


def metric_interaction_table() -> None:
    ground_truth = make_sequence([("a0", 5), ("a1", 10), ("a2", 15), ("a3", 20)])
    predictions = [
        [("a0", 5), ("a1", 10), ("a2", 15), ("a3", 20)],
        [("a0", 5), ("a1", 10), ("a3", 20), ("a2", 25)],
        [("a0", 5), ("a1", 10), ("a3", 20)],
        [("a3", 20), ("a2", 25), ("a1", 30), ("a0", 35)],
        [("a0", 5), ("a1", 5), ("a2", 10), ("a3", 15)],
    ]
    print("Metric interaction on a four-step ground truth (times in seconds)")
    print(f"{'prediction':<44}{'POS':>6}{'F1':>6}{'delay':>8}")
    for entries in predictions:
        label = ", ".join(f"{aid}|{t}s" for aid, t in entries)
        report = evaluate_recording(ground_truth, make_sequence(entries))
        delay = "-" if report.tau_s is None else f"{report.tau_s:.1f}s"
        print(f"{label:<44}{report.pos:>6.2f}{report.f1:>6.2f}{delay:>8}")
    print()


if __name__ == "__main__":
    order_similarity_table()
    metric_interaction_table()
