#!/usr/bin/env python3
"""Benchmark all three baselines on a simulated corpus.

Generates a set of seeded recordings (a fraction with injected
mistakes), runs B1, B2, and B3 over the detector streams, and writes
one report per baseline with per-recording rows plus the ALL and
ERRORS_ONLY aggregates.
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

from psrkit import (
    BaselineConfig,
    ErrorInjection,
    SimConfig,
    Variant,
    evaluate_recording,
    run_baseline,
    simulate,
)
from psrkit.cli import load_spec
from psrkit.formats import write_report
from psrkit.metrics import Subset, aggregate_reports


def build_corpus(spec, n_recordings, n_errors, base_seed, noise):
    rng = random.Random(base_seed)
    install_actions = [a.action_id for a in spec.actions]
    scenarios = []
    for index in range(n_recordings):
        if index < n_errors:
            injection = ErrorInjection(incorrect=frozenset({rng.choice(install_actions)}))
        else:
            injection = ErrorInjection()
        cfg = SimConfig(
            seed=base_seed + index,
            detect_prob=1.0 - noise / 2,
            conf_mean=0.9 - noise / 4,
            conf_spread=0.1,
            misclass_prob=noise,
            error_fp_rate=0.65,
        )
        scenarios.append((simulate(spec, injection, cfg, recording_id=f"rec{index:03d}"), cfg))
    return scenarios


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default="industreal_car_assembly",
                        help="procedure file or builtin name")
    parser.add_argument("--recordings", type=int, default=20)
    parser.add_argument("--errors", type=int, default=5,
                        help="how many recordings get an injected mistake")
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--noise", type=float, default=0.05,
                        help="misclassification probability of the simulated detector")
    parser.add_argument("--out-dir", default="bench_out")
    args = parser.parse_args()

    spec = load_spec(args.spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    scenarios = build_corpus(spec, args.recordings, args.errors, args.seed, args.noise)
    for variant in Variant:
        reports = []
        for scenario, cfg in scenarios:
            predicted = run_baseline(
                BaselineConfig(variant), spec, scenario.stream, cfg.fps,
                scenario.ground_truth.recording_id,
            )
            reports.append(evaluate_recording(scenario.ground_truth, predicted, spec))
        path = out_dir / f"bench_{variant.value}.csv"
        write_report(path, reports, fmt="csv")
        subsets = [Subset.ALL]
        if any(report.has_errors for report in reports):
            subsets.append(Subset.ERRORS_ONLY)
        for subset in subsets:
            summary = aggregate_reports(reports, subset)
            tau_s = summary.tau_s if summary.tau_s is not None else float("nan")
            print(
                f"{variant.value} {subset.value}: POS {summary.pos:.3f}  "
                f"F1 {summary.f1:.3f}  delay {tau_s:.2f}s  -> {path}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
