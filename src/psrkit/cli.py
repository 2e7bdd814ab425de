"""Command-line frontend: validate / run / eval / simulate / bench.

Exit codes: 0 on success, 1 for bad input or validation failures, 2 for
internal errors. Diagnostics go to stderr; data goes to stdout or the
requested output path.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from pathlib import Path

from .baselines import BaselineConfig, Variant, run_baseline
from .formats import (
    BUILTIN_PROCEDURES,
    FormatError,
    _read_json_document,
    iter_stream_file,
    load_builtin_procedure,
    read_ground_truth,
    read_procedure,
    report_to_row,
    validate_file,
    write_ground_truth,
    write_report,
    write_scenario,
)
from .metrics import evaluate_recording
from .model import EventSource, ProcedureSpec
from .simulate import ErrorInjection, Scenario, SimConfig, iter_stream, sample_execution

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # bad flags are input errors (exit 1), not argparse's default exit 2
    def error(self, message):
        raise _UsageError(message)


def load_spec(value: str) -> ProcedureSpec:
    """A --spec value is a builtin procedure name or a file path."""
    if value in BUILTIN_PROCEDURES:
        return load_builtin_procedure(value)
    return read_procedure(value)


def cmd_validate(args) -> int:
    spec = load_spec(args.spec) if args.spec else None
    failures = 0
    for path in args.paths:
        diagnostics = validate_file(path, spec)
        for diagnostic in diagnostics:
            print(diagnostic, file=sys.stderr)
        failures += bool(diagnostics)
    return EXIT_INPUT if failures else EXIT_OK


def cmd_run(args) -> int:
    spec = load_spec(args.spec)
    config = BaselineConfig(Variant(args.baseline), args.threshold, args.decay)
    # frames are parsed as the recognizer consumes them
    manifest, frames = iter_stream_file(args.stream, spec)
    sequence = run_baseline(config, spec, frames, manifest.fps, manifest.recording_id)
    write_ground_truth(args.out, sequence, spec, source=EventSource.RECOGNIZED)
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.format == "csv" and not args.out:
        print("psrkit: --format csv needs --out", file=sys.stderr)
        return EXIT_INPUT
    spec = load_spec(args.spec)
    _, y = read_ground_truth(args.gt, spec)
    _, yhat = read_ground_truth(args.pred, spec)
    report = evaluate_recording(y, yhat, spec)
    if args.out:
        write_report(args.out, [report], fmt=args.format)
    else:
        json.dump(report_to_row(report), sys.stdout, indent=2)
        sys.stdout.write("\n")
    return EXIT_OK


def _build_sim_config(args) -> SimConfig:
    cfg = SimConfig.noiseless() if args.noiseless else SimConfig()
    if args.config:
        fields = _read_json_document(args.config, None)
        try:
            cfg = dataclasses.replace(cfg, **fields)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"invalid simulation config: {exc}", args.config) from None
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def cmd_simulate(args) -> int:
    spec = load_spec(args.spec)
    cfg = _build_sim_config(args)
    injection = ErrorInjection(
        omit=frozenset(args.omit or ()),
        incorrect=frozenset(args.incorrect or ()),
        swaps=tuple(args.swap or ()),
    )
    rng = random.Random(cfg.seed)  # simulate()'s draws, rendered as they are written
    sequence, timeline = sample_execution(spec, injection, cfg, rng, args.recording_id)
    scenario = Scenario(sequence, timeline, iter_stream(timeline, cfg, rng=rng))
    paths = write_scenario(args.out_dir, scenario, spec, cfg, injection)
    for key in ("stream", "ground_truth", "scenario"):
        print(paths[key])
    return EXIT_OK


def cmd_bench(args) -> int:
    spec = load_spec(args.spec)
    runs_dir = Path(args.runs)
    if not runs_dir.is_dir():
        print(f"{runs_dir}: not a directory", file=sys.stderr)
        return EXIT_INPUT
    gt_paths = sorted(runs_dir.glob("*.gt.jsonl"))
    if not gt_paths:
        print(f"{runs_dir}: no *.gt.jsonl files found", file=sys.stderr)
        return EXIT_INPUT
    reports = []
    for gt_path in gt_paths:
        pred_path = gt_path.with_name(gt_path.name[: -len(".gt.jsonl")] + ".pred.jsonl")
        if not pred_path.exists():
            print(f"{gt_path}: no matching prediction file {pred_path.name}", file=sys.stderr)
            return EXIT_INPUT
        _, y = read_ground_truth(gt_path, spec)
        _, yhat = read_ground_truth(pred_path, spec)
        reports.append(evaluate_recording(y, yhat, spec))
    reports.sort(key=lambda r: r.recording_id)
    write_report(args.out, reports, fmt=args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="psrkit",
        description="Procedure step recognition: baselines, metrics, and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec_help = "procedure file, or a builtin name: " + ", ".join(BUILTIN_PROCEDURES)

    p = sub.add_parser("validate", help="check files for format and consistency errors")
    p.add_argument("paths", nargs="+", help="files to validate")
    p.add_argument(
        "--spec", help=f"validate step and stream files against this procedure ({spec_help})"
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a baseline recognizer over a detection stream")
    p.add_argument("--baseline", required=True, choices=[v.value for v in Variant])
    p.add_argument("--spec", required=True, help=spec_help)
    p.add_argument("--stream", required=True, help="detection stream file")
    p.add_argument("--out", required=True, help="output prediction file")
    p.add_argument(
        "--threshold",
        type=float,
        help="b1: detection confidence threshold (default 0.5); "
        "b2/b3: accumulation threshold (default 8.0)",
    )
    p.add_argument("--decay", type=float, help="b2/b3 confidence decay (default 0.75)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score a prediction file against its ground truth")
    p.add_argument("--spec", required=True, help=spec_help)
    p.add_argument("--gt", required=True, help="ground-truth step file")
    p.add_argument("--pred", required=True, help="predicted step file")
    p.add_argument("--out", help="report path (default: JSON to stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="generate a seeded synthetic recording")
    p.add_argument("--spec", required=True, help=spec_help)
    p.add_argument("--seed", type=int, help="random seed (overrides the config file)")
    p.add_argument("--config", help="JSON file with simulation settings")
    p.add_argument("--out-dir", required=True, help="directory for the output files")
    p.add_argument("--omit", action="append", metavar="ACTION", help="skip this step")
    p.add_argument(
        "--incorrect", action="append", metavar="ACTION", help="complete this step incorrectly"
    )
    p.add_argument(
        "--swap", action="append", type=int, metavar="POS",
        help="swap the steps at positions POS and POS+1",
    )
    p.add_argument("--recording-id", help="recording id (default: derived from spec and seed)")
    p.add_argument("--noiseless", action="store_true", help="perfect detector settings")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="evaluate a directory of (gt, pred) pairs")
    p.add_argument("--spec", required=True, help=spec_help)
    p.add_argument(
        "--runs", required=True,
        help="directory containing <id>.gt.jsonl and <id>.pred.jsonl pairs",
    )
    p.add_argument("--out", required=True, help="report path")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"psrkit: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (FormatError, ValueError, OSError) as exc:
        print(f"psrkit: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"psrkit: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
