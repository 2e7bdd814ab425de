#!/usr/bin/env python3
"""psrkit benchmark: drive ``psrkit simulate -> run -> eval/bench``.

Usage, from the repository root:

    python3 psrbench/run.py --workload stream_long --seed 1 --seconds 20 --trace 0

Each run imports psrkit from ``src/`` of the checkout it sits in, sets
up the workload's inputs with ``psrkit simulate``, then repeats rounds of
``psrkit run`` over every (baseline, recording) pair plus the scoring
commands until ``--seconds`` of command time have been measured. Every
command goes through ``psrkit.cli.main`` in this one process.

Outputs are checked against psrkit's in-memory API (``simulate`` ->
``run_baseline`` -> ``evaluate_recording``), and every round must write
byte-identical files. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import probe
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "work"

# setup_s is the median of at least 3 set-ups, more while they took < 4 s
SETUP_REPEATS = (3, 7)
SETUP_MIN_S = 4.0
MIN_ROUNDS = 3  # so every run has at least three samples per command

# child process for run_peak_mb: argv is [src dir, psrkit arguments...]
_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from psrkit.cli import main; sys.exit(main(sys.argv[2:]))"
)


def import_cli():
    """Import psrkit.cli afresh from this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "psrkit" or n.startswith("psrkit.")]:
        del sys.modules[name]
    cli = importlib.import_module("psrkit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"psrkit was imported from {cli.__file__}, not from {SRC}")
    return cli


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


Interval = tuple[float, float]  # perf_counter() at a command's start and end


@dataclasses.dataclass
class Round:
    runs: list[Interval]
    scores: list[Interval]
    frames: int
    scored: int  # recordings scored by each scoring command

    @property
    def measured_s(self) -> float:
        return sum(end - start for start, end in self.runs + self.scores)

    def scaled_s(self, speed: probe.SpeedTimeline) -> float:
        """The round's command time in reference-machine seconds."""
        return sum(map(speed.scaled, self.runs + self.scores))


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, scale: float = 1.0):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.work = WORK_DIR / workload
        self.inputs = self.work / "inputs"
        self.outputs = self.work / "outputs"
        self.attempted = 0
        self.failures: list[str] = []
        self.cli = None
        self.spec = None
        self.plan: workloads.Plan | None = None
        self.frames: dict[str, int] = {}
        self.round0: dict[str, str] = {}

    # -- commands -------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def invoke(self, argv: list[str], tracer: tracing.Tracer | None = None) -> Interval:
        """Run one psrkit command in-process; returns when it started and ended."""
        self.attempted += 1
        started = perf_counter()
        try:
            if tracer is None:
                status = self.cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    status = self.cli.main(argv)
        except Exception as exc:  # a crash counts as a failed command
            status = f"raised {exc!r}"
        ended = perf_counter()
        if status != 0:
            self.fail(f"psrkit {' '.join(argv)}: exit {status}")
        return started, ended

    def modules(self):
        return tuple(
            sys.modules[f"psrkit.{name}"] for name in ("formats", "simulate", "baselines")
        )

    # -- set-up ---------------------------------------------------------

    def set_up(self, tracer: tracing.Tracer | None = None) -> Interval:
        """Import psrkit and write the workload's inputs; returns when the
        set-up started and ended."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        started = perf_counter()
        self.cli = import_cli()
        formats = self.modules()[0]
        spec_arg = workloads.spec_argument(self.workload, self.inputs)
        if self.workload == "wide_b3":
            Path(spec_arg).write_text(json.dumps(workloads.wide_procedure_document(), indent=2))
            self.spec = formats.read_procedure(spec_arg)
        else:
            self.spec = formats.load_builtin_procedure(spec_arg)
        if tracer is not None:
            tracer.install(self.cli, *self.modules())
        action_ids = [action.action_id for action in self.spec.actions]
        self.plan = workloads.make_plan(self.workload, self.seed, spec_arg, action_ids, self.scale)
        config = self.inputs / "sim_config.json"
        config.write_text(json.dumps(self.plan.sim_config))
        base = ["simulate", "--spec", spec_arg, "--config", str(config), "--out-dir", str(self.inputs)]
        with contextlib.redirect_stdout(io.StringIO()):
            for recording in self.plan.recordings:
                self.invoke(base + recording.simulate_args(), tracer)
        ended = perf_counter()
        if tracer is not None:
            tracer.uninstall()
        return started, ended

    def inputs_digest(self) -> str:
        digest = hashlib.sha256()
        for path in sorted(self.inputs.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return digest.hexdigest()

    def prepare_outputs(self) -> None:
        """Lay out one output directory per baseline (untimed)."""
        shutil.rmtree(self.outputs, ignore_errors=True)
        for variant in self.plan.variants:
            (self.outputs / variant).mkdir(parents=True)
            if self.plan.scoring == "bench":
                for recording in self.plan.recordings:
                    gt = self.gt_path(recording)
                    shutil.copyfile(gt, self.outputs / variant / gt.name)
        for recording in self.plan.recordings:
            data = self.stream_path(recording).read_bytes()
            self.frames[recording.recording_id] = data.count(b"\n") - 1

    # -- paths ----------------------------------------------------------

    def stream_path(self, recording) -> Path:
        return self.inputs / f"{recording.recording_id}.stream.jsonl"

    def gt_path(self, recording) -> Path:
        return self.inputs / f"{recording.recording_id}.gt.jsonl"

    def pred_path(self, variant: str, recording) -> Path:
        return self.outputs / variant / f"{recording.recording_id}.pred.jsonl"

    def report_path(self, variant: str, recording=None) -> Path:
        if recording is None:
            return self.outputs / f"{variant}.report.json"
        return self.outputs / variant / f"{recording.recording_id}.report.json"

    def output_files(self) -> list[Path]:
        files = []
        for variant in self.plan.variants:
            for recording in self.plan.recordings:
                files.append(self.pred_path(variant, recording))
                if self.plan.scoring == "eval":
                    files.append(self.report_path(variant, recording))
            if self.plan.scoring == "bench":
                files.append(self.report_path(variant))
        return files

    # -- timed rounds ---------------------------------------------------

    def run_round(self, tracer: tracing.Tracer | None = None) -> Round:
        plan = self.plan
        if tracer is not None:
            tracer.install(self.cli, *self.modules())
        runs: list[Interval] = []
        scores: list[Interval] = []
        frames = 0
        for variant in plan.variants:
            for recording in plan.recordings:
                runs.append(self.invoke(
                    ["run", "--baseline", variant, "--spec", plan.spec,
                     "--stream", str(self.stream_path(recording)),
                     "--out", str(self.pred_path(variant, recording))],
                    tracer,
                ))
                frames += self.frames[recording.recording_id]
            if plan.scoring == "bench":
                scores.append(self.invoke(
                    ["bench", "--spec", plan.spec, "--runs", str(self.outputs / variant),
                     "--out", str(self.report_path(variant)), "--format", "json"],
                    tracer,
                ))
            else:
                for recording in plan.recordings:
                    scores.append(self.invoke(
                        ["eval", "--spec", plan.spec, "--gt", str(self.gt_path(recording)),
                         "--pred", str(self.pred_path(variant, recording)),
                         "--out", str(self.report_path(variant, recording))],
                        tracer,
                    ))
        if tracer is not None:
            tracer.uninstall()
        self.check_round()
        scored = len(plan.recordings) if plan.scoring == "bench" else 1
        return Round(runs, scores, frames, scored)

    def check_round(self) -> None:
        """Every round must rewrite the first round's files byte for byte."""
        for path in self.output_files():
            digest = _sha256(path) if path.exists() else "missing"
            expected = self.round0.setdefault(str(path), digest)
            if digest != expected:
                self.fail(f"{path.name}: differs from the first round's file")

    def outputs_digest(self) -> str:
        digest = hashlib.sha256()
        for path in self.output_files():
            name = path.relative_to(self.outputs).as_posix()
            digest.update(name.encode() + b"\0" + self.round0[str(path)].encode())
        return digest.hexdigest()

    # -- memory ---------------------------------------------------------

    def peak_rss_mb(self) -> float:
        """Max RSS of one ``psrkit run`` (B3, largest stream) in a child."""
        recording = max(self.plan.recordings, key=lambda r: self.frames[r.recording_id])
        out = self.work / "peak.pred.jsonl"
        argv = ["run", "--baseline", "b3", "--spec", self.plan.spec,
                "--stream", str(self.stream_path(recording)), "--out", str(out)]
        self.attempted += 1
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(SRC), *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        stderr = child.stderr.read()
        child.stderr.close()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            self.fail(f"child psrkit {' '.join(argv)}: exit {child.returncode}: {stderr!r}")
        elif _sha256(out) != self.round0[str(self.pred_path("b3", recording))]:
            self.fail("child run wrote a different prediction than the timed rounds")
        return usage.ru_maxrss / 1024.0

    # -- output checks and workload properties --------------------------

    def check_outputs(self) -> dict:
        """Recompute every result in memory; returns the workload's properties."""
        formats, simulate, baselines = self.modules()
        metrics = sys.modules["psrkit.metrics"]
        model = sys.modules["psrkit.model"]
        spec, plan = self.spec, self.plan
        base_cfg = dataclasses.replace(simulate.SimConfig(), **plan.sim_config)
        expected: dict[str, list] = {variant: [] for variant in plan.variants}
        per_stream = []
        for recording in plan.recordings:
            cfg = dataclasses.replace(base_cfg, seed=recording.seed)
            injection = simulate.ErrorInjection(
                omit=frozenset(recording.omit),
                incorrect=frozenset(recording.incorrect),
                swaps=recording.swaps,
            )
            try:
                scenario = simulate.simulate(spec, injection, cfg, recording.recording_id)
            except Exception as exc:  # counted like a failing command, never skipped
                self.fail(f"{recording.recording_id}: in-memory simulate raised {exc!r}")
                continue
            self._check_steps(self.gt_path(recording), scenario.ground_truth)
            detections = [d.state for frame in scenario.stream for d in frame.detections]
            per_stream.append({
                "frames": len(scenario.stream),
                "bytes": self.stream_path(recording).stat().st_size,
                "detections": len(detections),
                "distinct_states": len(set(detections)),
                "mistakes": recording.mistakes,
            })
            for variant in plan.variants:
                config = baselines.BaselineConfig(baselines.Variant(variant))
                try:
                    predicted = baselines.run_baseline(
                        config, spec, scenario.stream, cfg.fps, recording.recording_id
                    )
                    report = metrics.evaluate_recording(scenario.ground_truth, predicted, spec)
                except Exception as exc:  # counted like a failing command, never skipped
                    self.fail(f"{recording.recording_id} {variant}: in-memory result raised {exc!r}")
                    continue
                self._check_steps(self.pred_path(variant, recording), predicted)
                expected[variant].append(report)
                if plan.scoring == "eval":
                    self._check_report(self.report_path(variant, recording), [report], None)
        if plan.scoring == "bench":
            for variant, reports in expected.items():
                reports.sort(key=lambda r: r.recording_id)
                errors = [r for r in reports if r.has_errors]
                aggregates = (
                    metrics.aggregate_reports(reports, metrics.Subset.ALL),
                    metrics.aggregate_reports(reports, metrics.Subset.ERRORS_ONLY)
                    if errors else None,
                )
                self._check_report(self.report_path(variant), reports, aggregates)
        detections = sum(s["detections"] for s in per_stream)
        return {
            "recordings": len(per_stream),
            "frames_total": sum(s["frames"] for s in per_stream),
            "frames_per_stream": _spread([s["frames"] for s in per_stream]),
            "bytes_per_stream": _spread([s["bytes"] for s in per_stream]),
            "state_repeat_share": 1.0 - sum(s["distinct_states"] for s in per_stream) / detections,
            "reachable_states": len(model.expected_states(spec)),
            "components": spec.n_components,
            "mistakes_per_recording": _spread([s["mistakes"] for s in per_stream]),
            "recordings_with_mistakes": sum(1 for s in per_stream if s["mistakes"]),
        }

    def _check_steps(self, path: Path, expected) -> None:
        formats = self.modules()[0]
        try:
            _, sequence = formats.read_ground_truth(path, self.spec)
        except Exception as exc:  # an unreadable output is a failed check
            self.fail(f"{path.name}: unreadable: {exc}")
            return
        if sequence.events != expected.events:
            self.fail(f"{path.name}: events differ from the in-memory result")

    def _check_report(self, path: Path, reports, aggregates) -> None:
        metrics = sys.modules["psrkit.metrics"]
        try:
            document = json.loads(path.read_text())
            got = [metrics.MetricsReport(**row) for row in document["recordings"]]
            if aggregates is not None:
                rows = document["aggregates"]
                got_aggregates = (
                    metrics.MetricsReport(**rows["all"]),
                    metrics.MetricsReport(**rows["errors_only"]) if rows["errors_only"] else None,
                )
        except Exception as exc:  # an unreadable output is a failed check
            self.fail(f"{path.name}: unreadable report: {exc}")
            return
        if got != list(reports) or (aggregates is not None and got_aggregates != aggregates):
            self.fail(f"{path.name}: report differs from the in-memory evaluation")


def _spread(values) -> dict:
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def end_to_end(setups: list[Interval], rounds: list[Round], peak_mb: float, speed) -> dict:
    """The end-to-end metrics, in reference-machine time (probe.py)."""
    runs = [speed.scaled(interval) for r in rounds for interval in r.runs]
    return {
        "setup_s": (statistics.median(map(speed.scaled, setups)), "s"),
        "frames_per_s": (statistics.median([r.frames / r.scaled_s(speed) for r in rounds]), "1/s"),
        "run_p50_ms": (statistics.median(runs) * 1e3, "ms"),
        "run_p95_ms": (statistics.quantiles(runs, n=20, method="inclusive")[18] * 1e3, "ms"),
        "score_ms_per_rec": (
            statistics.median([speed.scaled(interval) / r.scored * 1e3
                               for r in rounds for interval in r.scores]),
            "ms",
        ),
        "run_peak_mb": (peak_mb, "MB"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Run one workload; returns (result object, human-readable lines)."""
    bench = Bench(workload, seed, scale)
    shutil.rmtree(bench.work, ignore_errors=True)
    lines = []
    tracer = tracing.Tracer() if trace else None
    untraced: list[Round] = []
    traced: list[Round] = []
    # the probe samples untraced phases only, so that no probe time lands
    # inside a span
    speed = probe.SpeedTimeline()
    try:
        with speed:
            setups = [bench.set_up()]
        first_inputs = bench.inputs_digest()
        if tracer is not None:
            tracer.phase = "setup"
            setups.append(bench.set_up(tracer))
        else:
            fewest, most = SETUP_REPEATS
            while len(setups) < most and (
                len(setups) < fewest or sum(end - start for start, end in setups) < SETUP_MIN_S
            ):
                with speed:
                    setups.append(bench.set_up())
        if bench.inputs_digest() != first_inputs:
            bench.fail("set-ups with the same seed wrote different inputs")
        bench.prepare_outputs()

        measured = 0.0
        # untraced runs need three samples of each command for the
        # percentiles; a traced run needs one traced round
        min_rounds = 1 if trace else MIN_ROUNDS
        while len(untraced) < min_rounds or measured < seconds:
            with speed:
                untraced.append(bench.run_round())
            measured += untraced[-1].measured_s
            if tracer is not None:
                tracer.phase = f"round{len(traced)}"
                traced.append(bench.run_round(tracer))
                measured += traced[-1].measured_s
        peak_mb = 0.0 if trace else bench.peak_rss_mb()
        properties = bench.check_outputs()

        lines.append(f"workload {workload} seed {seed}: {len(untraced)} untraced rounds, "
                     f"{len(traced)} traced rounds, {measured:.2f} s of commands measured")
        lines.append(f"speed factor {speed.factor():.4f} over {len(speed.durations)} probes; "
                     "unscaled set-ups " + " ".join(f"{end - start:.3f}" for start, end in setups)
                     + " s, rounds " + " ".join(f"{r.measured_s:.3f}" for r in untraced + traced) + " s")
        lines.append("inputs sha256 " + first_inputs)
        lines.append("outputs sha256 " + bench.outputs_digest())
        lines.append("properties " + json.dumps(properties, sort_keys=True))
        error_rate = len(bench.failures) / bench.attempted
        lines.append(f"error_rate {error_rate:.6f} ({len(bench.failures)} of {bench.attempted})")
        lines += [f"failure: {message}" for message in bench.failures[:20]]

        if tracer is None:
            metrics = end_to_end(setups, untraced, peak_mb, speed)
        else:
            metrics = traced_metrics(tracer, properties, speed, untraced, traced)
            lines += trace_summary(tracer)
            trace_file = WORK_DIR / f"{workload}.trace.json"
            trace_file.write_text(json.dumps(tracer.spans))
            lines.append(f"spans written to {trace_file.relative_to(ROOT)}")
        lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        result = {
            "correct": not bench.failures,
            "attempted": bench.attempted,
            "failed": min(len(bench.failures), bench.attempted),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        return result, lines
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def _layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s", ".overhead_s")):
        return "s"
    if name.endswith("us_per_frame") or ".us_per_frame." in name:
        return "us"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_share", "coverage_min")):
        return "ratio"
    return "count"


def traced_metrics(tracer, properties: dict, speed, untraced: list[Round], traced: list[Round]) -> dict:
    """Per-layer metrics: the traced set-up plus the median traced round,
    times scaled by the run's overall speed factor."""
    setup_spans = [s for s in tracer.spans if s["phase"] == "setup"]
    per_round = []
    for index in range(len(traced)):
        spans = [s for s in tracer.spans if s["phase"] == f"round{index}"]
        per_round.append(tracing.layer_metrics(setup_spans, spans, speed.factor()))
    values = {name: statistics.median([m[name] for m in per_round]) for name in per_round[0]}
    values["formats.read_stream.distinct_state_share"] = 1.0 - properties["state_repeat_share"]
    untraced_s = statistics.median([r.scaled_s(speed) for r in untraced])
    overhead = statistics.median([r.scaled_s(speed) for r in traced]) - untraced_s
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / untraced_s
    return {name: (value, _layer_unit(name)) for name, value in values.items()}


def trace_summary(tracer) -> list[str]:
    """Layers of the traced set-up and first traced round, largest self time first."""
    lines = []
    for phase in ("setup", "round0"):
        spans = [s for s in tracer.spans if s["phase"] == phase]
        rows = sorted(tracing.summarize(spans).items(), key=lambda item: -item[1]["self_s"])
        lines += [
            f"{phase} layer {name:34s} self {layer['self_s']:9.4f} s  "
            f"busy {layer['s']:9.4f} s  calls {int(layer['calls'])}"
            for name, layer in rows
        ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "psrkit" / "cli.py").is_file():
        print(f"psrbench: no psrkit sources at {SRC}", file=sys.stderr)
        return 2
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
