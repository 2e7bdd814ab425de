"""Timing spans around psrkit's public functions, for the traced run.

The tracer replaces functions in the module namespaces where psrkit
looks them up at call time (``psrkit.cli``, ``psrkit.formats``,
``psrkit.simulate`` and ``psrkit.baselines``) with wrappers that record
a span, and puts the originals back afterwards. psrkit's own code is not
changed. A span has a name, a start, an end, its parent span and a few
counts (frames, bytes, events, states, failures); spans stay in memory
until the run writes them out.

A function missing from a namespace is skipped, so the tracer keeps
working when psrkit stops calling it there: its layer then reads zero.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import defaultdict
from time import perf_counter

# layers whose cost is paid while generating inputs; every other layer is
# reported from the timed rounds
SETUP_LAYERS = (
    "cli.simulate",
    "simulate.sample_execution",
    "simulate.render_stream",
    "formats.write_stream",
    "formats.write_scenario",
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.phase = ""
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "phase": self.phase,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = perf_counter()
        try:
            yield record
        except Exception:
            record["counts"]["failed"] = 1
            raise
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def _wrap(self, module, attr: str, name, count=None, before=None) -> None:
        """Trace ``module.attr``; ``before`` may wrap the arguments, ``count``
        the result, to record counts on the span."""
        original = module.__dict__.get(attr)
        if original is None:
            return
        span = self.span

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with span(label) as record:
                if before:
                    args = before(record, args)
                result = original(*args, **kwargs)
            return count(record, args, result) if count else result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def install(self, cli, formats, simulate, baselines) -> None:
        """Wrap the public functions the CLI commands reach."""
        self._wrap(cli, "build_parser", "cli.build_parser", self._trace_parse_args)
        self._wrap(cli, "load_builtin_procedure", "formats.load_builtin_procedure")
        for module in (cli, formats):
            self._wrap(module, "read_procedure", "formats.read_procedure")
            self._wrap(module, "write_ground_truth", "formats.write_ground_truth")
        self._wrap(cli, "read_stream", "formats.read_stream", _count_read)
        self._wrap(cli, "run_baseline", _run_label, _count_events, _count_run_frames)
        self._wrap(cli, "read_ground_truth", "formats.read_ground_truth")
        self._wrap(cli, "evaluate_recording", "metrics.evaluate_recording")
        self._wrap(cli, "aggregate_reports", "metrics.aggregate_reports")
        self._wrap(cli, "write_report", "formats.write_report")
        self._wrap(cli, "simulate", "simulate.simulate")
        self._wrap(cli, "write_scenario", "formats.write_scenario")
        self._wrap(simulate, "sample_execution", "simulate.sample_execution")
        self._wrap(simulate, "render_stream", "simulate.render_stream", _count_rendered)
        self._wrap(formats, "write_stream", "formats.write_stream", _count_written)
        self._wrap(baselines, "expected_states", "model.expected_states", _count_states)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _trace_parse_args(self, record, args, parser):
        parse_args = parser.parse_args

        def traced(*a, **k):
            with self.span("cli.parse_args"):
                return parse_args(*a, **k)

        parser.parse_args = traced
        return parser


def _run_label(config, *args, **kwargs) -> str:
    return f"baselines.run_baseline.{config.variant.value}"


def _counted(record, frames):
    """Count frames now, or as a lazy stream is consumed."""
    if hasattr(frames, "__len__"):
        record["counts"]["frames"] = len(frames)
        return frames

    def counting():
        record["counts"]["frames"] = 0
        for frame in frames:
            record["counts"]["frames"] += 1
            yield frame

    return counting()


def _count_read(record, args, result):
    record["counts"]["bytes"] = os.path.getsize(args[0])
    manifest, frames = result
    return manifest, _counted(record, frames)


def _count_run_frames(record, args):
    config, spec, frames, *rest = args
    return (config, spec, _counted(record, frames), *rest)


def _count_events(record, args, result):
    record["counts"]["events"] = len(result.events)
    return result


def _count_rendered(record, args, result):
    return _counted(record, result)


def _count_written(record, args, result):
    record["counts"]["bytes"] = os.path.getsize(args[0])
    return result


def _count_states(record, args, result):
    record["counts"]["states"] = len(result)
    return result


def summarize(spans) -> dict[str, dict]:
    """Per span name: busy seconds, self seconds, calls and summed counts."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        covered[span["parent"]] += span["end"] - span["start"]
    layers: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        duration = span["end"] - span["start"]
        layer = layers[span["name"]]
        layer["s"] += duration
        layer["self_s"] += duration - covered[span["id"]]
        layer["calls"] += 1
        for key, value in span["counts"].items():
            if key == "states":
                layer[key] = max(layer[key], value)
            else:
                layer[key] += value
    return layers


def cli_coverage_min(spans) -> float:
    """Smallest share of a CLI command span that its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        covered[span["parent"]] += span["end"] - span["start"]
    shares = [
        covered[span["id"]] / (span["end"] - span["start"])
        for span in spans
        if span["name"].startswith("cli.") and span["parent"] is None
    ]
    return min(shares) if shares else 0.0


def layer_metrics(setup_spans, round_spans, factor: float) -> dict[str, float]:
    """The per-layer metrics of one traced set-up plus one traced round.

    Times are scaled by the run's speed factor (see probe.py).
    """
    setup = summarize(setup_spans)
    timed = summarize(round_spans)

    def get(name: str, key: str = "s") -> float:
        source = setup if name in SETUP_LAYERS else timed
        value = float(source[name][key]) if name in source else 0.0
        return value * factor if key in ("s", "self_s") else value

    def per_frame(seconds: float, frames: float) -> float:
        return seconds / frames * 1e6 if frames else 0.0

    read_s, frames = get("formats.read_stream"), get("formats.read_stream", "frames")
    metrics = {
        "formats.read_stream.s": read_s,
        "formats.read_stream.us_per_frame": per_frame(read_s, frames),
        "formats.read_stream.frames": frames,
        "formats.read_stream.bytes": get("formats.read_stream", "bytes"),
    }
    events = 0.0
    for variant in ("b1", "b2", "b3"):
        name = f"baselines.run_baseline.{variant}"
        metrics[f"{name}.s"] = get(name)
        metrics[f"baselines.us_per_frame.{variant}"] = per_frame(get(name), get(name, "frames"))
        events += get(name, "events")
    metrics["baselines.events"] = events
    for name, keys in (
        ("model.expected_states", ("s", "calls", "states")),
        ("formats.read_procedure", ("s", "calls")),
        ("formats.read_ground_truth", ("s", "calls")),
        ("metrics.evaluate_recording", ("s", "calls", "failed")),
        ("formats.write_report", ("s",)),
        ("formats.write_ground_truth", ("s",)),
        ("simulate.sample_execution", ("s",)),
        ("simulate.render_stream", ("s",)),
        ("formats.write_stream", ("s", "bytes")),
        ("formats.write_scenario", ("s",)),
    ):
        for key in keys:
            metrics[f"{name}.{key}"] = get(name, key)
    metrics["simulate.render_stream.us_per_frame"] = per_frame(
        get("simulate.render_stream"), get("simulate.render_stream", "frames")
    )
    for command in ("simulate", "run", "eval", "bench"):
        metrics[f"cli.{command}.s"] = get(f"cli.{command}")
        metrics[f"cli.{command}.self_s"] = get(f"cli.{command}", "self_s")
    metrics["cli.coverage_min"] = min(cli_coverage_min(setup_spans), cli_coverage_min(round_spans))
    return metrics
