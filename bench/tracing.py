"""Spans and round timings, recorded by wrapping the program's public functions.

Every wrapper is installed at the name where the caller looks the function
up (``pipeline.fit``, not ``detector.fit``, because ``pipeline`` imports
``fit`` by name), and removed again in reverse order. No file of the
program changes.
"""

from __future__ import annotations

import functools
import json
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

from . import stats
from .hostclock import HostClock


class Patches:
    """Attribute replacements that are undone last-in, first-out."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class RoundClock:
    """Duration of each debate round, from outside the simulator.

    A round starts when ``step_round`` is entered and ends when the next
    round's ``step_round`` is entered or the episode returns, so it holds
    the agents' step and, when defended, the pipeline's prune decision.
    The host clock calibrates between rounds, off the clock. A pass's
    rounds are kept as clock intervals until ``close_pass``, which turns
    them into reference seconds, 8 bytes a round, so that the benchmark's
    own memory grows little with the number of passes.
    """

    def __init__(self, host: HostClock) -> None:
        self.host = host
        self.first = array("d")  # reference seconds, round 1 of each episode
        self.later = array("d")  # reference seconds, rounds >= 2
        self._first: list[tuple[float, float]] = []
        self._later: list[tuple[float, float]] = []
        self._marks: list[float] = []

    def close_pass(self) -> None:
        """Convert the pass's intervals; call after the calibration that ends it."""
        for times, intervals in ((self.first, self._first), (self.later, self._later)):
            times.extend(self.host.reference_s(a, b) for a, b in intervals)
            intervals.clear()

    def install(self, patches: Patches, simulator, harness) -> None:
        host = self.host

        def step_factory(original):
            def step_round(*args, **kwargs):
                host.calibrate()
                self._marks.append(host.now())
                return original(*args, **kwargs)

            return step_round

        def episode_factory(original):
            def run_episode(*args, **kwargs):
                self._marks = []
                log = original(*args, **kwargs)
                marks = self._marks + [host.now()]
                self._first.append((marks[0], marks[1]))
                self._later.extend(zip(marks[1:-1], marks[2:]))
                host.calibrate()
                return log

            return run_episode

        patches.replace(simulator, "step_round", step_factory)
        patches.replace(harness, "run_episode", episode_factory)


class Tracer:
    """In-memory spans: name, start, end, parent, a tag and the tensor count.

    ``tensors`` counts ``Tensor2D`` constructions; each span records the
    count at its start and end so that work per span is measured where it
    happens.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.tags: list[object] = []
        self.tensors_at_start: list[int] = []
        self.tensors_at_end: list[int] = []
        self.tensors = 0
        self._stack: list[int] = []

    def span(self, patches: Patches, owner, attr: str, name: str, tag=None) -> None:
        def factory(original):
            def traced(*args, **kwargs):
                idx = len(self.names)
                self.names.append(name)
                self.parents.append(self._stack[-1] if self._stack else -1)
                self.tags.append(tag(*args, **kwargs) if tag else None)
                self.tensors_at_start.append(self.tensors)
                self.ends.append(0)
                self.tensors_at_end.append(0)
                self._stack.append(idx)
                self.starts.append(perf_counter_ns())
                try:
                    return original(*args, **kwargs)
                finally:
                    self.ends[idx] = perf_counter_ns()
                    self.tensors_at_end[idx] = self.tensors
                    self._stack.pop()

            return traced

        patches.replace(owner, attr, factory)

    def count_tensors(self, patches: Patches, tensor_cls) -> None:
        def factory(original):
            def __init__(obj, *args, **kwargs):
                self.tensors += 1
                original(obj, *args, **kwargs)

            return __init__

        patches.replace(tensor_cls, "__init__", factory)

    def install(self, patches: Patches, modules) -> None:
        """Spans at every layer boundary the per-layer metrics need."""
        det, emb, har, num, pip, sim = (
            modules.detector,
            modules.embedder,
            modules.harness,
            modules.numerics,
            modules.pipeline,
            modules.simulator,
        )
        self.count_tensors(patches, num.Tensor2D)
        points = [
            (emb, "embed", "embedder.embed", None),
            (pip, "build_snapshot", "graph.build_snapshot", None),
            (pip, "merge_history", "graph.merge_history", None),
            (det, "normalized_adjacency", "graph.normalized_adjacency", None),
            (pip, "fit", "detector.fit", lambda *a, **k: k["epochs"]),
            (det, "run_forward", "detector.forward", lambda batch, *a, **k: len(batch.snapshots)),
            (det, "gcn_forward", "detector.gcn", None),
            (det, "split_latent", "detector.bottleneck", None),
            (det, "reparameterize", "detector.bottleneck", None),
            (det, "kl_term", "detector.bottleneck", None),
            (det, "temporal_fuse", "detector.temporal_fuse", None),
            (det, "positional_encoding", "detector.positional_encoding", None),
            (det, "decode_attributes", "detector.decoders", None),
            (det, "decode_structure", "detector.decoders", None),
            (pip, "infer", "detector.infer", None),
            (num.Tensor2D, "backward", "numerics.backward", None),
            (num, "adam_step", "numerics.adam_step", None),
            (pip.PipelineState, "ingest_round", "pipeline.ingest_round", None),
            (pip, "score_nodes", "anomaly.score_select_prune", None),
            (pip, "select_anomalies", "anomaly.score_select_prune", None),
            (pip, "prune", "anomaly.score_select_prune", None),
            (sim, "step_round", "simulator.step_round", None),
            (har, "run_episode", "simulator.run_episode", None),
            (har, "episode_to_json", "harness.episode_to_json", None),
            (har, "episode_from_json", "harness.episode_from_json", None),
            (har, "export_episode_graph", "harness.export_graph", None),
            (har, "compute_metrics", "harness.compute_metrics", None),
        ]
        for owner, attr, name, tag in points:
            self.span(patches, owner, attr, name, tag)

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start_ns, end_ns, parent, tag."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.tags):
                fh.write(json.dumps(row) + "\n")


# Per-layer metrics: name -> unit. Times are medians per call (or per the
# group named in the README); counts are totals divided by their base.
LAYER_METRICS = {
    "embedder.embed_us": "us",
    "graph.build_snapshot_us": "us",
    "graph.merge_history_us": "us",
    "graph.normalized_adjacency_calls_per_round": "count",
    "detector.fit_ms": "ms",
    "detector.epochs_per_round": "count",
    "detector.forward_us": "us",
    "detector.gcn_us": "us",
    "detector.bottleneck_us": "us",
    "detector.temporal_fuse_us": "us",
    "detector.positional_encoding_us": "us",
    "detector.decoders_us": "us",
    "detector.forward_self_us": "us",
    "detector.infer_ms": "ms",
    "numerics.backward_us": "us",
    "numerics.adam_step_us": "us",
    "numerics.tensors_per_epoch": "count",
    "pipeline.ingest_round_ms": "ms",
    "pipeline.ingest_round_self_us": "us",
    "anomaly.score_select_prune_us": "us",
    "simulator.step_round_us": "us",
    "simulator.run_episode_self_us": "us",
    "harness.episode_to_json_us": "us",
    "harness.episode_from_json_us": "us",
    "harness.export_graph_us": "us",
    "harness.compute_metrics_ms": "ms",
    "harness.artifact_bytes_per_episode": "bytes",
}


class Spans:
    """Durations, self times and children of a tracer's spans, in nanoseconds."""

    def __init__(self, tr: Tracer) -> None:
        n = len(tr.names)
        self.names = tr.names
        self.tags = tr.tags
        self.dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
        self.children: dict[int, list[int]] = {}
        self._by_name: dict[str, list[int]] = {}
        for i in range(n):
            self._by_name.setdefault(tr.names[i], []).append(i)
            self.children.setdefault(tr.parents[i], []).append(i)
        self.self_ns = [
            self.dur[i] - sum(self.dur[c] for c in self.children.get(i, ())) for i in range(n)
        ]

    def named(self, name: str) -> list[int]:
        return self._by_name.get(name, [])

    def child_total(self, parent: int, name: str) -> int:
        return sum(self.dur[c] for c in self.children.get(parent, ()) if self.names[c] == name)


def _median(values, scale: float) -> float:
    values = list(values)
    return stats.median(values) / scale if values else 0.0


def layer_metrics(tr: Tracer, artifact_bytes_per_episode: float) -> dict[str, float]:
    """Per-layer metrics from the spans. A layer that never ran reads 0."""
    s = Spans(tr)

    def per_call(name: str, scale: float = 1e3) -> float:
        return _median((s.dur[i] for i in s.named(name)), scale)

    def self_time(name: str, scale: float = 1e3) -> float:
        return _median((s.self_ns[i] for i in s.named(name)), scale)

    def per_parent(parent: str, child: str) -> float:
        """Median over `parent` spans of their summed `child` time."""
        return _median((s.child_total(p, child) for p in s.named(parent)), 1e3)

    rounds = len(s.named("pipeline.ingest_round"))
    fits = s.named("detector.fit")
    epochs = sum(tr.tags[i] for i in fits)
    fit_tensors = sum(tr.tensors_at_end[i] - tr.tensors_at_start[i] for i in fits)
    return {
        "embedder.embed_us": per_call("embedder.embed"),
        "graph.build_snapshot_us": self_time("graph.build_snapshot"),
        "graph.merge_history_us": per_call("graph.merge_history"),
        "graph.normalized_adjacency_calls_per_round": (
            len(s.named("graph.normalized_adjacency")) / rounds if rounds else 0.0
        ),
        "detector.fit_ms": per_call("detector.fit", 1e6),
        "detector.epochs_per_round": epochs / rounds if rounds else 0.0,
        "detector.forward_us": per_call("detector.forward"),
        "detector.gcn_us": per_call("detector.gcn"),
        # the forward pass's tag is its snapshot count
        "detector.bottleneck_us": _median(
            (s.child_total(f, "detector.bottleneck") / tr.tags[f] for f in s.named("detector.forward")),
            1e3,
        ),
        "detector.temporal_fuse_us": per_call("detector.temporal_fuse"),
        "detector.positional_encoding_us": per_call("detector.positional_encoding"),
        "detector.decoders_us": per_parent("detector.forward", "detector.decoders"),
        "detector.forward_self_us": self_time("detector.forward"),
        "detector.infer_ms": per_call("detector.infer", 1e6),
        "numerics.backward_us": per_call("numerics.backward"),
        "numerics.adam_step_us": per_call("numerics.adam_step"),
        "numerics.tensors_per_epoch": fit_tensors / epochs if epochs else 0.0,
        "pipeline.ingest_round_ms": per_call("pipeline.ingest_round", 1e6),
        "pipeline.ingest_round_self_us": self_time("pipeline.ingest_round"),
        "anomaly.score_select_prune_us": per_parent(
            "pipeline.ingest_round", "anomaly.score_select_prune"
        ),
        "simulator.step_round_us": per_call("simulator.step_round"),
        "simulator.run_episode_self_us": self_time("simulator.run_episode"),
        "harness.episode_to_json_us": per_call("harness.episode_to_json"),
        "harness.episode_from_json_us": per_call("harness.episode_from_json"),
        "harness.export_graph_us": per_call("harness.export_graph"),
        "harness.compute_metrics_ms": per_call("harness.compute_metrics", 1e6),
        "harness.artifact_bytes_per_episode": artifact_bytes_per_episode,
    }


def stage_table(tr: Tracer, snapshots: int = 3) -> dict[str, float] | None:
    """Median microseconds per stage over forward passes on `snapshots` snapshots.

    The stages of the baseline table in ROADMAP.md, which was taken on the
    criterion-4 fixture: 4 agents, 3 rounds.
    """
    s = Spans(tr)
    forwards = [f for f in s.named("detector.forward") if s.tags[f] == snapshots]
    if not forwards:
        return None
    fuses = [c for f in forwards for c in s.children[f] if s.names[c] == "detector.temporal_fuse"]
    # A fit's children are, per epoch: forward pass, backward sweep, Adam step.
    epochs = [
        kids[i : i + 3]
        for fit in s.named("detector.fit")
        for kids in [s.children.get(fit, [])]
        for i in range(0, len(kids), 3)
        if s.tags[kids[i]] == snapshots
    ]
    return {
        "forward pass": _median((s.dur[f] for f in forwards), 1e3),
        "forward + backward": _median((s.dur[f] + s.dur[b] for f, b, _ in epochs), 1e3),
        "Adam step": _median((s.dur[a] for _, _, a in epochs), 1e3),
        f"GCN ({snapshots} snapshots)": _median(
            (s.child_total(f, "detector.gcn") for f in forwards), 1e3
        ),
        "temporal attention": _median((s.dur[c] for c in fuses), 1e3),
        "positional encodings (inside temporal attention)": _median(
            (s.child_total(c, "detector.positional_encoding") for c in fuses), 1e3
        ),
        "decoders": _median((s.child_total(f, "detector.decoders") for f in forwards), 1e3),
        "forward passes measured": float(len(forwards)),
    }
