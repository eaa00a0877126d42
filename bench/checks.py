"""Correctness checks, computed apart from the program.

Each check returns a list of problems; an empty list means it passed.
Scores are recomputed by a plain-numpy forward pass written here from the
method's definition, and decisions are checked against the properties the
method must have, not against the program's own helpers.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

SCORE_TOLERANCE = 1e-9
DETECTION_RATE_MIN = 0.80  # criterion 5's bars
FDR_MAX = 0.20
GATED_ATTACKS = ("hallucination", "agent_targeted")


class ScoreCapture:
    """Keeps the batch and a copy of the parameters of every inference."""

    def __init__(self) -> None:
        self.rounds: list[tuple[object, dict, int, float]] = []

    def install(self, patches, pipeline_module) -> None:
        def factory(original):
            def infer(batch, cfg, params):
                result = original(batch, cfg, params)
                values = {name: value.copy() for name, value in params.entries()}
                self.rounds.append((batch, values, cfg.d, cfg.alpha))
                return result

            return infer

        patches.replace(pipeline_module, "infer", factory)


def _sinusoidal(rounds: list[int], d: int) -> np.ndarray:
    j = np.arange(d)
    angle = np.asarray(rounds, dtype=np.float64)[:, None] / 10000.0 ** (2 * (j // 2) / d)
    return np.where(j % 2 == 0, np.sin(angle), np.cos(angle))


def reference_scores(snapshots, params: dict, d: int, alpha: float) -> np.ndarray:
    """Anomaly scores of the last snapshot's agents, without sampling.

    GCN mean -> attention over each agent's rounds with sinusoidal
    encodings -> attribute and structure decoders ->
    alpha * ||r_x|| + (1 - alpha) * ||r_e|| per agent.
    """
    means = []
    for snap in snapshots:
        n = len(snap.agents)
        a_hat = ((snap.adjacency | snap.adjacency.T) | np.eye(n, dtype=bool)).astype(float)
        d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
        norm = a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
        h1 = np.maximum(norm @ snap.features.data @ params["gcn.w0"], 0.0)
        means.append((norm @ h1 @ params["gcn.w1"])[:, :d])

    final = snapshots[-1]
    fused = []
    for agent in final.agents:
        present = [ti for ti, s in enumerate(snapshots) if agent in s.agents]
        seq = np.stack([means[ti][snapshots[ti].agents.index(agent)] for ti in present])
        seq = seq + _sinusoidal([snapshots[ti].round for ti in present], d)
        q, k, v = seq @ params["attn.wq"], seq @ params["attn.wk"], seq @ params["attn.wv"]
        logits = q[-1] @ k.T / math.sqrt(d)
        w = np.exp(logits - logits.max())
        fused.append((w / w.sum()) @ v)
    z = np.stack(fused)

    hidden = np.maximum(z @ params["dec.w0"] + params["dec.b0"], 0.0)
    x_hat = hidden @ params["dec.w1"] + params["dec.b1"]
    edge_probs = 1.0 / (1.0 + np.exp(-(z @ z.T)))
    n = len(final.agents)
    target = ((final.adjacency | final.adjacency.T) | np.eye(n, dtype=bool)).astype(float)
    r_x = final.features.data - x_hat
    r_e = target - edge_probs
    return alpha * np.linalg.norm(r_x, axis=1) + (1.0 - alpha) * np.linalg.norm(r_e, axis=1)


def check_scores(captured: list, logs: list) -> list[str]:
    """Recorded scores of every captured round equal the reference within tolerance."""
    records = [(log.task.id, rec) for log in logs for rec in log.rounds]
    if len(records) != len(captured):
        return [f"{len(captured)} inferences captured for {len(records)} rounds"]
    problems = []
    for (batch, params, d, alpha), (task_id, rec) in zip(captured, records):
        final = batch.snapshots[-1]
        where = f"{task_id} round {rec.t}"
        if final.round != rec.t or list(final.agents) != list(rec.agents):
            problems.append(f"{where}: inference was on round {final.round} {final.agents}")
            continue
        with np.errstate(over="ignore"):
            expected = reference_scores(batch.snapshots, params, d, alpha)
        worst = float(np.max(np.abs(expected - np.asarray(rec.scores))))
        if not worst <= SCORE_TOLERANCE:
            problems.append(f"{where}: scores differ from the reference by {worst:.3g}")
    return problems


def check_decisions(logs: list) -> list[str]:
    """Pruning invariants of the top1_on_no_consensus policy, per episode."""
    problems = []
    for log in logs:
        removed: set[int] = set()
        calls = 0
        for i, rec in enumerate(log.rounds):
            where = f"{log.task.id} round {rec.t}"
            calls += len(rec.agents)
            if removed & set(rec.agents):
                problems.append(f"{where}: removed agents {sorted(removed & set(rec.agents))} reappear")
            if rec.scores is None or len(rec.scores) != len(rec.agents):
                problems.append(f"{where}: no score per agent")
                continue
            consensus = len(set(rec.answers)) == 1
            if consensus and rec.removed is not None:
                problems.append(f"{where}: agent {rec.removed} removed although consensus was reached")
            if not consensus and rec.removed is None:
                problems.append(f"{where}: no removal without consensus")
            if rec.removed is not None:
                top = max(zip(rec.scores, (-a for a in rec.agents)))
                if rec.removed != -top[1]:
                    problems.append(f"{where}: removed {rec.removed}, top score is agent {-top[1]}")
                removed.add(rec.removed)
            if i + 1 < len(log.rounds):
                survivors = [a for a in rec.agents if a != rec.removed]
                if log.rounds[i + 1].agents != survivors:
                    problems.append(
                        f"{where}: next round has {log.rounds[i + 1].agents}, expected {survivors}"
                    )
        if calls != log.api_calls:
            problems.append(f"{log.task.id}: api_calls {log.api_calls} != {calls} active agent-rounds")
    return problems


def detection_rates(logs: list) -> tuple[float | None, float]:
    """Pooled, 0.5^(t-1)-weighted detection rate and false discovery rate."""
    num = den = 0.0
    hits = removals = 0
    for log in logs:
        gt = log.ground_truth
        for r_idx, rec in enumerate(log.rounds):
            if rec.removed is None:
                continue
            idx = rec.agents.index(rec.removed)
            hit = gt.h[r_idx][idx] or gt.err[r_idx][idx]
            weight = 0.5 ** (rec.t - 1)
            num += weight * hit
            den += weight
            hits += hit
            removals += 1
    rate = num / den if den else None
    return rate, (removals - hits) / removals if removals else 0.0


def check_detection(attack: str, logs: list) -> list[str]:
    rate, fdr = detection_rates(logs)
    if rate is None or rate < DETECTION_RATE_MIN or fdr > FDR_MAX:
        return [f"{attack}: detection rate {rate}, FDR {fdr:.3f} miss the bars"]
    return []


_DOT_NODE = re.compile(r'^\s+"r\d+_a\d+" \[')
_DOT_EDGE = re.compile(r'^\s+"r\d+_a\d+" -> "r\d+_a\d+"(.*);$')


def check_replay(run, to_json) -> list[str]:
    """Round trip, recomputed metrics, label monotonicity and export counts."""
    problems = []
    if len(run.texts) != len(run.logs):
        return [f"{run.cfg.attack}: {len(run.texts)} episode texts for {len(run.logs)} episodes"]
    if run.recomputed != run.report:
        problems.append(f"{run.cfg.attack}: recomputed {run.recomputed} != in-memory {run.report}")
    for log, text, read, (as_json, as_dot) in zip(run.logs, run.texts, run.read_logs, run.exports):
        where = f"{run.cfg.attack} {log.task.id}"
        if read.task.id != log.task.id:
            problems.append(f"{where}: read back {read.task.id}")
        if to_json(read) != text:
            problems.append(f"{where}: episode JSON does not round-trip")
        for series in (log.ground_truth.h, log.ground_truth.err):
            counts = [sum(row) for row in series]
            if counts != sorted(counts):
                problems.append(f"{where}: label counts {counts} decrease")
        nodes = sum(len(rec.agents) for rec in log.rounds)
        comm = sum(len(rec.edges) for rec in log.rounds)
        doc = json.loads(as_json)
        got_json = (len(doc["nodes"]), sum(e["kind"] == "comm" for e in doc["edges"]))
        lines = as_dot.splitlines()
        dot_edges = [m.group(1) for m in map(_DOT_EDGE.match, lines) if m]
        got_dot = (
            sum(bool(_DOT_NODE.match(line)) for line in lines),
            sum("arrowhead=none" not in attrs for attrs in dot_edges),
        )
        for form, got in (("json", got_json), ("dot", got_dot)):
            if got != (nodes, comm):
                problems.append(f"{where}: {form} export has {got} nodes/comm edges, log has {(nodes, comm)}")
    return problems
