"""Reference model for the tests: the episode and graph artifacts as documents.

``guardian.harness`` writes both JSON artifacts straight from the log, with
the keys of each record baked into a template. Here each artifact is first
built as a dict tree, and its text is what ``json.dumps`` makes of the tree;
the DOT export is rendered from the graph document's records. The tests hold
the harness's writers to these, byte for byte.
"""

from __future__ import annotations

import json
from itertools import groupby
from operator import itemgetter

from guardian.simulator import EpisodeLog


def json_text(doc) -> str:
    """The artifact contract: sorted keys, 2-space indent, a final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def episode_doc(log: EpisodeLog) -> dict:
    return {
        "task": {
            "id": log.task.id,
            "question": log.task.question,
            "answer_space": list(log.task.answer_space),
            "correct": log.task.correct,
        },
        "rounds": [
            {
                "t": rec.t,
                "agents": list(rec.agents),
                "responses": list(rec.responses),
                "answers": list(rec.answers),
                "edges": [[src, dst] for src, dst in rec.edges],
                "removed": rec.removed,
                "scores": list(rec.scores) if rec.scores is not None else None,
            }
            for rec in log.rounds
        ],
        "ground_truth": None
        if log.ground_truth is None
        else {
            "h": [list(row) for row in log.ground_truth.h],
            "err": [list(row) for row in log.ground_truth.err],
            "corrupted_edges": [list(e) for e in log.ground_truth.corrupted_edges],
        },
        "final_answer": log.final_answer,
        "api_calls": log.api_calls,
    }


def graph_doc(log: EpisodeLog) -> dict:
    """Nodes in log order; comm edges into each round from the round before,
    and a continuity edge for each agent that stays, sorted."""
    nodes = [
        {
            "round": rec.t,
            "agent": agent,
            "score": None if rec.scores is None else rec.scores[i],
            "removed": agent == rec.removed,
        }
        for rec in log.rounds
        for i, agent in enumerate(rec.agents)
    ]
    corrupted = (
        {tuple(e) for e in log.ground_truth.corrupted_edges} if log.ground_truth else set()
    )
    edges = []
    for prev, cur in zip(log.rounds, log.rounds[1:]):
        for src, dst in cur.edges:
            edges.append(
                {
                    "src_round": prev.t,
                    "src_agent": src,
                    "dst_round": cur.t,
                    "dst_agent": dst,
                    "kind": "comm",
                    "corrupted": (prev.t, src, cur.t, dst) in corrupted,
                }
            )
        for agent in prev.agents:
            if agent in cur.agents:
                edges.append(
                    {
                        "src_round": prev.t,
                        "src_agent": agent,
                        "dst_round": cur.t,
                        "dst_agent": agent,
                        "kind": "continuity",
                        "corrupted": False,
                    }
                )
    edges.sort(key=lambda e: (e["src_round"], e["src_agent"], e["dst_agent"], e["kind"]))
    return {"nodes": nodes, "edges": edges}


def graph_dot(doc: dict) -> str:
    lines = ["digraph guardian {", "  rankdir=LR;"]
    for t, group in groupby(doc["nodes"], key=itemgetter("round")):
        lines.append(f"  subgraph cluster_round_{t} {{")
        lines.append(f'    label="round {t}";')
        for n in group:
            label = f"agent {n['agent']}"
            if n["score"] is not None:
                label += f"\\ns={n['score']:.3f}"
            attrs = [f'label="{label}"']
            if n["removed"]:
                attrs.append("color=red")
                attrs.append("style=dashed")
            lines.append(f'    "r{t}_a{n["agent"]}" [{", ".join(attrs)}];')
        lines.append("  }")
    for e in doc["edges"]:
        attrs = []
        if e["kind"] == "continuity":
            attrs.append("style=dotted")
            attrs.append("arrowhead=none")
        if e["corrupted"]:
            attrs.append("color=red")
            attrs.append('label="corrupted"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(
            f'  "r{e["src_round"]}_a{e["src_agent"]}" -> "r{e["dst_round"]}_a{e["dst_agent"]}"{suffix};'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
