"""Command-line front end.

Commands:
  simulate   run episodes with no defense attached
  defend     run episodes with the detect-and-prune pipeline
  train      pre-fit the detector on a clean stream, save a checkpoint
  metrics    recompute a metrics report from exported episode JSONs
  export     convert an episode JSON into a graph export (json or dot)

Flags override config-file values; config-file keys mirror the
ExperimentConfig field names.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
from pathlib import Path

from .detector import TrainingDiverged
from .embedder import EmbeddingError
from .harness import (
    ExperimentConfig,
    HarnessError,
    compute_metrics,
    episode_from_json,
    export_episode_graph,
    metrics_csv,
    parse_config_file,
    run_experiment,
    run_trials,
    write_artifact,
)
from .numerics import NonFiniteError
from .simulator import EpisodeLog, RemoteAgentError

__all__ = ["main"]

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--agents", type=int, default=None, dest="n_agents")
    p.add_argument("--rounds", type=int, default=None, dest="max_rounds")
    p.add_argument("--min-rounds", type=int, default=None, dest="min_rounds")
    p.add_argument("--topology", type=float, default=None, choices=[0.25, 0.5, 0.75, 1.0])
    p.add_argument(
        "--attack", default=None, choices=["none", "hallucination", "agent", "comm"]
    )
    p.add_argument("--variant", default=None, choices=["temporal", "static"])
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--tasks", type=int, default=None, dest="n_tasks")
    p.add_argument("--corpus", default=None, help="TSV task corpus path")
    p.add_argument("--timing", action="store_const", const=True, default=None)
    p.add_argument("--out", type=Path, default=None, help="artifact output directory")


def _config_from_args(args: argparse.Namespace, **settings) -> ExperimentConfig:
    """Config file, then every flag given whose dest is a config field, then
    `settings`, each over the one before."""
    file_kv = parse_config_file(args.config) if args.config else None
    flags = {key: value for key, value in vars(args).items() if key in _CONFIG_FIELDS}
    return ExperimentConfig.from_sources(file_kv, **{**flags, **settings})


def _make_out_dir(out: Path | None) -> None:
    """Create the output directory up front, so an unusable path fails before any work."""
    if out is None:
        return
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise HarnessError(f"cannot write to {out}: {err}") from err


def _report_lines(episodes: str, report) -> str:
    def show(v):
        return "n/a" if v is None else f"{v:.4f}"

    return (
        f"episodes: {episodes}\n"
        f"accuracy:        {show(report.accuracy)}\n"
        f"detection_rate:  {show(report.detection_rate)}\n"
        f"fdr:             {show(report.fdr)}\n"
        f"api_calls_mean:  {show(report.api_calls_mean)}\n"
        f"runtime_seconds: {report.runtime_seconds:.3f}\n"
    )


def _cmd_run(args: argparse.Namespace, defense: bool) -> int:
    cfg = _config_from_args(args, defense=defense)
    _make_out_dir(args.out)
    report, _ = run_experiment(cfg, out_dir=args.out)
    sys.stdout.write(_report_lines(f"{cfg.trials} trial(s) x corpus", report))
    if args.out:
        sys.stdout.write(f"artifacts written to {args.out}\n")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args, defense=True, attack="none")
    if cfg.trials != 1:
        raise HarnessError(f"train fits one stream: --trials must be 1, got {cfg.trials}")
    if not cfg.carry_params:
        raise HarnessError("train fits one stream: carry_params must be true")
    out = args.out or Path(".")
    _make_out_dir(out)
    ckpt = out / "guardian.ckpt"
    try:  # fail before training if the checkpoint could not be written; create, truncate nothing
        if ckpt.exists():
            os.close(os.open(ckpt, os.O_WRONLY | os.O_APPEND))
        else:
            tempfile.TemporaryFile(dir=out).close()
    except OSError as err:
        raise HarnessError(f"cannot write to {ckpt}: {err}") from err
    logs, state = run_trials(cfg)
    try:
        state.save(ckpt)
    except OSError as err:
        raise HarnessError(f"cannot write to {ckpt}: {err}") from err
    sys.stdout.write(f"trained on {len(logs)} clean episode(s); checkpoint: {ckpt}\n")
    return 0


def _read_episode(path: Path) -> EpisodeLog:
    """One episode JSON file; every way it can be unusable is a HarnessError naming it."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise HarnessError(f"cannot read episode {path}: {err}") from err
    try:
        return episode_from_json(text)
    except HarnessError as err:
        raise HarnessError(f"{path}: {err}") from err


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Score the episode files under ``--logs``. The metrics CSV's
    ``config_hash`` and ``trials`` are those of the config given here, so
    the run's own flags or config file reproduce its row."""
    cfg = _config_from_args(args)
    _make_out_dir(args.out)
    logs_dir = Path(args.logs)
    paths = sorted(logs_dir.glob("*.json"))
    if not paths:
        raise HarnessError(f"no episode JSON files under {logs_dir}")
    logs = [_read_episode(p) for p in paths]
    report = compute_metrics(
        logs, decay=cfg.decay, decay_lambda=cfg.decay_lambda, pooling=cfg.pooling
    )
    sys.stdout.write(_report_lines(f"{len(logs)} file(s) under {logs_dir}", report))
    if args.out:
        write_artifact(args.out / "metrics.csv", metrics_csv(cfg, report))
        sys.stdout.write(f"metrics written to {args.out / 'metrics.csv'}\n")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    episode = Path(args.episode)
    target = args.out and args.out / f"{episode.stem}.{args.format}"
    if target and target.resolve() == episode.resolve():
        raise HarnessError(f"export to {target} would overwrite the episode it reads")
    log = _read_episode(episode)
    rendered = export_episode_graph(log, fmt=args.format)
    if target:
        _make_out_dir(args.out)
        write_artifact(target, rendered)
        sys.stdout.write(f"graph written to {target}\n")
    else:
        sys.stdout.write(rendered)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="guardian", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (
        ("simulate", "run episodes without a defense"),
        ("defend", "run episodes with detection and pruning"),
        ("train", "pre-fit the detector on a clean stream"),
    ):
        p = sub.add_parser(name, help=help_)
        _add_common(p)

    p_metrics = sub.add_parser("metrics", help="recompute metrics from episode logs")
    _add_common(p_metrics)
    p_metrics.add_argument("--logs", required=True, help="directory of episode JSON files")

    p_export = sub.add_parser("export", help="episode JSON -> graph export")
    p_export.add_argument("--episode", required=True, help="episode JSON file")
    p_export.add_argument("--format", default="json", choices=["json", "dot"])
    p_export.add_argument("--out", type=Path, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_run(args, defense=False)
        if args.command == "defend":
            return _cmd_run(args, defense=True)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "export":
            return _cmd_export(args)
    except (HarnessError, EmbeddingError, RemoteAgentError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except (TrainingDiverged, NonFiniteError) as err:
        # TrainingDiverged's own message starts with "training diverged"
        message = err if isinstance(err, TrainingDiverged) else f"training diverged: {err}"
        sys.stderr.write(f"error: {message}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
