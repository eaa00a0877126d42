"""Benchmark of the detect-and-prune loop, one workload per process.

    python3 bench/run.py --workload defend_c5 --seed 7 --seconds 35 --trace 0

Runs whole passes of the workload for about --seconds, checks the outputs,
and prints every metric by name and unit. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the layer
functions are wrapped in spans and the metrics are the per-layer ones.
Exits 1 when a check fails. See bench/README.md.
"""

import os

# One thread per process, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import checks, stats, workloads  # noqa: E402
from bench.hostclock import HostClock  # noqa: E402
from bench.tracing import (  # noqa: E402
    LAYER_METRICS,
    Patches,
    RoundClock,
    Tracer,
    layer_metrics,
    stage_table,
)
E2E_METRICS = workloads.E2E_METRICS
SETUP_PROBES = 9
OUT_DIR = ROOT / ".bench_out"


def probe_setup(workload: str, seed: int) -> float:
    """Wall seconds from starting a fresh process to the end of its set-up.

    Not in reference seconds: calibrations taken beside the probes, in this
    process or in the probe's, tracked set-up time worse than none (README).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
    cmd += ["--seed", str(seed), "--setup-probe"]
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        proc.wait(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def measure(m, workload: str, cfgs: list, seconds: float, trace: bool) -> dict:
    """Warm up, then run whole passes while the next one is expected to end
    within `seconds` of wall time, calibrations included.

    Untraced runs calibrate the host clock between rounds and episodes;
    traced runs do not, so that no span holds a calibration.
    """
    defended = cfgs[0].defense
    workloads.warm_up(m, workload, cfgs)
    host = HostClock(enabled=not trace)
    patches = Patches()
    clock = RoundClock(host)
    clock.install(patches, m.simulator, m.harness)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(patches, m)
    capture = checks.ScoreCapture()
    passes = []
    spans = []  # host clock interval of each pass
    timed = 0.0
    loop_started = time.perf_counter()
    try:
        while True:
            capture_patches = Patches()
            if defended and not passes:
                capture.install(capture_patches, m.pipeline)
            host.calibrate(force=True)
            started = host.now()
            try:
                passes.append(
                    workloads.run_pass(m, workload, cfgs, keep=not passes, tick=host.calibrate)
                )
            finally:
                spans.append((started, host.now()))
                timed += spans[-1][1] - started
                capture_patches.restore()
            host.calibrate(force=True)
            clock.close_pass()
            elapsed = time.perf_counter() - loop_started
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    finally:
        patches.restore()
    return {
        "measured_s": timed,
        "spans": spans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "clock": clock,
        "host": host,
        "tracer": tracer,
        "captured": capture.rounds,
    }


def run_checks(m, workload: str, run: dict) -> list[tuple[str, list[str]]]:
    passes = run["passes"]
    first = passes[0]
    results = [
        (
            "determinism",
            [
                f"pass {i + 1} digest {p.digest} != {first.digest}"
                for i, p in enumerate(passes)
                if p.digest != first.digest
            ],
        )
    ]
    if workload == "replay":
        for r in first.runs:
            results.append((f"replay_{r.cfg.attack}", checks.check_replay(r, m.harness.episode_to_json)))
        return results
    results.append(("reference_scores", checks.check_scores(run["captured"], first.logs)))
    results.append(("decisions", checks.check_decisions(first.logs)))
    if workload == "defend_c5":
        for cfg, run_logs in first.runs:
            if cfg.attack in checks.GATED_ATTACKS:
                results.append((f"detection_{cfg.attack}", checks.check_detection(cfg.attack, run_logs)))
    return results


def end_to_end(run: dict, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics, every time but set-up in reference seconds (see hostclock).

    Throughput is the median over passes of the pass's episodes per
    reference second; round latencies are medians over all rounds of a kind.
    """
    passes = run["passes"]
    logs = passes[0].logs
    clock = run["clock"]
    host = run["host"]
    rates = [p.episodes / host.reference_s(a, b) for p, (a, b) in zip(passes, run["spans"])]
    return {
        "episodes_per_s": stats.median(rates),
        "first_round_ms_p50": stats.median(clock.first) * 1e3,
        "round_ms_p50": stats.median(clock.later) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": run["peak_rss_mb"],
        "api_calls_per_episode": sum(log.api_calls for log in logs) / len(logs),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    m, cfgs = workloads.setup(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    source = Path(m.harness.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise RuntimeError(f"guardian was imported from {source}, not from {ROOT / 'src'}")

    setup_s = stats.median([probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)])
    run = measure(m, args.workload, cfgs, args.seconds, bool(args.trace))
    results = run_checks(m, args.workload, run)

    passes = run["passes"]
    episodes = sum(p.episodes for p in passes)
    e2e = end_to_end(run, setup_s)
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
        f"{episodes} episodes attempted, 0 failed, {run['measured_s']:.2f} s measured"
    )
    for name, unit in E2E_METRICS.items():
        print(f"  {name:24s} {e2e[name]:.6g} {unit}")
    clock = run["clock"]
    host = run["host"]
    print(f"  wall clock, not adjusted: episodes_per_s {episodes / run['measured_s']:.6g} 1/s")
    if host.speeds:
        print(f"  host speed: mean {host.mean_speed():.4g} over {len(host.speeds)} calibrations")
    for name, seconds in (("first_round_ms", clock.first), ("round_ms", clock.later)):
        t = stats.tail(seconds)
        shown = "none (fewer than 40 samples)" if t is None else f"p{t[0]:g} = {t[1] * 1e3:.6g} ms"
        print(f"  {name} tail: {shown}, n = {len(seconds)}")
    if cfgs[0].defense:
        print(f"  decision digest {passes[0].digest}")
    for name, problems in results:
        print(f"  check {name}: {'ok' if not problems else 'FAILED'}")
        for problem in problems[:10]:
            print(f"    {problem}")
    correct = all(not problems for _, problems in results)

    if args.trace:
        tracer = run["tracer"]
        tracer.write(OUT_DIR / f"trace-{args.workload}.jsonl")
        first = passes[0]
        per_layer = layer_metrics(tracer, first.artifact_bytes / first.episodes)
        table = stage_table(tracer)
        if table:
            print("  stage table (forward passes on 3 snapshots), us:")
            for stage, value in table.items():
                print(f"    {stage:50s} {value:.6g}")
        for name, unit in LAYER_METRICS.items():
            print(f"  {name:44s} {per_layer[name]:.6g} {unit}")
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_METRICS.items()}

    print(json.dumps({"correct": correct, "attempted": episodes, "failed": 0, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
