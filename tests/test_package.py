from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import guardian
from guardian.anomaly import AnomalyScore, DetectionPolicy
from guardian.detector import DetectorConfig, Reconstruction, fit, infer
from guardian.embedder import EmbeddingConfig
from guardian.harness import ExperimentConfig
from guardian.numerics import ParamStore, adam_step
from guardian.pipeline import Decision, PipelineState
from guardian.simulator import AgentSpec, AttackPlan, RemoteAgentConfig, run_episode


def test_every_public_name_resolves():
    modules = [guardian] + [
        importlib.import_module(f"guardian.{info.name}")
        for info in pkgutil.iter_modules(guardian.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names missing attributes {missing}"


def _imported_modules(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_one_module_speaks_http_and_the_package_reexports_nothing():
    package = Path(guardian.__file__).parent
    speakers = []
    for path in sorted(package.glob("*.py")):
        tops = {name.split(".")[0] for name in _imported_modules(ast.parse(path.read_text()))}
        if tops & {"urllib", "http"}:
            speakers.append(path.stem)
    assert speakers == ["remote"]
    # public names are imported from their modules, never from the package
    assert _imported_modules(ast.parse((package / "__init__.py").read_text())) == set()
    assert guardian.__all__ == ["__version__"]


def test_importing_the_cli_loads_no_http_stack():
    # urllib.request and http.client pull in email and ssl: start-up time
    # that only remote runs need
    code = (
        "import sys, guardian.cli; "
        "print(sorted({'http.client', 'urllib.request', 'email', 'ssl'} & set(sys.modules)))"
    )
    src = str(Path(guardian.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def _runner_unloaded_after(code: str) -> bool:
    """Whether a fresh process that runs ``code`` leaves the runner unloaded."""
    code += "; import guardian.numerics as n; print(n._runner is n._UNLOADED)"
    src = str(Path(guardian.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout == "True\n"


def test_importing_the_cli_neither_compiles_nor_loads_the_adam_kernel():
    # the first adam_step or program builds or loads the runner that holds
    # Adam's loop, so set-up pays nothing for it
    assert _runner_unloaded_after("import guardian.cli")


def test_setting_up_a_defended_run_neither_compiles_nor_loads_the_runner():
    # the corpus and a defended pipeline with its detector, what a run sets
    # up before its first episode, never touch the runner, so no change to
    # runner.c moves the time a run takes to set up
    assert _runner_unloaded_after(
        "from guardian import harness as h; cfg = h.ExperimentConfig(seed=7); "
        "h.make_corpus(20, 7); h.build_pipeline(cfg, 7)"
    )


# Every value a caller can set. A new field or parameter is a new option:
# adding one means editing this list, where review sees it.
_SETTABLE = {
    ExperimentConfig: [
        "n_agents", "max_rounds", "min_rounds", "topology", "attack", "trials", "seed",
        "decay", "decay_lambda", "pooling", "variant", "defense", "p_correct", "p_follow",
        "persuasion", "corpus", "n_tasks", "carry_params", "history_window", "k", "d",
        "alpha", "beta", "lambda_", "lr", "epochs_initial", "epochs_incremental", "policy",
        "tau", "timing",
    ],
    DetectorConfig: [
        "k", "d", "alpha", "beta", "lambda_", "lr", "epochs_initial", "epochs_incremental",
        "seed", "variant",
    ],
    DetectionPolicy: ["mode", "tau"],
    EmbeddingConfig: ["dim"],
    AgentSpec: ["id", "p_correct", "p_follow", "role_prompt"],
    AttackPlan: ["kind", "seed", "persuasion"],
    RemoteAgentConfig: ["url", "token", "timeout"],
    adam_step: ["store", "lr"],
    fit: ["batch", "cfg", "params", "rng", "epochs"],
    infer: ["batch", "cfg", "params"],
    run_episode: [
        "task", "specs", "topology_fraction", "plan", "pipeline", "max_rounds", "min_rounds",
        "seed", "remote",
    ],
    PipelineState.__init__: ["self", "det_cfg", "policy", "embed_fn", "seed", "history_window"],
    PipelineState.from_checkpoint: ["path", "policy", "embed_fn", "seed", "history_window"],
    PipelineState.begin_episode: ["self", "index"],
}


def test_settable_surface_is_pinned():
    for owner, expected in _SETTABLE.items():
        if dataclasses.is_dataclass(owner):
            got = [f.name for f in dataclasses.fields(owner)]
        else:
            got = list(inspect.signature(owner).parameters)
        assert got == expected, owner.__qualname__


# ParamStore's public methods, in definition order. Each one is a way to
# read or move the block that fits run on and adam_step updates in place:
# adding one means editing this list, where review sees it.
_PARAM_STORE_METHODS = [
    "names", "value", "grad", "zero_grads", "moments_are_zero", "tail", "permute_rows", "entries",
]


def test_param_store_methods_are_pinned():
    got = [name for name, member in vars(ParamStore).items() if callable(member) and name[0] != "_"]
    assert got == _PARAM_STORE_METHODS


# What each round hands on. A new field is something a later step must read:
# adding one means editing this list, where review sees it.
_ROUND_RESULT_FIELDS = {
    Reconstruction: ["agents", "r_x", "r_e"],
    AnomalyScore: ["agent", "value"],
    Decision: ["round", "removed", "scores", "losses"],
}


def test_round_result_fields_are_pinned():
    for owner, expected in _ROUND_RESULT_FIELDS.items():
        assert [f.name for f in dataclasses.fields(owner)] == expected, owner.__qualname__
