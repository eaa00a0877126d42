from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import guardian
from guardian import cli, harness, pipeline
from guardian.cli import main
from guardian.detector import CHECKPOINT_MAGIC
from guardian.harness import validate_episode_json
from guardian.numerics import NonFiniteError


def _fast_flags(tmp_path, *extra):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_tasks = 2\nepochs_initial = 5\nepochs_incremental = 2\n")
    return ["--config", str(cfg), "--seed", "3", *extra]


def test_cli_simulate_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", *_fast_flags(tmp_path), "--attack", "agent", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "accuracy:" in stdout
    assert (out / "metrics.csv").exists()
    episodes = list((out / "episodes").glob("*.json"))
    assert len(episodes) == 2
    for p in episodes:
        validate_episode_json(json.loads(p.read_text()))
        doc = json.loads(p.read_text())
        assert all(rec["removed"] is None for rec in doc["rounds"])  # no defense


def test_cli_defend_removes_agents(tmp_path):
    out = tmp_path / "run"
    code = main(["defend", *_fast_flags(tmp_path), "--attack", "hallucination", "--out", str(out)])
    assert code == 0
    removed = []
    for p in (out / "episodes").glob("*.json"):
        doc = json.loads(p.read_text())
        removed += [rec["removed"] for rec in doc["rounds"] if rec["removed"] is not None]
    assert removed, "defense should prune at least one agent across episodes"


def test_cli_train_saves_checkpoint(tmp_path):
    out = tmp_path / "model"
    code = main(["train", *_fast_flags(tmp_path), "--out", str(out)])
    assert code == 0
    ckpt = out / "guardian.ckpt"
    assert ckpt.read_text().startswith(CHECKPOINT_MAGIC)


def test_cli_train_unwritable_checkpoint_fails_naming_it(tmp_path, capsys, monkeypatch):
    out = tmp_path / "model"
    ckpt = out / "guardian.ckpt"
    ckpt.mkdir(parents=True)  # a directory where the checkpoint goes
    monkeypatch.setattr(harness, "run_episode", _no_episode)  # checked before any episode
    assert main(["train", *_fast_flags(tmp_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write to {ckpt}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
def test_cli_train_checkpoint_check_leaves_the_checkpoint_alone(tmp_path, monkeypatch, existing):
    out = tmp_path / "model"
    out.mkdir()
    ckpt = out / "guardian.ckpt"
    if existing:
        ckpt.write_text("an older checkpoint\n")
    monkeypatch.setattr(harness, "run_episode", _no_episode)
    with pytest.raises(AssertionError, match="an episode ran"):
        main(["train", *_fast_flags(tmp_path), "--out", str(out)])
    assert sorted(out.iterdir()) == ([ckpt] if existing else [])
    if existing:
        assert ckpt.read_text() == "an older checkpoint\n"


_CLOSED_PORT = "http://127.0.0.1:9/"


@pytest.mark.parametrize(
    "command, variable",
    [
        ("simulate", "GUARDIAN_REMOTE_AGENT_URL"),
        ("defend", "GUARDIAN_EMBEDDER_URL"),
        ("train", "GUARDIAN_EMBEDDER_URL"),
    ],
)
def test_cli_dead_endpoint_exits_2_naming_the_url(tmp_path, capsys, monkeypatch, command, variable):
    monkeypatch.delenv("GUARDIAN_REMOTE_AGENT_URL", raising=False)
    monkeypatch.delenv("GUARDIAN_EMBEDDER_URL", raising=False)
    monkeypatch.setenv(variable, _CLOSED_PORT)
    out = tmp_path / "out"
    assert main([command, *_fast_flags(tmp_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and _CLOSED_PORT in captured.err, captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert list(out.iterdir()) == []


def test_cli_train_ignores_the_attack(tmp_path, monkeypatch):
    # train fits a clean stream whatever --attack or the config file says
    streams = []

    def recording_run_trials(*args, **kwargs):
        logs, state = harness.run_trials(*args, **kwargs)
        streams.append(logs)
        return logs, state

    monkeypatch.setattr(cli, "run_trials", recording_run_trials)
    attacked = tmp_path / "attacked.cfg"
    attacked.write_text("n_tasks = 2\nepochs_initial = 5\nepochs_incremental = 2\nattack = comm\n")
    ckpts = []
    for i, argv in enumerate(
        [
            _fast_flags(tmp_path),
            _fast_flags(tmp_path, "--attack", "agent"),
            ["--config", str(attacked), "--seed", "3"],
        ]
    ):
        out = tmp_path / f"model{i}"
        assert main(["train", *argv, "--out", str(out)]) == 0
        ckpts.append((out / "guardian.ckpt").read_bytes())
    assert ckpts[1] == ckpts[0] and ckpts[2] == ckpts[0]
    for log in streams[1] + streams[2]:
        assert not any(map(any, log.ground_truth.h + log.ground_truth.err))


@pytest.mark.parametrize("trials", ["2", "3"])
def test_cli_train_rejects_trials_other_than_one(tmp_path, capsys, trials):
    out = tmp_path / "model"
    code = main(["train", *_fast_flags(tmp_path), "--trials", trials, "--out", str(out)])
    assert code == 2
    assert "--trials" in capsys.readouterr().err
    assert not (out / "guardian.ckpt").exists()


def test_cli_train_rejects_carry_off(tmp_path, capsys):
    # with carry off the saved detector would be the last episode's alone
    cfg = tmp_path / "carry_off.cfg"
    cfg.write_text("n_tasks = 2\nepochs_initial = 5\nepochs_incremental = 2\ncarry_params = false\n")
    out = tmp_path / "model"
    assert main(["train", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: train fits one stream: carry_params must be true\n"
    assert not (out / "guardian.ckpt").exists()


def test_cli_metrics_recomputes_from_logs(tmp_path, capsys):
    out = tmp_path / "run"
    main(["defend", *_fast_flags(tmp_path), "--attack", "agent", "--out", str(out)])
    capsys.readouterr()
    code = main(
        [
            "metrics",
            *_fast_flags(tmp_path),
            "--logs",
            str(out / "episodes"),
            "--out",
            str(tmp_path / "metrics2"),
        ]
    )
    assert code == 0
    assert "detection_rate:" in capsys.readouterr().out
    assert (tmp_path / "metrics2" / "metrics.csv").exists()


def test_cli_export_json_and_dot(tmp_path, capsys):
    out = tmp_path / "run"
    main(["defend", *_fast_flags(tmp_path), "--attack", "comm", "--min-rounds", "3", "--out", str(out)])
    capsys.readouterr()
    episode = sorted((out / "episodes").glob("*.json"))[0]
    graphs = tmp_path / "graphs"
    assert main(["export", "--episode", str(episode), "--format", "json", "--out", str(graphs)]) == 0
    assert main(["export", "--episode", str(episode), "--format", "dot", "--out", str(graphs)]) == 0
    json_out = graphs / f"{episode.stem}.json"
    dot_out = graphs / f"{episode.stem}.dot"
    doc = json.loads(json_out.read_text())
    assert set(doc) == {"nodes", "edges"}
    assert dot_out.read_text().startswith("digraph guardian {")


def test_cli_export_stdout(tmp_path, capsys):
    out = tmp_path / "run"
    main(["simulate", *_fast_flags(tmp_path), "--out", str(out)])
    capsys.readouterr()
    episode = sorted((out / "episodes").glob("*.json"))[0]
    assert main(["export", "--episode", str(episode)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"nodes", "edges"}


def test_cli_export_refuses_to_overwrite_its_episode(tmp_path, capsys):
    # the default format's target in the episode's own directory is the episode
    episode = _episode_files(tmp_path)[0]
    before = episode.read_bytes()
    capsys.readouterr()
    assert main(["export", "--episode", str(episode), "--out", str(episode.parent)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(episode) in captured.err
    assert episode.read_bytes() == before


def _episode_files(tmp_path):
    out = tmp_path / "run"
    main(["simulate", *_fast_flags(tmp_path), "--out", str(out)])
    return sorted((out / "episodes").glob("*.json"))


def _with_value(text, value, *path):
    doc = json.loads(text)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text[: len(text) // 2],
        lambda text: _with_value(text, 5, "rounds", 0),
        lambda text: _with_value(text, 3, "rounds", 0, "agents"),
        lambda text: _with_value(text, ["1"], "task", "answer_space"),
        None,
    ],
    ids=["truncated", "round is a number", "agents is a number", "one answer", "missing file"],
)
def test_cli_export_malformed_episode_fails_naming_the_file(tmp_path, capsys, corrupt):
    episode = _episode_files(tmp_path)[0]
    if corrupt is None:
        episode.unlink()
    else:
        episode.write_text(corrupt(episode.read_text()))
    capsys.readouterr()
    assert main(["export", "--episode", str(episode)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(episode) in captured.err
    assert captured.out == ""


def _run_in_the_c_locale(code):
    """``code`` run by a fresh interpreter whose locale encoding is ASCII."""
    src = str(Path(guardian.__file__).resolve().parent.parent)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        "LC_ALL": "C",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONUTF8": "0",
    }
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )


def test_episodes_and_checkpoints_are_read_as_utf8_whatever_the_locale(tmp_path):
    episode = _episode_files(tmp_path)[0]
    doc = json.loads(episode.read_text())
    doc["task"]["question"] = "Combien font 2 + 2, café ?"
    episode.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    ckpt = tmp_path / "model.ckpt"
    main(["train", *_fast_flags(tmp_path), "--tasks", "1", "--out", str(tmp_path)])
    (tmp_path / "guardian.ckpt").rename(ckpt)
    header, _, body = ckpt.read_text().partition("\n")
    doc = json.loads(body)
    doc["config"]["variant"] = "tempé"
    ckpt.write_text(header + "\n" + json.dumps(doc, ensure_ascii=False) + "\n", encoding="utf-8")

    exported = _run_in_the_c_locale(
        "import sys; from guardian.cli import main; "
        f"sys.exit(main(['export', '--episode', {str(episode)!r}]))"
    )
    assert exported.returncode == 0, exported.stderr
    assert json.loads(exported.stdout)["nodes"]
    loaded = _run_in_the_c_locale(
        "from guardian.detector import DetectorError, load_checkpoint\n"
        "try:\n"
        f"    load_checkpoint({str(ckpt)!r})\n"
        "except DetectorError as err:\n"
        "    print(ascii(str(err)))\n"
    )
    assert loaded.returncode == 0, loaded.stderr
    # the file decoded, and the config check rejected the value it read
    assert "unknown variant 'temp\\xe9'" in loaded.stdout, loaded.stdout


def test_cli_metrics_malformed_episode_fails_naming_the_file(tmp_path, capsys):
    episodes = _episode_files(tmp_path)
    episodes[-1].write_text(episodes[-1].read_text()[:-10])
    capsys.readouterr()
    code = main(["metrics", *_fast_flags(tmp_path), "--logs", str(episodes[-1].parent)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(episodes[-1]) in err


def test_cli_metrics_given_the_runs_flags_or_config_reproduces_its_csv(tmp_path, capsys):
    # defended: the run's own flags; undefended: its config file, which says so
    defended = ["--attack", "hallucination", "--trials", "2"]
    plain = tmp_path / "plain.cfg"
    plain.write_text("n_tasks = 2\nattack = comm\ndefense = false\n")
    runs = [("defend", _fast_flags(tmp_path, *defended)), ("simulate", ["--config", str(plain)])]
    for run, flags in runs:
        out, again = tmp_path / run, tmp_path / f"{run}-metrics"
        assert main([run, *flags, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["metrics", *flags, "--logs", str(out / "episodes"), "--out", str(again)]) == 0
        episodes = len(list((out / "episodes").glob("*.json")))
        assert capsys.readouterr().out.startswith(
            f"episodes: {episodes} file(s) under {out / 'episodes'}\n"
        )
        assert (again / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes(), run
    assert episodes == 2


def test_cli_metrics_rejects_a_round_numbered_out_of_place(tmp_path, capsys):
    # Round 2 renumbered 5, with a removal: linear decay would weight it
    # (3 - 5 + 1) / 3, a negative weight, and exponential decay as round 5.
    flags = _fast_flags(tmp_path)
    out = tmp_path / "run"
    run = ["defend", *flags, "--attack", "agent", "--rounds", "3", "--min-rounds", "3"]
    assert main([*run, "--out", str(out)]) == 0
    episode = sorted((out / "episodes").glob("*.json"))[0]
    doc = json.loads(episode.read_text())
    doc["rounds"][1].update(t=5, removed=doc["rounds"][1]["agents"][0])
    episode.write_text(json.dumps(doc))
    with open(tmp_path / "exp.cfg", "a") as cfg:
        cfg.write("decay = linear\n")
    capsys.readouterr()
    assert main(["metrics", *flags, "--logs", str(out / "episodes")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {episode}: episode JSON invalid: round 2 has t = 5")
    assert captured.out == ""


def test_cli_bad_corpus_fails_fast(tmp_path, capsys):
    code = main(["simulate", "--corpus", str(tmp_path / "missing.tsv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_config_value_fails_naming_the_line(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# experiment\nn_tasks = 2\nn_agents = abc\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}:3: config key 'n_agents': cannot parse int from 'abc'\n"
    )


# One config line out of its key's range, for every range the config checks.
_OUT_OF_RANGE = {
    "n_agents": "n_agents = 0",
    "alpha": "alpha = 2",
    "history_window": "history_window = 0",
    "n_tasks": "n_tasks = 0",
    "p_correct": "p_correct = 2",
    "k": "k = 0",
    "lr": "lr = -1",
    "epochs_initial": "epochs_initial = -1",
    "decay_lambda": "decay_lambda = -1",
    "min_rounds": "min_rounds = 0",
    "p_follow": "p_follow = -0.5",
    "d": "d = 0",
    "epochs_incremental": "epochs_incremental = -1",
    "persuasion": "attack = comm\npersuasion = -5",
    "tau": "policy = threshold\ntau = -1",
}


@pytest.mark.parametrize("key", _OUT_OF_RANGE)
def test_cli_out_of_range_config_value_fails_naming_the_key(tmp_path, capsys, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"n_tasks = 2\nepochs_initial = 5\nepochs_incremental = 2\n{_OUT_OF_RANGE[key]}\n")
    code = main(["defend", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and key in err and err.count("\n") == 1, err
    assert not (tmp_path / "run").exists()


# Config values that parse as floats but are not finite.
_NON_FINITE = {
    "lr": "lr = inf",
    "lambda": "lambda = inf",
    "beta": "beta = inf",
    "tau": "policy = threshold\ntau = nan",
}


@pytest.mark.parametrize("key", _NON_FINITE)
def test_cli_non_finite_config_value_fails_naming_the_key(tmp_path, capsys, monkeypatch, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"n_tasks = 2\nepochs_initial = 5\nepochs_incremental = 2\n{_NON_FINITE[key]}\n")
    monkeypatch.setattr(harness, "run_episode", _no_episode)
    code = main(["defend", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {key} must be finite") and err.count("\n") == 1, err
    assert not (tmp_path / "run").exists()


def _non_finite_parameter(*args, **kwargs):
    raise NonFiniteError("parameter 'gcn.w0' diverged during adam_step")


@pytest.mark.parametrize("cause", ["loss", "parameter"])
def test_cli_diverged_fit_exits_2_with_a_diagnostic(tmp_path, capsys, monkeypatch, cause):
    cfg = tmp_path / "exp.cfg"
    # lr = 1e300 is finite, so it passes validation, but the loss goes non-finite
    cfg.write_text("n_tasks = 1\nepochs_initial = 5\nepochs_incremental = 2\nlr = 1e300\n")
    if cause == "parameter":
        monkeypatch.setattr(harness, "run_episode", _non_finite_parameter)
    code = main(["defend", "--config", str(cfg), "--seed", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: training diverged") and err.count("\n") == 1, err


def test_cli_k_below_the_hashing_embedders_floor_fails_naming_k(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GUARDIAN_EMBEDDER_URL", raising=False)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_tasks = 2\nepochs_initial = 5\nepochs_incremental = 2\nk = 4\n")
    # simulate never embeds, so k only matters once the detector runs
    assert main(["simulate", "--config", str(cfg), "--seed", "3"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(harness, "run_episode", _no_episode)
    assert main(["defend", "--config", str(cfg), "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: k = 4 ") and err.count("\n") == 1, err


def _no_episode(*args, **kwargs):
    raise AssertionError("an episode ran")


def _out_of_memory(*args, **kwargs):
    raise MemoryError


def test_cli_detector_too_large_for_memory_fails_naming_k_and_d(tmp_path, capsys, monkeypatch):
    # init_params stands in for the allocation that a huge d would fail; nothing large is made
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_tasks = 2\nd = 100000\n")
    monkeypatch.setattr(pipeline, "init_params", _out_of_memory)
    monkeypatch.setattr(harness, "run_episode", _no_episode)
    assert main(["defend", "--config", str(cfg), "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: k = 64 and d = 100000: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "flags, nodes",
    [
        ([], 300_000),
        (["--rounds", "5"], 500_000),
        (["--rounds", "5", "--variant", "static"], 100_000),
    ],
    ids=["three rounds", "five rounds", "static"],
)
def test_cli_too_many_agents_for_memory_fails_naming_n_agents(capsys, monkeypatch, flags, nodes):
    # a failing np.empty stands in for the allocation that 100000 agents
    # would fail; nothing large is made
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if shape == (nodes, nodes):
            raise MemoryError
        return real_empty(shape, *args, **kwargs)

    def spec(*args, **kwargs):
        raise AssertionError("an AgentSpec was built before the memory check")

    monkeypatch.setattr(np, "empty", empty)
    monkeypatch.setattr(harness, "run_episode", _no_episode)
    monkeypatch.setattr(harness, "AgentSpec", spec)
    assert main(["defend", "--tasks", "1", "--agents", "100000", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: n_agents = 100000: not enough memory for the {nodes} x {nodes} ")
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["simulate", "defend", "train", "metrics", "export"])
def test_cli_out_naming_a_file_fails_before_any_episode(tmp_path, capsys, monkeypatch, command):
    episode = _episode_files(tmp_path)[0]
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setattr(harness, "run_episode", _no_episode)
    if command == "export":
        argv = ["export", "--episode", str(episode)]
    elif command == "metrics":
        argv = ["metrics", *_fast_flags(tmp_path), "--logs", str(episode.parent)]
    else:
        argv = [command, *_fast_flags(tmp_path)]
    capsys.readouterr()
    assert main([*argv, "--out", str(blocker)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write to {blocker}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("command", ["simulate", "defend", "metrics", "export"])
def test_cli_write_failure_under_out_fails_naming_the_file(tmp_path, capsys, command):
    episode = _episode_files(tmp_path)[0]
    out = tmp_path / "out"
    if command == "export":
        argv = ["export", "--episode", str(episode)]
        blocker = out / f"{episode.stem}.json"
    elif command == "metrics":
        argv = ["metrics", *_fast_flags(tmp_path), "--logs", str(episode.parent)]
        blocker = out / "metrics.csv"
    else:
        argv = [command, *_fast_flags(tmp_path)]
        blocker = out / "episodes" / episode.name
    blocker.mkdir(parents=True)  # a directory where the file goes
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write to {blocker}: ") and err.count("\n") == 1, err


def test_cli_corpus_line_with_one_answer_fails_naming_the_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("t0\tq\t8|9\t0\nt1\tq\t8\t0\n")
    code = main(["simulate", *_fast_flags(tmp_path), "--corpus", str(corpus)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {corpus}:2: ")


def test_cli_corpus_line_with_no_wrong_answer_fails_naming_the_line(tmp_path, capsys):
    # an attack draws its payload from the wrong answers, so a task needs one
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("t0\tWhat is 4 plus 4?\t8|8|9\t0\nt1\tWhat is 4 plus 4?\t8|8\t0\n")
    code = main(
        ["simulate", *_fast_flags(tmp_path), "--corpus", str(corpus), "--attack", "hallucination"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {corpus}:2: task t1: answer space has no wrong answer\n"


def test_cli_config_file_not_utf8_fails_naming_it(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"n_tasks = 2\n# caf\xff\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot read config {cfg}: ") and err.count("\n") == 1, err
    assert "can't decode byte 0xff" in err
    assert not (tmp_path / "run").exists()


def test_cli_corpus_not_utf8_fails_naming_it(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_bytes(b"t0\tq\xff\t8|9\t0\n")
    code = main(["simulate", *_fast_flags(tmp_path), "--corpus", str(corpus)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot read corpus {corpus}: ") and err.count("\n") == 1, err
    assert "can't decode byte 0xff" in err


def test_cli_flag_overrides_config(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_tasks = 2\nn_agents = 6\nepochs_initial = 4\nepochs_incremental = 2\n")
    main(["simulate", "--config", str(cfg), "--agents", "3", "--seed", "1", "--out", str(out)])
    doc = json.loads(sorted((out / "episodes").glob("*.json"))[0].read_text())
    assert doc["rounds"][0]["agents"] == [0, 1, 2]


class _Captured(Exception):
    pass


# Each common flag that sets a config field: flag, its value, the field, a
# config-file line for that field, and the value the flag must leave.
_FLAGS = [
    (["--seed", "3"], "seed", "seed = 9", 3),
    (["--agents", "3"], "n_agents", "n_agents = 6", 3),
    (["--rounds", "5"], "max_rounds", "max_rounds = 4", 5),
    (["--min-rounds", "2"], "min_rounds", "min_rounds = 1", 2),
    (["--topology", "0.5"], "topology", "topology = 0.75", 0.5),
    (["--attack", "comm"], "attack", "attack = agent", "comm_targeted"),
    (["--variant", "static"], "variant", "variant = temporal", "static"),
    (["--trials", "2"], "trials", "trials = 3", 2),
    (["--tasks", "2"], "n_tasks", "n_tasks = 5", 2),
    (["--corpus", "flag.tsv"], "corpus", "corpus = file.tsv", "flag.tsv"),
    (["--timing"], "timing", "timing = false", True),
]


@pytest.mark.parametrize("flag, field, line, expected", _FLAGS, ids=[f[1] for f in _FLAGS])
def test_cli_flag_lands_in_its_field_over_the_config_file(
    tmp_path, monkeypatch, flag, field, line, expected
):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(line + "\n")
    seen = []

    def capture(cfg, out_dir=None):
        seen.append(cfg)
        raise _Captured

    monkeypatch.setattr(cli, "run_experiment", capture)
    with pytest.raises(_Captured):
        main(["defend", "--config", str(cfg_path), *flag])
    assert getattr(seen[0], field) == expected
    assert seen[0].defense is True
    # without the flag the file's value stands
    with pytest.raises(_Captured):
        main(["defend", "--config", str(cfg_path)])
    assert getattr(seen[1], field) != expected


def test_cli_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])
