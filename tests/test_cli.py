from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import re
from pathlib import Path

import pytest

from flowseq import cli
from flowseq.cli import run_cli
from flowseq.config import ParseError, RunConfig, load_config, read_config
from flowseq.core import TaskKind, decode
from flowseq.env import TaskConfig, build_vocab, enumerate_terminals, read_problems
from flowseq.policy import load_policy, terminal_distribution

PIPELINE_CONFIG = """\
method = gflownet
seed = 0

[task]
kind = sumpath
value_lo = 2
value_hi = 3
max_parts = 2
max_part = 2
reward_mode = terminal

[policy]
kind = tabular
window = 5

[data]
n_problems = 3

[train]
steps = 60
batch_size = 8
samples_per_problem = 4
sft_coeff = 0.0
lr = 0.05
temperature = 1.0
top_p = 1.0

[eval]
k = 4
temperature = 1.0
top_p = 1.0
"""

PIPELINE_FILES = [
    "problems.jsonl",
    "policy.bin",
    "train_report.csv",
    "eval_aggregate.json",
    "eval_rows.csv",
    "enumeration.csv",
    "enumeration.json",
]


def write_config(tmp_path: Path, text: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def run_pipeline(cfg_path: str, out: Path) -> None:
    for command in ("gen-data", "train", "eval", "enumerate"):
        code = run_cli([command, "--config", cfg_path, "--out", str(out)])
        assert code == 0, command


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[task]\nbogus = 1\n")
    assert run_cli(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_the_removed_stop_placement_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[train]\nstop_placement = printed\n")
    assert run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown key: train.stop_placement" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "enumerate", "compare"])
def test_the_removed_workers_flag_exits_2_naming_it(tmp_path, capsys, command):
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    out = tmp_path / "o"
    assert run_cli([command, "--config", cfg, "--workers", "2", "--out", str(out)]) == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_section_exits_2(tmp_path):
    cfg = write_config(tmp_path, "[nope]\nkind = sumpath\n")
    assert run_cli(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("text, want", [
    ("[nope]\nkind = sumpath\n", "line 1: unknown key: [nope]"),
    ("[train]\nlr = 0.1\nbogus = 1\n", "line 3: unknown key: train.bogus"),
])
def test_an_unknown_section_or_key_exits_2_naming_its_line(tmp_path, capsys, text, want):
    cfg = write_config(tmp_path, text)
    assert run_cli(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert want in capsys.readouterr().err


def test_a_blank_section_header_exits_2(tmp_path, capsys):
    # "[ ]" names no section: it must not switch back to the top-level keys
    cfg = write_config(tmp_path, "[train]\nlr = 0.1\n[ ]\nseed = 5\n")
    assert run_cli(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "line 3: malformed section header: [ ]" in capsys.readouterr().err


def test_range_violation_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[train]\nlr = -0.5\n")
    assert run_cli(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "lr" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["lr", "critic_lr", "dpo_beta", "kl_beta"])
def test_infinite_value_exits_2_naming_key(tmp_path, capsys, key):
    # rejected at parse time, before train looks for its (absent) problems file
    cfg = write_config(tmp_path, f"[train]\n{key} = inf\n")
    assert run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"train.{key}:" in capsys.readouterr().err


# one value per key that the key's rule or type rejects; a new key without one fails the test below
BAD_VALUES = {
    "method": "bogus", "seed": "-3", "out": "",
    "task.kind": "tree", "task.value_lo": "0", "task.value_hi": "0", "task.max_parts": "1",
    "task.max_part": "0", "task.reward_floor": "0.5", "task.reward_mode": "dense",
    "policy.kind": "forest", "policy.window": "0", "policy.embed_dim": "0", "policy.hidden_dim": "0",
    "data.n_problems": "0", "data.problems": "", "data.checkpoint": "",
    "train.steps": "-1", "train.batch_size": "0", "train.samples_per_problem": "0", "train.sft_coeff": "nan",
    "train.subtb_lambda": "0", "train.horizon_coeff": "inf", "train.lr": "-0.5", "train.replay": "0",
    "train.temperature": "0", "train.top_p": "1.5", "train.max_new_tokens": "-1", "train.epochs": "0",
    "train.sft_init_epochs": "-1", "train.rft_k": "0",
    "train.dpo_beta": "inf", "train.dpo_samples": "1", "train.ppo_clip": "1", "train.kl_beta": "-1",
    "train.gamma": "0", "train.gae_lambda": "1.5", "train.trajs_per_step": "0", "train.critic_lr": "0",
    "train.diag_every": "-1",
    "eval.k": "0", "eval.temperature": "nan", "eval.top_p": "0", "eval.prepend_greedy": "maybe",
}


def dotted_keys(tree: dict, prefix: str = "") -> list[str]:
    return [k for name, v in tree.items()
            for k in (dotted_keys(v, f"{prefix}{name}.") if isinstance(v, dict) else [prefix + name])]


def config_line(key: str, value: str) -> str:
    section, _, name = key.rpartition(".")
    return f"[{section}]\n{name} = {value}\n" if section else f"{name} = {value}\n"


@pytest.mark.parametrize("key", dotted_keys(RunConfig().to_dict()))
def test_a_bad_value_of_every_key_exits_2_naming_it(tmp_path, capsys, key):
    # train would exit 1 for want of a problems file if the value got through
    cfg = write_config(tmp_path, config_line(key, BAD_VALUES[key]))
    assert run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"{key}:" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ("value_lo = 10\n", "task.value_lo"),  # above the default value_hi of 9
    ("value_lo = 5\nvalue_hi = 4\n", "task.value_lo"),
    ("max_part = 10\n", "task.max_part"),  # a SUMPATH part above value_hi
    ("kind = arith\nmax_part = 0\n", "task.max_part"),
])
def test_a_cross_key_range_error_names_the_key(tmp_path, capsys, text, key):
    cfg = write_config(tmp_path, "[task]\n" + text)
    assert run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {key}:" in capsys.readouterr().err


def test_an_arith_config_with_max_parts_1_is_accepted(tmp_path):
    cfg = write_config(tmp_path, "[task]\nkind = arith\nmax_parts = 1\n[data]\nn_problems = 2\n")
    assert run_cli(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    vocab = build_vocab(TaskConfig(task_kind=TaskKind.ARITH))
    assert len(read_problems(tmp_path / "o" / "problems.jsonl", vocab)) == 2


def test_every_parse_error_is_reported_before_any_range_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[train]\nlr = -1\nsteps = many\n")
    assert run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "line 3: train.steps:" in capsys.readouterr().err


def test_a_negative_seed_flag_exits_2_naming_the_seed(tmp_path, capsys):
    assert run_cli(["gen-data", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    assert "config error: seed: must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_warm_start_error_names_sft_init_epochs(tmp_path, capsys):
    cfg = write_config(tmp_path, "method = sft\n[train]\nsft_init_epochs = -2\n")
    assert run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "train.sft_init_epochs: epochs must be at least 1, got -2" in capsys.readouterr().err


# RunConfig().to_dict() as the config file layout has always been: every section, key and default
LAYOUT = {
    "method": "gflownet", "seed": 0, "out": "out",
    "task": {"kind": "SUMPATH", "value_lo": 2, "value_hi": 9, "max_parts": 4, "max_part": 3,
             "reward_floor": 0.0001, "reward_mode": "SHAPED"},
    "policy": {"kind": "TABULAR", "window": 3, "embed_dim": 16, "hidden_dim": 64},
    "data": {"n_problems": 50, "problems": "problems.jsonl", "checkpoint": "policy.bin"},
    "train": {"steps": 200, "batch_size": 16, "samples_per_problem": 8, "sft_coeff": 30.0, "subtb_lambda": 1.0,
              "horizon_coeff": 1.0, "lr": 0.001, "replay": 1000, "temperature": 0.6, "top_p": 0.9,
              "max_new_tokens": 0, "epochs": 1, "sft_init_epochs": 0,
              "rft_k": 4, "dpo_beta": 0.01, "dpo_samples": 8, "ppo_clip": 0.2, "kl_beta": 0.1, "gamma": 1.0,
              "gae_lambda": 0.95, "trajs_per_step": 8, "critic_lr": 0.003, "diag_every": 0},
    "eval": {"k": 8, "temperature": 0.6, "top_p": 0.9, "prepend_greedy": False},
}


def test_config_layout_and_defaults_are_pinned():
    assert RunConfig().to_dict() == LAYOUT
    assert dotted_keys(LAYOUT) == list(BAD_VALUES)


def test_readme_config_reference_lists_every_key():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    reference = text.split("## Config reference", 1)[1].split("\n## ", 1)[0]
    top = re.search(r"Top level: (.*)\.", reference).group(1)
    listed = {"": re.findall(r"`(\w+)`", top)}
    for section, keys in re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", reference, flags=re.M):
        listed[section] = re.findall(r"`(\w+)`", keys)
    want = {"": [k for k, v in LAYOUT.items() if not isinstance(v, dict)]}
    want.update({k: list(v) for k, v in LAYOUT.items() if isinstance(v, dict)})
    assert listed == want


def test_parse_error_reports_line(tmp_path, capsys):
    cfg = write_config(tmp_path, "method = gflownet\nnot a key value line\n")
    assert run_cli(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "2" in capsys.readouterr().err  # the offending line number


def test_key_set_twice_exits_2_naming_both_lines(tmp_path, capsys):
    # the second value would otherwise win silently
    cfg = write_config(tmp_path, "[train]\nlr = 0.1\n\n[eval]\nk = 4\n[train]\nlr = 0.2\n")
    assert run_cli(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line 7" in err and "train.lr" in err and "line 2" in err
    with pytest.raises(ParseError, match=r"line 7: train\.lr .*line 2"):
        read_config(cfg)
    # the same key in another section is a different key
    read_config(write_config(tmp_path, "[train]\ntemperature = 0.5\n[eval]\ntemperature = 0.7\n"))


def test_bad_log_env_exits_2(tmp_path, monkeypatch):
    monkeypatch.setenv("FLOWSEQ_LOG", "chatty")
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    assert run_cli(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_missing_problems_file_exits_1(tmp_path):
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    assert run_cli(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("command, method, extra", [
    ("train", "gflownet", "diag_every = 1\n"), ("train", "sft", ""), ("eval", "gflownet", ""),
    ("enumerate", "gflownet", "")])
def test_an_empty_problems_file_exits_1_naming_it(tmp_path, capsys, command, method, extra):
    cfg = write_config(tmp_path, PIPELINE_CONFIG.replace("method = gflownet", f"method = {method}")
                       .replace("[train]\n", "[train]\n" + extra))
    out = tmp_path / "o"
    out.mkdir()
    (out / "problems.jsonl").write_text("\n")
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {out / 'problems.jsonl'} holds no problem\n"


def test_dpo_train_without_preference_pairs_exits_1_naming_the_counts(tmp_path, capsys):
    # an SFT-peaked warm start decoded almost greedily draws one body over and over on each problem
    text = PIPELINE_CONFIG.replace("method = gflownet", "method = dpo").split("[train]")[0] + (
        "[train]\nsft_init_epochs = 40\ndpo_samples = 8\nlr = 0.05\ntemperature = 0.05\ntop_p = 0.5\n")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert run_cli(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["train", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: no preference pairs: every problem's draws tie in reward (3 problems, 8 draws each)\n")
    assert not (out / "policy.bin").exists()
    assert not (out / "train_report.csv").exists()


def test_eval_of_a_target_that_is_not_whole_exits_1_naming_it(tmp_path, capsys):
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    out = tmp_path / "o"
    assert run_cli(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    path = out / "problems.jsonl"
    first, *rest = path.read_text().splitlines(keepends=True)
    path.write_text("".join([json.dumps(dict(json.loads(first), target="3/2")) + "\n", *rest]))
    capsys.readouterr()
    assert run_cli(["eval", "--config", cfg, "--out", str(out)]) == 1
    assert "target must be a whole number in decimal digits, got '3/2'" in capsys.readouterr().err


def test_eval_of_a_prompt_that_misstates_the_problem_exits_1_naming_it(tmp_path, capsys):
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    out = tmp_path / "o"
    assert run_cli(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    path = out / "problems.jsonl"
    first, second, *rest = path.read_text().splitlines(keepends=True)
    rec = json.loads(second)
    other = 5 - int(rec["target"])  # the config's targets are 2 and 3
    path.write_text("".join([first, json.dumps(dict(rec, prompt=f"SUM {other} :")) + "\n", *rest]))
    capsys.readouterr()
    assert run_cli(["eval", "--config", cfg, "--out", str(out)]) == 1
    assert f"error: problem 1: prompt 'SUM {other} :' does not state the problem" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert run_cli(["gen-data", "--config", str(tmp_path / "absent.cfg"),
                    "--out", str(tmp_path / "o")]) == 2


def test_empty_config_is_all_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    assert load_config(str(path)) == RunConfig()


def test_gen_data_writes_requested_count(tmp_path):
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    out = tmp_path / "run"
    assert run_cli(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "problems.jsonl").read_text().splitlines()
    assert len(lines) == 3
    meta = json.loads((out / "run_meta.json").read_text())
    assert sorted(meta) == ["command", "config"]
    assert meta["command"] == "gen-data"
    assert meta["config"]["task"]["kind"] == "SUMPATH"


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    out = tmp_path / "run"
    assert run_cli(["gen-data", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["config"]["seed"] == 7


def test_pipeline_outputs_and_determinism(tmp_path):
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_pipeline(cfg, first)
    run_pipeline(cfg, second)
    for name in PIPELINE_FILES:
        a = (first / name).read_bytes()
        b = (second / name).read_bytes()
        assert a == b, name
    meta_a = json.loads((first / "run_meta.json").read_text())
    meta_b = json.loads((second / "run_meta.json").read_text())
    meta_a["config"].pop("out")
    meta_b["config"].pop("out")
    assert meta_a == meta_b


def test_enumerate_masses_are_coherent(tmp_path):
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    out = tmp_path / "run"
    run_pipeline(cfg, out)
    rows = (out / "enumeration.csv").read_text().splitlines()
    assert rows[0] == "problem_id,sequence,policy_prob,target_prob"
    by_problem: dict[str, list[tuple[float, float]]] = {}
    import csv as _csv
    for rec in _csv.reader(rows[1:]):
        by_problem.setdefault(rec[0], []).append((float(rec[2]), float(rec[3])))
    gaps = json.loads((out / "enumeration.json").read_text())["problems"]
    assert set(gaps) == set(by_problem)
    for pid, pairs in by_problem.items():
        target_total = sum(t for _, t in pairs)
        assert target_total == pytest.approx(1.0, abs=1e-9)
        policy_total = sum(p for p, _ in pairs) + gaps[pid]["overflow"]
        assert policy_total == pytest.approx(1.0, abs=1e-9)
        assert gaps[pid]["l1"] >= 0.0


def test_eval_aggregate_schema(tmp_path):
    cfg = write_config(tmp_path, PIPELINE_CONFIG)
    out = tmp_path / "run"
    run_pipeline(cfg, out)
    agg = json.loads((out / "eval_aggregate.json").read_text())
    assert agg["k"] == 4
    assert agg["n_problems"] == 3
    assert set(agg["pass_at"]) == {"1", "2", "3", "4"}


def test_compare_requires_two_reports(tmp_path):
    assert run_cli(["compare", "--out", str(tmp_path / "o"), "solo=x.json"]) == 2


def test_compare_sorts_labels_and_blanks_missing_k(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"greedy_accuracy": 0.5, "mean_distinct_correct": 1.25,
                             "pass_at": {"4": 0.75, "8": 0.875}}))
    b.write_text(json.dumps({"greedy_accuracy": 0.25, "mean_distinct_correct": 0.5,
                             "pass_at": {"4": 0.5}}))
    out = tmp_path / "o"
    code = run_cli(["compare", "--out", str(out),
                    f"zeta={a}", f"alpha={b}"])
    assert code == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "method,greedy,pass@4,pass@8,mean_distinct_correct"
    assert lines[1].startswith("alpha,")
    assert lines[2].startswith("zeta,")
    # alpha has no pass@8 entry, so that cell is empty
    assert lines[1].split(",")[3] == ""
    shown = capsys.readouterr().out.splitlines()
    assert shown[0] == lines[0]


def test_compare_rejects_malformed_spec(tmp_path):
    assert run_cli(["compare", "--out", str(tmp_path / "o"), "nolabel", "x=y"]) == 2


def test_compare_rejects_a_repeated_label(tmp_path, capsys):
    reports = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"greedy_accuracy": 0.5, "mean_distinct_correct": 1.0, "pass_at": {}}))
        reports.append(f"x={path}")
    out = tmp_path / "o"
    assert run_cli(["compare", "--out", str(out), *reports]) == 2
    assert "compare label 'x' is given twice" in capsys.readouterr().err
    assert not (out / "compare.csv").exists()


def product_bodies(problem, vocab) -> list[tuple[int, ...]]:
    """Every terminal body in the terminal order, built here rather than in src: by length, then product order."""
    return [body for n in range(problem.max_solution_len + 1) for body in itertools.product(vocab.body_ids, repeat=n)]


def test_enumeration_texts_are_the_decoded_terminals_in_order():
    from flowseq.cli import _terminal_texts
    from flowseq.core import TaskKind, decode
    from flowseq.env import TaskConfig, build_vocab, enumerate_terminals, make_problem

    task = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 4), max_parts=4, max_part=2)
    vocab = build_vocab(task)
    for seed in range(3):
        problem = make_problem(task, seed=seed)
        want = [decode(body, vocab) for body in product_bodies(problem, vocab)]
        assert len(want) == len(enumerate_terminals(problem, task, vocab))
        assert list(_terminal_texts(problem, vocab)) == want


def loop_enumeration(cfg_path: str, out: Path) -> tuple[bytes, bytes]:
    """enumeration.csv and enumeration.json as a csv.writer loop over each terminal writes them."""
    cfg = load_config(cfg_path)
    cfg.out = str(out)
    task = cfg.task_config()
    vocab = build_vocab(task)
    policy = load_policy(str(cfg.resolve_path(cfg.data.checkpoint)), vocab)
    rows = io.StringIO(newline="")
    writer = csv.writer(rows)
    writer.writerow(["problem_id", "sequence", "policy_prob", "target_prob"])
    gaps = {}
    for pid, problem in enumerate(read_problems(cfg.resolve_path(cfg.data.problems), vocab)):
        rewards = enumerate_terminals(problem, task, vocab).tolist()
        z = 0.0
        for r in rewards:
            z += r
        dist = terminal_distribution(policy, problem)
        gap = dist.overflow
        for body, p, r in zip(product_bodies(problem, vocab), dist.probs.tolist(), rewards, strict=True):
            writer.writerow([pid, decode(body, vocab), repr(p), repr(r / z)])
            gap += abs(p - r / z)
        gaps[str(pid)] = {"l1": float(gap), "overflow": dist.overflow}
    return rows.getvalue().encode(), (json.dumps({"problems": gaps}, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("kind", ["tabular", "neural"])
def test_enumeration_files_equal_the_csv_writer_loop(tmp_path, kind, monkeypatch):
    text = PIPELINE_CONFIG.replace("kind = tabular", f"kind = {kind}\nembed_dim = 4\nhidden_dim = 8")
    cfg = write_config(tmp_path, text.replace("steps = 60", "steps = 20"))
    out = tmp_path / "run"
    rendered, render = [], cli._terminal_texts
    monkeypatch.setattr(cli, "_terminal_texts", lambda p, v: rendered.append(p.max_solution_len) or render(p, v))
    for command in ("gen-data", "train", "enumerate"):
        assert run_cli([command, "--config", cfg, "--out", str(out)]) == 0, command
    # the texts of a length are rendered once per run
    vocab = build_vocab(load_config(cfg).task_config())
    lengths = [p.max_solution_len for p in read_problems(out / "problems.jsonl", vocab)]
    assert sorted(rendered) == sorted(set(lengths)) and len(rendered) < len(lengths)
    want_csv, want_json = loop_enumeration(cfg, out)
    # enumerate renders each distinct value once: within a problem the tabular policy repeats its
    # probabilities (every unvisited context is uniform), the neural one gives every terminal its own
    probs: dict[str, list[str]] = {}
    for row in csv.DictReader(io.StringIO(want_csv.decode())):
        probs.setdefault(row["problem_id"], []).append(row["policy_prob"])
    for shown in probs.values():
        assert (len(set(shown)) < len(shown)) if kind == "tabular" else (len(set(shown)) == len(shown))
    assert (out / "enumeration.csv").read_bytes() == want_csv
    assert (out / "enumeration.json").read_bytes() == want_json


@pytest.mark.parametrize("kind", list(TaskKind))
def test_no_token_needs_csv_quoting(kind):
    # enumerate writes its rows without csv.writer, which would quote a field holding one of these
    vocab = build_vocab(TaskConfig(task_kind=kind, value_range=(2, 30)))
    assert not [t for t in vocab.tokens if set(t) & set(',"\r\n')]


def test_enumerate_logs_one_line_per_problem(tmp_path, monkeypatch, caplog, capsys):
    cfg = write_config(tmp_path, PIPELINE_CONFIG.replace("steps = 60", "steps = 0"))
    out = tmp_path / "run"
    for command in ("gen-data", "train"):
        assert run_cli([command, "--config", cfg, "--out", str(out)]) == 0, command
    files = ("enumeration.csv", "enumeration.json")
    # run_cli sets the flowseq logger's level from FLOWSEQ_LOG; set_level opens caplog's handler to
    # info records and restores the logger's level after the test
    caplog.set_level(logging.INFO, logger="flowseq")
    capsys.readouterr()
    assert run_cli(["enumerate", "--config", cfg, "--out", str(out)]) == 0
    assert not [r for r in caplog.records if r.name == "flowseq"]
    assert capsys.readouterr().out == "".join(f"wrote {out / name}\n" for name in files)
    quiet = [(out / name).read_bytes() for name in files]

    monkeypatch.setenv("FLOWSEQ_LOG", "info")
    assert run_cli(["enumerate", "--config", cfg, "--out", str(out)]) == 0
    assert [(out / name).read_bytes() for name in files] == quiet
    gaps = json.loads((out / "enumeration.json").read_text())["problems"]
    rows = (out / "enumeration.csv").read_text().splitlines()[1:]
    by_id = sorted(gaps.items(), key=lambda item: int(item[0]))
    want = [f"problem {pid}: {sum(row.startswith(f'{pid},') for row in rows)} terminals, "
            f"l1 {g['l1']!r}, overflow {g['overflow']!r}" for pid, g in by_id]
    assert [r.getMessage() for r in caplog.records if r.name == "flowseq"] == want
