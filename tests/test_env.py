from __future__ import annotations

import dataclasses
import itertools
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowseq import env
from flowseq.core import Problem, TaskKind, decode, encode
from flowseq.env import (
    ARITH_OPS,
    AnswerState,
    RewardMode,
    SpaceTooLarge,
    StepVerdict,
    TaskConfig,
    Unsatisfiable,
    build_vocab,
    enumerate_solutions,
    enumerate_terminals,
    left_sum,
    make_problem,
    read_problems,
    reward,
    terminal_levels,
    verify_prefix,
    write_problems,
)
from flowseq.evaluation import solution_from_body
from flowseq.policy import Policy, terminal_distribution


def sumpath_cfg(hi: int = 6, max_parts: int = 4, max_part: int = 3,
                mode: RewardMode = RewardMode.TERMINAL) -> TaskConfig:
    return TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, hi),
                      max_parts=max_parts, max_part=max_part, reward_mode=mode)


def arith_cfg(hi: int = 12, mode: RewardMode = RewardMode.SHAPED) -> TaskConfig:
    return TaskConfig(task_kind=TaskKind.ARITH, value_range=(2, hi), reward_mode=mode)


def product_bodies(problem: Problem, vocab) -> list[tuple[int, ...]]:
    """Every terminal body in the terminal order, built here rather than in src: by length, then product order."""
    return [body for n in range(problem.max_solution_len + 1) for body in itertools.product(vocab.body_ids, repeat=n)]


def compositions(n: int, k: int, m: int) -> int:
    """Number of ordered part sequences of n with at most k parts, each in 1..m."""
    if n == 0:
        return 1 if k >= 0 else 0
    if k == 0:
        return 0
    return sum(compositions(n - p, k - 1, m) for p in range(1, min(m, n) + 1))


def test_config_validation():
    with pytest.raises(ValueError):
        TaskConfig(task_kind=TaskKind.SUMPATH, reward_floor=0.0)
    with pytest.raises(ValueError):
        TaskConfig(task_kind=TaskKind.SUMPATH, reward_floor=0.5)
    with pytest.raises(ValueError):
        TaskConfig(task_kind=TaskKind.SUMPATH, max_parts=1)
    with pytest.raises(ValueError):
        TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 4), max_part=9)


def test_arith_accepts_a_max_parts_it_does_not_read():
    # only SUMPATH solutions are bounded by max_parts; ARITH problems take 2-3 operands whatever it is
    cfg = TaskConfig(task_kind=TaskKind.ARITH, max_parts=1)
    assert cfg.max_parts == 1
    assert make_problem(cfg, seed=0) == make_problem(TaskConfig(task_kind=TaskKind.ARITH), seed=0)


def test_sumpath_solution_count_matches_composition_oracle():
    for target in (2, 3, 4, 5):
        for max_part in (2, 3):
            cfg = sumpath_cfg(hi=6, max_parts=4, max_part=max_part)
            vocab = build_vocab(cfg)
            problem = _fixed_sumpath_problem(cfg, vocab, target)
            sols = enumerate_solutions(problem, cfg, vocab)
            want = compositions(target, problem.max_solution_len, max_part)
            assert len(sols) == want, (target, max_part)


def _fixed_sumpath_problem(cfg: TaskConfig, vocab, target: int):
    prompt = tuple(encode(f"SUM {target} :", vocab))
    return Problem(task_kind=TaskKind.SUMPATH, prompt_tokens=prompt,
                   target=target, operands=tuple(range(1, cfg.max_part + 1)),
                   max_solution_len=min(target, cfg.max_parts))


def test_sumpath_verify_prefix_counts_steps():
    cfg = sumpath_cfg(hi=6, max_part=3)
    vocab = build_vocab(cfg)
    problem = _fixed_sumpath_problem(cfg, vocab, 5)
    good = problem.prompt_tokens + tuple(encode("2 3", vocab))
    v = verify_prefix(problem, good, vocab)
    assert (v.valid_steps, v.total_steps) == (2, 2)
    assert v.answer_state is AnswerState.CORRECT
    # overshoot: second step pushes the running sum past the target
    over = problem.prompt_tokens + tuple(encode("3 3", vocab))
    v2 = verify_prefix(problem, over, vocab)
    assert (v2.valid_steps, v2.total_steps) == (1, 2)
    assert v2.answer_state is AnswerState.WRONG
    empty = verify_prefix(problem, problem.prompt_tokens, vocab)
    assert empty.answer_state is AnswerState.NONE


def test_reward_formulas_by_hand():
    cfg_t = sumpath_cfg(mode=RewardMode.TERMINAL)
    cfg_s = sumpath_cfg(mode=RewardMode.SHAPED)
    vocab = build_vocab(cfg_t)
    problem = _fixed_sumpath_problem(cfg_t, vocab, 5)
    eps = cfg_t.reward_floor
    correct = problem.prompt_tokens + tuple(encode("2 3", vocab))
    wrong = problem.prompt_tokens + tuple(encode("3 3", vocab))
    assert reward(problem, correct, cfg_t, vocab) == pytest.approx(eps + (1 - eps))
    assert reward(problem, wrong, cfg_t, vocab) == pytest.approx(eps)
    assert reward(problem, correct, cfg_s, vocab) == pytest.approx(eps + (1 - eps) * 1.0)
    # shaped mode scales by the valid-step fraction but only pays on a correct answer
    assert reward(problem, wrong, cfg_s, vocab) == pytest.approx(eps)
    assert reward(problem, problem.prompt_tokens, cfg_s, vocab) == pytest.approx(eps)


def test_rewards_strictly_positive_everywhere():
    cfg = sumpath_cfg(hi=4, max_parts=3, max_part=2)
    vocab = build_vocab(cfg)
    problem = make_problem(cfg, seed=0)
    for r in enumerate_terminals(problem, cfg, vocab):
        assert r > 0.0


def test_enumerate_terminals_cross_checks_solutions():
    # every enumerated solution appears among terminals with the top reward
    cfg = sumpath_cfg(hi=4, max_parts=3, max_part=2, mode=RewardMode.TERMINAL)
    vocab = build_vocab(cfg)
    problem = make_problem(cfg, seed=1)
    terminals = dict(zip(product_bodies(problem, vocab), enumerate_terminals(problem, cfg, vocab), strict=True))
    sols = enumerate_solutions(problem, cfg, vocab)
    top = max(terminals.values())
    assert sols, "multi-solution guarantee"
    for body in sols:
        assert terminals[body] == pytest.approx(top)
    n_top = sum(1 for r in terminals.values() if r == pytest.approx(top))
    assert n_top == len(sols)


def test_partition_function_hand_case():
    # target 3, parts {1,2}, <=3 steps: solutions {1 2, 2 1, 1 1 1}
    cfg = sumpath_cfg(hi=3, max_parts=3, max_part=2, mode=RewardMode.TERMINAL)
    vocab = build_vocab(cfg)
    problem = _fixed_sumpath_problem(cfg, vocab, 3)
    rewards = enumerate_terminals(problem, cfg, vocab)
    sols = enumerate_solutions(problem, cfg, vocab)
    assert {decode(b, vocab) for b in sols} == {"1 2", "2 1", "1 1 1"}
    n = len(rewards)
    eps = cfg.reward_floor
    want_z = 3 * (eps + (1 - eps)) + (n - 3) * eps
    assert left_sum(rewards) == pytest.approx(want_z)


def test_partition_function_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16; the builtin sum of Python 3.12+ would keep the 1.0 and return 1.0
    assert left_sum(np.array([1e16, 1.0, -1e16])) == 0.0


def test_enumeration_count_is_geometric_series():
    cfg = sumpath_cfg(hi=3, max_parts=3, max_part=2)
    vocab = build_vocab(cfg)
    problem = _fixed_sumpath_problem(cfg, vocab, 3)
    # bodies draw on all non-stop tokens: sum of b^l for l = 0..max_len
    b = vocab.size - 1
    want = sum(b ** l for l in range(problem.max_solution_len + 1))
    assert len(enumerate_terminals(problem, cfg, vocab)) == want
    assert terminal_levels(problem, vocab) == [b ** l for l in range(problem.max_solution_len + 1)]


def test_space_too_large_guard(monkeypatch):
    cfg = TaskConfig(task_kind=TaskKind.ARITH, value_range=(2, 30))
    vocab = build_vocab(cfg)
    problem = make_problem(cfg, seed=3)

    def no_state(*args):
        raise AssertionError("a verifier state was built before the budget check")

    def no_forward(*args):
        raise AssertionError("the policy ran a forward pass before the budget check")

    # the budget check comes before any verifier state is built or any context is scored
    monkeypatch.setattr(env, "verifier", no_state)
    monkeypatch.setattr(Policy, "forward", no_forward)
    with pytest.raises(SpaceTooLarge):
        enumerate_terminals(problem, cfg, vocab)
    with pytest.raises(SpaceTooLarge):
        terminal_levels(problem, vocab)
    with pytest.raises(SpaceTooLarge):
        terminal_distribution(Policy.tabular(vocab), problem)


def test_level_sizes_meet_the_budget_at_its_edge(monkeypatch):
    cfg = sumpath_cfg(hi=3, max_parts=3, max_part=2)
    vocab = build_vocab(cfg)
    problem = _fixed_sumpath_problem(cfg, vocab, 3)
    sizes = terminal_levels(problem, vocab)
    monkeypatch.setattr(env, "ENUMERATION_CAP", sum(sizes))
    assert terminal_levels(problem, vocab) == sizes
    monkeypatch.setattr(env, "ENUMERATION_CAP", sum(sizes) - 1)
    with pytest.raises(SpaceTooLarge, match=f"exceeds {sum(sizes) - 1} sequences"):
        terminal_levels(problem, vocab)


def test_make_problem_deterministic_and_multisolution():
    cfg = sumpath_cfg(hi=5, max_parts=4, max_part=3)
    vocab = build_vocab(cfg)
    a = make_problem(cfg, seed=11)
    b = make_problem(cfg, seed=11)
    assert a == b
    assert len(enumerate_solutions(a, cfg, vocab)) >= 2


def test_make_problem_unsatisfiable():
    # max_part 1 forces a single composition, so no draw has two solutions
    cfg = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 3),
                     max_parts=4, max_part=1)
    with pytest.raises(Unsatisfiable):
        make_problem(cfg, seed=0)


def test_arith_verify_prefix_semantics():
    cfg = arith_cfg(hi=20)
    vocab = build_vocab(cfg)
    problem = _fixed_arith_problem(cfg, vocab, target=9, operands=(4, 5))
    body = tuple(encode("4 + 5 = 9 ANSWER 9", vocab))
    v = verify_prefix(problem, problem.prompt_tokens + body, vocab)
    assert (v.valid_steps, v.total_steps) == (1, 1)
    assert v.answer_state is AnswerState.CORRECT
    # wrong arithmetic in the line, answer still read from the marker
    bad = tuple(encode("4 + 5 = 8 ANSWER 9", vocab))
    v2 = verify_prefix(problem, problem.prompt_tokens + bad, vocab)
    assert (v2.valid_steps, v2.total_steps) == (0, 1)
    assert v2.answer_state is AnswerState.CORRECT
    # consuming the same operand twice without two copies is invalid
    dup = tuple(encode("4 + 4 = 8 ANSWER 9", vocab))
    v3 = verify_prefix(problem, problem.prompt_tokens + dup, vocab)
    assert v3.valid_steps == 0


def _fixed_arith_problem(cfg: TaskConfig, vocab, target: int, operands: tuple[int, ...]):
    ops = " ".join(str(v) for v in operands)
    prompt = tuple(encode(f"TARGET {target} FROM {ops} :", vocab))
    return Problem(task_kind=TaskKind.ARITH, prompt_tokens=prompt,
                   target=target, operands=operands,
                   max_solution_len=5 * (len(operands) - 1) + 2)


def test_arith_result_reuse_chains():
    cfg = arith_cfg(hi=20)
    vocab = build_vocab(cfg)
    problem = _fixed_arith_problem(cfg, vocab, target=9, operands=(2, 3, 4))
    body = tuple(encode("2 + 3 = 5 5 + 4 = 9 ANSWER 9", vocab))
    v = verify_prefix(problem, problem.prompt_tokens + body, vocab)
    # the first line's result 5 becomes available to the second line
    assert (v.valid_steps, v.total_steps) == (2, 2)
    assert v.answer_state is AnswerState.CORRECT
    # reusing 2 after it was consumed by line one is invalid
    stale = tuple(encode("2 + 3 = 5 2 + 4 = 6 ANSWER 9", vocab))
    v2 = verify_prefix(problem, problem.prompt_tokens + stale, vocab)
    assert (v2.valid_steps, v2.total_steps) == (1, 2)


def test_arith_answer_from_last_marker():
    cfg = arith_cfg(hi=20)
    vocab = build_vocab(cfg)
    problem = _fixed_arith_problem(cfg, vocab, target=9, operands=(4, 5))
    body = tuple(encode("ANSWER 3 ANSWER 9", vocab))
    v = verify_prefix(problem, problem.prompt_tokens + body, vocab)
    assert v.answer_state is AnswerState.CORRECT


def test_arith_solutions_require_valid_derivations():
    cfg = arith_cfg(hi=20)
    vocab = build_vocab(cfg)
    problem = _fixed_arith_problem(cfg, vocab, target=9, operands=(4, 5))
    sols = enumerate_solutions(problem, cfg, vocab)
    texts = {decode(b, vocab) for b in sols}
    assert "4 + 5 = 9 ANSWER 9" in texts
    # a bare answer guess carries no derivation and is not a reference solution
    assert all("=" in t for t in texts)


def test_problem_file_round_trip(tmp_path):
    # reading checks each prompt against the one prompt_text rebuilds, so both kinds' generated prompts must be it
    for cfg in (arith_cfg(hi=12), sumpath_cfg(hi=9)):
        vocab = build_vocab(cfg)
        problems = [make_problem(cfg, seed=s) for s in range(5)]
        path = tmp_path / "problems.jsonl"
        write_problems(path, problems, vocab)
        assert read_problems(path, vocab) == problems


@pytest.mark.parametrize("target", ["3/2", "1.5", "-3", "", 2])
def test_read_problems_rejects_a_target_that_is_not_whole(tmp_path, target):
    # a SUMPATH target of "3/2" was once truncated to 1 by the reward, which paid the body "1" in full
    cfg = sumpath_cfg(hi=6)
    vocab = build_vocab(cfg)
    path = tmp_path / "problems.jsonl"
    write_problems(path, [_fixed_sumpath_problem(cfg, vocab, 2)], vocab)
    assert '"target": "2"' in path.read_text()
    rec = json.loads(path.read_text())
    path.write_text(json.dumps(dict(rec, target=target)) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"problem 0: target must be a whole number in decimal "
                                                   f"digits, got {target!r}")):
        read_problems(path, vocab)


def _with_field(rec: dict, field: str, value) -> dict:
    """rec with max_solution_len set to value, or (field "operand") with value in place of its first operand."""
    if field == "operand":
        return dict(rec, operands=[value, *rec["operands"][1:]])
    return dict(rec, **{field: value})


# SUMPATH's prompt does not state its operands, so only the type check can catch a truncated one
NOT_INTEGERS = [("max_solution_len", 3.7), ("max_solution_len", True), ("max_solution_len", "3"), ("operand", 1.9)]


@pytest.mark.parametrize("field, value", NOT_INTEGERS)
def test_read_problems_rejects_a_count_that_is_not_a_json_integer(tmp_path, field, value):
    # 3.7 and true were once read as 3 and 1, and an operand of 1.9 as 1
    cfg = sumpath_cfg(hi=6)
    vocab = build_vocab(cfg)
    path = tmp_path / "problems.jsonl"
    write_problems(path, [_fixed_sumpath_problem(cfg, vocab, 5), _fixed_sumpath_problem(cfg, vocab, 2)], vocab)
    first, second = (json.loads(line) for line in path.read_text().splitlines())
    assert second["operands"][0] == 1 and second["max_solution_len"] == 2
    path.write_text(json.dumps(first) + "\n" + json.dumps(_with_field(second, field, value)) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"problem 1: {field} must be an integer, got {value!r}")):
        read_problems(path, vocab)


def _sumpath_record_of_a_5_read_as_7(vocab) -> dict:
    # the reward would pay the bodies that sum to 7 while the policy reads 5
    rec = env.problem_record(_fixed_sumpath_problem(sumpath_cfg(hi=9), vocab, 7), 3, vocab)
    return dict(rec, prompt="SUM 5 :")


def _arith_record_with_shifted_operands(vocab) -> dict:
    rec = env.problem_record(make_problem(arith_cfg(), seed=0), 4, vocab)
    return dict(rec, prompt=env.prompt_text(TaskKind.ARITH, int(rec["target"]), [v + 1 for v in rec["operands"]]))


@pytest.mark.parametrize("kind", ["sumpath", "arith"])
def test_read_problems_rejects_a_prompt_that_misstates_the_problem(tmp_path, kind):
    cfg = sumpath_cfg(hi=9) if kind == "sumpath" else arith_cfg()
    vocab = build_vocab(cfg)
    rec = (_sumpath_record_of_a_5_read_as_7 if kind == "sumpath" else _arith_record_with_shifted_operands)(vocab)
    encode(rec["prompt"], vocab)  # every word is in the vocabulary: only the statement is wrong
    want = env.prompt_text(TaskKind(rec["task_kind"]), int(rec["target"]), rec["operands"])
    path = tmp_path / "problems.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"problem {rec['id']}: prompt {rec['prompt']!r} does not state "
                                                   f"the problem, whose prompt is {want!r}")):
        read_problems(path, vocab)


def test_problem_generation_spread():
    # draws differ across seeds often enough to form a suite
    cfg = arith_cfg(hi=12)
    seen = {make_problem(cfg, seed=s).prompt_tokens for s in range(20)}
    assert len(seen) >= 10


# The string verifiers that the state machines replaced, kept as the oracle:
# they decode the generated region and replay it from its first token.
def _ref_generated_region(problem, prefix, vocab) -> list[str]:
    prefix = tuple(prefix)
    k = problem.prompt_len
    if prefix[:k] != problem.prompt_tokens:
        raise ValueError("prefix does not start with the problem prompt")
    gen: list[str] = []
    for tid in prefix[k:]:
        if tid == vocab.stop_id:
            break
        gen.append(vocab.tokens[tid])
    return gen


def _ref_verify_sumpath(problem, gen: list[str]) -> StepVerdict:
    parts = set(problem.operands)
    target = int(problem.target)
    running = 0
    valid = 0
    ok = bool(gen)
    for unit in gen:
        is_part = unit.isdigit() and int(unit) in parts
        if is_part:
            running += int(unit)
            if running <= target:
                valid += 1
            else:
                ok = False
        else:
            ok = False
    if not gen:
        state = AnswerState.NONE
    elif ok and running == target:
        state = AnswerState.CORRECT
    else:
        state = AnswerState.WRONG
    return StepVerdict(valid_steps=valid, total_steps=len(gen), answer_state=state)


def _ref_last_answer_value(units: list[str]) -> Fraction | None:
    value = None
    for i, unit in enumerate(units):
        if unit == "ANSWER" and i + 1 < len(units):
            try:
                value = Fraction(units[i + 1])
            except (ValueError, ZeroDivisionError):
                value = None
    return value


def _ref_apply_op(a: int, op: str, b: int) -> int:
    return {"+": a + b, "-": a - b, "*": a * b}[op]


def _ref_verify_arith(problem, gen: list[str]) -> StepVerdict:
    if "ANSWER" in gen:
        first = gen.index("ANSWER")
        body, answer_region = gen[:first], gen[first:]
    else:
        body, answer_region = gen, []
    avail = list(problem.operands)
    total = 0
    valid = 0
    for i in range(0, len(body) - len(body) % 5, 5):
        a_s, op, b_s, eq, c_s = body[i : i + 5]
        total += 1
        if not (a_s.lstrip("-").isdigit() and b_s.lstrip("-").isdigit() and c_s.lstrip("-").isdigit()):
            continue
        if op not in ARITH_OPS or eq != "=":
            continue
        a, b, c = int(a_s), int(b_s), int(c_s)
        if _ref_apply_op(a, op, b) != c:
            continue
        if a == b:
            if avail.count(a) < 2:
                continue
        elif a not in avail or b not in avail:
            continue
        avail.remove(a)
        avail.remove(b)
        avail.append(c)
        valid += 1
    if not answer_region:
        state = AnswerState.NONE
    else:
        value = _ref_last_answer_value(gen)
        state = AnswerState.CORRECT if value == problem.target else AnswerState.WRONG
    return StepVerdict(valid_steps=valid, total_steps=total, answer_state=state)


def ref_verify_prefix(problem, prefix, vocab) -> StepVerdict:
    gen = _ref_generated_region(problem, prefix, vocab)
    if problem.task_kind is TaskKind.SUMPATH:
        return _ref_verify_sumpath(problem, gen)
    return _ref_verify_arith(problem, gen)


def ref_reward(problem, prefix, cfg, vocab) -> float:
    verdict = ref_verify_prefix(problem, prefix, vocab)
    eps = cfg.reward_floor
    correct = verdict.answer_state is AnswerState.CORRECT
    if cfg.reward_mode is RewardMode.TERMINAL:
        return eps + (1.0 - eps) * float(correct)
    frac = verdict.valid_steps / max(verdict.total_steps, 1)
    return eps + (1.0 - eps) * frac * float(correct)


_SUMPATH_CFG = sumpath_cfg(hi=6, max_part=3)
_SUMPATH_VOCAB = build_vocab(_SUMPATH_CFG)
_ARITH_CFG = arith_cfg(hi=12)
_ARITH_VOCAB = build_vocab(_ARITH_CFG)
# (config, vocab, problem): one SUMPATH problem, ARITH with distinct and with repeated operands
ORACLE_PROBLEMS = [
    (_SUMPATH_CFG, _SUMPATH_VOCAB, _fixed_sumpath_problem(_SUMPATH_CFG, _SUMPATH_VOCAB, 5)),
    (_ARITH_CFG, _ARITH_VOCAB, _fixed_arith_problem(_ARITH_CFG, _ARITH_VOCAB, 9, (2, 3, 4))),
    (_ARITH_CFG, _ARITH_VOCAB, _fixed_arith_problem(_ARITH_CFG, _ARITH_VOCAB, 10, (3, 3, 4))),
]


def assert_matches_oracle(cfg, vocab, problem, prefix) -> None:
    assert verify_prefix(problem, prefix, vocab) == ref_verify_prefix(problem, prefix, vocab)
    for mode in RewardMode:
        mode_cfg = dataclasses.replace(cfg, reward_mode=mode)
        got, want = reward(problem, prefix, mode_cfg, vocab), ref_reward(problem, prefix, mode_cfg, vocab)
        assert got.hex() == want.hex(), mode


@st.composite
def oracle_bodies(draw):
    """A problem and a body: any tokens, the stop symbol included, mixed with
    well-formed lines, solution lines and ANSWER pairs so ARITH lines are often valid."""
    cfg, vocab, problem = draw(st.sampled_from(ORACLE_PROBLEMS))
    token = st.sampled_from(range(vocab.size)).map(lambda t: (t,))
    if problem.task_kind is TaskKind.SUMPATH:
        part = st.sampled_from([vocab.token_id(str(v)) for v in problem.operands]).map(lambda t: (t,))
        pieces = st.one_of(token, part, part)
    else:
        num = st.sampled_from([vocab.token_id(str(v)) for v in range(13)])
        answer = st.one_of(num, st.just(vocab.token_id(str(problem.target))))
        op = st.sampled_from([vocab.token_id(o) for o in ARITH_OPS])
        eq, marker = vocab.token_id("="), vocab.token_id("ANSWER")
        line = st.tuples(num, op, num, st.just(eq), num)
        solution_lines = [s[i : i + 5] for s in enumerate_solutions(problem, cfg, vocab)
                          for i in range(0, len(s) - 2, 5)]
        pieces = st.one_of(token, line, st.sampled_from(solution_lines), st.tuples(st.just(marker), answer))
    body = tuple(t for piece in draw(st.lists(pieces, max_size=6)) for t in piece)
    return cfg, vocab, problem, body


@settings(max_examples=400, deadline=None)
@given(oracle_bodies())
def test_fold_matches_string_oracle(case):
    cfg, vocab, problem, body = case
    assert_matches_oracle(cfg, vocab, problem, problem.prompt_tokens + body)


@pytest.mark.parametrize("case, text", [
    (0, "2 <eos> 3"),  # stop symbol mid-prefix: the rest is ignored
    (0, "1 SUM 4"),
    (0, "3 3"),
    (1, "2 + 3 = 5 <eos> 5 + 4 = 9 ANSWER 9"),
    (1, "ANSWER ANSWER 9"),
    (1, "ANSWER 9 ANSWER"),  # a marker at the end keeps the value before it
    (1, "2 + 3 = 5 ANSWER"),
    (1, "ANSWER 9 ANSWER ANSWER"),
    (1, "2 + 3 ANSWER 9"),  # a partial line before ANSWER is not a step
    (1, "2 + 3 = 5 5 + 4 ANSWER 9 4 = 9"),
    (1, "2 + 3 = 5 5 + 4 = 9 ANSWER 9"),
    (2, "3 + 3 = 6 6 + 4 = 10 ANSWER 10"),  # repeated operands
    (2, "3 * 3 = 9 3 + 4 = 7 ANSWER 10"),  # only two copies of 3
    (2, "4 + 4 = 8 ANSWER 10"),
])
def test_fold_matches_string_oracle_on_edge_bodies(case, text):
    cfg, vocab, problem = ORACLE_PROBLEMS[case]
    assert_matches_oracle(cfg, vocab, problem, problem.prompt_tokens + tuple(encode(text, vocab)))


@pytest.mark.parametrize("case", range(len(ORACLE_PROBLEMS)))
def test_wrong_prompt_raises(case):
    cfg, vocab, problem = ORACLE_PROBLEMS[case]
    bad = problem.prompt_tokens[:-1] + (vocab.stop_id,)
    with pytest.raises(ValueError, match="prompt"):
        verify_prefix(problem, bad, vocab)
    with pytest.raises(ValueError, match="prompt"):
        reward(problem, bad, cfg, vocab)


def assert_enumeration_matches_reward(problem, cfg, vocab) -> None:
    """enumerate_terminals equals one reward call per body, in order and bit for bit."""
    for mode in RewardMode:
        mode_cfg = dataclasses.replace(cfg, reward_mode=mode)
        got = enumerate_terminals(problem, mode_cfg, vocab)
        want = [reward(problem, problem.prompt_tokens + body, mode_cfg, vocab)
                for body in product_bodies(problem, vocab)]
        assert got.dtype == np.float64
        assert [r.hex() for r in got.tolist()] == [r.hex() for r in want], mode


def test_enumerate_terminals_matches_per_body_reward_sumpath():
    cfg = sumpath_cfg(hi=9, max_parts=4, max_part=3)
    vocab = build_vocab(cfg)
    problem = _fixed_sumpath_problem(cfg, vocab, 7)
    assert sum(terminal_levels(problem, vocab)) == len(product_bodies(problem, vocab)) == 16_105
    assert_enumeration_matches_reward(problem, cfg, vocab)


def test_enumerate_terminals_matches_per_body_reward_arith():
    # numbers 0..2 and max_solution_len 5 keep the space at 177,156 terminals
    cfg = TaskConfig(task_kind=TaskKind.ARITH, value_range=(1, 2), reward_mode=RewardMode.TERMINAL)
    vocab = build_vocab(cfg)
    problem = Problem(task_kind=TaskKind.ARITH, prompt_tokens=tuple(encode("TARGET 2 FROM 1 2 :", vocab)),
                      target=2, operands=(1, 2), max_solution_len=5)
    terminals = dict(zip(product_bodies(problem, vocab), enumerate_terminals(problem, cfg, vocab), strict=True))
    assert len(terminals) == 177_156
    # answer regions decide the terminal reward; a full line leaves no room for an answer
    assert terminals[tuple(encode("1 + ANSWER 2", vocab))] == 1.0
    assert terminals[tuple(encode("ANSWER 1 ANSWER", vocab))] == cfg.reward_floor
    assert terminals[tuple(encode("1 * 2 = 2", vocab))] == cfg.reward_floor
    assert_enumeration_matches_reward(problem, cfg, vocab)


# The string answer rule that evaluation graded with before it read the verifier's
# answer_state, kept as the oracle: extract_answer then answers_match.
def _ref_extract_answer(problem, gen_tokens, vocab) -> Fraction | None:
    gen = []
    for tid in gen_tokens:
        if tid == vocab.stop_id:
            break
        gen.append(vocab.tokens[tid])
    if problem.task_kind is TaskKind.ARITH:
        return _ref_last_answer_value(gen)
    parts = set(problem.operands)
    if not gen or any(not (u.isdigit() and int(u) in parts) for u in gen):
        return None
    return Fraction(sum(int(u) for u in gen))


def _ref_answers_match(answer: Fraction | None, target: int) -> bool:
    if answer is None:
        return False
    return round(answer, 6) == round(Fraction(target), 6)


def _ref_correct(problem, body, vocab) -> bool:
    return _ref_answers_match(_ref_extract_answer(problem, body, vocab), problem.target)


@pytest.mark.parametrize("target", [3, 7])
def test_grading_matches_answer_oracle_on_every_sumpath_terminal(target):
    cfg = sumpath_cfg(hi=9, max_parts=4, max_part=3)
    vocab = build_vocab(cfg)
    problem = _fixed_sumpath_problem(cfg, vocab, target)
    bodies = product_bodies(problem, vocab)
    got = [solution_from_body(problem, body, vocab).correct for body in bodies]
    assert got == [_ref_correct(problem, body, vocab) for body in bodies]
    assert sum(got) == len(enumerate_solutions(problem, cfg, vocab))


def test_grading_matches_answer_oracle_on_every_enumerated_solution():
    for cfg in (sumpath_cfg(hi=9, max_parts=4, max_part=3), arith_cfg(hi=12)):
        vocab = build_vocab(cfg)
        for seed in range(12):
            problem = make_problem(cfg, seed=seed)
            for body in enumerate_solutions(problem, cfg, vocab):
                assert solution_from_body(problem, body, vocab).correct
                assert _ref_correct(problem, body, vocab)


def test_grading_matches_answer_oracle_on_random_arith_bodies():
    """120,000 seeded bodies: any token, the stop symbol included, with ANSWER pairs planted,
    half of them answering the target; a body may end between a marker and its value."""
    cfg = arith_cfg(hi=12)
    vocab = build_vocab(cfg)
    numbers = np.array([vocab.token_id(str(v)) for v in range(13)])
    marker = vocab.token_id("ANSWER")
    rng = np.random.default_rng(0)
    n, width = 15_000, 12
    mismatches = correct = 0
    for seed in range(8):
        problem = make_problem(cfg, seed=seed)
        tokens = rng.integers(0, vocab.size, size=(n, width))
        for _ in range(2):
            rows = np.flatnonzero(rng.random(n) < 0.7)
            at = rng.integers(0, width - 1, size=rows.size)
            answers = np.where(rng.random(rows.size) < 0.5, vocab.token_id(str(problem.target)),
                               rng.choice(numbers, size=rows.size))
            tokens[rows, at] = marker
            tokens[rows, at + 1] = answers
        lengths = rng.integers(0, width + 1, size=n)
        for row, length in zip(tokens.tolist(), lengths.tolist()):
            body = tuple(row[:length])
            got = solution_from_body(problem, body, vocab).correct
            mismatches += got != _ref_correct(problem, body, vocab)
            correct += got
    assert mismatches == 0
    assert 10_000 < correct < 110_000
