"""Run configuration: a line-based ``key = value`` format with bracketed sections.

Unknown sections or keys are hard errors, so a typo cannot silently fall back
to a default. Every value is range-checked at parse time; the resolved config
is what lands in run_meta.json, and re-running from those values reproduces a
run byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Callable

from .core import TaskKind
from .env import RewardMode, TaskConfig
from .policy import DecodeCfg, PolicyKind


class ConfigError(Exception):
    """Base class for configuration problems; the CLI maps these to exit 2."""


class ParseError(ConfigError):
    def __init__(self, line: int, detail: str) -> None:
        super().__init__(f"line {line}: {detail}")
        self.line = line


class UnknownKey(ConfigError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unknown key: {name}")
        self.name = name


class RangeError(ConfigError):
    def __init__(self, name: str, detail: str) -> None:
        super().__init__(f"{name}: {detail}")
        self.name = name


class Method(str, Enum):
    SFT = "sft"
    RFT = "rft"
    DPO = "dpo"
    PPO = "ppo"
    GFLOWNET = "gflownet"


@dataclass
class RunConfig:
    """All knobs of one run, resolved to concrete values.

    Defaults follow the documented setup: sampling at temperature 0.6 with
    top-p 0.9, replay capacity 1000, sft_coeff 30.0, DPO beta 0.01, PPO
    kl_beta 0.1 with gamma 1.0 and GAE lambda 0.95, RFT k 4, eval k 8.
    """

    method: Method = Method.GFLOWNET
    seed: int = 0
    out: str = "out"
    # task
    task_kind: TaskKind = TaskKind.SUMPATH
    value_lo: int = 2
    value_hi: int = 9
    max_parts: int = 4
    max_part: int = 3
    reward_floor: float = 1e-4
    reward_mode: RewardMode = RewardMode.SHAPED
    # policy
    policy_kind: PolicyKind = PolicyKind.TABULAR
    window: int = 3
    embed_dim: int = 16
    hidden_dim: int = 64
    # data
    n_problems: int = 50
    problems_path: str = "problems.jsonl"
    checkpoint_path: str = "policy.bin"
    # train
    steps: int = 200
    batch_size: int = 16
    samples_per_problem: int = 8
    sft_coeff: float = 30.0
    subtb_lambda: float = 1.0
    horizon_coeff: float = 1.0
    lr: float = 1e-3
    replay: int = 1000
    stop_placement: str = "printed"
    train_temperature: float = 0.6
    train_top_p: float = 0.9
    max_new_tokens: int = 0
    epochs: int = 1
    sft_init_epochs: int = 0
    rft_k: int = 4
    dpo_beta: float = 0.01
    dpo_samples: int = 8
    ppo_clip: float = 0.2
    kl_beta: float = 0.1
    gamma: float = 1.0
    gae_lambda: float = 0.95
    trajs_per_step: int = 8
    critic_lr: float = 3e-3
    diag_every: int = 0
    # eval
    eval_k: int = 8
    eval_temperature: float = 0.6
    eval_top_p: float = 0.9
    prepend_greedy: bool = False

    def task_config(self) -> TaskConfig:
        return TaskConfig(
            task_kind=self.task_kind,
            value_range=(self.value_lo, self.value_hi),
            max_parts=self.max_parts,
            max_part=self.max_part,
            reward_floor=self.reward_floor,
            reward_mode=self.reward_mode,
        )

    def decode_train(self) -> DecodeCfg:
        return DecodeCfg(
            temperature=self.train_temperature,
            top_p=self.train_top_p,
            max_new_tokens=self.max_new_tokens or None,
        )

    def decode_eval(self) -> DecodeCfg:
        return DecodeCfg(
            temperature=self.eval_temperature,
            top_p=self.eval_top_p,
            max_new_tokens=self.max_new_tokens or None,
        )

    def resolve_path(self, name: str) -> Path:
        p = Path(name)
        return p if p.is_absolute() else Path(self.out) / p

    def to_dict(self) -> dict:
        """Nested JSON-ready view, sections mirroring the config file layout."""
        sections: dict[str, dict] = {name: {} for name in _SECTION_OF.values() if name}
        top: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Enum):
                value = value.value
            section = _SECTION_OF[f.name]
            (sections[section] if section else top)[_KEY_OF[f.name]] = value
        return {**top, **sections}


# key registry: (section, key) -> (attr, parser, range check)
def _positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


def _non_negative(x: float) -> bool:
    return math.isfinite(x) and x >= 0


def _at_least_one(x: int) -> bool:
    return x >= 1


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_float(text: str) -> float:
    return float(text)


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text}")


def _parse_enum(enum_cls):
    def parse(text: str):
        low = text.strip().lower()
        for member in enum_cls:
            if member.value.lower() == low:
                return member
        choices = ", ".join(e.value.lower() for e in enum_cls)
        raise ValueError(f"expected one of: {choices}")

    return parse


_Entry = tuple[str, Callable, Callable[[object], bool] | None, str]

_SCHEMA: dict[tuple[str, str], _Entry] = {
    ("", "method"): ("method", _parse_enum(Method), None, ""),
    ("", "seed"): ("seed", _parse_int, None, ""),
    ("", "out"): ("out", str, None, ""),
    ("task", "kind"): ("task_kind", _parse_enum(TaskKind), None, ""),
    ("task", "value_lo"): ("value_lo", _parse_int, _at_least_one, "must be at least 1"),
    ("task", "value_hi"): ("value_hi", _parse_int, _at_least_one, "must be at least 1"),
    ("task", "max_parts"): ("max_parts", _parse_int, lambda x: x >= 2, "must be at least 2"),
    ("task", "max_part"): ("max_part", _parse_int, _at_least_one, "must be at least 1"),
    ("task", "reward_floor"): ("reward_floor", _parse_float,
                               lambda x: 0.0 < x <= 0.01, "must lie in (0, 0.01]"),
    ("task", "reward_mode"): ("reward_mode", _parse_enum(RewardMode), None, ""),
    ("policy", "kind"): ("policy_kind", _parse_enum(PolicyKind), None, ""),
    ("policy", "window"): ("window", _parse_int, _at_least_one, "must be at least 1"),
    ("policy", "embed_dim"): ("embed_dim", _parse_int, _at_least_one, "must be at least 1"),
    ("policy", "hidden_dim"): ("hidden_dim", _parse_int, _at_least_one, "must be at least 1"),
    ("data", "n_problems"): ("n_problems", _parse_int, _at_least_one, "must be at least 1"),
    ("data", "problems"): ("problems_path", str, None, ""),
    ("data", "checkpoint"): ("checkpoint_path", str, None, ""),
    ("train", "steps"): ("steps", _parse_int, _non_negative, "must be non-negative"),
    ("train", "batch_size"): ("batch_size", _parse_int, _at_least_one, "must be at least 1"),
    ("train", "samples_per_problem"): ("samples_per_problem", _parse_int, _at_least_one,
                                       "must be at least 1"),
    ("train", "sft_coeff"): ("sft_coeff", _parse_float, _non_negative,
                             "must be non-negative and finite"),
    ("train", "subtb_lambda"): ("subtb_lambda", _parse_float, _positive,
                                "must be positive and finite"),
    ("train", "horizon_coeff"): ("horizon_coeff", _parse_float, _non_negative,
                                 "must be non-negative and finite"),
    ("train", "lr"): ("lr", _parse_float, _positive, "must be positive and finite"),
    ("train", "replay"): ("replay", _parse_int, _at_least_one, "must be at least 1"),
    ("train", "stop_placement"): ("stop_placement", str,
                                  lambda x: x in ("printed", "swapped"),
                                  "must be printed or swapped"),
    ("train", "temperature"): ("train_temperature", _parse_float, _positive,
                               "must be positive and finite"),
    ("train", "top_p"): ("train_top_p", _parse_float,
                         lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]"),
    ("train", "max_new_tokens"): ("max_new_tokens", _parse_int, _non_negative,
                                  "must be non-negative (0 means task-derived)"),
    ("train", "epochs"): ("epochs", _parse_int, _at_least_one, "must be at least 1"),
    ("train", "sft_init_epochs"): ("sft_init_epochs", _parse_int, _non_negative,
                                   "must be non-negative"),
    ("train", "rft_k"): ("rft_k", _parse_int, _at_least_one, "must be at least 1"),
    ("train", "dpo_beta"): ("dpo_beta", _parse_float, _positive, "must be positive and finite"),
    ("train", "dpo_samples"): ("dpo_samples", _parse_int, lambda x: x >= 2,
                               "must be at least 2"),
    ("train", "ppo_clip"): ("ppo_clip", _parse_float,
                            lambda x: 0.0 < x < 1.0, "must lie in (0, 1)"),
    ("train", "kl_beta"): ("kl_beta", _parse_float, _non_negative,
                           "must be non-negative and finite"),
    ("train", "gamma"): ("gamma", _parse_float,
                         lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]"),
    ("train", "gae_lambda"): ("gae_lambda", _parse_float,
                              lambda x: 0.0 <= x <= 1.0, "must lie in [0, 1]"),
    ("train", "trajs_per_step"): ("trajs_per_step", _parse_int, _at_least_one,
                                  "must be at least 1"),
    ("train", "critic_lr"): ("critic_lr", _parse_float, _positive, "must be positive and finite"),
    ("train", "diag_every"): ("diag_every", _parse_int, _non_negative, "must be non-negative"),
    ("eval", "k"): ("eval_k", _parse_int, _at_least_one, "must be at least 1"),
    ("eval", "temperature"): ("eval_temperature", _parse_float, _positive,
                              "must be positive and finite"),
    ("eval", "top_p"): ("eval_top_p", _parse_float,
                        lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]"),
    ("eval", "prepend_greedy"): ("prepend_greedy", _parse_bool, None, ""),
}

_SECTIONS = {section for section, _ in _SCHEMA}
_SECTION_OF = {attr: section for (section, _), (attr, _, _, _) in _SCHEMA.items()}
_KEY_OF = {attr: key for (_, key), (attr, _, _, _) in _SCHEMA.items()}


def _cross_checks(cfg: RunConfig) -> None:
    if cfg.value_lo > cfg.value_hi:
        raise RangeError("task.value_lo", "lower bound exceeds upper bound")
    if cfg.task_kind is TaskKind.SUMPATH and cfg.max_part > cfg.value_hi:
        raise RangeError("task.max_part", "exceeds the largest representable number")


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file; an empty file yields all defaults."""
    cfg = RunConfig()
    section = ""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                if not line.endswith("]") or len(line) < 3:
                    raise ParseError(line_no, f"malformed section header: {line}")
                section = line[1:-1].strip()
                if section not in _SECTIONS:
                    raise UnknownKey(f"[{section}]")
                continue
            if "=" not in line:
                raise ParseError(line_no, f"expected 'key = value': {line}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            entry = _SCHEMA.get((section, key))
            if entry is None:
                dotted = f"{section}.{key}" if section else key
                raise UnknownKey(dotted)
            attr, parse, check, bound_msg = entry
            try:
                parsed = parse(value)
            except ValueError as exc:
                raise ParseError(line_no, f"{key}: {exc}") from None
            if check is not None and not check(parsed):
                dotted = f"{section}.{key}" if section else key
                raise RangeError(dotted, bound_msg)
            setattr(cfg, attr, parsed)
    _cross_checks(cfg)
    return cfg
