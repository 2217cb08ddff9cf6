"""Run configuration: a line-based ``key = value`` format with bracketed sections.

Each ``[section]`` is a dataclass whose field names are its keys, and a value
parses by its field's type. Unknown sections or keys, a key set twice, and
empty or malformed values are hard errors, so a typo cannot silently fall back.
Range rules are the typed configs' own (TaskConfig, DecodeCfg, the trainer
configs); RunConfig.check builds each once and names the key of the first value
one rejects. The resolved config is what lands in run_meta.json, and re-running
from those values reproduces a run byte for byte.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, get_type_hints

from .baselines import DpoConfig, PpoConfig, RftConfig, SftConfig
from .core import SettingError, TaskKind
from .env import RewardMode, TaskConfig
from .gflownet import GfnConfig
from .policy import DecodeCfg, PolicyKind


class ConfigError(Exception):
    """Base class for configuration problems; the CLI maps these to exit 2."""


class ParseError(ConfigError):
    """A line that is neither a section header nor ``key = value``, an unknown or repeated key, or a mistyped value."""


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
class TaskSection:
    kind: TaskKind = TaskKind.SUMPATH
    value_lo: int = 2
    value_hi: int = 9
    max_parts: int = 4
    max_part: int = 3
    reward_floor: float = 1e-4
    reward_mode: RewardMode = RewardMode.SHAPED


@dataclass
class PolicySection:
    kind: PolicyKind = PolicyKind.TABULAR
    window: int = 3
    embed_dim: int = 16
    hidden_dim: int = 64


@dataclass
class DataSection:
    n_problems: int = 50
    problems: str = "problems.jsonl"
    checkpoint: str = "policy.bin"


@dataclass
class TrainSection:
    steps: int = 200
    batch_size: int = 16
    samples_per_problem: int = 8
    sft_coeff: float = 30.0
    subtb_lambda: float = 1.0
    horizon_coeff: float = 1.0
    lr: float = 1e-3
    replay: int = 1000
    temperature: float = 0.6
    top_p: float = 0.9
    max_new_tokens: int = 0  # 0: derived from the task
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


@dataclass
class EvalSection:
    k: int = 8
    temperature: float = 0.6
    top_p: float = 0.9
    prepend_greedy: bool = False


# the typed config each method trains with, and the [train] key of each field whose name differs from it
_TRAINERS: dict[Method, tuple[type, dict[str, str]]] = {
    Method.SFT: (SftConfig, {}),
    Method.RFT: (RftConfig, {"k": "rft_k"}),
    Method.DPO: (DpoConfig, {"beta": "dpo_beta", "samples_per_problem": "dpo_samples"}),
    Method.PPO: (PpoConfig, {"clip": "ppo_clip", "actor_lr": "lr"}),
    Method.GFLOWNET: (GfnConfig, {"buffer_capacity": "replay"}),
}
# the supervised epochs every other method starts from
_WARM_START = (SftConfig, {"epochs": "sft_init_epochs"})
_TASK_KEYS = {"task_kind": "kind", "value_range[0]": "value_lo", "value_range[1]": "value_hi"}
# the keys that feed no typed config at load, so their rule lives here
_AT_LEAST_ONE = ("policy.window", "policy.embed_dim", "policy.hidden_dim", "data.n_problems", "eval.k")


@dataclass
class RunConfig:
    """All knobs of one run, resolved to concrete values: the top-level keys, then one field per section."""

    method: Method = Method.GFLOWNET
    seed: int = 0
    out: str = "out"
    task: TaskSection = field(default_factory=TaskSection)
    policy: PolicySection = field(default_factory=PolicySection)
    data: DataSection = field(default_factory=DataSection)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def task_config(self) -> TaskConfig:
        t = self.task
        return TaskConfig(task_kind=t.kind, value_range=(t.value_lo, t.value_hi), max_parts=t.max_parts,
                          max_part=t.max_part, reward_floor=t.reward_floor, reward_mode=t.reward_mode)

    def decode(self, section: str) -> DecodeCfg:
        """The sampling settings of [train] or [eval]; both take train.max_new_tokens (0: task-derived)."""
        s = getattr(self, section)
        return DecodeCfg(temperature=s.temperature, top_p=s.top_p, max_new_tokens=self.train.max_new_tokens or None)

    def trainer_config(self, method: Method):
        """The typed config method trains with."""
        return self._from_train(*_TRAINERS[method])

    def warm_start(self) -> SftConfig:
        """The typed config of the supervised epochs that precede every method but SFT."""
        return self._from_train(*_WARM_START)

    def _from_train(self, cls: type, renames: dict[str, str]):
        """cls built from the [train] keys its fields name, with the run's seed and decode("train")."""
        shared = {"seed": self.seed, "decode": self.decode("train")}
        return cls(**{f.name: shared[f.name] if f.name in shared else getattr(self.train, renames.get(f.name, f.name))
                      for f in fields(cls)})

    def check(self) -> None:
        """Build every typed config the values feed, once; RangeError names the key of the first value rejected."""
        if self.seed < 0:
            raise RangeError("seed", f"must be non-negative, got {self.seed}")
        for key in _AT_LEAST_ONE:
            section, name = key.split(".")
            value = getattr(getattr(self, section), name)
            if value < 1:
                raise RangeError(key, f"must be at least 1, got {value}")
        _keyed("task", _TASK_KEYS, self.task_config)
        # train's goes first, so a bad max_new_tokens is named train.max_new_tokens
        for section in ("train", "eval"):
            _keyed(section, {}, self.decode, section)
        for method, (_, renames) in _TRAINERS.items():
            _keyed("train", renames, self.trainer_config, method)
        if self.train.sft_init_epochs:  # a negative count too, which the warm start's SftConfig rejects
            _keyed("train", _WARM_START[1], self.warm_start)

    def resolve_path(self, name: str) -> Path:
        p = Path(name)
        return p if p.is_absolute() else Path(self.out) / p

    def to_dict(self) -> dict:
        """Nested JSON-ready view, sections mirroring the config file layout."""
        return asdict(self, dict_factory=lambda items: {k: v.value if isinstance(v, Enum) else v for k, v in items})


def _keyed(section: str, renames: dict[str, str], build: Callable[..., object], *args: object) -> None:
    """build(*args), with a typed config's SettingError raised again as the RangeError of the key it came from."""
    try:
        build(*args)
    except SettingError as exc:
        raise RangeError(f"{section}.{renames.get(exc.field, exc.field)}", str(exc)) from None


# section name ("" for the top level) -> key -> the type its value parses to
_KEYS = {name: get_type_hints(kind) for name, kind in get_type_hints(RunConfig).items() if is_dataclass(kind)}
_KEYS[""] = {name: kind for name, kind in get_type_hints(RunConfig).items() if name not in _KEYS}


def _parse(kind: type, text: str):
    if not text:
        raise ValueError("missing value")
    low = text.lower()
    if kind is bool:
        if low in ("true", "yes", "1", "false", "no", "0"):
            return low in ("true", "yes", "1")
        raise ValueError(f"not a boolean: {text}")
    if issubclass(kind, Enum):
        for member in kind:
            if member.value.lower() == low:
                return member
        raise ValueError(f"expected one of: {', '.join(e.value.lower() for e in kind)}")
    return int(text, 10) if kind is int else kind(text)


def read_config(path: str | Path) -> RunConfig:
    """Parse a config file by the types of its keys' fields, ranges unchecked; an empty file yields all defaults."""
    cfg = RunConfig()
    section = ""
    first_line: dict[str, int] = {}  # dotted key -> the line that set it
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                section = line[1:-1].strip()
                if not line.endswith("]") or not section:
                    raise ParseError(f"line {line_no}: malformed section header: {line}")
                if section not in _KEYS:
                    raise ParseError(f"line {line_no}: unknown key: [{section}]")
                continue
            if "=" not in line:
                raise ParseError(f"line {line_no}: expected 'key = value': {line}")
            key, _, value = (part.strip() for part in line.partition("="))
            dotted = f"{section}.{key}" if section else key
            if key not in _KEYS[section]:
                raise ParseError(f"line {line_no}: unknown key: {dotted}")
            if dotted in first_line:
                raise ParseError(f"line {line_no}: {dotted} is set again; line {first_line[dotted]} set it first")
            first_line[dotted] = line_no
            try:
                setattr(getattr(cfg, section) if section else cfg, key, _parse(_KEYS[section][key], value))
            except ValueError as exc:
                raise ParseError(f"line {line_no}: {dotted}: {exc}") from None
    return cfg


def load_config(path: str | Path) -> RunConfig:
    """Parse a config file, then check it; every parse error is reported before any range error."""
    cfg = read_config(path)
    cfg.check()
    return cfg
