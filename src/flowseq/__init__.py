"""Desk-scale toolkit for training sequence policies to sample in proportion to a reward.

The trainer of interest fits a subtrajectory balance objective so that the
probability of a terminated sequence approaches R/Z; reward-maximizing
methods (SFT, RFT, DPO, PPO) are included for side-by-side comparison on the
same synthetic derivation tasks, all small enough for exact enumeration.
"""

from .autodiff import AdamState, GradTape, Var, adam_step, finite_diff_check, grad
from .baselines import (
    DpoConfig,
    PpoConfig,
    PreferencePair,
    RftConfig,
    SftConfig,
    dpo_train,
    gae_advantages,
    ppo_train,
    rft_select,
    rft_train,
    sft_train,
)
from .config import Method, RunConfig, load_config
from .core import (
    Problem,
    Solution,
    TaskKind,
    Trajectory,
    Vocab,
    decode,
    encode,
    make_vocab,
)
from .env import (
    RewardMode,
    StepVerdict,
    TaskConfig,
    build_vocab,
    enumerate_solutions,
    enumerate_terminals,
    make_problem,
    reward,
    verify_prefix,
)
from .evaluation import (
    EvalReport,
    distinct_correct_count,
    evaluate,
    pass_at_k,
    rouge_l,
)
from .gflownet import (
    GfnConfig,
    TrainReport,
    TrainSet,
    train_gflownet,
)
from .policy import (
    DecodeCfg,
    Policy,
    PolicyKind,
    ValueNet,
    greedy_decode,
    load_policy,
    save_policy,
    terminal_distribution,
)

__version__ = "0.1.0"
