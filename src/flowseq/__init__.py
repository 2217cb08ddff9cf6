"""Desk-scale toolkit for training sequence policies to sample in proportion to a reward.

The trainer of interest fits a subtrajectory balance objective so that the
probability of a terminated sequence approaches R/Z; reward-maximizing
methods (SFT, RFT, DPO, PPO) are included for side-by-side comparison on the
same synthetic derivation tasks, all small enough for exact enumeration. Each name is imported from the
module that defines it; the package root holds only the version.
"""

__version__ = "0.1.0"
