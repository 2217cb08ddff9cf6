"""The three workloads. Each unit sets up from scratch, runs every phase, then checks and digests.

Every workload trains all five methods, evaluates each, and runs an exact
enumeration, because every end-to-end metric must carry a measured value on
every workload. What differs is the input property each one stresses:

* sumpath-tabular-train: the criterion-1 problem (1,555 terminals, bodies of
  at most 4 tokens) and a tabular policy. 1,500-step subTB trainings from
  scratch dominate, so per-step tape work and tabular table growth dominate;
  the baselines are small companions and enumeration is one exact L1 gap per
  training.
* arith-methods: the acceptance method suite on 200 ARITH problems with a
  neural policy, all methods from one shared SFT warm start. Autoregressive
  sampling dominates and no terminal enumeration can run; its exact phase
  scores every enumerated valid derivation under each method's policy instead.
* sumpath-cli-enumerate: the CLI pipeline, in process, on larger SUMPATH
  problems (16,105 terminals when the target is 4 or more). Exhaustive
  reading of a tabular policy dominates through `enumerate`.

The workload seed is the training and sampling seed (the `seed` of the
acceptance suite); problem sets stay the acceptance ones, so a seed changes
which trajectories are drawn but not how large the problems are. Where the
quality figures or the cost of a phase depend on which solutions one seed's
training settles on, a unit averages independent runs, as the acceptance
suite averages seeds. Phases are timed intervals; `wall_s` is their sum,
checks and digests excluded.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import shutil
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from flowseq import baselines as bl
from flowseq import env, evaluation
from flowseq import gflownet as gfn
from flowseq.cli import run_cli
from flowseq.core import TaskKind
from flowseq.env import TaskConfig, build_vocab
from flowseq.evaluation import EvalReport
from flowseq.policy import DecodeCfg, Policy, ValueNet, generation_log_probs, terminal_distribution

METHODS = ("sft", "rft", "dpo", "ppo", "gflownet")
HOT = DecodeCfg(temperature=1.0, top_p=1.0)
COOL = DecodeCfg(temperature=0.7, top_p=0.95)
WIDE = DecodeCfg(temperature=2.0, top_p=1.0)
EVAL_K = 8
EVAL_SEED = 99
MASS_TOL = 1e-9
L1_GATE = 0.05


class Unit:
    """Phase timings, quality figures, correctness checks and output digest of one unit."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.quality: dict[str, float] = {}
        self.checks: list[tuple[str, bool]] = []
        self._digest = hashlib.sha256()

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def phase(self, name: str):
        t0 = perf_counter()
        with self.span("bench." + name):
            yield
        self.intervals[name].append((t0, perf_counter()))
        # untimed: cyclic garbage left by one phase would otherwise set the next phase's peak
        # memory at a point that depends on where the collector happened to run; set-up, which
        # repeats up to thousands of times and leaves little, is skipped
        if name != "setup_s":
            gc.collect()

    def seconds(self, measure) -> dict[str, float]:
        """Total per phase, each interval converted by `measure(t0, t1)`."""
        return {name: sum(measure(a, b) for a, b in spans) for name, spans in self.intervals.items()}

    def check(self, what: str, ok: bool) -> None:
        self.checks.append((what, bool(ok)))

    def feed(self, label: str, data: bytes) -> None:
        self._digest.update(label.encode() + b"\0" + len(data).to_bytes(8, "little") + data)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _policy_bytes(policy: Policy) -> bytes:
    table = sorted(policy.contexts.items(), key=lambda item: item[1])
    return policy.params.astype("<f8").tobytes() + repr(table).encode()


def _finish_library(unit: Unit, runs: dict[str, list[tuple[Policy, EvalReport]]]) -> None:
    """Check and digest each method's trained policies and their reports; set the quality figures."""
    for m in METHODS:
        for i, (policy, report) in enumerate(runs[m]):
            label = f"{m}.{i}"
            passes = [report.pass_at[k] for k in range(1, report.k + 1)]
            unit.check(f"{label}: pass@k non-decreasing", all(a <= b for a, b in zip(passes, passes[1:])))
            unit.check(f"{label}: distinct_correct <= n_correct",
                       all(r.distinct_correct <= r.n_correct for r in report.rows))
            unit.feed(f"{label}.params", _policy_bytes(policy))
            unit.feed(f"{label}.eval", json.dumps(report.aggregate_dict(), sort_keys=True).encode())
            unit.feed(f"{label}.rows", repr([(r.greedy_correct, r.sample_correctness, r.distinct_correct)
                                             for r in report.rows]).encode())

    def mean(method: str, figure: str) -> float:
        return float(np.mean([getattr(report, figure) for _, report in runs[method]]))

    unit.quality["greedy_accuracy.gflownet"] = mean("gflownet", "greedy_accuracy")
    unit.quality["distinct_correct.gflownet"] = mean("gflownet", "mean_distinct_correct")
    unit.quality["distinct_correct.ppo"] = mean("ppo", "mean_distinct_correct")
    unit.feed("quality", repr(sorted(unit.quality.items())).encode())


class SumpathTabularTrain:
    """Criterion 1 at max_parts=4, twice, plus small tabular baselines on the same problem.

    The first GFlowNet training is criterion 1 itself (training seed 0): it
    carries the gate, L1 <= 0.05, and its gap is `l1_gap`. The second uses
    training seed seed+1, so the trajectories the subTB step works on change
    with the workload seed; its gap is digested but neither gated nor
    reported. Criterion 1 is promised at its acceptance seed only: at other
    training seeds the gap after 1,500 steps scatters from 0.029 to 0.063, so
    a gate on it would fail runs on the training's own noise, and a figure
    that includes it would spread across seeds nearly as far as its bound.
    RFT and DPO run as several short chains from the shared SFT warm start,
    because the cost of one chain depends on which solution it collapses onto.
    """

    name = "sumpath-tabular-train"
    task = TaskConfig(task_kind=TaskKind.SUMPATH, value_range=(2, 4), max_parts=4, max_part=2)
    gfn_steps = 1500
    sft_epochs = 1200
    rft_chains, rft_rounds = 8, 40
    dpo_chains, dpo_epochs = 4, 400
    ppo_steps = 300
    # one problem, so evaluation repeats it; every copy draws from its own (seed, index) stream
    eval_copies = 100

    def setup(self, unit: Unit, seed: int, workdir: Path) -> dict:
        vocab = build_vocab(self.task)
        problem = env.make_problem(self.task, seed=0)
        window = len(problem.prompt_tokens) + problem.max_solution_len
        return {
            "vocab": vocab,
            "problem": problem,
            "dataset": gfn.TrainSet.build([problem], self.task, vocab),
            "policies": [Policy.tabular(vocab, window=window) for _ in range(3)],
        }

    def run(self, unit: Unit, state: dict, seed: int, workdir: Path) -> None:
        vocab, problem, ds = state["vocab"], state["problem"], state["dataset"]
        *gfn_policies, warm = state["policies"]
        with unit.phase("train_s.gflownet"):
            for policy, training_seed in zip(gfn_policies, (0, seed + 1)):
                gfn.train_gflownet(policy, ds, gfn.GfnConfig(
                    steps=self.gfn_steps, batch_size=16, samples_per_problem=8, sft_coeff=0.0,
                    lr=0.08, decode=WIDE, seed=training_seed))
        with unit.phase("enumerate_s"):
            gaps = [gfn.terminal_l1_gap(policy, problem, self.task, vocab) for policy in gfn_policies]
        with unit.phase("train_s.sft"):
            bl.sft_train(warm, ds, epochs=self.sft_epochs,
                         cfg=bl.SftConfig(epochs=self.sft_epochs, lr=0.08, batch_size=None, seed=seed))
        rft = [warm.clone() for _ in range(self.rft_chains)]
        with unit.phase("train_s.rft"):
            for c, policy in enumerate(rft):
                for r in range(self.rft_rounds):
                    bl.rft_train(policy, ds, bl.RftConfig(
                        k=8, epochs=5, lr=0.08, batch_size=None, decode=HOT,
                        seed=(seed * self.rft_chains + c) * 100 + r))
        dpo = [warm.clone() for _ in range(self.dpo_chains)]
        with unit.phase("train_s.dpo"):
            for c, policy in enumerate(dpo):
                bl.dpo_train(policy, warm.clone(), ds, bl.DpoConfig(
                    beta=0.1, samples_per_problem=32, epochs=self.dpo_epochs, lr=0.08, batch_size=16,
                    decode=WIDE, seed=seed * self.dpo_chains + c))
        ppo = warm.clone()
        with unit.phase("train_s.ppo"):
            critic = ValueNet.for_policy(ppo, seed=seed)
            bl.ppo_train(ppo, critic, ds, bl.PpoConfig(
                steps=self.ppo_steps, trajs_per_step=8, actor_lr=0.05, critic_lr=0.1, kl_beta=0.05,
                decode=HOT, seed=seed))
        trained = {"sft": [warm], "rft": rft[:1], "dpo": dpo[:1], "ppo": [ppo], "gflownet": gfn_policies}
        with unit.phase("eval_s"):
            runs = {m: [(p, evaluation.evaluate(p, [problem] * self.eval_copies, vocab, k=EVAL_K,
                                                decode_cfg=HOT, seed=EVAL_SEED)) for p in policies]
                    for m, policies in trained.items()}

        unit.quality["l1_gap"] = float(gaps[0])
        unit.feed("l1_gaps", repr(gaps).encode())
        unit.check(f"gflownet.0: criterion 1, l1_gap {gaps[0]:.4f} <= {L1_GATE}", gaps[0] <= L1_GATE)
        for i, policy in enumerate(gfn_policies):
            mass = terminal_distribution(policy, problem).total_mass
            unit.check(f"gflownet.{i}: terminal mass {mass!r} sums to 1", abs(mass - 1.0) <= MASS_TOL)
        _finish_library(unit, runs)


class ArithMethods:
    """The acceptance method suite (criteria 4 and 5) with fewer rounds and steps.

    PPO and GFlowNet, whose evaluation figures are reported, train twice from
    the warm start (seeds 2*seed and 2*seed+1; seed 0 includes the acceptance
    seed) and the figures are averaged over both.
    """

    name = "arith-methods"
    task = TaskConfig(task_kind=TaskKind.ARITH, value_range=(2, 12), max_parts=2)
    n_problems = 200
    # the acceptance suite runs 10 RFT rounds, 1,200 PPO steps and 600 GFlowNet steps per seed
    rft_rounds = 1
    ppo_steps = 160
    gfn_steps = 80
    runs_per_reported_method = 2

    def setup(self, unit: Unit, seed: int, workdir: Path) -> dict:
        vocab = build_vocab(self.task)
        problems = [env.make_problem(self.task, seed=1000 + i) for i in range(self.n_problems)]
        return {
            "vocab": vocab,
            "problems": problems,
            "dataset": gfn.TrainSet.build(problems, self.task, vocab, max_refs=1),
            # every valid derivation, for the exact audit; the training set keeps one per problem
            "derivations": [env.enumerate_solutions(p, self.task, vocab) for p in problems],
            "policy": Policy.neural(vocab, window=10, embed_dim=16, hidden_dim=64, seed=0),
        }

    def run(self, unit: Unit, state: dict, seed: int, workdir: Path) -> None:
        vocab, problems, ds = state["vocab"], state["problems"], state["dataset"]
        warm = state["policy"]
        runs: dict[str, list[tuple[Policy, EvalReport]]] = defaultdict(list)
        reported_seeds = [self.runs_per_reported_method * seed + i for i in range(self.runs_per_reported_method)]

        def evaluate(method: str, policy: Policy) -> None:
            with unit.phase("eval_s"):
                report = evaluation.evaluate(policy, problems, vocab, k=EVAL_K, decode_cfg=HOT, seed=EVAL_SEED)
            runs[method].append((policy, report))

        with unit.phase("train_s.sft"):
            bl.sft_train(warm, ds, epochs=10, cfg=bl.SftConfig(epochs=10, lr=0.01, batch_size=32, seed=0))
        evaluate("sft", warm)
        policy = warm.clone()
        with unit.phase("train_s.rft"):
            for r in range(self.rft_rounds):
                bl.rft_train(policy, ds, bl.RftConfig(
                    k=8, epochs=5, lr=0.01, batch_size=32, decode=COOL, seed=seed * 100 + r))
        evaluate("rft", policy)
        policy = warm.clone()
        with unit.phase("train_s.dpo"):
            bl.dpo_train(policy, warm.clone(), ds, bl.DpoConfig(
                beta=0.1, samples_per_problem=8, epochs=3, lr=3e-3, batch_size=32, decode=COOL, seed=seed))
        evaluate("dpo", policy)
        for s in reported_seeds:
            policy = warm.clone()
            with unit.phase("train_s.ppo"):
                bl.ppo_train(policy, ValueNet.for_policy(policy), ds, bl.PpoConfig(
                    steps=self.ppo_steps, trajs_per_step=8, actor_lr=1e-3, critic_lr=3e-3, kl_beta=0.05,
                    decode=COOL, seed=s))
            evaluate("ppo", policy)
        for s in reported_seeds:
            policy = warm.clone()
            with unit.phase("train_s.gflownet"):
                gfn.train_gflownet(policy, ds, gfn.GfnConfig(
                    steps=self.gfn_steps, batch_size=16, samples_per_problem=8, sft_coeff=30.0,
                    subtb_lambda=0.1, lr=3e-4, decode=COOL, seed=s))
            evaluate("gflownet", policy)
        trained = [(f"{m}.{i}", policy) for m in METHODS for i, (policy, _) in enumerate(runs[m])]
        with unit.phase("enumerate_s"):
            masses = defaultdict(list)
            for problem, bodies in zip(problems, state["derivations"]):
                for label, policy in trained:
                    masses[label].append(self._sequence_probs(policy, problem, bodies))

        # Every enumerated derivation is valid and correct, so it earns reward exactly 1 and the
        # reward-proportional law restricted to them is uniform: l1_gap is the mean L1 distance
        # of a GFlowNet policy's conditional law on that set from uniform.
        gaps = [float(np.abs(p / p.sum() - 1.0 / p.size).sum())
                for label, _ in trained if label.startswith("gflownet.") for p in masses[label]]
        unit.quality["l1_gap"] = float(np.mean(gaps))
        for label, _ in trained:
            unit.check(f"{label}: mass on valid derivations <= 1",
                       all(p.sum() <= 1.0 + MASS_TOL for p in masses[label]))
            unit.feed(f"{label}.derivation_mass", repr([float(p.sum()) for p in masses[label]]).encode())
        _finish_library(unit, runs)

    @staticmethod
    def _sequence_probs(policy: Policy, problem, bodies) -> np.ndarray:
        """Exact probability of each terminated body, stop symbol included."""
        out = []
        for body in bodies:
            lp_tok, lp_stop = generation_log_probs(policy, problem.prompt_tokens, body)
            out.append(np.exp(lp_tok.sum() + lp_stop[len(body)]))
        return np.asarray(out)


CLI_CONFIG = """\
method = {method}
seed = 0

[task]
kind = sumpath
value_lo = 2
value_hi = 9
max_parts = 4
max_part = 3

[policy]
kind = tabular
window = 8

[data]
n_problems = {n_problems}
problems = ../problems.jsonl

[eval]
k = 64
temperature = 1.0
top_p = 1.0

[train]
"""

CLI_TRAIN = {
    "sft": "epochs = 60\nlr = 0.05\n",
    "rft": "sft_init_epochs = 10\nrft_k = 16\nepochs = 100\nlr = 0.05\ntemperature = 1.0\ntop_p = 1.0\n",
    # 10 warm-start epochs leave both correct and wrong samples on almost every problem, so nearly
    # every problem gives a preference pair and DPO's work hardly depends on the seed
    "dpo": "sft_init_epochs = 10\ndpo_samples = 16\ndpo_beta = 0.1\nepochs = 60\nlr = 0.05\n"
           "temperature = 1.0\ntop_p = 1.0\n",
    "ppo": "sft_init_epochs = 10\nsteps = 150\nlr = 0.05\ncritic_lr = 0.1\nkl_beta = 0.2\n"
           "temperature = 1.0\ntop_p = 1.0\n",
    "gflownet": "sft_init_epochs = 10\nsteps = 300\nsft_coeff = 1.0\nlr = 0.08\ntemperature = 2.0\ntop_p = 1.0\n",
}

CLI_OUTPUTS = ("policy.bin", "train_report.csv", "eval_aggregate.json", "eval_rows.csv")


def _cli(unit: Unit, *argv: str) -> None:
    with unit.span("cli." + argv[0]), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(list(argv))
    unit.check(f"flowseq {argv[0]} {argv[2]} exits 0 (got {code})", code == 0)


class SumpathCliEnumerate:
    """gen-data, then train and eval for every method, then enumerate the GFlowNet policy.

    Problems are generated once at the config seed; the workload seed goes to
    train, eval and enumerate through --seed.
    """

    name = "sumpath-cli-enumerate"
    n_problems = 20

    def setup(self, unit: Unit, seed: int, workdir: Path) -> dict:
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        for m in METHODS:
            # each out dir must exist for its ../problems.jsonl to resolve
            (workdir / m).mkdir()
            (workdir / f"{m}.cfg").write_text(
                CLI_CONFIG.format(method=m, n_problems=self.n_problems) + CLI_TRAIN[m])
        _cli(unit, "gen-data", "--config", str(workdir / "sft.cfg"), "--out", str(workdir / "data"))
        return {}

    def run(self, unit: Unit, state: dict, seed: int, workdir: Path) -> None:
        def args(m: str) -> tuple[str, ...]:
            return ("--config", str(workdir / f"{m}.cfg"), "--seed", str(seed), "--out", str(workdir / m))

        for m in METHODS:
            with unit.phase(f"train_s.{m}"):
                _cli(unit, "train", *args(m))
            with unit.phase("eval_s"):
                _cli(unit, "eval", *args(m))
        with unit.phase("enumerate_s"):
            _cli(unit, "enumerate", *args("gflownet"))

        gfn_dir = workdir / "gflownet"
        gaps = json.loads((gfn_dir / "enumeration.json").read_text())["problems"]
        mass: dict[str, float] = defaultdict(float)
        with open(gfn_dir / "enumeration.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                mass[row["problem_id"]] += float(row["policy_prob"])
        for pid, g in sorted(gaps.items()):
            total = mass[pid] + g["overflow"]
            unit.check(f"problem {pid}: policy_prob plus overflow {total!r} sums to 1",
                       abs(total - 1.0) <= MASS_TOL)
        unit.quality["l1_gap"] = float(np.mean([g["l1"] for g in gaps.values()]))

        aggregates = {}
        for m in METHODS:
            agg = aggregates[m] = json.loads((workdir / m / "eval_aggregate.json").read_text())
            passes = [agg["pass_at"][str(k)] for k in range(1, agg["k"] + 1)]
            unit.check(f"{m}: pass@k non-decreasing", all(a <= b for a, b in zip(passes, passes[1:])))
            with open(workdir / m / "eval_rows.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            unit.check(f"{m}: distinct_correct <= n_correct",
                       all(int(r["distinct_correct"]) <= int(r["n_correct"]) for r in rows))
        unit.quality["greedy_accuracy.gflownet"] = aggregates["gflownet"]["greedy_accuracy"]
        unit.quality["distinct_correct.gflownet"] = aggregates["gflownet"]["mean_distinct_correct"]
        unit.quality["distinct_correct.ppo"] = aggregates["ppo"]["mean_distinct_correct"]

        # the criterion-8 file set, per method
        unit.feed("problems.jsonl", (workdir / "problems.jsonl").read_bytes())
        for m in METHODS:
            for name in CLI_OUTPUTS:
                unit.feed(f"{m}/{name}", (workdir / m / name).read_bytes())
        for name in ("enumeration.csv", "enumeration.json"):
            unit.feed(f"gflownet/{name}", (gfn_dir / name).read_bytes())


WORKLOADS = {w.name: w for w in (SumpathTabularTrain(), ArithMethods(), SumpathCliEnumerate())}
